//! Core-tree serialization for the persistent incremental cache.
//!
//! A cached form's expansion must be rehydrated **with its source objects
//! intact** — the printed source-to-source expansion loses them, and a core
//! tree whose profile points drifted would be silently mis-profiled. So
//! cache persistence writes [`Core`] trees as s-expressions carrying every
//! node's [`SourceObject`] verbatim ([`write_core`]), and decodes them in
//! one pass over a [`Cursor`] ([`read_core`]) — no intermediate datum tree.
//!
//! Each node is `(tag <src> …)` where `<src>` is `#f` or
//! `(<file> bfp efp)`, with `<file>` an integer index into the session's
//! shared [`StringTable`] (global names are indices too). Trees containing
//! [`CoreKind::SyntaxConst`] nodes are **not serializable** — a residual
//! syntax object carries hygiene state with no stable textual form — and
//! [`StringTable::intern_core`] reports them; callers skip persisting such
//! forms (they simply re-expand on warm start, which is sound, just
//! slower).

use crate::core_expr::{Core, CoreKind, LambdaDef};
use pgmp_reader::{Atom, Cursor, Event, ReadError};
use pgmp_syntax::{Datum, SourceObject, StrLit, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Interns the file names and global symbols of one session's core trees.
///
/// Source objects annotate nearly every core node, and their file-name
/// component is drawn from a handful of distinct strings; likewise global
/// references repeat the same few names. Serializing each occurrence
/// verbatim bloats session files and — worse — costs a string allocation
/// plus a symbol-intern per node on the warm-start parse. A session-wide
/// string table writes each distinct string once and each occurrence as an
/// integer index.
#[derive(Debug, Default)]
pub struct StringTable {
    syms: Vec<Symbol>,
    index: HashMap<Symbol, usize>,
}

impl StringTable {
    /// Creates an empty table.
    pub fn new() -> StringTable {
        StringTable::default()
    }

    /// Returns `s`'s index, assigning the next free one on first sight.
    pub fn intern(&mut self, s: Symbol) -> usize {
        if let Some(&i) = self.index.get(&s) {
            return i;
        }
        let i = self.syms.len();
        self.syms.push(s);
        self.index.insert(s, i);
        i
    }

    /// The interned symbols, in index order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.syms
    }

    /// True iff nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Interns every file name and global symbol of `core`, children
    /// before their node's own source — the order in which session files
    /// have always numbered their string tables. Returns false if the tree
    /// holds a [`CoreKind::SyntaxConst`] (not persistable); what precedes
    /// it in that order stays interned.
    pub fn intern_core(&mut self, core: &Core) -> bool {
        let ok = match &core.kind {
            CoreKind::SyntaxConst(_) => return false,
            CoreKind::Const(_) | CoreKind::LocalRef { .. } => true,
            CoreKind::GlobalRef(name) => {
                self.intern(*name);
                true
            }
            CoreKind::SetLocal { value, .. } => self.intern_core(value),
            CoreKind::SetGlobal(name, value) | CoreKind::DefineGlobal(name, value) => {
                self.intern(*name);
                self.intern_core(value)
            }
            CoreKind::If(c, t, e) => {
                self.intern_core(c) && self.intern_core(t) && self.intern_core(e)
            }
            CoreKind::Lambda(def) => {
                if let Some(name) = def.name {
                    self.intern(name);
                }
                self.intern_src(&def.src);
                self.intern_core(&def.body)
            }
            CoreKind::Call { func, args } => {
                self.intern_core(func) && args.iter().all(|a| self.intern_core(a))
            }
            CoreKind::Seq(es) => es.iter().all(|e| self.intern_core(e)),
            CoreKind::Let { inits, body } | CoreKind::LetRec { inits, body } => {
                inits.iter().all(|e| self.intern_core(e)) && self.intern_core(body)
            }
        };
        if ok {
            self.intern_src(&core.src);
        }
        ok
    }

    fn intern_src(&mut self, src: &Option<SourceObject>) {
        if let Some(p) = src {
            self.intern(p.file);
        }
    }
}

/// Writes a symbol as its table index — or, if `table` lacks it, as the
/// verbatim string, which every decoder also accepts.
fn write_sym(out: &mut String, table: &StringTable, s: Symbol) {
    match table.index.get(&s) {
        Some(i) => {
            let _ = write!(out, "{i}");
        }
        None => {
            let _ = write!(out, "{}", StrLit(s.as_str()));
        }
    }
}

fn write_src(out: &mut String, table: &StringTable, src: &Option<SourceObject>) {
    match src {
        None => out.push_str("#f"),
        Some(p) => {
            out.push('(');
            write_sym(out, table, p.file);
            let _ = write!(out, " {} {})", p.bfp, p.efp);
        }
    }
}

/// Writes `core` to `out` in the session's core-tree notation, symbols as
/// indices into `table` (fill it first with [`StringTable::intern_core`]).
/// The text is what printing the node as a datum list gives, byte for
/// byte.
///
/// # Panics
///
/// On a [`CoreKind::SyntaxConst`] node: check the tree with
/// [`StringTable::intern_core`] first, which rejects those.
pub fn write_core(core: &Core, table: &StringTable, out: &mut String) {
    let tag = match &core.kind {
        CoreKind::Const(_) => "const",
        CoreKind::SyntaxConst(_) => {
            unreachable!("write_core on a SyntaxConst tree, which intern_core rejects")
        }
        CoreKind::LocalRef { .. } => "lref",
        CoreKind::GlobalRef(_) => "gref",
        CoreKind::SetLocal { .. } => "setl",
        CoreKind::SetGlobal(..) => "setg",
        CoreKind::If(..) => "if",
        CoreKind::Lambda(_) => "lambda",
        CoreKind::Call { .. } => "call",
        CoreKind::Seq(_) => "seq",
        CoreKind::Let { .. } => "let",
        CoreKind::LetRec { .. } => "letrec",
        CoreKind::DefineGlobal(..) => "defg",
    };
    out.push('(');
    out.push_str(tag);
    out.push(' ');
    write_src(out, table, &core.src);
    let child = |out: &mut String, c: &Core| {
        out.push(' ');
        write_core(c, table, out);
    };
    match &core.kind {
        CoreKind::Const(d) => {
            let _ = write!(out, " {d}");
        }
        CoreKind::LocalRef { depth, index } => {
            let _ = write!(out, " {depth} {index}");
        }
        CoreKind::GlobalRef(name) => {
            out.push(' ');
            write_sym(out, table, *name);
        }
        CoreKind::SetLocal {
            depth,
            index,
            value,
        } => {
            let _ = write!(out, " {depth} {index}");
            child(out, value);
        }
        CoreKind::SetGlobal(name, value) | CoreKind::DefineGlobal(name, value) => {
            out.push(' ');
            write_sym(out, table, *name);
            child(out, value);
        }
        CoreKind::If(c, t, e) => {
            child(out, c);
            child(out, t);
            child(out, e);
        }
        CoreKind::Lambda(def) => {
            let _ = write!(out, " {} {} ", def.params, Datum::Bool(def.variadic));
            match def.name {
                Some(n) => write_sym(out, table, n),
                None => out.push_str("#f"),
            }
            out.push(' ');
            write_src(out, table, &def.src);
            child(out, &def.body);
        }
        CoreKind::Call { func, args } => {
            child(out, func);
            args.iter().for_each(|a| child(out, a));
        }
        CoreKind::Seq(es) => es.iter().for_each(|e| child(out, e)),
        CoreKind::Let { inits, body } | CoreKind::LetRec { inits, body } => {
            out.push_str(" (");
            for (i, e) in inits.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_core(e, table, out);
            }
            out.push(')');
            child(out, body);
        }
        CoreKind::SyntaxConst(_) => {}
    }
    out.push(')');
}

/// A symbol reference: a verbatim string, or an index into `table`.
fn sym_of(c: &Cursor<'_>, a: Atom<'_>, table: &[Symbol], what: &str) -> Result<Symbol, ReadError> {
    if let Some(s) = a.string() {
        return Ok(Symbol::intern(&s));
    }
    a.int()
        .and_then(|i| usize::try_from(i).ok())
        .and_then(|i| table.get(i).copied())
        .ok_or_else(|| c.error(format!("{what}: expected string or string-table index")))
}

fn sym_ref(c: &mut Cursor<'_>, table: &[Symbol], what: &str) -> Result<Symbol, ReadError> {
    let a = c.atom(what)?;
    sym_of(c, a, table, what)
}

fn read_src(c: &mut Cursor<'_>, table: &[Symbol]) -> Result<Option<SourceObject>, ReadError> {
    match c.next()? {
        Some(Event::Atom(Atom::Bool(false))) => Ok(None),
        Some(Event::Open) => {
            let file = sym_ref(c, table, "source file")?;
            let bfp = c.u32("source position")?;
            let efp = c.u32("source position")?;
            c.close("source object")?;
            Ok(Some(SourceObject { file, bfp, efp }))
        }
        _ => Err(c.error("bad source object")),
    }
}

fn read_u16(c: &mut Cursor<'_>, what: &str) -> Result<u16, ReadError> {
    let a = c.atom(what)?;
    a.int()
        .and_then(|n| u16::try_from(n).ok())
        .ok_or_else(|| c.error(format!("bad {what}")))
}

/// Reads the next node of the current list.
fn child(c: &mut Cursor<'_>, table: &[Symbol]) -> Result<Rc<Core>, ReadError> {
    match c.item("core node")? {
        Some(ev) => read_core(c, ev, table),
        None => Err(c.error("core node too short")),
    }
}

/// Reads nodes up to the current list's close.
fn children(c: &mut Cursor<'_>, table: &[Symbol]) -> Result<Vec<Rc<Core>>, ReadError> {
    let mut out = Vec::new();
    while let Some(ev) = c.item("core node")? {
        out.push(read_core(c, ev, table)?);
    }
    Ok(out)
}

/// Decodes the core tree whose first event, `first`, `c` just returned,
/// resolving integer symbol references against `table` (the string table
/// the tree was written with); verbatim strings are accepted too.
///
/// # Errors
///
/// A [`ReadError`] at the offending byte for any syntax error or
/// structural mismatch — corrupt session files surface as typed load
/// errors, never panics. Positions must lie in `[0, 2^32)`.
pub fn read_core<'a>(
    c: &mut Cursor<'a>,
    first: Event<'a>,
    table: &[Symbol],
) -> Result<Rc<Core>, ReadError> {
    if first != Event::Open {
        return Err(c.error("core node must be a list"));
    }
    let tag = c.sym("core tag")?;
    let src = read_src(c, table)?;
    let kind = match tag {
        "const" => {
            let value = match c.item("const")? {
                Some(ev) => c.datum(ev)?,
                None => return Err(c.error("const needs a value")),
            };
            CoreKind::Const(value)
        }
        "lref" => CoreKind::LocalRef {
            depth: read_u16(c, "depth")?,
            index: read_u16(c, "index")?,
        },
        "gref" => CoreKind::GlobalRef(sym_ref(c, table, "global name")?),
        "setl" => CoreKind::SetLocal {
            depth: read_u16(c, "depth")?,
            index: read_u16(c, "index")?,
            value: child(c, table)?,
        },
        "setg" => CoreKind::SetGlobal(sym_ref(c, table, "global name")?, child(c, table)?),
        "if" => CoreKind::If(child(c, table)?, child(c, table)?, child(c, table)?),
        "lambda" => {
            let params = read_u16(c, "param count")?;
            let variadic = match c.atom("variadic flag")? {
                Atom::Bool(b) => b,
                _ => return Err(c.error("bad variadic flag")),
            };
            let name = match c.atom("lambda name")? {
                Atom::Bool(false) => None,
                a => Some(sym_of(c, a, table, "lambda name")?),
            };
            CoreKind::Lambda(Rc::new(LambdaDef {
                params,
                variadic,
                name,
                src: read_src(c, table)?,
                body: child(c, table)?,
            }))
        }
        "call" => CoreKind::Call {
            func: child(c, table)?,
            args: children(c, table)?,
        },
        "seq" => CoreKind::Seq(children(c, table)?),
        "let" | "letrec" => {
            c.open("let inits")?;
            let inits = children(c, table)?;
            let body = child(c, table)?;
            if tag == "let" {
                CoreKind::Let { inits, body }
            } else {
                CoreKind::LetRec { inits, body }
            }
        }
        "defg" => CoreKind::DefineGlobal(sym_ref(c, table, "global name")?, child(c, table)?),
        other => return Err(c.error(format!("unknown core node `{other}`"))),
    };
    // `call` and `seq` read their children up to the close.
    if !matches!(kind, CoreKind::Call { .. } | CoreKind::Seq(_)) {
        c.close(tag)?;
    }
    Ok(Core::rc(kind, src))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn konst(n: i64) -> Rc<Core> {
        Core::rc(CoreKind::Const(Datum::Int(n)), None)
    }

    fn p(n: u32) -> SourceObject {
        SourceObject::new("s.scm", n, n + 1)
    }

    fn write(core: &Core, table: &mut StringTable) -> String {
        assert!(table.intern_core(core), "serializable");
        let mut out = String::new();
        write_core(core, table, &mut out);
        out
    }

    fn read(text: &str, table: &[Symbol]) -> Result<Rc<Core>, ReadError> {
        let mut c = Cursor::new(text, "<core>");
        let first = c.next()?.ok_or_else(|| c.error("empty"))?;
        let core = read_core(&mut c, first, table)?;
        match c.next()? {
            None => Ok(core),
            Some(_) => Err(c.error("trailing input")),
        }
    }

    fn round_trip(core: &Core) -> Rc<Core> {
        let mut table = StringTable::new();
        let text = write(core, &mut table);
        read(&text, table.symbols()).expect("deserializable")
    }

    #[test]
    fn atoms_round_trip() {
        for core in [
            Core::new(CoreKind::Const(Datum::Int(42)), Some(p(0))),
            Core::new(CoreKind::Const(Datum::sym("x")), None),
            Core::new(
                CoreKind::Const(Datum::improper_list(
                    vec![Datum::string("a\"b"), Datum::Char(' ')],
                    Datum::Vector(vec![Datum::Float(1.5)].into()),
                )),
                None,
            ),
            Core::new(CoreKind::LocalRef { depth: 2, index: 7 }, Some(p(3))),
            Core::new(CoreKind::GlobalRef(Symbol::intern("g")), None),
        ] {
            assert_eq!(*round_trip(&core), core);
        }
    }

    fn lambda() -> Core {
        Core::new(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 2,
                variadic: true,
                body: Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), Some(p(9))),
                name: Some(Symbol::intern("f")),
                src: Some(p(1)),
            })),
            Some(p(0)),
        )
    }

    #[test]
    fn compound_nodes_round_trip() {
        let lam = lambda();
        assert_eq!(*round_trip(&lam), lam);
        let letrec = Core::new(
            CoreKind::LetRec {
                inits: vec![konst(1), lam.clone().into()],
                body: Core::rc(
                    CoreKind::Call {
                        func: Core::rc(CoreKind::LocalRef { depth: 0, index: 1 }, None),
                        args: vec![konst(5), konst(6)],
                    },
                    Some(p(4)),
                ),
            },
            None,
        );
        assert_eq!(*round_trip(&letrec), letrec);
        let empty = Core::new(
            CoreKind::Let {
                inits: vec![],
                body: Core::rc(CoreKind::Seq(vec![]), None),
            },
            None,
        );
        assert_eq!(*round_trip(&empty), empty);
    }

    #[test]
    fn symbols_are_indices_numbered_children_first() {
        let defg = Core::new(
            CoreKind::DefineGlobal(Symbol::intern("f"), lambda().into()),
            Some(SourceObject::new("top.scm", 0, 9)),
        );
        let mut table = StringTable::new();
        let text = write(&defg, &mut table);
        // Every symbol and file name became an index: no string literals.
        assert!(!text.contains('"'), "interned tree: {text}");
        // "f" (the global, then the lambda's name), "s.scm" (the lambda's
        // source, then its body's), and the define's own file last.
        let names: Vec<&str> = table.symbols().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["f", "s.scm", "top.scm"]);
        assert_eq!(*read(&text, table.symbols()).unwrap(), defg);
        // Verbatim strings decode too.
        let verbatim = text.replacen("(defg (2 0 9) 0", "(defg (\"top.scm\" 0 9) \"f\"", 1);
        assert_eq!(*read(&verbatim, table.symbols()).unwrap(), defg);
        // An out-of-range index is a typed error, not a panic.
        assert!(read("(gref #f 99)", table.symbols()).is_err());
    }

    #[test]
    fn syntax_const_is_not_serializable() {
        use pgmp_syntax::Syntax;
        let core = Core::new(CoreKind::SyntaxConst(Rc::new(Syntax::ident("x", None))), None);
        let mut table = StringTable::new();
        assert!(!table.intern_core(&core));
        // …even nested, after interning what precedes it.
        let seq = Core::new(
            CoreKind::Seq(vec![
                Core::rc(CoreKind::GlobalRef(Symbol::intern("before")), None),
                Rc::new(core),
            ]),
            Some(p(0)),
        );
        assert!(!table.intern_core(&seq));
        let names: Vec<&str> = table.symbols().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["before"]);
    }

    #[test]
    fn corrupt_trees_error_without_panic() {
        for bad in [
            "()",
            "(mystery #f)",
            "(lref #f 1)",
            "(lref #f -1 0)",
            "(lref #f 99999999 0)",
            "(if #f (const #f 1) (const #f 2))",
            "(if #f (const #f 1) (const #f 2) (const #f 3) (const #f 4))",
            "(const (\"f\" -1 2) 5)",
            "(const (\"f\" 4294967296 2) 5)",
            "(const #f)",
            "(lambda #f 1 nope #f #f (const #f 1))",
            "(lambda #f 1 #f #t #f (const #f 1))",
            "(let #f x (const #f 1))",
            "(call #f . (const #f 1))",
            "(seq #f (const #f 1) . 2)",
            "(const #f 1",
        ] {
            assert!(read(bad, &[]).is_err(), "should reject {bad}");
        }
    }
}
