//! The reference model for the session codec: the pre-cursor writer,
//! which builds a [`Datum`] tree per entry and prints it, and the
//! pre-cursor decoder, which reads the whole file with [`read_datums`]
//! and pattern-matches cloned element lists (core trees included).
//! Test-only; the differential oracle holds the streaming codec to it.

use super::{FormRecord, StoredForm, StoredSession};
use crate::api::ProfileReadLog;
use pgmp_eval::{Core, CoreKind, LambdaDef, StringTable};
use pgmp_profiler::{ProfileInformation, ProfileStoreError};
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceFactory, SourceObject, Symbol};
use std::fmt::Write as _;
use std::rc::Rc;

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

/// Renders a session the pre-cursor way; the same contract as
/// [`super::write_session`].
pub(crate) fn write_session(
    file: &str,
    weights: &ProfileInformation,
    forms: &[FormRecord],
) -> (String, usize) {
    let mut table = StringTable::new();
    let mut rendered = Vec::new();
    for f in forms {
        let cores: Option<Vec<Datum>> = f.cores.iter().map(|c| to_datum(c, &mut table)).collect();
        let Some(cores) = cores else { continue };
        rendered.push(form_entry_string(
            f.index,
            f.hash,
            f.meta,
            f.reads,
            f.fpre,
            f.fpost,
            f.expansion,
            &cores,
            &f.chunk_ids,
            f.snapshot,
        ));
    }
    let saved = rendered.len();
    (
        session_string(file, weights, table.symbols(), &rendered),
        saved,
    )
}

/// Encoding policy for symbols embedded in serialized core nodes.
trait SymSink {
    fn sym(&mut self, s: Symbol) -> Datum;
}

impl SymSink for StringTable {
    fn sym(&mut self, s: Symbol) -> Datum {
        Datum::Int(self.intern(s) as i64)
    }
}

/// Decoding counterpart of [`SymSink`]. Both decoders accept verbatim
/// strings; table indices additionally require a table.
struct SymTab<'a>(&'a [Symbol]);

impl SymTab<'_> {
    fn sym(&self, d: &Datum) -> Result<Symbol, String> {
        match d {
            Datum::Str(s) => Ok(Symbol::intern(s)),
            Datum::Int(i) => usize::try_from(*i)
                .ok()
                .and_then(|i| self.0.get(i).copied())
                .ok_or_else(|| format!("string-table index {i} out of range")),
            other => Err(format!("expected symbol-as-string or index, got {other}")),
        }
    }
}

fn src_to_datum<E: SymSink>(src: &Option<SourceObject>, enc: &mut E) -> Datum {
    match src {
        None => Datum::Bool(false),
        Some(p) => Datum::list(vec![
            enc.sym(p.file),
            Datum::Int(p.bfp as i64),
            Datum::Int(p.efp as i64),
        ]),
    }
}

fn src_from_datum(d: &Datum, tab: &SymTab) -> Result<Option<SourceObject>, String> {
    match d {
        Datum::Bool(false) => Ok(None),
        _ => match d.list_elems().as_deref() {
            Some([file, Datum::Int(bfp), Datum::Int(efp)]) => {
                match (u32::try_from(*bfp), u32::try_from(*efp)) {
                    (Ok(bfp), Ok(efp)) => Ok(Some(SourceObject {
                        file: tab.sym(file)?,
                        bfp,
                        efp,
                    })),
                    _ => Err(format!("bad source object {d}")),
                }
            }
            _ => Err(format!("bad source object {d}")),
        },
    }
}

fn node<E: SymSink>(tag: &str, src: &Option<SourceObject>, enc: &mut E, rest: Vec<Datum>) -> Datum {
    let mut elems = vec![Datum::sym(tag), src_to_datum(src, enc)];
    elems.extend(rest);
    Datum::list(elems)
}

fn to_datum<E: SymSink>(core: &Core, enc: &mut E) -> Option<Datum> {
    let kind = match &core.kind {
        CoreKind::Const(d) => node("const", &core.src, enc, vec![d.clone()]),
        CoreKind::SyntaxConst(_) => return None,
        CoreKind::LocalRef { depth, index } => node(
            "lref",
            &core.src,
            enc,
            vec![Datum::Int(*depth as i64), Datum::Int(*index as i64)],
        ),
        CoreKind::GlobalRef(name) => {
            let name = enc.sym(*name);
            node("gref", &core.src, enc, vec![name])
        }
        CoreKind::SetLocal {
            depth,
            index,
            value,
        } => {
            let value = to_datum(value, enc)?;
            node(
                "setl",
                &core.src,
                enc,
                vec![Datum::Int(*depth as i64), Datum::Int(*index as i64), value],
            )
        }
        CoreKind::SetGlobal(name, value) => {
            let rest = vec![enc.sym(*name), to_datum(value, enc)?];
            node("setg", &core.src, enc, rest)
        }
        CoreKind::If(c, t, e) => {
            let rest = vec![to_datum(c, enc)?, to_datum(t, enc)?, to_datum(e, enc)?];
            node("if", &core.src, enc, rest)
        }
        CoreKind::Lambda(def) => {
            let name = match def.name {
                Some(n) => enc.sym(n),
                None => Datum::Bool(false),
            };
            let lsrc = src_to_datum(&def.src, enc);
            let body = to_datum(&def.body, enc)?;
            node(
                "lambda",
                &core.src,
                enc,
                vec![
                    Datum::Int(def.params as i64),
                    Datum::Bool(def.variadic),
                    name,
                    lsrc,
                    body,
                ],
            )
        }
        CoreKind::Call { func, args } => {
            let mut rest = vec![to_datum(func, enc)?];
            for a in args {
                rest.push(to_datum(a, enc)?);
            }
            node("call", &core.src, enc, rest)
        }
        CoreKind::Seq(es) => {
            let rest: Option<Vec<Datum>> = es.iter().map(|e| to_datum(e, enc)).collect();
            node("seq", &core.src, enc, rest?)
        }
        CoreKind::Let { inits, body } => {
            let inits: Option<Vec<Datum>> = inits.iter().map(|e| to_datum(e, enc)).collect();
            let rest = vec![Datum::list(inits?), to_datum(body, enc)?];
            node("let", &core.src, enc, rest)
        }
        CoreKind::LetRec { inits, body } => {
            let inits: Option<Vec<Datum>> = inits.iter().map(|e| to_datum(e, enc)).collect();
            let rest = vec![Datum::list(inits?), to_datum(body, enc)?];
            node("letrec", &core.src, enc, rest)
        }
        CoreKind::DefineGlobal(name, value) => {
            let rest = vec![enc.sym(*name), to_datum(value, enc)?];
            node("defg", &core.src, enc, rest)
        }
    };
    Some(kind)
}

fn u16_from(d: &Datum, what: &str) -> Result<u16, String> {
    match d {
        Datum::Int(n) if *n >= 0 && *n <= u16::MAX as i64 => Ok(*n as u16),
        other => Err(format!("bad {what} {other}")),
    }
}

fn from_datum(d: &Datum, tab: &SymTab) -> Result<Rc<Core>, String> {
    let elems = d
        .list_elems()
        .ok_or_else(|| format!("core node must be a list, got {d}"))?;
    let [tag, src, rest @ ..] = elems.as_slice() else {
        return Err(format!("core node too short: {d}"));
    };
    let tag = match tag {
        Datum::Sym(s) => s.as_str().to_owned(),
        other => return Err(format!("bad core tag {other}")),
    };
    let src = src_from_datum(src, tab)?;
    let kind = match (tag.as_str(), rest) {
        ("const", [val]) => CoreKind::Const(val.clone()),
        ("lref", [depth, index]) => CoreKind::LocalRef {
            depth: u16_from(depth, "depth")?,
            index: u16_from(index, "index")?,
        },
        ("gref", [name]) => CoreKind::GlobalRef(tab.sym(name)?),
        ("setl", [depth, index, value]) => CoreKind::SetLocal {
            depth: u16_from(depth, "depth")?,
            index: u16_from(index, "index")?,
            value: from_datum(value, tab)?,
        },
        ("setg", [name, value]) => CoreKind::SetGlobal(tab.sym(name)?, from_datum(value, tab)?),
        ("if", [c, t, e]) => CoreKind::If(
            from_datum(c, tab)?,
            from_datum(t, tab)?,
            from_datum(e, tab)?,
        ),
        ("lambda", [params, variadic, name, lsrc, body]) => {
            let variadic = match variadic {
                Datum::Bool(b) => *b,
                other => return Err(format!("bad variadic flag {other}")),
            };
            let name = match name {
                Datum::Bool(false) => None,
                other => Some(tab.sym(other)?),
            };
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: u16_from(params, "param count")?,
                variadic,
                body: from_datum(body, tab)?,
                name,
                src: src_from_datum(lsrc, tab)?,
            }))
        }
        ("call", [func, args @ ..]) => CoreKind::Call {
            func: from_datum(func, tab)?,
            args: args
                .iter()
                .map(|a| from_datum(a, tab))
                .collect::<Result<_, _>>()?,
        },
        ("seq", es) => CoreKind::Seq(
            es.iter()
                .map(|e| from_datum(e, tab))
                .collect::<Result<_, _>>()?,
        ),
        ("let", [inits, body]) | ("letrec", [inits, body]) => {
            let inits = inits
                .list_elems()
                .ok_or_else(|| "let inits must be a list".to_string())?
                .iter()
                .map(|e| from_datum(e, tab))
                .collect::<Result<_, _>>()?;
            let body = from_datum(body, tab)?;
            if tag == "let" {
                CoreKind::Let { inits, body }
            } else {
                CoreKind::LetRec { inits, body }
            }
        }
        ("defg", [name, value]) => CoreKind::DefineGlobal(tab.sym(name)?, from_datum(value, tab)?),
        _ => return Err(format!("unknown or malformed core node `{tag}`")),
    };
    Ok(Core::rc(kind, src))
}

fn point_datums(p: SourceObject, w: Option<f64>) -> Datum {
    let mut elems = vec![
        Datum::sym("point"),
        Datum::string(p.file.as_str()),
        Datum::Int(p.bfp as i64),
        Datum::Int(p.efp as i64),
    ];
    if let Some(w) = w {
        elems.push(Datum::Float(w));
    }
    Datum::list(elems)
}

fn point_from(args: &[Datum]) -> Result<(SourceObject, Option<f64>), ProfileStoreError> {
    match args {
        [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), rest @ ..]
            if u32::try_from(*bfp).is_ok() && u32::try_from(*efp).is_ok() && rest.len() <= 1 =>
        {
            let w = match rest.first() {
                None => None,
                Some(Datum::Float(x)) => Some(*x),
                Some(Datum::Int(n)) => Some(*n as f64),
                Some(other) => return Err(malformed(format!("bad weight {other}"))),
            };
            Ok((SourceObject::new(file, *bfp as u32, *efp as u32), w))
        }
        _ => Err(malformed("malformed point entry")),
    }
}

/// Emits `(datasets N) (point …)…` entries for `info`, sorted.
fn profile_body(info: &ProfileInformation) -> Vec<Datum> {
    let mut points: Vec<(SourceObject, f64)> = info.iter().collect();
    points.sort_by_key(|a| a.0);
    let mut out = vec![Datum::list(vec![
        Datum::sym("datasets"),
        Datum::Int(info.dataset_count() as i64),
    ])];
    out.extend(points.into_iter().map(|(p, w)| point_datums(p, Some(w))));
    out
}

fn profile_from_body(entries: &[Datum]) -> Result<ProfileInformation, ProfileStoreError> {
    let mut dataset_count = 1usize;
    let mut weights = Vec::new();
    for e in entries {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("profile entry must be a list"))?;
        match elems.as_slice() {
            [Datum::Sym(tag), Datum::Int(n)] if tag.as_str() == "datasets" && *n >= 0 => {
                dataset_count = *n as usize;
            }
            [Datum::Sym(tag), rest @ ..] if tag.as_str() == "point" => {
                let (p, w) = point_from(rest)?;
                let w = w.ok_or_else(|| malformed("point entry missing weight"))?;
                if !(0.0..=1.0).contains(&w) {
                    return Err(malformed(format!("weight {w} outside [0,1]")));
                }
                weights.push((p, w));
            }
            _ => return Err(malformed(format!("unknown profile entry {e}"))),
        }
    }
    Ok(ProfileInformation::from_weights(weights, dataset_count))
}

fn factory_datum(tag: &str, f: &SourceFactory) -> Datum {
    let mut elems = vec![Datum::sym(tag)];
    elems.extend(
        f.entries()
            .into_iter()
            .map(|(file, n)| Datum::list(vec![Datum::string(file.as_str()), Datum::Int(n as i64)])),
    );
    Datum::list(elems)
}

fn factory_from(entries: &[Datum]) -> Result<SourceFactory, ProfileStoreError> {
    let mut out = Vec::new();
    for e in entries {
        match e.list_elems().as_deref() {
            Some([Datum::Str(file), Datum::Int(n)]) if *n >= 0 && *n <= u32::MAX as i64 => {
                out.push((Symbol::intern(file), *n as u32));
            }
            _ => return Err(malformed(format!("bad factory entry {e}"))),
        }
    }
    Ok(SourceFactory::from_entries(out))
}

fn reads_datum(r: &ProfileReadLog) -> Datum {
    let mut elems = vec![Datum::sym("reads")];
    for (p, w) in &r.points {
        elems.push(point_datums(*p, Some(*w)));
    }
    if let Some(a) = r.availability {
        elems.push(Datum::list(vec![Datum::sym("avail"), Datum::Bool(a)]));
    }
    if r.whole_profile {
        elems.push(Datum::list(vec![Datum::sym("whole")]));
    }
    if r.volatile_reads {
        elems.push(Datum::list(vec![Datum::sym("volatile")]));
    }
    Datum::list(elems)
}

fn reads_from(entries: &[Datum]) -> Result<ProfileReadLog, ProfileStoreError> {
    let mut reads = ProfileReadLog::default();
    for e in entries {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("reads entry must be a list"))?;
        match elems.as_slice() {
            [Datum::Sym(tag), rest @ ..] if tag.as_str() == "point" => {
                let (p, w) = point_from(rest)?;
                let w = w.ok_or_else(|| malformed("read point missing weight"))?;
                reads.points.push((p, w));
            }
            [Datum::Sym(tag), Datum::Bool(a)] if tag.as_str() == "avail" => {
                reads.availability = Some(*a);
            }
            [Datum::Sym(tag)] if tag.as_str() == "whole" => reads.whole_profile = true,
            [Datum::Sym(tag)] if tag.as_str() == "volatile" => reads.volatile_reads = true,
            _ => return Err(malformed(format!("unknown reads entry {e}"))),
        }
    }
    Ok(reads)
}

/// One form's serialized entry; `cores` are pre-serialized core datums.
#[allow(clippy::too_many_arguments)]
fn form_entry_string(
    index: usize,
    hash: u64,
    meta: bool,
    reads: &ProfileReadLog,
    fpre: &SourceFactory,
    fpost: &SourceFactory,
    expansion: &[String],
    cores: &[Datum],
    chunk_ids: &[u32],
    snapshot: Option<&ProfileInformation>,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "  (form {index} \"{hash:016x}\"");
    if meta {
        out.push_str("\n    (meta)");
    }
    let _ = write!(out, "\n    {}", reads_datum(reads));
    let _ = write!(out, "\n    {}", factory_datum("fpre", fpre));
    let _ = write!(out, "\n    {}", factory_datum("fpost", fpost));
    if !expansion.is_empty() {
        let strs: Vec<Datum> = expansion.iter().map(|s| Datum::string(s)).collect();
        let mut elems = vec![Datum::sym("expansion")];
        elems.extend(strs);
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    if !cores.is_empty() {
        let mut elems = vec![Datum::sym("cores")];
        elems.extend(cores.iter().cloned());
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    if !chunk_ids.is_empty() {
        let mut elems = vec![Datum::sym("chunk-ids")];
        elems.extend(chunk_ids.iter().map(|id| Datum::Int(*id as i64)));
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    if let Some(info) = snapshot {
        let mut elems = vec![Datum::sym("snapshot")];
        elems.extend(profile_body(info));
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    out.push(')');
    out
}

/// Serializes the session header plus pre-rendered form entries.
/// `strings` is the string table the entries' core trees were serialized
/// against (indices into it appear inside `cores`).
fn session_string(
    file: &str,
    weights: &ProfileInformation,
    strings: &[Symbol],
    form_entries: &[String],
) -> String {
    let mut out = String::from("(pgmp-session\n  (version 1)\n");
    let _ = writeln!(out, "  (file {})", Datum::string(file));
    let mut welems = vec![Datum::sym("weights")];
    welems.extend(profile_body(weights));
    let _ = writeln!(out, "  {}", Datum::list(welems));
    if !strings.is_empty() {
        let mut selems = vec![Datum::sym("strings")];
        selems.extend(strings.iter().map(|s| Datum::string(s.as_str())));
        let _ = writeln!(out, "  {}", Datum::list(selems));
    }
    for entry in form_entries {
        let _ = writeln!(out, "{entry}");
    }
    out.push(')');
    out
}

fn form_from(args: &[Datum], strings: &[Symbol]) -> Result<StoredForm, ProfileStoreError> {
    let [Datum::Int(index), Datum::Str(hash), rest @ ..] = args else {
        return Err(malformed("malformed form entry header"));
    };
    if *index < 0 {
        return Err(malformed("negative form index"));
    }
    let hash =
        u64::from_str_radix(hash, 16).map_err(|_| malformed(format!("bad form hash {hash:?}")))?;
    let mut form = StoredForm {
        index: *index as usize,
        hash,
        meta: false,
        reads: ProfileReadLog::default(),
        fpre: SourceFactory::new(),
        fpost: SourceFactory::new(),
        expansion: Vec::new(),
        cores: Vec::new(),
        chunk_ids: Vec::new(),
        snapshot: None,
    };
    for e in rest {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("form sub-entry must be a list"))?;
        let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
            return Err(malformed(format!("form sub-entry missing tag: {e}")));
        };
        match tag.as_str() {
            "meta" => form.meta = true,
            "reads" => form.reads = reads_from(args)?,
            "fpre" => form.fpre = factory_from(args)?,
            "fpost" => form.fpost = factory_from(args)?,
            "expansion" => {
                form.expansion = args
                    .iter()
                    .map(|d| match d {
                        Datum::Str(s) => Ok(s.to_string()),
                        other => Err(malformed(format!("bad expansion entry {other}"))),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "cores" => {
                form.cores = args
                    .iter()
                    .map(|d| from_datum(d, &SymTab(strings)).map_err(malformed))
                    .collect::<Result<_, _>>()?;
            }
            "chunk-ids" => {
                form.chunk_ids = args
                    .iter()
                    .map(|d| match d {
                        Datum::Int(n) if *n >= 0 && *n <= u32::MAX as i64 => Ok(*n as u32),
                        other => Err(malformed(format!("bad chunk id {other}"))),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "snapshot" => form.snapshot = Some(profile_from_body(args)?),
            other => return Err(malformed(format!("unknown form sub-entry `{other}`"))),
        }
    }
    Ok(form)
}

/// Parses a session file.
///
/// # Errors
///
/// [`ProfileStoreError::Malformed`] for any structural problem,
/// [`ProfileStoreError::UnsupportedVersion`] for a version other than 1.
/// Never panics on hostile input.
pub(crate) fn parse_session(text: &str) -> Result<StoredSession, ProfileStoreError> {
    // `read_datums` skips syntax-object construction: session files are
    // machine-written, source attribution would be meaningless, and this
    // parse is the warm-start critical path.
    let forms =
        read_datums(text, "<session>").map_err(|e| malformed(format!("unreadable: {e}")))?;
    let [datum]: [Datum; 1] = forms
        .try_into()
        .map_err(|_| malformed("expected exactly one top-level form"))?;
    let elems = datum
        .list_elems()
        .ok_or_else(|| malformed("top-level form must be a list"))?;
    let [head, entries @ ..] = elems.as_slice() else {
        return Err(malformed("empty session file"));
    };
    match head {
        Datum::Sym(s) if s.as_str() == "pgmp-session" => {}
        other => return Err(malformed(format!("unexpected header `{other}`"))),
    }
    let mut version: Option<i64> = None;
    let mut file = String::new();
    let mut weights = ProfileInformation::empty();
    let mut strings: Vec<Symbol> = Vec::new();
    let mut out_forms: Vec<StoredForm> = Vec::new();
    // Two passes: form entries reference the string table by index, and
    // the table must be complete before any form decodes, wherever the
    // `(strings …)` section sits in the file.
    for pass in 0..2 {
        for e in entries {
            let elems = e
                .list_elems()
                .ok_or_else(|| malformed("session entry must be a list"))?;
            let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
                return Err(malformed(format!("session entry missing tag: {e}")));
            };
            match (pass, tag.as_str(), args) {
                (0, "version", [Datum::Int(v)]) => {
                    if version.replace(*v).is_some() {
                        return Err(malformed("duplicate version entry"));
                    }
                }
                (0, "file", [Datum::Str(s)]) => file = s.to_string(),
                (0, "weights", body) => weights = profile_from_body(body)?,
                (0, "strings", body) => {
                    strings = body
                        .iter()
                        .map(|d| match d {
                            Datum::Str(s) => Ok(Symbol::intern(s)),
                            other => Err(malformed(format!("bad string-table entry {other}"))),
                        })
                        .collect::<Result<_, _>>()?;
                }
                (0, "form", _) => {}
                (1, "form", body) => out_forms.push(form_from(body, &strings)?),
                (1, _, _) => {}
                (_, other, _) => {
                    return Err(malformed(format!("unknown session entry `{other}`")));
                }
            }
        }
    }
    match version {
        Some(1) => {}
        Some(v) => return Err(ProfileStoreError::UnsupportedVersion(v)),
        None => return Err(malformed("missing version entry")),
    }
    Ok(StoredSession {
        file,
        weights,
        forms: out_forms,
    })
}

#[path = "../../../reader/tests/support/mutate.rs"]
mod mutate;

mod oracle {
    use super::*;
    use crate::incremental::{IncrementalConfig, IncrementalEngine};
    use proptest::prelude::*;
    use std::mem::discriminant;
    use std::sync::OnceLock;

    /// Exercises every core node kind, constants of every datum kind, and
    /// each kind of profile read (points, availability, whole profile).
    const PROGRAM: &str = r#"
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(_ test t-branch f-branch)
           (if (< (profile-query #'t-branch) (profile-query #'f-branch))
               #'(if (not test) f-branch t-branch)
               #'(if test t-branch f-branch))]))
      (define-syntax (when-profiled stx)
        (syntax-case stx ()
          [(_ e) (if (profile-data-available?) #'e #''none)]))
      (define-syntax (whole stx)
        (syntax-case stx ()
          [(_ e) (begin (current-profile-information) #'e)]))
      (define (plain-a x) (* x x))
      (define (rest-args a . more) (if (null? more) a (car more)))
      (define v '#(1 "two \"q\"\\" #\a #\space (4 . 5) 6.5 sym -0.25 ()))
      (define (loop n acc) (let ((m (- n 1))) (if (< n 1) acc (loop m (+ acc n)))))
      (define counter 0)
      (define (bump!) (set! counter (+ counter 1)) counter)
      (define (local-set x) (set! x (+ x 1)) x)
      (define (parity n)
        (letrec ((ev? (lambda (k) (if (= k 0) #t (od? (- k 1)))))
                 (od? (lambda (k) (if (= k 0) #f (ev? (- k 1))))))
          (ev? n)))
      (define (classify n) (if-r (= n 0) 'rare 'common))
      (define seen (when-profiled 'yes))
      (define all (whole (list 1 2)))
      (begin (plain-a 3) (bump!) (classify 1))"#;

    const FILES: [&str; 3] = ["s.scm", "dir/we \"ird\\name.scm", "ü\tx.scm"];

    /// Every source object in `PROGRAM` read as `file`.
    fn points(file: &str) -> Vec<SourceObject> {
        fn walk(stx: &pgmp_syntax::Syntax, out: &mut Vec<SourceObject>) {
            use pgmp_syntax::SyntaxBody;
            out.extend(stx.source);
            match &stx.body {
                SyntaxBody::List(es) | SyntaxBody::Vector(es) => {
                    es.iter().for_each(|e| walk(e, out))
                }
                SyntaxBody::Improper(es, t) => {
                    es.iter().for_each(|e| walk(e, out));
                    walk(t, out);
                }
                SyntaxBody::Atom(_) => {}
            }
        }
        let mut out = Vec::new();
        for form in pgmp_reader::read_str(PROGRAM, file).expect("program reads") {
            walk(&form, &mut out);
        }
        out
    }

    /// Session texts from compiles of `PROGRAM` under several file names
    /// and weight sets, each rendered by the streaming writer.
    fn sessions() -> &'static [String] {
        static SESSIONS: OnceLock<Vec<String>> = OnceLock::new();
        SESSIONS.get_or_init(|| {
            let mut out = Vec::new();
            for (k, file) in FILES.iter().enumerate() {
                let pts = points(file);
                for variant in 0..3usize {
                    let weights = ProfileInformation::from_weights(
                        pts.iter()
                            .enumerate()
                            .filter(|(i, _)| variant > 0 && (i + k + variant) % 3 == 0)
                            .map(|(i, p)| (*p, ((i * 37 + variant) % 101) as f64 / 100.0)),
                        1 + variant,
                    );
                    let mut incr =
                        IncrementalEngine::new(PROGRAM, file, IncrementalConfig::default())
                            .expect("program loads");
                    incr.compile(&weights).expect("program compiles");
                    let (name, w, records) = incr.session_records().expect("compiled");
                    let (text, saved) = super::super::write_session(&name, w, &records);
                    // The writer is byte-identical to the datum-tree one.
                    assert_eq!(
                        (&text, saved),
                        (&super::write_session(&name, w, &records).0, saved)
                    );
                    assert_eq!(saved, records.len());
                    out.push(text);
                }
            }
            out
        })
    }

    /// Moves the `(strings …)` line after the form entries: still valid,
    /// and every form must decode against the table all the same.
    fn strings_last(text: &str) -> String {
        let Some(line) = text.lines().find(|l| l.starts_with("  (strings")) else {
            return text.to_owned();
        };
        let moved = text.replacen(&format!("{line}\n"), "", 1);
        format!("{}\n{line})", &moved[..moved.len() - 1])
    }

    fn same(
        a: &Result<StoredSession, ProfileStoreError>,
        b: &Result<StoredSession, ProfileStoreError>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a == b,
            (
                Err(ProfileStoreError::UnsupportedVersion(a)),
                Err(ProfileStoreError::UnsupportedVersion(b)),
            ) => a == b,
            (Err(a), Err(b)) => discriminant(a) == discriminant(b),
            _ => false,
        }
    }

    /// A valid session, valid rearrangements of it, and corruptions.
    struct Cases;

    impl Strategy for Cases {
        type Value = Vec<String>;
        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            let all = sessions();
            let base = all[rng.below(all.len() as u64) as usize].clone();
            let moved = strings_last(&base);
            let relaid = mutate::relayout(&moved, rng);
            let torn = mutate::corrupt(&base, rng);
            let torn_relaid = mutate::corrupt(&relaid, rng);
            let future = mutate::corrupt(&base.replacen("(version 1)", "(version 7)", 1), rng);
            vec![base, moved, relaid, torn, torn_relaid, future]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The streaming decoder returns what the datum-tree reference
        /// model returns on valid sessions, rearrangements (the string
        /// table after the forms, comments, odd whitespace) and
        /// corruptions of them.
        #[test]
        fn codec_oracle_sessions(cases in Cases) {
            let base = parse_session(&cases[0]);
            prop_assert!(base.is_ok(), "valid session rejected: {:?}", base.err());
            for valid in &cases[1..3] {
                let again = parse_session(valid);
                prop_assert!(same(&base, &again), "rearrangement changed the decode: {:?}", again.err());
            }
            for text in &cases {
                let fast = super::super::parse_session(text);
                let slow = parse_session(text);
                prop_assert!(
                    same(&fast, &slow),
                    "{:?}\n  cursor:    {:?}\n  reference: {:?}",
                    text,
                    fast.as_ref().err(),
                    slow.as_ref().err()
                );
            }
        }
    }
}
