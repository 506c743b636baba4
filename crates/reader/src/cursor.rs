//! A zero-copy pull cursor over s-expression text.
//!
//! Store files — profiles, persisted sessions, epoch snapshots — are
//! machine-written s-expressions whose decoders want typed values, not a
//! generic tree. [`Cursor`] walks the text as a stream of [`Event`]s
//! without building one: atoms are borrowed spans of the input, classified
//! (integer, real, symbol) only when a decoder asks, and no token, list
//! or tag is allocated or interned along the way.
//!
//! The walk follows the same lexical rules as [`crate::Lexer`] (it shares
//! the tokenizer) and the same grammar as [`crate::read_datums`]:
//! comments and `#;` datum comments are skipped, `'x` walks as the list
//! `(quote x)`, and a dotted tail that is itself a list is spliced, so
//! every text reads as the same datum structure under both. Errors carry
//! the byte offset they were noticed at, and once the cursor has failed it
//! keeps returning that error.
//!
//! # Example
//!
//! ```
//! use pgmp_reader::{Cursor, Event};
//! let mut c = Cursor::new("(point \"a.scm\" 3 9 0.5)", "<mem>");
//! assert_eq!(c.next()?, Some(Event::Open));
//! assert_eq!(c.sym("tag")?, "point");
//! assert_eq!(c.string("file")?, "a.scm");
//! assert_eq!((c.u32("bfp")?, c.u32("efp")?), (3, 9));
//! assert_eq!(c.atom("weight")?.number(), Some(0.5));
//! c.close("point")?;
//! assert_eq!(c.next()?, None);
//! # Ok::<(), pgmp_reader::ReadError>(())
//! ```

use crate::lexer::{classify, unescape, Bare, Lexer, Raw};
use crate::reader::ReadError;
use pgmp_syntax::Datum;
use std::borrow::Cow;

/// One step of a [`Cursor`] walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event<'a> {
    /// A list opens: `(`, `[`, or the implicit list of a quotation form.
    Open,
    /// A vector opens: `#(`.
    VecOpen,
    /// The innermost open list or vector closes.
    Close,
    /// The tail of an improper list follows. Tails that are lists are
    /// spliced, so `(a . (b))` walks as `(a b)` and shows no `Dot`.
    Dot,
    /// An atom.
    Atom(Atom<'a>),
}

/// An atom as a borrowed span of the input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Atom<'a> {
    /// `#t` / `#f`.
    Bool(bool),
    /// A character literal.
    Char(char),
    /// A string literal's text between its quotes, escapes undecoded;
    /// `escaped` is true iff it holds a backslash.
    Str {
        /// The raw text.
        body: &'a str,
        /// Whether [`Atom::string`] must decode escapes.
        escaped: bool,
    },
    /// A symbol or number, as written.
    Bare(&'a str),
}

impl<'a> Atom<'a> {
    /// The exact integer this atom denotes, if it is one.
    pub fn int(&self) -> Option<i64> {
        match *self {
            Atom::Bare(text) => match classify(text) {
                Bare::Int(n) => Some(n),
                _ => None,
            },
            _ => None,
        }
    }

    /// The integer this atom denotes if it lies in `[0, 2^32)`: the
    /// checked read for file positions, counts and indices.
    pub fn u32(&self) -> Option<u32> {
        self.int().and_then(|n| u32::try_from(n).ok())
    }

    /// The number this atom denotes, exact or inexact, as an `f64`.
    pub fn number(&self) -> Option<f64> {
        match *self {
            Atom::Bare(text) => match classify(text) {
                Bare::Int(n) => Some(n as f64),
                Bare::Float(x) => Some(x),
                Bare::Sym => None,
            },
            _ => None,
        }
    }

    /// The symbol name, if this atom is a symbol.
    pub fn sym(&self) -> Option<&'a str> {
        match *self {
            Atom::Bare(text) if classify(text) == Bare::Sym => Some(text),
            _ => None,
        }
    }

    /// The string's contents, if this atom is a string literal. Borrowed
    /// unless it holds escapes.
    pub fn string(&self) -> Option<Cow<'a, str>> {
        match *self {
            Atom::Str {
                body,
                escaped: false,
            } => Some(Cow::Borrowed(body)),
            Atom::Str {
                body,
                escaped: true,
            } => Some(Cow::Owned(unescape(body))),
            _ => None,
        }
    }

    /// The atom as an owned [`Datum`] (symbols are interned).
    pub fn to_datum(&self) -> Datum {
        match *self {
            Atom::Bool(b) => Datum::Bool(b),
            Atom::Char(c) => Datum::Char(c),
            Atom::Str { .. } => Datum::string(&self.string().unwrap_or_default()),
            Atom::Bare(text) => match classify(text) {
                Bare::Int(n) => Datum::Int(n),
                Bare::Float(x) => Datum::Float(x),
                Bare::Sym => Datum::sym(text),
            },
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The top level: any number of datums.
    Top,
    List,
    Vector,
    /// A quotation form's implicit list, closed after its one datum.
    Quote,
    /// The datum a `#;` comments out; its events are not reported.
    Skip,
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    kind: Kind,
    /// Byte offset of the opener.
    start: u32,
    /// Datums completed in this frame (since the last splice, for lists).
    count: u32,
    /// Spliced dotted tails whose `)` is still owed.
    extra: u32,
    /// For a list with a dotted tail: the `count` at which the tail datum
    /// is complete (0 when there is none).
    tail_at: u32,
    /// A `.` was read; the next datum decides splice or improper tail.
    dot: bool,
    /// A `#;` just skipped a datum, so one more must follow.
    need: bool,
}

impl Frame {
    fn new(kind: Kind, start: u32) -> Frame {
        Frame {
            kind,
            start,
            count: 0,
            extra: 0,
            tail_at: 0,
            dot: false,
            need: false,
        }
    }

    /// Whether the next token must start a datum.
    fn needs_datum(&self) -> bool {
        self.need
            || self.dot
            || matches!(self.kind, Kind::Quote | Kind::Skip)
            || (self.tail_at != 0 && self.count + 1 == self.tail_at)
    }
}

/// A zero-copy pull cursor over s-expression text; see the module docs.
#[derive(Debug)]
pub struct Cursor<'a> {
    lexer: Lexer<'a>,
    file: &'a str,
    /// Open frames; `frames[0]` is the top level.
    frames: Vec<Frame>,
    /// `Skip` frames on the stack: events are swallowed while nonzero.
    skipping: usize,
    /// A token lexed ahead (the datum after a `.`).
    lookahead: Option<(Raw<'a>, u32)>,
    /// The keyword atom owed after a quotation form's implicit `Open`.
    pending: Option<Event<'a>>,
    /// Start offset of the token behind the last event.
    at: u32,
    failed: Option<ReadError>,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor over `src`; errors name `file`.
    pub fn new(src: &'a str, file: &'a str) -> Cursor<'a> {
        Cursor::at(src, file, 0)
    }

    /// Creates a cursor that starts at byte `offset` of `src` (a datum
    /// boundary an earlier walk reported through [`Cursor::offset`]).
    pub fn at(src: &'a str, file: &'a str, offset: u32) -> Cursor<'a> {
        let mut lexer = Lexer::new(src);
        lexer.seek(offset as usize);
        Cursor {
            lexer,
            file,
            frames: vec![Frame::new(Kind::Top, offset)],
            skipping: 0,
            lookahead: None,
            pending: None,
            at: offset,
            failed: None,
        }
    }

    /// Byte offset where the token behind the last event starts.
    pub fn offset(&self) -> u32 {
        self.at
    }

    /// Number of lists and vectors open around the cursor.
    pub fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// An error at the last event's offset.
    pub fn error(&self, message: impl Into<String>) -> ReadError {
        ReadError {
            message: message.into(),
            file: self.file.to_owned(),
            at: self.at,
        }
    }

    /// The next event, or `None` at the end of the input.
    ///
    /// # Errors
    ///
    /// The [`ReadError`]s of [`crate::read_datums`]: lexical errors,
    /// unbalanced brackets, misplaced dots, and `#;` with no datum to
    /// skip or none after it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Event<'a>>, ReadError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        loop {
            match self.step() {
                Ok(ev) if self.skipping == 0 => return Ok(ev),
                Ok(_) => {}
                Err(e) => {
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }

    fn top(&mut self) -> &mut Frame {
        self.frames
            .last_mut()
            .expect("the top-level frame is never popped")
    }

    fn err_at(&self, message: &str, at: u32) -> ReadError {
        ReadError {
            message: message.to_owned(),
            file: self.file.to_owned(),
            at,
        }
    }

    fn lex(&mut self) -> Result<Option<(Raw<'a>, u32)>, ReadError> {
        if let Some(t) = self.lookahead.take() {
            return Ok(Some(t));
        }
        self.lexer
            .next_raw()
            .map_err(|e| self.err_at(&e.message, e.at))
    }

    fn push(&mut self, kind: Kind, at: u32) {
        self.top().need = false;
        self.frames.push(Frame::new(kind, at));
    }

    /// Closes the innermost frame; its datum counts in the parent.
    fn pop(&mut self) -> Option<Event<'a>> {
        self.frames.pop();
        self.top().count += 1;
        Some(Event::Close)
    }

    /// Consumes the `)` owed after a dotted tail.
    fn expect_close(&mut self, start: u32) -> Result<(), ReadError> {
        match self.lex()? {
            Some((Raw::Close(_), _)) => Ok(()),
            Some((_, at)) => Err(self.err_at("expected `)` after dotted tail", at)),
            None => Err(self.err_at("unterminated dotted list", start)),
        }
    }

    fn step(&mut self) -> Result<Option<Event<'a>>, ReadError> {
        if let Some(ev) = self.pending.take() {
            return Ok(Some(ev));
        }
        loop {
            let top = *self.top();
            // Frames whose last datum is complete close without a token.
            match top.kind {
                Kind::Quote if top.count == 1 => return Ok(self.pop()),
                Kind::Skip if top.count == 1 => {
                    self.frames.pop();
                    self.skipping -= 1;
                    self.top().need = true;
                    continue;
                }
                Kind::List if top.tail_at != 0 && top.count == top.tail_at => {
                    for _ in 0..=top.extra {
                        self.expect_close(top.start)?;
                    }
                    return Ok(self.pop());
                }
                _ => {}
            }
            let needs = top.needs_datum();
            let Some((tok, at)) = self.lex()? else {
                return match top.kind {
                    _ if needs => Err(self.err_at("unexpected end of input", top.start)),
                    Kind::Top => Ok(None),
                    Kind::Vector => Err(self.err_at("unterminated vector", top.start)),
                    _ => Err(self.err_at("unterminated list", top.start)),
                };
            };
            self.at = at;
            if top.dot {
                let f = self.top();
                match tok {
                    Raw::Open => {
                        // `(a . (b c))` is `(a b c)`: splice the tail.
                        f.dot = false;
                        f.extra += 1;
                        f.count = 0;
                        continue;
                    }
                    Raw::Prefix(keyword) => {
                        // `(a . 'b)` is `(a quote b)`.
                        f.dot = false;
                        f.count += 1;
                        f.tail_at = f.count + 1;
                        return Ok(Some(Event::Atom(Atom::Bare(keyword))));
                    }
                    Raw::VecOpen | Raw::Bool(_) | Raw::Char(_) | Raw::Str { .. } | Raw::Bare(_) => {
                        f.dot = false;
                        f.tail_at = f.count + 1;
                        self.lookahead = Some((tok, at));
                        return Ok(Some(Event::Dot));
                    }
                    Raw::Close(_) | Raw::Dot | Raw::DatumComment => {}
                }
            }
            match tok {
                Raw::DatumComment => {
                    self.frames.push(Frame::new(Kind::Skip, at));
                    self.skipping += 1;
                }
                Raw::Close(_) => {
                    return match top.kind {
                        _ if needs => Err(self.err_at("unexpected closing paren", at)),
                        Kind::List => {
                            for _ in 0..top.extra {
                                self.expect_close(top.start)?;
                            }
                            Ok(self.pop())
                        }
                        Kind::Vector => Ok(self.pop()),
                        _ => Err(self.err_at("unexpected closing paren", at)),
                    };
                }
                Raw::Dot => match top.kind {
                    Kind::List if !needs && top.count > 0 => self.top().dot = true,
                    Kind::List if !needs => return Err(self.err_at("`.` at start of list", at)),
                    Kind::Vector if !needs => {
                        return Err(self.err_at("`.` not allowed in vector", at))
                    }
                    _ => return Err(self.err_at("unexpected `.` outside a list", at)),
                },
                Raw::Open => {
                    self.push(Kind::List, at);
                    return Ok(Some(Event::Open));
                }
                Raw::VecOpen => {
                    self.push(Kind::Vector, at);
                    return Ok(Some(Event::VecOpen));
                }
                Raw::Prefix(keyword) => {
                    self.push(Kind::Quote, at);
                    self.pending = Some(Event::Atom(Atom::Bare(keyword)));
                    return Ok(Some(Event::Open));
                }
                Raw::Bool(b) => return Ok(self.atom_event(Atom::Bool(b))),
                Raw::Char(c) => return Ok(self.atom_event(Atom::Char(c))),
                Raw::Str { body, escaped } => {
                    return Ok(self.atom_event(Atom::Str { body, escaped }))
                }
                Raw::Bare(text) => return Ok(self.atom_event(Atom::Bare(text))),
            }
        }
    }

    fn atom_event(&mut self, atom: Atom<'a>) -> Option<Event<'a>> {
        let f = self.top();
        f.need = false;
        f.count += 1;
        Some(Event::Atom(atom))
    }

    /// Consumes events until the cursor is back at `depth`, returning
    /// whether the list it leaves was proper: false iff a [`Event::Dot`]
    /// was seen directly in it (at `depth + 1`).
    ///
    /// # Errors
    ///
    /// Syntax errors in the skipped text.
    pub fn skip_to(&mut self, depth: usize) -> Result<bool, ReadError> {
        let mut proper = true;
        while self.depth() > depth {
            match self.next()? {
                Some(Event::Dot) if self.depth() == depth + 1 => proper = false,
                Some(_) => {}
                None => return Err(self.error("unexpected end of input")),
            }
        }
        Ok(proper)
    }

    /// Reads the datum that `first` (an event just returned) starts, as an
    /// owned [`Datum`].
    ///
    /// # Errors
    ///
    /// Syntax errors, or `first` being [`Event::Close`] or [`Event::Dot`].
    pub fn datum(&mut self, first: Event<'a>) -> Result<Datum, ReadError> {
        match first {
            Event::Atom(a) => Ok(a.to_datum()),
            Event::Open => {
                let mut elems = Vec::new();
                loop {
                    match self.next()? {
                        Some(Event::Close) => return Ok(Datum::list(elems)),
                        Some(Event::Dot) => {
                            let tail = self.next()?.ok_or_else(|| self.error("missing tail"))?;
                            let tail = self.datum(tail)?;
                            self.close("end of dotted list")?;
                            return Ok(Datum::improper_list(elems, tail));
                        }
                        Some(ev) => elems.push(self.datum(ev)?),
                        None => return Err(self.error("unterminated list")),
                    }
                }
            }
            Event::VecOpen => {
                let mut elems = Vec::new();
                loop {
                    match self.next()? {
                        Some(Event::Close) => return Ok(Datum::Vector(elems.into())),
                        Some(ev) => elems.push(self.datum(ev)?),
                        None => return Err(self.error("unterminated vector")),
                    }
                }
            }
            Event::Close | Event::Dot => Err(self.error("expected a datum")),
        }
    }

    /// The next element of the current proper list: `Some` event, or
    /// `None` once the list closes.
    ///
    /// # Errors
    ///
    /// Syntax errors, a dotted tail (`what` must be a proper list), or
    /// the end of the input.
    pub fn item(&mut self, what: &str) -> Result<Option<Event<'a>>, ReadError> {
        match self.next()? {
            Some(Event::Close) => Ok(None),
            Some(Event::Dot) | None => Err(self.error(format!("{what} must be a proper list"))),
            Some(ev) => Ok(Some(ev)),
        }
    }

    /// The next element of the current list as a tagged entry
    /// `(tag …)`: its tag and the byte offset of its opener, with the
    /// cursor left after the tag; `None` once the list closes.
    ///
    /// # Errors
    ///
    /// As [`Cursor::item`], and elements that are not lists headed by a
    /// symbol.
    pub fn entry(&mut self, what: &str) -> Result<Option<(&'a str, u32)>, ReadError> {
        match self.item(what)? {
            None => Ok(None),
            Some(Event::Open) => {
                let at = self.offset();
                Ok(Some((self.sym("entry tag")?, at)))
            }
            Some(_) => Err(self.error(format!("{what} entry must be a list"))),
        }
    }

    /// Expects a list to open.
    ///
    /// # Errors
    ///
    /// Syntax errors, or any other event (reported as a missing `what`).
    pub fn open(&mut self, what: &str) -> Result<(), ReadError> {
        match self.next()? {
            Some(Event::Open) => Ok(()),
            _ => Err(self.error(format!("expected {what} list"))),
        }
    }

    /// Expects the current list to close.
    ///
    /// # Errors
    ///
    /// Syntax errors, or any other event (`what` has extra elements).
    pub fn close(&mut self, what: &str) -> Result<(), ReadError> {
        match self.next()? {
            Some(Event::Close) => Ok(()),
            _ => Err(self.error(format!("unexpected extra element in {what}"))),
        }
    }

    /// Expects an atom.
    ///
    /// # Errors
    ///
    /// Syntax errors, or any other event (reported as a missing `what`).
    pub fn atom(&mut self, what: &str) -> Result<Atom<'a>, ReadError> {
        match self.next()? {
            Some(Event::Atom(a)) => Ok(a),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    /// Expects a symbol.
    ///
    /// # Errors
    ///
    /// As [`Cursor::atom`], and non-symbol atoms.
    pub fn sym(&mut self, what: &str) -> Result<&'a str, ReadError> {
        let a = self.atom(what)?;
        a.sym()
            .ok_or_else(|| self.error(format!("expected {what}")))
    }

    /// Expects a string literal.
    ///
    /// # Errors
    ///
    /// As [`Cursor::atom`], and non-string atoms.
    pub fn string(&mut self, what: &str) -> Result<Cow<'a, str>, ReadError> {
        let a = self.atom(what)?;
        a.string()
            .ok_or_else(|| self.error(format!("expected {what}")))
    }

    /// Expects an exact integer.
    ///
    /// # Errors
    ///
    /// As [`Cursor::atom`], and atoms that are not exact integers.
    pub fn int(&mut self, what: &str) -> Result<i64, ReadError> {
        let a = self.atom(what)?;
        a.int()
            .ok_or_else(|| self.error(format!("expected integer {what}")))
    }

    /// Expects an integer in `[0, 2^32)`.
    ///
    /// # Errors
    ///
    /// As [`Cursor::atom`], and atoms outside that range.
    pub fn u32(&mut self, what: &str) -> Result<u32, ReadError> {
        let a = self.atom(what)?;
        a.u32()
            .ok_or_else(|| self.error(format!("{what} must be an integer in [0, 2^32)")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_datums;

    /// Rebuilds every top-level datum from the event stream.
    fn walk(src: &str) -> Result<Vec<Datum>, ReadError> {
        let mut c = Cursor::new(src, "t");
        let mut out = Vec::new();
        while let Some(ev) = c.next()? {
            out.push(c.datum(ev)?);
        }
        Ok(out)
    }

    #[test]
    fn walks_like_the_datum_reader() {
        for src in [
            "(a (b c) d)",
            "(a . b)",
            "(a b . c)",
            "(a . (b c))",
            "(a . (b . c))",
            "(a . (b . (c)))",
            "(a . ())",
            "(a . 'b)",
            "(a . #(b))",
            "(a . #;x b)",
            "'x `(a ,b ,@c) #'(s) #`(q #,u #,@v)",
            "#(1 x \"s\\n\") [x]",
            "#;(ignored) 42 (a #;b c) #;#;1 2 3",
            "; comment\n#| block #| nested |# |# (x)",
            "#t #f #\\a #\\space \"\\\"q\\\\\" 1.5 -7 +5 1/2 +inf.0 .5 ...",
            "",
        ] {
            assert_eq!(walk(src), read_datums(src, "t"), "{src}");
        }
    }

    #[test]
    fn rejects_what_the_datum_reader_rejects() {
        for src in [
            "(a b",
            ")",
            "(. x)",
            "(a . b c)",
            "(a . )",
            "(a . . b)",
            "#(1 . 2)",
            "'",
            "#;",
            "#;x",
            "(a #;b)",
            "(a . (b c) d)",
            "(a . (b c)",
            "\"open",
            "\"bad \\q\"",
            "#z",
            "#| open",
            "#\\bogus",
        ] {
            assert!(read_datums(src, "t").is_err(), "reference accepts {src}");
            assert!(walk(src).is_err(), "cursor accepts {src}");
        }
    }

    #[test]
    fn errors_carry_byte_offsets_and_stick() {
        let mut c = Cursor::new("(a \"b\\q\")", "t");
        assert_eq!(c.next().unwrap(), Some(Event::Open));
        assert_eq!(c.next().unwrap(), Some(Event::Atom(Atom::Bare("a"))));
        let e = c.next().unwrap_err();
        assert_eq!(e.at, 6);
        assert_eq!(c.next().unwrap_err(), e);
    }

    #[test]
    fn checked_reads() {
        let mut c = Cursor::new("4294967295 4294967296 -1 1.0 x", "t");
        assert_eq!(c.u32("n").unwrap(), u32::MAX);
        let e = c.u32("n").unwrap_err();
        assert_eq!(e.at, 11);
        assert!(c.u32("n").is_err());
        let mut c = Cursor::new("-1 1.0 x 99999999999999999999", "t");
        assert_eq!(c.int("n").unwrap(), -1);
        assert!(c.int("n").is_err());
        let mut c = Cursor::new("x 99999999999999999999", "t");
        assert_eq!(c.sym("s").unwrap(), "x");
        assert_eq!(c.atom("n").unwrap().number(), Some(1e20));
    }

    #[test]
    fn skip_to_reports_properness() {
        let mut c = Cursor::new("((a (b . c)) (d . e) (f . (g)))", "t");
        c.open("outer").unwrap();
        c.open("first").unwrap();
        assert!(c.skip_to(1).unwrap());
        c.open("second").unwrap();
        assert!(!c.skip_to(1).unwrap());
        c.open("third").unwrap();
        assert!(c.skip_to(1).unwrap());
        c.close("outer").unwrap();
    }

    #[test]
    fn restarts_at_a_recorded_offset() {
        let src = "(x (form 1 \"s\") (y))";
        let mut c = Cursor::new(src, "t");
        c.open("x").unwrap();
        c.sym("x").unwrap();
        c.open("form").unwrap();
        let at = c.offset();
        let mut again = Cursor::at(src, "t", at);
        let ev = again.next().unwrap().unwrap();
        assert_eq!(again.datum(ev).unwrap().to_string(), "(form 1 \"s\")");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut c = Cursor::new(r#""plain" "esc\"aped""#, "t");
        assert!(matches!(c.string("s").unwrap(), Cow::Borrowed("plain")));
        assert_eq!(c.string("s").unwrap(), "esc\"aped");
    }
}
