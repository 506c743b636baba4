//! Tokenizer for the object language.

use pgmp_syntax::Datum;
use std::fmt;

/// Kinds of lexical tokens.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// `(` or `[`.
    LParen,
    /// `)` or `]` — must match the opener's shape.
    RParen(char),
    /// `#(` — vector opener.
    VecOpen,
    /// `'`.
    Quote,
    /// `` ` ``.
    Quasiquote,
    /// `,`.
    Unquote,
    /// `,@`.
    UnquoteSplicing,
    /// `#'` — `syntax`.
    SyntaxQuote,
    /// `` #` `` — `quasisyntax`.
    Quasisyntax,
    /// `#,` — `unsyntax`.
    Unsyntax,
    /// `#,@` — `unsyntax-splicing`.
    UnsyntaxSplicing,
    /// `.` in a dotted pair position.
    Dot,
    /// `#;` — comments out the following datum.
    DatumComment,
    /// A self-evaluating or symbol atom.
    Atom(Datum),
}

/// A token with its byte span in the input.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Start byte offset.
    pub start: u32,
    /// End byte offset (exclusive).
    pub end: u32,
}

/// Lexical error with position information.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the problem was noticed.
    pub at: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for LexError {}

/// A streaming tokenizer over source text.
///
/// # Example
///
/// ```
/// use pgmp_reader::{Lexer, TokenKind};
/// let mut lx = Lexer::new("(a)");
/// assert_eq!(lx.next_token().unwrap().unwrap().kind, TokenKind::LParen);
/// ```
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
}

fn is_delimiter(b: u8) -> bool {
    matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';') || b.is_ascii_whitespace()
}

fn is_symbol_char(b: u8) -> bool {
    !is_delimiter(b) && b != b'\'' && b != b'`' && b != b','
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Lexer<'src> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Moves to byte `pos` of the input (a token boundary).
    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.bytes.len());
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_atmosphere(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b';') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'#') if self.peek2() == Some(b'|') => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    let mut depth = 1usize;
                    while depth > 0 {
                        match (self.peek(), self.peek2()) {
                            (Some(b'|'), Some(b'#')) => {
                                depth -= 1;
                                self.pos += 2;
                            }
                            (Some(b'#'), Some(b'|')) => {
                                depth += 1;
                                self.pos += 2;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    at: start,
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<Raw<'src>, LexError> {
        // Opening quote already consumed. Escapes are validated here and
        // decoded on demand by `unescape`; UTF-8 continuation bytes never
        // equal `"` or `\`, so a byte scan is exact.
        let body = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        at: start as u32,
                    })
                }
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    match self.bump() {
                        Some(b'n' | b't' | b'r' | b'0' | b'"' | b'\\') => {}
                        Some(other) => {
                            return Err(LexError {
                                message: format!("unknown string escape \\{}", other as char),
                                at: (self.pos - 1) as u32,
                            })
                        }
                        None => {
                            return Err(LexError {
                                message: "unterminated string escape".into(),
                                at: self.pos as u32,
                            })
                        }
                    }
                }
                Some(_) => {}
            }
        }
        Ok(Raw::Str {
            body: &self.src[body..self.pos - 1],
            escaped,
        })
    }

    fn lex_char(&mut self, start: usize) -> Result<Raw<'src>, LexError> {
        // `#\` already consumed. A character literal is either a single char
        // or a name made of symbol characters.
        let rest = &self.src[self.pos..];
        let first = rest.chars().next().ok_or(LexError {
            message: "unterminated character literal".into(),
            at: start as u32,
        })?;
        let name_start = self.pos;
        self.pos += first.len_utf8();
        // Collect any following symbol characters to support names.
        if first.is_ascii_alphabetic() {
            while let Some(b) = self.peek() {
                if is_symbol_char(b) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        if self.pos == name_start + first.len_utf8() {
            return Ok(Raw::Char(first));
        }
        Ok(Raw::Char(match &self.src[name_start..self.pos] {
            "space" => ' ',
            "newline" | "linefeed" => '\n',
            "tab" => '\t',
            "return" => '\r',
            "nul" | "null" => '\0',
            other => {
                return Err(LexError {
                    message: format!("unknown character name #\\{other}"),
                    at: start as u32,
                })
            }
        }))
    }

    /// Lexes the next token as a borrowed view of the input, returning it
    /// with its start offset (the end is the lexer's position after it).
    #[inline(always)]
    pub(crate) fn next_raw(&mut self) -> Result<Option<(Raw<'src>, u32)>, LexError> {
        self.skip_atmosphere()?;
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(None);
        };
        self.pos += 1;
        let raw = match b {
            b'(' | b'[' => Raw::Open,
            b')' => Raw::Close(')'),
            b']' => Raw::Close(']'),
            b'\'' => Raw::Prefix("quote"),
            b'`' => Raw::Prefix("quasiquote"),
            b',' if self.peek() == Some(b'@') => {
                self.pos += 1;
                Raw::Prefix("unquote-splicing")
            }
            b',' => Raw::Prefix("unquote"),
            b'"' => self.lex_string(start)?,
            b'#' => {
                let next = self.peek();
                self.pos += 1;
                match next {
                    Some(b'(') => Raw::VecOpen,
                    Some(b'\'') => Raw::Prefix("syntax"),
                    Some(b'`') => Raw::Prefix("quasisyntax"),
                    Some(b',') if self.peek() == Some(b'@') => {
                        self.pos += 1;
                        Raw::Prefix("unsyntax-splicing")
                    }
                    Some(b',') => Raw::Prefix("unsyntax"),
                    Some(b';') => Raw::DatumComment,
                    Some(b'\\') => self.lex_char(start)?,
                    Some(b't') => Raw::Bool(true),
                    Some(b'f') => Raw::Bool(false),
                    other => {
                        return Err(LexError {
                            message: format!(
                                "unknown # syntax: #{}",
                                other.map(|c| c as char).unwrap_or(' ')
                            ),
                            at: start as u32,
                        })
                    }
                }
            }
            _ => {
                while let Some(b) = self.peek() {
                    if is_symbol_char(b) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                match &self.src[start..self.pos] {
                    "." => Raw::Dot,
                    text => Raw::Bare(text),
                }
            }
        };
        Ok(Some((raw, start as u32)))
    }

    /// Lexes the next token, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] for unterminated strings/comments, bad escapes,
    /// and unknown `#` syntax.
    pub fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        let Some((raw, start)) = self.next_raw()? else {
            return Ok(None);
        };
        let kind = match raw {
            Raw::Open => TokenKind::LParen,
            Raw::Close(c) => TokenKind::RParen(c),
            Raw::VecOpen => TokenKind::VecOpen,
            Raw::Prefix(keyword) => match keyword {
                "quote" => TokenKind::Quote,
                "quasiquote" => TokenKind::Quasiquote,
                "unquote" => TokenKind::Unquote,
                "unquote-splicing" => TokenKind::UnquoteSplicing,
                "syntax" => TokenKind::SyntaxQuote,
                "quasisyntax" => TokenKind::Quasisyntax,
                "unsyntax" => TokenKind::Unsyntax,
                _ => TokenKind::UnsyntaxSplicing,
            },
            Raw::Dot => TokenKind::Dot,
            Raw::DatumComment => TokenKind::DatumComment,
            Raw::Bool(b) => TokenKind::Atom(Datum::Bool(b)),
            Raw::Char(c) => TokenKind::Atom(Datum::Char(c)),
            Raw::Str { body, escaped: false } => TokenKind::Atom(Datum::string(body)),
            Raw::Str { body, escaped: true } => TokenKind::Atom(Datum::string(&unescape(body))),
            Raw::Bare(text) => TokenKind::Atom(match classify(text) {
                Bare::Int(n) => Datum::Int(n),
                Bare::Float(x) => Datum::Float(x),
                Bare::Sym => Datum::sym(text),
            }),
        };
        Ok(Some(Token {
            kind,
            start,
            end: self.pos as u32,
        }))
    }

    /// Lexes the whole input to a vector of tokens.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LexError`] encountered.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }
}

/// A token as a borrowed view of the input. [`Lexer::next_token`] and the
/// zero-copy [`crate::Cursor`] share it, so both follow one set of lexical
/// rules; atoms stay unparsed spans until a caller asks what they denote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Raw<'src> {
    /// `(` or `[`.
    Open,
    /// `)` or `]`.
    Close(char),
    /// `#(`.
    VecOpen,
    /// A quotation prefix (`'`, `` ` ``, `,`, `,@` and their `#`
    /// forms), carrying the keyword its datum is wrapped in.
    Prefix(&'static str),
    /// A lone `.`.
    Dot,
    /// `#;`.
    DatumComment,
    /// `#t` / `#f`.
    Bool(bool),
    /// `#\…`.
    Char(char),
    /// A string literal's text between its quotes, escapes undecoded;
    /// `escaped` is true iff it holds a backslash.
    Str { body: &'src str, escaped: bool },
    /// A symbol or number, as written.
    Bare(&'src str),
}

/// Decodes the escapes of a string body the lexer has validated.
pub(crate) fn unescape(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// What bare atom text (anything but a lone `.`) denotes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Bare {
    Int(i64),
    Float(f64),
    Sym,
}

/// Classifies bare atom text as an exact integer, an inexact real, or a
/// symbol.
pub(crate) fn classify(text: &str) -> Bare {
    if let Ok(n) = text.parse::<i64>() {
        return Bare::Int(n);
    }
    match text {
        "+inf.0" => return Bare::Float(f64::INFINITY),
        "-inf.0" => return Bare::Float(f64::NEG_INFINITY),
        "+nan.0" => return Bare::Float(f64::NAN),
        _ => {}
    }
    // Only treat as a float when it looks like a number, so symbols like
    // `1+` or `...` stay symbols.
    let looks_numeric = text
        .strip_prefix(['+', '-'])
        .unwrap_or(text)
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '.');
    if looks_numeric {
        if let Ok(x) = text.parse::<f64>() {
            return Bare::Float(x);
        }
    }
    Bare::Sym
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_parens_and_atoms() {
        assert_eq!(
            kinds("(+ 1 2)"),
            vec![
                TokenKind::LParen,
                TokenKind::Atom(Datum::sym("+")),
                TokenKind::Atom(Datum::Int(1)),
                TokenKind::Atom(Datum::Int(2)),
                TokenKind::RParen(')'),
            ]
        );
    }

    #[test]
    fn lexes_brackets() {
        assert_eq!(
            kinds("[x]"),
            vec![
                TokenKind::LParen,
                TokenKind::Atom(Datum::sym("x")),
                TokenKind::RParen(']'),
            ]
        );
    }

    #[test]
    fn lexes_quotes() {
        assert_eq!(
            kinds("'a `b ,c ,@d"),
            vec![
                TokenKind::Quote,
                TokenKind::Atom(Datum::sym("a")),
                TokenKind::Quasiquote,
                TokenKind::Atom(Datum::sym("b")),
                TokenKind::Unquote,
                TokenKind::Atom(Datum::sym("c")),
                TokenKind::UnquoteSplicing,
                TokenKind::Atom(Datum::sym("d")),
            ]
        );
    }

    #[test]
    fn lexes_syntax_quotes() {
        assert_eq!(
            kinds("#'a #`b #,c #,@d"),
            vec![
                TokenKind::SyntaxQuote,
                TokenKind::Atom(Datum::sym("a")),
                TokenKind::Quasisyntax,
                TokenKind::Atom(Datum::sym("b")),
                TokenKind::Unsyntax,
                TokenKind::Atom(Datum::sym("c")),
                TokenKind::UnsyntaxSplicing,
                TokenKind::Atom(Datum::sym("d")),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42"), vec![TokenKind::Atom(Datum::Int(42))]);
        assert_eq!(kinds("-7"), vec![TokenKind::Atom(Datum::Int(-7))]);
        assert_eq!(kinds("1.5"), vec![TokenKind::Atom(Datum::Float(1.5))]);
        assert_eq!(kinds("-0.25"), vec![TokenKind::Atom(Datum::Float(-0.25))]);
        assert_eq!(kinds("1/2"), vec![TokenKind::Atom(Datum::sym("1/2"))]);
    }

    #[test]
    fn symbols_with_tricky_names() {
        for s in ["...", "->", "1+", "set!", "list->vector", "equal?"] {
            assert_eq!(kinds(s), vec![TokenKind::Atom(Datum::sym(s))]);
        }
    }

    #[test]
    fn lexes_characters() {
        assert_eq!(kinds(r"#\a"), vec![TokenKind::Atom(Datum::Char('a'))]);
        assert_eq!(kinds(r"#\space"), vec![TokenKind::Atom(Datum::Char(' '))]);
        assert_eq!(kinds(r"#\newline"), vec![TokenKind::Atom(Datum::Char('\n'))]);
        assert_eq!(kinds(r"#\("), vec![TokenKind::Atom(Datum::Char('('))]);
        assert_eq!(kinds(r"#\)"), vec![TokenKind::Atom(Datum::Char(')'))]);
    }

    #[test]
    fn lexes_strings() {
        assert_eq!(
            kinds(r#""hi\n""#),
            vec![TokenKind::Atom(Datum::string("hi\n"))]
        );
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
    }

    #[test]
    fn comments_are_atmosphere() {
        assert_eq!(kinds("; hello\n1"), vec![TokenKind::Atom(Datum::Int(1))]);
        assert_eq!(kinds("#| multi \n line |# 2"), vec![TokenKind::Atom(Datum::Int(2))]);
        assert_eq!(
            kinds("#| nested #| inner |# outer |# 3"),
            vec![TokenKind::Atom(Datum::Int(3))]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = Lexer::new("(abc 12)").tokenize().unwrap();
        assert_eq!((toks[1].start, toks[1].end), (1, 4));
        assert_eq!((toks[2].start, toks[2].end), (5, 7));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::new("#| never closed").tokenize().is_err());
    }

    #[test]
    fn unknown_hash_errors() {
        assert!(Lexer::new("#z").tokenize().is_err());
    }
}
