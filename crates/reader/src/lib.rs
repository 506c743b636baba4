//! The reader: source text → syntax objects.
//!
//! Like the Chez Scheme and Racket readers (§4.1–4.2 of the paper), this
//! reader attaches a [`pgmp_syntax::SourceObject`] to **every** syntax
//! object it produces, which is what lets the profiler attribute counts to
//! source expressions and lets meta-programs query them.
//!
//! Supported lexical syntax: proper/improper lists, vectors `#(…)`,
//! booleans `#t`/`#f`, characters `#\a` (plus named characters), strings
//! with escapes, exact integers, inexact reals, symbols, line comments `;`,
//! block comments `#| … |#`, datum comments `#;`, and the quotation forms
//! `'`, `` ` ``, `,`, `,@` as well as their syntax-object analogues `#'`,
//! `` #` ``, `#,`, `#,@` used by meta-programs.
//!
//! # Example
//!
//! ```
//! use pgmp_reader::read_str;
//! let forms = read_str("(+ 1 2) 'x", "example.scm")?;
//! assert_eq!(forms.len(), 2);
//! assert_eq!(forms[0].to_datum().to_string(), "(+ 1 2)");
//! assert_eq!(forms[1].to_datum().to_string(), "(quote x)");
//! # Ok::<(), pgmp_reader::ReadError>(())
//! ```

mod cursor;
mod lexer;
mod reader;

pub use cursor::{Atom, Cursor, Event};
pub use lexer::{LexError, Lexer, Token, TokenKind};
pub use reader::{read_datums, read_str, ReadError, Reader};
