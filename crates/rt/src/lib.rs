//! Runtime support for the **Rust proc-macro implementation** of
//! profile-guided meta-programming.
//!
//! The paper validates its design by implementing it in two
//! meta-programming systems (Chez Scheme and Racket). This workspace does
//! the same: the main implementation is the embedded Scheme-like system
//! (`pgmp` crate); the second is Rust's own meta-programming system —
//! procedural macros (`pgmp-macros`), with this crate as the profiler
//! substrate.
//!
//! Profile points are string names. A [`Profiler`] handle owns their
//! counters: it interns each name to a dense slot, and every thread that
//! hits counts into its own lane of slots, which only that thread writes.
//! The code `pgmp-macros` generates holds one [`Point`] per call site,
//! which caches its slot, so a counted hit is a thread-local lookup plus a
//! load and a store: no hash, no lock, no read-modify-write. A disabled
//! hit is one relaxed load. The free functions ([`hit`], [`count`],
//! [`reset`], …) work on [`Profiler::global`]; tests and embedders can
//! make private handles with [`Profiler::new`].
//!
//! Profiles are stored in the same textual format as the main system
//! (point names play the role of filenames, with zero spans), so the two
//! implementations' profile files are mutually readable.
//!
//! # Example
//!
//! ```
//! use pgmp_rt::{Point, Profiler};
//!
//! // A private handle: its own enabled state, names and lanes.
//! let profiler = Profiler::new();
//! profiler.enable();
//! for _ in 0..3 {
//!     profiler.hit("demo#0");
//! }
//! profiler.hit("demo#1");
//! profiler.disable();
//! let w = profiler.snapshot_weights();
//! assert_eq!(w.weight("demo#0"), 1.0);
//! assert!((w.weight("demo#1") - 1.0 / 3.0).abs() < 1e-12);
//!
//! // What `#[profiled]` and `profile!` expand to: a per-call-site point
//! // on the global handle.
//! static POINT: Point = Point::new("demo#2");
//! pgmp_rt::enable_profiling();
//! POINT.hit();
//! pgmp_rt::disable_profiling();
//! assert_eq!(pgmp_rt::count("demo#2"), 1);
//! ```

mod profiler;
mod slots;

pub use profiler::{Point, Profiler};
pub use slots::AtomicSlotArray;

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Turns counting on for the global profiler. Off by default: profile
/// points cost one relaxed atomic load when disabled (§3.1's "no overhead
/// when not instrumented", approximated). Calls nest with
/// [`disable_profiling`]; see [`Profiler::enable`].
pub fn enable_profiling() {
    Profiler::global().enable();
}

/// Ends one [`enable_profiling`].
pub fn disable_profiling() {
    Profiler::global().disable();
}

/// Whether [`hit`] currently counts.
pub fn profiling_enabled() -> bool {
    Profiler::global().is_enabled()
}

/// Increments `point`'s counter on the global profiler when profiling is
/// enabled. Macro-generated code uses [`Point::hit`] instead, which skips
/// the name lookup.
///
/// Saturates at `u64::MAX` rather than wrapping: a long-running adaptive
/// loop can genuinely exhaust a `u64` on a hot point, and a wrapped counter
/// would silently invert every weight computed from it.
#[inline]
pub fn hit(point: &str) {
    Profiler::global().hit(point);
}

/// Current count of `point`.
pub fn count(point: &str) -> u64 {
    Profiler::global().count(point)
}

/// Zeroes all counters (does not change the enabled flag).
pub fn reset() {
    Profiler::global().reset();
}

/// Profile weights in `[0, 1]`, normalized by the hottest point of the
/// dataset — the paper's §3.2 abstraction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Weights {
    weights: HashMap<String, f64>,
    dataset_count: usize,
}

/// Error parsing a stored profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseProfileError {
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed profile: {}", self.message)
    }
}

impl std::error::Error for ParseProfileError {}

fn malformed(m: impl Into<String>) -> ParseProfileError {
    ParseProfileError { message: m.into() }
}

impl Weights {
    /// Weights with no datasets; every query is 0.
    pub fn empty() -> Weights {
        Weights::default()
    }

    /// Builds weights from raw counts (one dataset).
    pub fn from_counts(counts: &HashMap<String, u64>) -> Weights {
        let max = counts.values().copied().max().unwrap_or(0);
        let weights = counts
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    if max == 0 { 0.0 } else { *v as f64 / max as f64 },
                )
            })
            .collect();
        Weights {
            weights,
            dataset_count: 1,
        }
    }

    /// The weight of `point`, `0.0` when unknown.
    pub fn weight(&self, point: &str) -> f64 {
        self.weights.get(point).copied().unwrap_or(0.0)
    }

    /// True when no dataset has been incorporated.
    pub fn is_empty(&self) -> bool {
        self.dataset_count == 0
    }

    /// Number of datasets summarized.
    pub fn dataset_count(&self) -> usize {
        self.dataset_count
    }

    /// Merges by dataset-weighted averaging (Figure 3 of the paper).
    pub fn merge(&self, other: &Weights) -> Weights {
        if self.dataset_count == 0 {
            return other.clone();
        }
        if other.dataset_count == 0 {
            return self.clone();
        }
        let n1 = self.dataset_count as f64;
        let n2 = other.dataset_count as f64;
        let total = n1 + n2;
        let mut weights = HashMap::new();
        for (k, w) in &self.weights {
            let w2 = other.weights.get(k).copied().unwrap_or(0.0);
            weights.insert(k.clone(), (w * n1 + w2 * n2) / total);
        }
        for (k, w2) in &other.weights {
            weights
                .entry(k.clone())
                .or_insert_with(|| w2 * n2 / total);
        }
        Weights {
            weights,
            dataset_count: self.dataset_count + other.dataset_count,
        }
    }

    /// Serializes in the shared textual format.
    pub fn to_profile_string(&self) -> String {
        let mut entries: Vec<(&String, &f64)> = self.weights.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::from("(pgmp-profile\n  (version 1)\n");
        out.push_str(&format!("  (datasets {})\n", self.dataset_count));
        for (k, w) in entries {
            out.push_str(&format!("  (point {:?} 0 0 {:?})\n", k, w));
        }
        out.push(')');
        out
    }

    /// Parses the shared textual format (a small hand-rolled reader so
    /// this crate stays dependency-free for proc-macro consumption).
    ///
    /// # Errors
    ///
    /// Returns [`ParseProfileError`] on any structural problem or weight
    /// outside `[0, 1]`.
    pub fn parse(text: &str) -> Result<Weights, ParseProfileError> {
        let toks = tokenize(text)?;
        let mut pos = 0usize;
        expect(&toks, &mut pos, "(")?;
        expect_word(&toks, &mut pos, "pgmp-profile")?;
        let mut weights = HashMap::new();
        let mut dataset_count = 1usize;
        loop {
            match toks.get(pos).map(String::as_str) {
                Some(")") => break,
                Some("(") => {
                    pos += 1;
                    let tag = next(&toks, &mut pos)?;
                    match tag.as_str() {
                        "version" => {
                            let v = next(&toks, &mut pos)?;
                            if v != "1" && v != "2" {
                                return Err(malformed(format!("unsupported version {v}")));
                            }
                        }
                        "datasets" => {
                            let v = next(&toks, &mut pos)?;
                            dataset_count = v
                                .parse()
                                .map_err(|_| malformed(format!("bad dataset count {v}")))?;
                        }
                        "point" => {
                            let name = next(&toks, &mut pos)?;
                            let name = name
                                .strip_prefix('"')
                                .and_then(|n| n.strip_suffix('"'))
                                .ok_or_else(|| malformed("point name must be a string"))?
                                .to_owned();
                            let _bfp = next(&toks, &mut pos)?;
                            let _efp = next(&toks, &mut pos)?;
                            let w: f64 = next(&toks, &mut pos)?
                                .parse()
                                .map_err(|_| malformed("bad weight"))?;
                            if !(0.0..=1.0).contains(&w) {
                                return Err(malformed(format!("weight {w} outside [0,1]")));
                            }
                            weights.insert(name, w);
                        }
                        // v2 slot-table entries: this crate keys weights by
                        // point name, so the slot index is skipped; a slot
                        // entry's trailing weight (if present) is recorded
                        // under the name like a `point` entry's.
                        "slots" => {
                            let v = next(&toks, &mut pos)?;
                            v.parse::<usize>()
                                .map_err(|_| malformed(format!("bad slot count {v}")))?;
                        }
                        "slot" => {
                            let _index = next(&toks, &mut pos)?;
                            let name = next(&toks, &mut pos)?;
                            let name = name
                                .strip_prefix('"')
                                .and_then(|n| n.strip_suffix('"'))
                                .ok_or_else(|| malformed("slot name must be a string"))?
                                .to_owned();
                            let _bfp = next(&toks, &mut pos)?;
                            let _efp = next(&toks, &mut pos)?;
                            if toks.get(pos).map(String::as_str) != Some(")") {
                                let w: f64 = next(&toks, &mut pos)?
                                    .parse()
                                    .map_err(|_| malformed("bad weight"))?;
                                if !(0.0..=1.0).contains(&w) {
                                    return Err(malformed(format!("weight {w} outside [0,1]")));
                                }
                                weights.insert(name, w);
                            }
                        }
                        other => return Err(malformed(format!("unknown entry `{other}`"))),
                    }
                    expect(&toks, &mut pos, ")")?;
                }
                Some(other) => return Err(malformed(format!("unexpected token `{other}`"))),
                None => return Err(malformed("unexpected end of profile")),
            }
        }
        Ok(Weights {
            weights,
            dataset_count,
        })
    }

    /// Loads and parses a profile file.
    ///
    /// # Errors
    ///
    /// I/O errors are reported as [`ParseProfileError`]s with the OS
    /// message.
    pub fn load(path: impl AsRef<Path>) -> Result<Weights, ParseProfileError> {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| malformed(format!("{}: {e}", path.as_ref().display())))?;
        Weights::parse(&text)
    }

    /// Writes the profile to `path` atomically: temp file in the same
    /// directory + fsync + rename, so a crash mid-write can't leave a torn
    /// profile behind.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let base = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "profile".to_owned());
        let tmp = dir.join(format!(".{base}.tmp.{}", std::process::id()));
        let write = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_profile_string().as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        write
    }
}

/// Snapshots the global profiler's counters into [`Weights`] (what
/// `store-profile` writes).
pub fn snapshot_weights() -> Weights {
    Profiler::global().snapshot_weights()
}

/// Stores the global profiler's weights to `path` — Figure 4's
/// `store-profile` for the proc-macro implementation.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn store_profile(path: impl AsRef<Path>) -> std::io::Result<()> {
    Profiler::global().store_profile(path)
}

fn tokenize(text: &str) -> Result<Vec<String>, ParseProfileError> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' => out.push("(".to_owned()),
            ')' => out.push(")".to_owned()),
            '"' => {
                let mut s = String::from('"');
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => s.push(e),
                            None => return Err(malformed("unterminated string escape")),
                        },
                        Some(c) => s.push(c),
                        None => return Err(malformed("unterminated string")),
                    }
                }
                s.push('"');
                out.push(s);
            }
            c if c.is_whitespace() => {}
            c => {
                let mut s = String::from(c);
                while let Some(&n) = chars.peek() {
                    if n.is_whitespace() || n == '(' || n == ')' {
                        break;
                    }
                    s.push(n);
                    chars.next();
                }
                out.push(s);
            }
        }
    }
    Ok(out)
}

fn next(toks: &[String], pos: &mut usize) -> Result<String, ParseProfileError> {
    let t = toks
        .get(*pos)
        .ok_or_else(|| malformed("unexpected end of profile"))?;
    *pos += 1;
    Ok(t.clone())
}

fn expect(toks: &[String], pos: &mut usize, want: &str) -> Result<(), ParseProfileError> {
    let t = next(toks, pos)?;
    if t == want {
        Ok(())
    } else {
        Err(malformed(format!("expected `{want}`, found `{t}`")))
    }
}

fn expect_word(toks: &[String], pos: &mut usize, want: &str) -> Result<(), ParseProfileError> {
    expect(toks, pos, want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize_and_merge() {
        let mut c1 = HashMap::new();
        c1.insert("a".to_owned(), 5);
        c1.insert("b".to_owned(), 10);
        let w1 = Weights::from_counts(&c1);
        assert_eq!(w1.weight("a"), 0.5);
        assert_eq!(w1.weight("b"), 1.0);
        let mut c2 = HashMap::new();
        c2.insert("a".to_owned(), 100);
        c2.insert("b".to_owned(), 10);
        let merged = w1.merge(&Weights::from_counts(&c2));
        assert_eq!(merged.weight("a"), 0.75);
        assert_eq!(merged.weight("b"), 0.55);
        assert_eq!(merged.dataset_count(), 2);
    }

    #[test]
    fn profile_text_round_trips() {
        let mut c = HashMap::new();
        c.insert("parse#0".to_owned(), 55);
        c.insert("parse#1".to_owned(), 10);
        let w = Weights::from_counts(&c);
        let text = w.to_profile_string();
        let back = Weights::parse(&text).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "(not-a-profile)",
            "(pgmp-profile (version 3))",
            "(pgmp-profile (point \"x\" 0 0 1.5))",
            "(pgmp-profile (point 7 0 0 0.5))",
            "(pgmp-profile (mystery))",
            "(pgmp-profile (version 2) (slot 0 \"x\" 0 0 1.5))",
            "(pgmp-profile (version 2) (slots nope))",
        ] {
            assert!(Weights::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pgmp-rt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.pgmp");
        let mut c = HashMap::new();
        c.insert("x".to_owned(), 3);
        let w = Weights::from_counts(&c);
        w.store(&path).unwrap();
        assert_eq!(Weights::load(&path).unwrap(), w);
        assert!(Weights::load("/nonexistent/p.pgmp").is_err());
    }

    #[test]
    fn main_system_format_is_readable() {
        // A file written by pgmp-profiler (filenames + spans) parses here
        // too; span info is ignored.
        let text = "(pgmp-profile\n (version 1)\n (datasets 2)\n (point \"a.scm\" 3 9 0.5))";
        let w = Weights::parse(text).unwrap();
        assert_eq!(w.weight("a.scm"), 0.5);
        assert_eq!(w.dataset_count(), 2);
    }

    #[test]
    fn main_system_v2_format_is_readable() {
        // v2 files carry a slot table; this crate keys by name, so the
        // index and spans are ignored but slot weights are kept.
        let text = "(pgmp-profile\n (version 2)\n (datasets 1)\n (slots 2)\n \
                    (slot 0 \"hot.scm\" 3 9 1.0)\n (slot 1 \"cold.scm\" 0 2)\n \
                    (point \"extra.scm\" 0 1 0.25))";
        let w = Weights::parse(text).unwrap();
        assert_eq!(w.weight("hot.scm"), 1.0);
        assert_eq!(w.weight("cold.scm"), 0.0, "weightless slot entry");
        assert_eq!(w.weight("extra.scm"), 0.25);
    }
}
