//! On-disk representation of an [`IncrementalEngine`] session.
//!
//! [`IncrementalEngine::save_state`] serializes the per-form recompilation
//! cache — form fingerprints, profile read-sets, factory snapshots, printed
//! expansions, and core trees *with their source objects* — so a fresh
//! process can warm-start re-optimization in O(changed forms) instead of
//! expanding everything from scratch. The file is a single s-expression,
//! like profile files:
//!
//! ```text
//! (pgmp-session
//!   (version 1)
//!   (file "prog.scm")
//!   (weights (datasets 1) (point "prog.scm" 3 9 1.0))
//!   (strings "f" "prog.scm")
//!   (form 0 "00deadbeef15dead"
//!     (meta)
//!     (reads (point "prog.scm" 3 9 1.0) (avail #t) (whole) (volatile))
//!     (fpre ("prog.scm" 2))
//!     (fpost ("prog.scm" 3))
//!     (expansion "(define (f) 1)")
//!     (cores (defg #f 0 (lambda #f 0 #f 0 #f (const #f 1))))
//!     (chunk-ids 17)
//!     (snapshot (datasets 1) (point "prog.scm" 3 9 1.0))))
//! ```
//!
//! The `(strings …)` section is a string table: file names and global
//! symbols inside `cores` trees appear as integer indices into it (the
//! `0`s in the `defg` above both mean `"f"`). Source objects annotate
//! nearly every core node, so writing each distinct string once keeps
//! session files compact and — the warm-start critical path — spares a
//! string allocation per node at parse time. Verbatim strings remain
//! accepted wherever an index may appear.
//!
//! Per-form sub-entries are optional and default to empty/false; `(meta)`
//! marks a form whose expansion changed compile-time state (`define-syntax`
//! and friends) — such forms are **replayed** through the real expander at
//! load time (transformer closures cannot be serialized), while value forms
//! are rehydrated from their stored artifacts. See DESIGN.md §4d for the
//! soundness argument.
//!
//! Both directions stream. The writer renders straight into one `String`
//! — no datum tree — and its output is byte-identical to printing the
//! entries as datums. The decoder walks the file once with a
//! [`pgmp_reader::Cursor`], core trees included
//! ([`pgmp_eval::read_core`]); only a file whose `(strings …)` section
//! follows a `(form …)` entry costs a second walk over its form entries.
//! Canonical CFG strings are not part of a session: consumers compute
//! them on demand ([`crate::incremental::CompiledUnit::cfgs`]).
//!
//! Loads are corruption-tolerant: any structural problem — including a
//! position outside `[0, 2^32)` — surfaces as a typed
//! [`ProfileStoreError`] naming the byte offset, never a panic, and
//! writes go through [`pgmp_profiler::write_atomic`].
//!
//! [`IncrementalEngine`]: crate::incremental::IncrementalEngine
//! [`IncrementalEngine::save_state`]: crate::incremental::IncrementalEngine::save_state

use crate::api::ProfileReadLog;
use pgmp_eval::{read_core, write_core, Core, StringTable};
use pgmp_profiler::{ProfileInformation, ProfileStoreError};
use pgmp_reader::{Atom, Cursor, Event, ReadError};
use pgmp_syntax::{Datum, SourceFactory, SourceInterner, SourceObject, StrLit, Symbol};
use std::fmt::Write as _;
use std::rc::Rc;

/// What [`save_state`] wrote: how much of the cache was persistable.
///
/// [`save_state`]: crate::incremental::IncrementalEngine::save_state
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveStats {
    /// Top-level forms in the program.
    pub total_forms: usize,
    /// Forms whose cache entry was written to the session file.
    pub saved: usize,
    /// Forms with no persistable entry (never compiled, volatile reads, or
    /// artifacts containing residual syntax objects). They re-expand on
    /// warm start.
    pub skipped: usize,
}

/// What [`load_state`] restored: the warm-start ledger.
///
/// [`load_state`]: crate::incremental::IncrementalEngine::load_state
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Top-level forms in the program.
    pub total_forms: usize,
    /// Value forms rehydrated from stored artifacts — no re-expansion.
    pub restored: usize,
    /// Meta forms replayed through the expander to re-register their
    /// transformers (their artifacts cannot be stored).
    pub replayed_meta: usize,
    /// Forms with no usable stored entry (missing, fingerprint drift, or a
    /// broken factory chain). They re-expand on the next compile.
    pub skipped: usize,
    /// Chunk-id reconciliation map: `(stored id, fresh id)` for every
    /// rehydrated chunk. Block-counter data keyed by the saving process's
    /// chunk ids can be carried over with
    /// [`pgmp_bytecode::BlockCounters::remap_chunk`].
    pub chunk_map: Vec<(u32, u32)>,
    /// Source file name recorded by the saving process (diagnostic only —
    /// validity is established per form by fingerprints, not by file name).
    pub source_file: String,
}

/// One form's persisted cache entry, decoded.
#[derive(Debug, PartialEq)]
pub(crate) struct StoredForm {
    pub(crate) index: usize,
    pub(crate) hash: u64,
    pub(crate) meta: bool,
    pub(crate) reads: ProfileReadLog,
    pub(crate) fpre: SourceFactory,
    pub(crate) fpost: SourceFactory,
    pub(crate) expansion: Vec<String>,
    pub(crate) cores: Vec<Rc<Core>>,
    pub(crate) chunk_ids: Vec<u32>,
    pub(crate) snapshot: Option<ProfileInformation>,
}

/// A whole decoded session file.
#[derive(Debug, PartialEq)]
pub(crate) struct StoredSession {
    pub(crate) file: String,
    pub(crate) weights: ProfileInformation,
    pub(crate) forms: Vec<StoredForm>,
}

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One form's cache entry, as [`write_session`] renders it.
pub(crate) struct FormRecord<'a> {
    pub(crate) index: usize,
    pub(crate) hash: u64,
    pub(crate) meta: bool,
    pub(crate) reads: &'a ProfileReadLog,
    pub(crate) fpre: &'a SourceFactory,
    pub(crate) fpost: &'a SourceFactory,
    /// Artifacts: empty for meta forms, which are replayed at load.
    pub(crate) expansion: &'a [String],
    pub(crate) cores: &'a [Rc<Core>],
    pub(crate) chunk_ids: Vec<u32>,
    pub(crate) snapshot: Option<&'a ProfileInformation>,
}

fn write_point(out: &mut String, p: SourceObject, w: f64) {
    let _ = write!(
        out,
        "(point {} {} {} {})",
        StrLit(p.file.as_str()),
        p.bfp,
        p.efp,
        Datum::Float(w)
    );
}

/// Writes `(tag (datasets N) (point …)…)` for `info`, points sorted.
fn write_profile(out: &mut String, tag: &str, info: &ProfileInformation) {
    let mut points: Vec<(SourceObject, f64)> = info.iter().collect();
    points.sort_by_key(|a| a.0);
    let _ = write!(out, "({tag} (datasets {})", info.dataset_count());
    for (p, w) in points {
        out.push(' ');
        write_point(out, p, w);
    }
    out.push(')');
}

fn write_factory(out: &mut String, tag: &str, f: &SourceFactory) {
    out.push('(');
    out.push_str(tag);
    for (file, n) in f.entries() {
        let _ = write!(out, " ({} {n})", StrLit(file.as_str()));
    }
    out.push(')');
}

fn write_reads(out: &mut String, r: &ProfileReadLog) {
    out.push_str("(reads");
    for (p, w) in &r.points {
        out.push(' ');
        write_point(out, *p, *w);
    }
    if let Some(a) = r.availability {
        let _ = write!(out, " (avail {})", Datum::Bool(a));
    }
    if r.whole_profile {
        out.push_str(" (whole)");
    }
    if r.volatile_reads {
        out.push_str(" (volatile)");
    }
    out.push(')');
}

fn write_form(out: &mut String, f: &FormRecord, table: &StringTable) {
    let _ = write!(out, "  (form {} \"{:016x}\"", f.index, f.hash);
    if f.meta {
        out.push_str("\n    (meta)");
    }
    out.push_str("\n    ");
    write_reads(out, f.reads);
    out.push_str("\n    ");
    write_factory(out, "fpre", f.fpre);
    out.push_str("\n    ");
    write_factory(out, "fpost", f.fpost);
    if !f.expansion.is_empty() {
        out.push_str("\n    (expansion");
        for s in f.expansion {
            let _ = write!(out, " {}", StrLit(s));
        }
        out.push(')');
    }
    if !f.cores.is_empty() {
        out.push_str("\n    (cores");
        for c in f.cores {
            out.push(' ');
            write_core(c, table, out);
        }
        out.push(')');
    }
    if !f.chunk_ids.is_empty() {
        out.push_str("\n    (chunk-ids");
        for id in &f.chunk_ids {
            let _ = write!(out, " {id}");
        }
        out.push(')');
    }
    if let Some(info) = f.snapshot {
        out.push_str("\n    ");
        write_profile(out, "snapshot", info);
    }
    out.push_str(")\n");
}

/// Renders a session file. Forms whose core trees cannot be persisted
/// (they hold residual syntax objects) are left out; returns the text and
/// the number of forms written.
pub(crate) fn write_session(
    file: &str,
    weights: &ProfileInformation,
    forms: &[FormRecord],
) -> (String, usize) {
    // The string table heads the file but is only complete once every
    // tree is interned, so intern first, then write.
    let mut table = StringTable::new();
    let keep: Vec<bool> = forms
        .iter()
        .map(|f| f.cores.iter().all(|c| table.intern_core(c)))
        .collect();
    let mut out = String::from("(pgmp-session\n  (version 1)\n");
    let _ = writeln!(out, "  (file {})", StrLit(file));
    out.push_str("  ");
    write_profile(&mut out, "weights", weights);
    out.push('\n');
    if !table.is_empty() {
        out.push_str("  (strings");
        for s in table.symbols() {
            let _ = write!(out, " {}", StrLit(s.as_str()));
        }
        out.push_str(")\n");
    }
    let mut saved = 0;
    for (f, _) in forms.iter().zip(&keep).filter(|(_, k)| **k) {
        write_form(&mut out, f, &table);
        saved += 1;
    }
    out.push(')');
    (out, saved)
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// After `(point`: `file bfp efp [w]` and the close.
fn read_point(
    c: &mut Cursor,
    files: &mut SourceInterner,
) -> Result<(SourceObject, Option<f64>), ReadError> {
    let file = c.string("point file")?;
    let bfp = c.u32("point position")?;
    let efp = c.u32("point position")?;
    let w = match c.item("point")? {
        None => return Ok((files.point(&file, bfp, efp), None)),
        Some(Event::Atom(a)) => a.number().ok_or_else(|| c.error("bad weight"))?,
        Some(_) => return Err(c.error("bad weight")),
    };
    c.close("point")?;
    Ok((files.point(&file, bfp, efp), Some(w)))
}

/// After `(weights` or `(snapshot`: `(datasets N)` and weighted points.
fn read_profile(
    c: &mut Cursor,
    files: &mut SourceInterner,
) -> Result<ProfileInformation, ReadError> {
    let mut dataset_count = 1usize;
    let mut weights = Vec::new();
    while let Some((tag, _)) = c.entry("profile")? {
        match tag {
            "datasets" => {
                let n = c.int("dataset count")?;
                dataset_count = usize::try_from(n).map_err(|_| c.error("negative dataset count"))?;
                c.close("datasets")?;
            }
            "point" => {
                let (p, w) = read_point(c, files)?;
                let w = w.ok_or_else(|| c.error("point entry missing weight"))?;
                if !(0.0..=1.0).contains(&w) {
                    return Err(c.error(format!("weight {w} outside [0,1]")));
                }
                weights.push((p, w));
            }
            other => return Err(c.error(format!("unknown profile entry `{other}`"))),
        }
    }
    Ok(ProfileInformation::from_weights(weights, dataset_count))
}

fn read_factory(c: &mut Cursor) -> Result<SourceFactory, ReadError> {
    let mut out = Vec::new();
    while let Some(ev) = c.item("factory")? {
        if ev != Event::Open {
            return Err(c.error("bad factory entry"));
        }
        let file = c.string("factory file")?;
        let n = c.u32("factory counter")?;
        c.close("factory entry")?;
        out.push((Symbol::intern(&file), n));
    }
    Ok(SourceFactory::from_entries(out))
}

fn read_reads(c: &mut Cursor, files: &mut SourceInterner) -> Result<ProfileReadLog, ReadError> {
    let mut reads = ProfileReadLog::default();
    while let Some((tag, _)) = c.entry("reads")? {
        match tag {
            "point" => {
                let (p, w) = read_point(c, files)?;
                let w = w.ok_or_else(|| c.error("read point missing weight"))?;
                reads.points.push((p, w));
            }
            "avail" => {
                match c.atom("availability")? {
                    Atom::Bool(a) => reads.availability = Some(a),
                    _ => return Err(c.error("bad availability")),
                }
                c.close("avail")?;
            }
            "whole" => {
                c.close("whole")?;
                reads.whole_profile = true;
            }
            "volatile" => {
                c.close("volatile")?;
                reads.volatile_reads = true;
            }
            other => return Err(c.error(format!("unknown reads entry `{other}`"))),
        }
    }
    Ok(reads)
}

/// After `(form`: the header, the sub-entries and the close.
fn read_form(
    c: &mut Cursor,
    strings: &[Symbol],
    files: &mut SourceInterner,
) -> Result<StoredForm, ReadError> {
    let index = c.int("form index")?;
    let index = usize::try_from(index).map_err(|_| c.error("negative form index"))?;
    let hash = c.string("form hash")?;
    let hash = u64::from_str_radix(&hash, 16)
        .map_err(|_| c.error(format!("bad form hash {hash:?}")))?;
    let mut form = StoredForm {
        index,
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
    while let Some((tag, _)) = c.entry("form")? {
        match tag {
            "meta" => {
                // Arguments are ignored, but the entry must still be a
                // proper list.
                let depth = c.depth() - 1;
                if !c.skip_to(depth)? {
                    return Err(c.error("form sub-entry must be a list"));
                }
                form.meta = true;
            }
            "reads" => form.reads = read_reads(c, files)?,
            "fpre" => form.fpre = read_factory(c)?,
            "fpost" => form.fpost = read_factory(c)?,
            "expansion" => {
                form.expansion.clear();
                while let Some(ev) = c.item("expansion")? {
                    let s = match ev {
                        Event::Atom(a) => a.string(),
                        _ => None,
                    };
                    form.expansion.push(s.ok_or_else(|| c.error("bad expansion entry"))?.into_owned());
                }
            }
            "cores" => {
                form.cores.clear();
                while let Some(ev) = c.item("cores")? {
                    form.cores.push(read_core(c, ev, strings)?);
                }
            }
            "chunk-ids" => {
                form.chunk_ids.clear();
                while let Some(ev) = c.item("chunk-ids")? {
                    let id = match ev {
                        Event::Atom(a) => a.u32(),
                        _ => None,
                    };
                    form.chunk_ids.push(id.ok_or_else(|| c.error("bad chunk id"))?);
                }
            }
            "snapshot" => form.snapshot = Some(read_profile(c, files)?),
            other => return Err(c.error(format!("unknown form sub-entry `{other}`"))),
        }
    }
    Ok(form)
}

/// Parses a session file in one walk.
///
/// # Errors
///
/// [`ProfileStoreError::Malformed`] for any structural problem,
/// [`ProfileStoreError::UnsupportedVersion`] for a version other than 1.
/// Never panics on hostile input.
pub(crate) fn parse_session(text: &str) -> Result<StoredSession, ProfileStoreError> {
    const FILE: &str = "<session>";
    let mut c = Cursor::new(text, FILE);
    match c.next()? {
        Some(Event::Open) => {}
        _ => return Err(malformed("expected one top-level session list")),
    }
    if c.sym("pgmp-session header")? != "pgmp-session" {
        return Err(malformed("unexpected header"));
    }
    let mut files = SourceInterner::default();
    let mut version: Option<i64> = None;
    let mut file = String::new();
    let mut weights = ProfileInformation::empty();
    let mut strings: Vec<Symbol> = Vec::new();
    let mut forms: Vec<StoredForm> = Vec::new();
    // Where each `(form …` starts, for the second walk below.
    let mut form_at: Vec<u32> = Vec::new();
    // Forms decode against the string table read so far. A table that
    // comes after a form, or a form that fails to decode (the true table
    // may still follow), sends every form through a second walk once the
    // final table is known.
    let mut rewalk = false;
    while let Some((tag, at)) = c.entry("session")? {
        match tag {
            "version" => {
                let v = c.int("version")?;
                c.close("version")?;
                if version.replace(v).is_some() {
                    return Err(malformed("duplicate version entry"));
                }
            }
            "file" => {
                file = c.string("file name")?.into_owned();
                c.close("file")?;
            }
            "weights" => weights = read_profile(&mut c, &mut files)?,
            "strings" => {
                strings.clear();
                while let Some(ev) = c.item("strings")? {
                    let s = match ev {
                        Event::Atom(a) => a.string(),
                        _ => None,
                    };
                    strings.push(Symbol::intern(&s.ok_or_else(|| c.error("bad string-table entry"))?));
                }
                rewalk |= !form_at.is_empty();
            }
            "form" => {
                form_at.push(at);
                let depth = c.depth() - 1;
                if rewalk {
                    c.skip_to(depth)?;
                } else {
                    match read_form(&mut c, &strings, &mut files) {
                        Ok(f) => forms.push(f),
                        Err(_) => {
                            rewalk = true;
                            c.skip_to(depth)?;
                        }
                    }
                }
            }
            other => return Err(malformed(format!("unknown session entry `{other}`"))),
        }
    }
    if c.next()?.is_some() {
        return Err(malformed("expected exactly one top-level form"));
    }
    if rewalk {
        forms.clear();
        for at in form_at {
            let mut c = Cursor::at(text, FILE, at);
            let form = c
                .open("form")
                .and_then(|()| c.sym("form tag"))
                .and_then(|_| read_form(&mut c, &strings, &mut files));
            forms.push(form?);
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
        forms,
    })
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "(pgmp-session (version 1) (file \"p.scm\") (strings \"p.scm\" \"f\")";

    fn session(body: &str) -> Result<StoredSession, ProfileStoreError> {
        parse_session(&format!("{HEAD} {body})"))
    }

    #[test]
    fn positions_outside_u32_are_malformed_not_wrapped() {
        let form = |sub: &str| format!("(form 0 \"00000000000000ff\" {sub})");
        for body in [
            "(weights (datasets 1) (point \"p.scm\" 4294967297 4294967300 0.5))".to_owned(),
            form("(reads (point \"p.scm\" 1 4294967296 0.5))"),
            form("(snapshot (datasets 1) (point \"p.scm\" 4294967297 2 0.5))"),
            form("(cores (gref (0 4294967297 4294967300) 1))"),
            form("(cores (lambda #f 0 #f #f (0 1 4294967296) (const #f 1)))"),
        ] {
            assert!(
                matches!(session(&body), Err(ProfileStoreError::Malformed(_))),
                "{body}"
            );
        }
        let ok = session(&form("(cores (gref (0 4294967295 4294967295) 1))")).unwrap();
        assert_eq!(ok.forms[0].cores[0].src, Some(SourceObject::new("p.scm", u32::MAX, u32::MAX)));
    }

    #[test]
    fn a_string_table_after_the_forms_still_resolves_them() {
        let text = "(pgmp-session (version 1) (form 0 \"01\" (cores (gref (0 1 2) 1))) \
                    (strings \"p.scm\" \"f\"))";
        let s = parse_session(text).unwrap();
        assert_eq!(s.forms[0].cores[0].kind, pgmp_eval::CoreKind::GlobalRef(Symbol::intern("f")));
        // An index past the final table is an error all the same.
        let bad = text.replace("(gref (0 1 2) 1)", "(gref (0 1 2) 2)");
        assert!(matches!(parse_session(&bad), Err(ProfileStoreError::Malformed(_))));
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let Err(ProfileStoreError::Malformed(m)) = session("(form 0 \"01\" (chunk-ids -3))") else {
            panic!("negative chunk id accepted");
        };
        assert!(m.contains(&format!(":{})", HEAD.len() + 25)), "{m}");
    }
}
