//! Epoch-snapshot persistence for the adaptive loop.
//!
//! [`AdaptiveEngine::save_snapshot`] captures the aggregation state an
//! online session has built up — the rolling profile's decayed counts and
//! epoch counter, plus the baseline weights the serving program was last
//! optimized under — so a restarted process resumes drift detection where
//! the old one stopped instead of from a cold profile. The format follows
//! the profile store's conventions (one s-expression decoded in one
//! streaming pass, atomic writes, typed errors):
//!
//! ```text
//! (pgmp-epoch
//!   (version 1)
//!   (decay 0.5)
//!   (epochs 12)
//!   (count "hot.scm" 3 9 812.5)
//!   (baseline (datasets 1) (point "hot.scm" 3 9 1.0)))
//! ```
//!
//! [`AdaptiveEngine::save_snapshot`]: crate::AdaptiveEngine::save_snapshot

use crate::rolling::RollingProfile;
use pgmp_observe as observe;
use pgmp_profiler::{write_atomic, ProfileInformation, ProfileStoreError};
use pgmp_reader::{Cursor, ReadError};
use pgmp_syntax::{Datum, SourceInterner, SourceObject, StrLit};
use std::fmt::Write as _;
use std::path::Path;

/// The persisted aggregation state of an adaptive session.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// Decay factor the counts were accumulated under (diagnostic: a
    /// restoring engine keeps its own configured decay).
    pub decay: f64,
    /// Epochs absorbed before the snapshot.
    pub epochs: u64,
    /// Retained (decayed) counts, sorted by point.
    pub counts: Vec<(SourceObject, f64)>,
    /// Weights the serving program generation was optimized under.
    pub baseline: ProfileInformation,
}

impl EpochSnapshot {
    /// Captures a rolling profile plus its optimization baseline.
    pub fn capture(rolling: &RollingProfile, baseline: &ProfileInformation) -> EpochSnapshot {
        EpochSnapshot {
            decay: rolling.decay(),
            epochs: rolling.epochs(),
            counts: rolling.entries(),
            baseline: baseline.clone(),
        }
    }

    /// Serializes the snapshot.
    pub fn store_to_string(&self) -> String {
        let mut out = String::from("(pgmp-epoch\n  (version 1)\n");
        let _ = writeln!(out, "  (decay {})", Datum::Float(self.decay));
        let _ = writeln!(out, "  (epochs {})", self.epochs);
        for (p, c) in &self.counts {
            let _ = writeln!(
                out,
                "  (count {} {} {} {})",
                StrLit(p.file.as_str()),
                p.bfp,
                p.efp,
                Datum::Float(*c)
            );
        }
        let mut points: Vec<(SourceObject, f64)> = self.baseline.iter().collect();
        points.sort_by_key(|e| e.0);
        let _ = write!(
            out,
            "  (baseline (datasets {})",
            self.baseline.dataset_count()
        );
        for (p, w) in points {
            let _ = write!(
                out,
                " (point {} {} {} {})",
                StrLit(p.file.as_str()),
                p.bfp,
                p.efp,
                Datum::Float(w)
            );
        }
        out.push_str("))");
        out
    }

    /// Parses a snapshot in one walk over a [`Cursor`].
    ///
    /// # Errors
    ///
    /// Typed [`ProfileStoreError`]s: `Malformed` for structural problems
    /// (positions outside `[0, 2^32)` included), `UnsupportedVersion` for a
    /// version other than 1. Never panics on hostile input.
    pub fn load_from_str(text: &str) -> Result<EpochSnapshot, ProfileStoreError> {
        let mut c = Cursor::new(text, "<epoch>");
        c.open("snapshot")?;
        if c.sym("pgmp-epoch header")? != "pgmp-epoch" {
            return Err(c.error("unexpected header").into());
        }
        let mut files = SourceInterner::default();
        let mut version: Option<i64> = None;
        let mut decay = 1.0f64;
        let mut epochs = 0u64;
        let mut counts: Vec<(SourceObject, f64)> = Vec::new();
        let mut baseline = ProfileInformation::empty();
        while let Some((tag, _)) = c.entry("snapshot")? {
            match tag {
                "version" => {
                    let v = c.int("version")?;
                    if version.replace(v).is_some() {
                        return Err(c.error("duplicate version entry").into());
                    }
                }
                "decay" => {
                    decay = number(&mut c, "decay")?;
                    if !(0.0..=1.0).contains(&decay) {
                        return Err(c.error(format!("decay {decay} outside [0,1]")).into());
                    }
                }
                "epochs" => {
                    let n = c.int("epoch count")?;
                    epochs = u64::try_from(n).map_err(|_| c.error("negative epoch count"))?;
                }
                "count" => {
                    let file = c.string("count file")?;
                    let bfp = c.u32("count position")?;
                    let efp = c.u32("count position")?;
                    let n = number(&mut c, "count")?;
                    if !n.is_finite() || n < 0.0 {
                        return Err(c.error(format!("count {n} must be finite and >= 0")).into());
                    }
                    counts.push((files.point(&file, bfp, efp), n));
                }
                "baseline" => {
                    baseline = read_baseline(&mut c, &mut files)?;
                    continue;
                }
                other => return Err(c.error(format!("unknown snapshot entry `{other}`")).into()),
            }
            c.close(tag)?;
        }
        if c.next()?.is_some() {
            return Err(c.error("expected exactly one top-level form").into());
        }
        match version {
            Some(1) => {}
            Some(v) => return Err(ProfileStoreError::UnsupportedVersion(v)),
            None => return Err(c.error("missing version entry").into()),
        }
        Ok(EpochSnapshot {
            decay,
            epochs,
            counts,
            baseline,
        })
    }

    /// Writes the snapshot to `path` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`ProfileStoreError::Io`] on I/O failure.
    pub fn store_file(&self, path: impl AsRef<Path>) -> Result<(), ProfileStoreError> {
        let text = self.store_to_string();
        let t = observe::timer();
        write_atomic(path.as_ref(), &text)?;
        observe::finish(t, |duration_us| observe::EventKind::StoreWrite {
            path: path.as_ref().display().to_string(),
            kind: "snapshot".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        Ok(())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// As [`EpochSnapshot::load_from_str`], plus I/O errors.
    pub fn load_file(path: impl AsRef<Path>) -> Result<EpochSnapshot, ProfileStoreError> {
        let t = observe::timer();
        let text = std::fs::read_to_string(path.as_ref())?;
        let snap = EpochSnapshot::load_from_str(&text)?;
        observe::finish(t, |duration_us| observe::EventKind::StoreRead {
            path: path.as_ref().display().to_string(),
            kind: "snapshot".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        Ok(snap)
    }
}

fn number(c: &mut Cursor, what: &str) -> Result<f64, ReadError> {
    let a = c.atom(what)?;
    a.number().ok_or_else(|| c.error(format!("bad {what}")))
}


/// After `(baseline`: `(datasets N)` and weighted points, and the close.
fn read_baseline(
    c: &mut Cursor,
    files: &mut SourceInterner,
) -> Result<ProfileInformation, ReadError> {
    let mut dataset_count = 1usize;
    let mut weights = Vec::new();
    while let Some((tag, _)) = c.entry("baseline")? {
        match tag {
            "datasets" => {
                let n = c.int("dataset count")?;
                dataset_count = usize::try_from(n).map_err(|_| c.error("negative dataset count"))?;
            }
            "point" => {
                let file = c.string("point file")?;
                let bfp = c.u32("point position")?;
                let efp = c.u32("point position")?;
                let w = number(c, "weight")?;
                if !(0.0..=1.0).contains(&w) {
                    return Err(c.error(format!("weight {w} outside [0,1]")));
                }
                weights.push((files.point(&file, bfp, efp), w));
            }
            other => return Err(c.error(format!("unknown baseline entry `{other}`"))),
        }
        c.close(tag)?;
    }
    Ok(ProfileInformation::from_weights(weights, dataset_count))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_profiler::Dataset;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("snap.scm", n, n + 1)
    }

    fn sample() -> EpochSnapshot {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&[(p(0), 100), (p(1), 40)].into_iter().collect::<Dataset>());
        r.absorb(&[(p(1), 100)].into_iter().collect::<Dataset>());
        let baseline = ProfileInformation::from_weights([(p(1), 1.0), (p(0), 0.5)], 1);
        EpochSnapshot::capture(&r, &baseline)
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let back = EpochSnapshot::load_from_str(&snap.store_to_string()).unwrap();
        assert_eq!(back.decay, snap.decay);
        assert_eq!(back.epochs, snap.epochs);
        assert_eq!(back.counts, snap.counts);
        assert_eq!(back.baseline, snap.baseline);
    }

    #[test]
    fn restored_rolling_profile_resumes_decay() {
        let snap = sample();
        let text = snap.store_to_string();
        let back = EpochSnapshot::load_from_str(&text).unwrap();
        let mut restored = RollingProfile::from_parts(back.decay, back.epochs, back.counts);
        let mut original = RollingProfile::from_parts(snap.decay, snap.epochs, snap.counts);
        let epoch: Dataset = [(p(0), 7)].into_iter().collect();
        restored.absorb(&epoch);
        original.absorb(&epoch);
        assert_eq!(restored.entries(), original.entries());
    }

    #[test]
    fn corrupt_snapshots_error_without_panic() {
        let good = sample().store_to_string();
        let corpus: Vec<String> = vec![
            String::new(),
            "(".to_owned(),
            "(not-an-epoch)".to_owned(),
            "(pgmp-epoch)".to_owned(),
            "(pgmp-epoch (version 7))".to_owned(),
            "(pgmp-epoch (version 1) (decay 1.5))".to_owned(),
            "(pgmp-epoch (version 1) (count \"x\" -1 0 1.0))".to_owned(),
            "(pgmp-epoch (version 1) (count \"x\" 0 1 bogus))".to_owned(),
            "(pgmp-epoch (version 1) (baseline (point \"x\" 0 1 2.0)))".to_owned(),
            good[..good.len() - 5].to_owned(),
            good.replace("count", "cnuot"),
        ];
        for (i, bad) in corpus.iter().enumerate() {
            let r = EpochSnapshot::load_from_str(bad);
            assert!(r.is_err(), "case {i} must fail: {bad:?}");
        }
        assert!(matches!(
            EpochSnapshot::load_from_str("(pgmp-epoch (version 7))"),
            Err(ProfileStoreError::UnsupportedVersion(7))
        ));
    }

    #[test]
    fn positions_outside_u32_are_malformed_not_wrapped() {
        for text in [
            "(pgmp-epoch (version 1) (count \"x\" 4294967297 4294967300 1.0))",
            "(pgmp-epoch (version 1) (baseline (point \"x\" 0 4294967296 0.5)))",
        ] {
            assert!(
                matches!(EpochSnapshot::load_from_str(text), Err(ProfileStoreError::Malformed(_))),
                "{text}"
            );
        }
    }

    #[test]
    fn atomic_store_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("pgmp-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let snap = sample();
        snap.store_file(&path).unwrap();
        let back = EpochSnapshot::load_file(&path).unwrap();
        assert_eq!(back.counts, snap.counts);
        // No temp-file droppings.
        let stray = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp.")
            })
            .count();
        assert_eq!(stray, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
