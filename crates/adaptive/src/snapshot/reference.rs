//! The reference model for the snapshot decoder: the pre-cursor decoder,
//! which reads the whole file into a generic [`Datum`] tree with
//! [`read_datums`] and pattern-matches cloned element lists. Test-only;
//! the differential oracle holds the streaming decoder to it.

use super::EpochSnapshot;
use pgmp_profiler::{ProfileInformation, ProfileStoreError};
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceObject};

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

/// Parses a snapshot.
pub(crate) fn load_from_str(text: &str) -> Result<EpochSnapshot, ProfileStoreError> {
    let forms = read_datums(text, "<epoch>").map_err(|e| malformed(format!("unreadable: {e}")))?;
    let [datum]: [Datum; 1] = forms
        .try_into()
        .map_err(|_| malformed("expected exactly one top-level form"))?;
    let elems = datum
        .list_elems()
        .ok_or_else(|| malformed("top-level form must be a list"))?;
    let [head, entries @ ..] = elems.as_slice() else {
        return Err(malformed("empty snapshot file"));
    };
    match head {
        Datum::Sym(s) if s.as_str() == "pgmp-epoch" => {}
        other => return Err(malformed(format!("unexpected header `{other}`"))),
    }
    let mut version: Option<i64> = None;
    let mut decay = 1.0f64;
    let mut epochs = 0u64;
    let mut counts: Vec<(SourceObject, f64)> = Vec::new();
    let mut baseline = ProfileInformation::empty();
    for e in entries {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("snapshot entry must be a list"))?;
        let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
            return Err(malformed(format!("snapshot entry missing tag: {e}")));
        };
        match (tag.as_str(), args) {
            ("version", [Datum::Int(v)]) => {
                if version.replace(*v).is_some() {
                    return Err(malformed("duplicate version entry"));
                }
            }
            ("decay", [d]) => {
                decay = num(d).ok_or_else(|| malformed(format!("bad decay {d}")))?;
                if !(0.0..=1.0).contains(&decay) {
                    return Err(malformed(format!("decay {decay} outside [0,1]")));
                }
            }
            ("epochs", [Datum::Int(n)]) if *n >= 0 => epochs = *n as u64,
            ("count", [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), c])
                if u32::try_from(*bfp).is_ok() && u32::try_from(*efp).is_ok() =>
            {
                let c = num(c).ok_or_else(|| malformed(format!("bad count {c}")))?;
                if !c.is_finite() || c < 0.0 {
                    return Err(malformed(format!("count {c} must be finite and >= 0")));
                }
                counts.push((SourceObject::new(file, *bfp as u32, *efp as u32), c));
            }
            ("baseline", body) => baseline = baseline_from(body)?,
            (other, _) => {
                return Err(malformed(format!("unknown snapshot entry `{other}`")));
            }
        }
    }
    match version {
        Some(1) => {}
        Some(v) => return Err(ProfileStoreError::UnsupportedVersion(v)),
        None => return Err(malformed("missing version entry")),
    }
    Ok(EpochSnapshot {
        decay,
        epochs,
        counts,
        baseline,
    })
}

fn num(d: &Datum) -> Option<f64> {
    match d {
        Datum::Float(x) => Some(*x),
        Datum::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn baseline_from(entries: &[Datum]) -> Result<ProfileInformation, ProfileStoreError> {
    let mut dataset_count = 1usize;
    let mut weights = Vec::new();
    for e in entries {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("baseline entry must be a list"))?;
        match elems.as_slice() {
            [Datum::Sym(tag), Datum::Int(n)] if tag.as_str() == "datasets" && *n >= 0 => {
                dataset_count = *n as usize;
            }
            [Datum::Sym(tag), Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), w]
                if tag.as_str() == "point"
                    && u32::try_from(*bfp).is_ok()
                    && u32::try_from(*efp).is_ok() =>
            {
                let w = num(w).ok_or_else(|| malformed(format!("bad weight {w}")))?;
                if !(0.0..=1.0).contains(&w) {
                    return Err(malformed(format!("weight {w} outside [0,1]")));
                }
                weights.push((SourceObject::new(file, *bfp as u32, *efp as u32), w));
            }
            _ => return Err(malformed(format!("unknown baseline entry {e}"))),
        }
    }
    Ok(ProfileInformation::from_weights(weights, dataset_count))
}

#[path = "../../../reader/tests/support/mutate.rs"]
mod mutate;

mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::mem::discriminant;

    const FILES: [&str; 4] = ["hot.scm", "q\"uote\\d.scm", "tab\t.scm", "ü.scm"];

    fn point(rng: &mut TestRng) -> SourceObject {
        let file = FILES[rng.below(FILES.len() as u64) as usize];
        let bfp = if rng.below(8) == 0 {
            u32::MAX - rng.below(3) as u32
        } else {
            rng.below(200) as u32
        };
        SourceObject::new(file, bfp, bfp.saturating_add(rng.below(30) as u32))
    }

    fn valid(rng: &mut TestRng) -> String {
        let mut counts: Vec<(SourceObject, f64)> = (0..rng.below(8))
            .map(|_| (point(rng), rng.below(100_000) as f64 / 8.0))
            .collect();
        counts.sort_by_key(|c| c.0);
        let baseline: Vec<(SourceObject, f64)> = (0..rng.below(8))
            .map(|_| (point(rng), rng.below(1001) as f64 / 1000.0))
            .collect();
        EpochSnapshot {
            decay: rng.below(101) as f64 / 100.0,
            epochs: rng.below(1000),
            counts,
            baseline: ProfileInformation::from_weights(baseline, 1 + rng.below(3) as usize),
        }
        .store_to_string()
    }

    fn same(
        a: &Result<EpochSnapshot, ProfileStoreError>,
        b: &Result<EpochSnapshot, ProfileStoreError>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.decay == b.decay
                    && a.epochs == b.epochs
                    && a.counts == b.counts
                    && a.baseline == b.baseline
            }
            (Err(a), Err(b)) => discriminant(a) == discriminant(b),
            _ => false,
        }
    }

    /// A valid snapshot, and a relayout and corruptions of it.
    struct Cases;

    impl Strategy for Cases {
        type Value = Vec<String>;
        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            let base = valid(rng);
            let relaid = mutate::relayout(&base, rng);
            let torn = mutate::corrupt(&base, rng);
            let torn_relaid = mutate::corrupt(&relaid, rng);
            let future = mutate::corrupt(&base.replacen("(version 1)", "(version 7)", 1), rng);
            vec![base, relaid, torn, torn_relaid, future]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The streaming decoder returns what the datum-tree reference
        /// model returns on valid snapshots, relayouts and corruptions.
        #[test]
        fn codec_oracle_snapshots(cases in Cases) {
            let base = EpochSnapshot::load_from_str(&cases[0]);
            prop_assert!(base.is_ok(), "valid snapshot rejected: {:?}: {:?}", cases[0], base.err());
            let relaid = EpochSnapshot::load_from_str(&cases[1]);
            prop_assert!(same(&base, &relaid), "relayout changed the decode: {:?}", cases[1]);
            for text in &cases {
                let fast = EpochSnapshot::load_from_str(text);
                let slow = load_from_str(text);
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
