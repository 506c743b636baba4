//! The reference model for the profile decoder: the pre-cursor decoder,
//! which reads the whole file into a generic [`Datum`] tree with
//! [`read_datums`] and pattern-matches cloned element lists. Test-only;
//! the differential oracle holds the streaming decoder to it.

use super::{malformed, ProfileStoreError, Provenance, StoredProfile};
use crate::info::ProfileInformation;
use crate::slots::SlotMap;
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceObject};
use std::collections::HashMap;

/// Parses either format version, sniffing `(version n)`.
pub(crate) fn load_from_str(text: &str) -> Result<StoredProfile, ProfileStoreError> {
    // Profile files are machine-written: parse straight to datums
    // (`read_datums`) instead of building source-attributed syntax
    // objects nobody will query.
    let forms =
        read_datums(text, "<profile>").map_err(|e| malformed(format!("unreadable: {e}")))?;
    let [form]: [Datum; 1] = forms
        .try_into()
        .map_err(|_| malformed("expected exactly one top-level form"))?;
    let elems = form
        .list_elems()
        .ok_or_else(|| malformed("top-level form must be a list"))?;
    let mut iter = elems.into_iter();
    let head = match iter.next() {
        Some(Datum::Sym(s)) => s,
        _ => return Err(malformed("missing pgmp-profile header")),
    };
    if head.as_str() != "pgmp-profile" {
        return Err(malformed(format!("unexpected header `{head}`")));
    }
    // First pass: flatten entries, resolve the declared version.
    let mut entries: Vec<(String, Vec<Datum>)> = Vec::new();
    let mut version: Option<i64> = None;
    for entry in iter {
        let mut fields = entry
            .list_elems()
            .ok_or_else(|| malformed("profile entry must be a list"))?;
        if fields.is_empty() {
            return Err(malformed("profile entry missing tag"));
        }
        let tag = match fields.remove(0) {
            Datum::Sym(s) => s,
            _ => return Err(malformed("profile entry missing tag")),
        };
        let args: Vec<Datum> = fields;
        if tag.as_str() == "version" {
            match args.as_slice() {
                [Datum::Int(v)] => {
                    if version.replace(*v).is_some() {
                        return Err(malformed("duplicate version entry"));
                    }
                }
                _ => return Err(malformed("malformed version entry")),
            }
        } else {
            entries.push((tag.as_str().to_string(), args));
        }
    }
    let version = version.unwrap_or(1);
    if version != 1 && version != 2 {
        return Err(ProfileStoreError::UnsupportedVersion(version));
    }
    let mut dataset_count: usize = 1;
    let mut declared_slots: Option<usize> = None;
    let mut slot_points: Vec<SourceObject> = Vec::new();
    let mut weights: Vec<(SourceObject, f64)> = Vec::new();
    let mut provenance: Option<Provenance> = None;
    let mut confidence: HashMap<SourceObject, f64> = HashMap::new();
    for (tag, args) in &entries {
        match (tag.as_str(), args.as_slice()) {
            ("datasets", [Datum::Int(n)]) if *n >= 0 => dataset_count = *n as usize,
            ("provenance", args) if version == 2 => {
                let p = match args {
                    [Datum::Sym(s)] if s.as_str() == "exact" => Provenance::Exact,
                    [Datum::Sym(s), Datum::Int(hz)]
                        if s.as_str() == "sampled" && (0..=u32::MAX as i64).contains(hz) =>
                    {
                        Provenance::Sampled { hz: *hz as u32 }
                    }
                    _ => return Err(malformed("malformed provenance entry")),
                };
                if provenance.replace(p).is_some() {
                    return Err(malformed("duplicate provenance entry"));
                }
            }
            ("point", [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), w, rest @ ..])
                if rest.len() <= usize::from(version == 2) =>
            {
                let (p, w) = parse_point(file, *bfp, *efp, Some(w))?;
                if let Some(c) = rest.first() {
                    confidence.insert(p, parse_confidence(c)?);
                }
                weights.push((p, w.expect("point weight is mandatory")));
            }
            ("slots", [Datum::Int(n)]) if version == 2 && *n >= 0 => {
                if declared_slots.replace(*n as usize).is_some() {
                    return Err(ProfileStoreError::SlotTable("duplicate slots entry".into()));
                }
            }
            (
                "slot",
                [Datum::Int(i), Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), rest @ ..],
            ) if version == 2 && rest.len() <= 2 => {
                if *i != slot_points.len() as i64 {
                    return Err(ProfileStoreError::SlotTable(format!(
                        "slot index {i} out of order (expected {})",
                        slot_points.len()
                    )));
                }
                let (p, w) = parse_point(file, *bfp, *efp, rest.first())?;
                slot_points.push(p);
                if let Some(c) = rest.get(1) {
                    // A confidence sub-entry is only meaningful on a
                    // weighted row (enforced structurally: `rest[1]`
                    // exists only after a weight datum in `rest[0]`).
                    confidence.insert(p, parse_confidence(c)?);
                }
                if let Some(w) = w {
                    weights.push((p, w));
                }
            }
            (other, _) => {
                return Err(malformed(format!("unknown or malformed entry `{other}`")));
            }
        }
    }
    let slots = if slot_points.is_empty() && declared_slots.unwrap_or(0) == 0 {
        None
    } else {
        if let Some(n) = declared_slots {
            if n != slot_points.len() {
                return Err(ProfileStoreError::SlotTable(format!(
                    "declared {n} slots but found {}",
                    slot_points.len()
                )));
            }
        }
        let table = SlotMap::from_points(slot_points).map_err(|p| {
            ProfileStoreError::SlotTable(format!("duplicate point {p} in slot table"))
        })?;
        Some(table)
    };
    Ok(StoredProfile {
        info: ProfileInformation::from_weights(weights, dataset_count),
        slots,
        version: version as u32,
        provenance: provenance.unwrap_or_default(),
        confidence,
    })
}

/// Validates a `(confidence c)` sub-entry: `c` must be a number in
/// `(0, 1]` — a zero-confidence point is a dead point and must simply be
/// absent, and values above 1 would let a rebase *amplify* weights.
fn parse_confidence(d: &Datum) -> Result<f64, ProfileStoreError> {
    let c = match d.list_elems().as_deref() {
        Some([Datum::Sym(tag), c]) if tag.as_str() == "confidence" => match c {
            Datum::Float(x) => *x,
            Datum::Int(n) => *n as f64,
            _ => return Err(malformed(format!("bad confidence {c}"))),
        },
        _ => return Err(malformed(format!("malformed confidence entry {d}"))),
    };
    if !(c > 0.0 && c <= 1.0) {
        return Err(malformed(format!("confidence {c} outside (0,1]")));
    }
    Ok(c)
}

/// Validates one profile point's fields; `w` is the optional weight datum.
fn parse_point(
    file: &str,
    bfp: i64,
    efp: i64,
    w: Option<&Datum>,
) -> Result<(SourceObject, Option<f64>), ProfileStoreError> {
    let w = match w {
        None => None,
        Some(Datum::Float(x)) => Some(*x),
        Some(Datum::Int(n)) => Some(*n as f64),
        Some(other) => return Err(malformed(format!("bad weight {other}"))),
    };
    if let Some(w) = w {
        if !(0.0..=1.0).contains(&w) {
            return Err(malformed(format!("weight {w} outside [0,1]")));
        }
    }
    match (u32::try_from(bfp), u32::try_from(efp)) {
        (Ok(bfp), Ok(efp)) => Ok((SourceObject::new(file, bfp, efp), w)),
        _ => Err(malformed("file position outside [0, 2^32)")),
    }
}

#[path = "../../../reader/tests/support/mutate.rs"]
mod mutate;

mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::mem::discriminant;

    /// File names that need escaping, or none, or non-ASCII bytes.
    const FILES: [&str; 6] = [
        "a.scm",
        "lib/b c.scm",
        "q\"uote.scm",
        "back\\slash.scm",
        "new\nline\t.scm",
        "ü%pgmp2.scm",
    ];

    fn point(rng: &mut TestRng) -> SourceObject {
        let file = FILES[rng.below(FILES.len() as u64) as usize];
        let bfp = if rng.below(8) == 0 {
            u32::MAX - rng.below(3) as u32
        } else {
            rng.below(200) as u32
        };
        SourceObject::new(file, bfp, bfp.saturating_add(rng.below(30) as u32))
    }

    /// A stored profile of either version, with slot table, provenance
    /// and confidences drawn at random.
    fn valid(rng: &mut TestRng) -> String {
        let points: Vec<SourceObject> = (0..rng.below(12)).map(|_| point(rng)).collect();
        let weights: Vec<(SourceObject, f64)> = points
            .iter()
            .map(|p| (*p, rng.below(1001) as f64 / 1000.0))
            .collect();
        let info = ProfileInformation::from_weights(weights, 1 + rng.below(4) as usize);
        let sp = if rng.below(2) == 0 {
            StoredProfile::v1(info)
        } else {
            let mut distinct: Vec<SourceObject> = info.iter().map(|(p, _)| p).collect();
            distinct.sort();
            distinct.retain(|_| rng.below(3) > 0);
            let extra = point(rng);
            if !distinct.contains(&extra) && info.lookup(extra).is_none() {
                distinct.push(extra);
            }
            let slots =
                (rng.below(3) > 0).then(|| SlotMap::from_points(distinct).expect("distinct"));
            let provenance = match rng.below(3) {
                0 => Provenance::Sampled {
                    hz: rng.below(2000) as u32,
                },
                _ => Provenance::Exact,
            };
            let mut confidences: Vec<(SourceObject, f64)> = Vec::new();
            for (p, _) in info.iter() {
                if rng.below(3) == 0 {
                    confidences.push((p, (1 + rng.below(999)) as f64 / 1000.0));
                }
            }
            StoredProfile::v2(info, slots)
                .with_provenance(provenance)
                .with_confidences(confidences)
        };
        let text = sp.store_to_string();
        // The version entry may sit anywhere; the checks that depend on
        // it must not depend on where.
        if rng.below(4) == 0 {
            if let Some(line) = text.lines().nth(1).filter(|l| l.contains("(version")) {
                let moved = text.replacen(&format!("{line}\n"), "", 1);
                return format!("{}{line})", &moved[..moved.len() - 1]);
            }
        }
        text
    }

    fn same(
        a: &Result<StoredProfile, ProfileStoreError>,
        b: &Result<StoredProfile, ProfileStoreError>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.info == b.info
                    && a.version == b.version
                    && a.provenance == b.provenance
                    && a.confidence == b.confidence
                    && a.slots.as_ref().map(SlotMap::points)
                        == b.slots.as_ref().map(SlotMap::points)
            }
            (
                Err(ProfileStoreError::UnsupportedVersion(a)),
                Err(ProfileStoreError::UnsupportedVersion(b)),
            ) => a == b,
            (Err(a), Err(b)) => discriminant(a) == discriminant(b),
            _ => false,
        }
    }

    /// A valid profile, and a relayout and corruptions of it.
    struct Cases;

    impl Strategy for Cases {
        type Value = Vec<String>;
        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            let base = valid(rng);
            let relaid = mutate::relayout(&base, rng);
            let torn = mutate::corrupt(&base, rng);
            let torn_relaid = mutate::corrupt(&relaid, rng);
            vec![base, relaid, torn, torn_relaid]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The streaming decoder returns what the datum-tree reference
        /// model returns — equal values, or errors of the same kind — on
        /// valid profiles, relayouts of them, and corruptions of both.
        #[test]
        fn codec_oracle_profiles(cases in Cases) {
            let base = StoredProfile::load_from_str(&cases[0]);
            prop_assert!(base.is_ok(), "valid profile rejected: {:?}: {:?}", cases[0], base);
            let relaid = StoredProfile::load_from_str(&cases[1]);
            prop_assert!(same(&base, &relaid), "relayout changed the decode: {:?}", cases[1]);
            for text in &cases {
                let fast = StoredProfile::load_from_str(text);
                let slow = load_from_str(text);
                prop_assert!(same(&fast, &slow), "{:?}\n  cursor:    {:?}\n  reference: {:?}", text, fast, slow);
            }
        }
    }
}
