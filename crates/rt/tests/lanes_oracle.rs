//! Oracle: the global profiler's lane store agrees exactly with a
//! `Mutex<HashMap<String, u64>>` reference model.
//!
//! Random schedules mix rounds of hits from short-lived threads (through
//! call-site [`Point`]s and through `pgmp_rt::hit(&str)`), resets and
//! snapshots. Every round spawns fresh threads, so over a schedule many
//! more threads hit than there are lanes, and lanes get handed from exited
//! threads to new ones. At every quiescent point each count, and the
//! whole weight snapshot, must equal the model's.
//!
//! This binary's only test, so it owns the global profiler.

use pgmp_rt::{Point, Profiler, Weights};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Threads hitting at once in one round (the bound on lanes).
const THREADS: usize = 3;

const NAMES: [&str; 6] = [
    "oracle#0", "oracle#1", "oracle#2", "oracle#3", "oracle#4", "oracle#5",
];

static POINTS: [Point; 6] = [
    Point::new(NAMES[0]),
    Point::new(NAMES[1]),
    Point::new(NAMES[2]),
    Point::new(NAMES[3]),
    Point::new(NAMES[4]),
    Point::new(NAMES[5]),
];

/// `(thread, point, n, by_name)`: thread `thread` of the round hits
/// `point` `n` times, by name or through its `Point`.
type Hit = (usize, usize, u64, bool);

#[derive(Clone, Debug)]
enum Step {
    Round(Vec<Hit>),
    Reset,
    Snapshot,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        vec((0..THREADS, 0..NAMES.len(), 1u64..20, any::<bool>()), 1..12).prop_map(Step::Round),
        Just(Step::Reset),
        Just(Step::Snapshot),
    ]
}

type Model = Mutex<HashMap<String, u64>>;

/// Runs one round: one fresh thread per distinct thread id, joined before
/// returning. Returns the number of threads spawned.
fn run_round(hits: &[Hit], model: &Arc<Model>) -> usize {
    let mut spawned = Vec::new();
    for t in 0..THREADS {
        let mine: Vec<Hit> = hits.iter().copied().filter(|h| h.0 == t).collect();
        if mine.is_empty() {
            continue;
        }
        let model = model.clone();
        // Plain (not scoped) threads: a joined one has also run its
        // thread-local destructors, so its lane is free again.
        spawned.push(std::thread::spawn(move || {
            for (_, p, n, by_name) in mine {
                for _ in 0..n {
                    if by_name {
                        pgmp_rt::hit(NAMES[p]);
                    } else {
                        POINTS[p].hit();
                    }
                    *model
                        .lock()
                        .unwrap()
                        .entry(NAMES[p].to_owned())
                        .or_insert(0) += 1;
                }
            }
        }));
    }
    let n = spawned.len();
    for h in spawned {
        h.join().unwrap();
    }
    n
}

fn check(model: &Model) -> Result<(), TestCaseError> {
    let model = model.lock().unwrap();
    for name in NAMES {
        prop_assert_eq!(
            pgmp_rt::count(name),
            model.get(name).copied().unwrap_or(0),
            "{}",
            name
        );
    }
    prop_assert_eq!(pgmp_rt::snapshot_weights(), Weights::from_counts(&model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_store_matches_mutex_model(schedule in vec(step(), 1..24)) {
        let model: Arc<Model> = Arc::default();
        pgmp_rt::enable_profiling();
        pgmp_rt::reset();
        let mut threads = 0;
        for step in &schedule {
            match step {
                Step::Round(hits) => threads += run_round(hits, &model),
                Step::Reset => {
                    pgmp_rt::reset();
                    model.lock().unwrap().clear();
                }
                Step::Snapshot => check(&model)?,
            }
        }
        check(&model)?;
        pgmp_rt::disable_profiling();
        let lanes = Profiler::global().lane_count();
        prop_assert!(lanes <= THREADS, "{} lanes for at most {} threads at once", lanes, THREADS);
        prop_assert!(threads <= THREADS || lanes < threads, "lanes were not recycled");
    }
}
