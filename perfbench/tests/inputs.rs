//! The benchmark's own checks: seeded inputs, reference outputs, and
//! agreement between `BENCHMARK.json` and the code.

use pgmp_observe::json::{self, Json};
use pgmp_perfbench::bench::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use pgmp_perfbench::gen::{edit_for_step, EditKind};

/// Every input text a workload generates for `seed`: both mixes of every
/// program, and the edited program of the first steps.
fn inputs(workload: &Workload, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for p in (workload.programs)(seed) {
        out.push(p.source(0));
        out.push(p.source(1));
        for step in 0..8 {
            out.push(p.edited(&edit_for_step(seed, p.name, step)).source(0));
        }
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in &WORKLOADS {
        assert_eq!(inputs(w, 7), inputs(w, 7), "{}", w.name);
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for w in &WORKLOADS {
        let (a, b) = (inputs(w, 7), inputs(w, 8));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{}", w.name);
    }
}

#[test]
fn every_four_steps_hold_every_edit_kind() {
    for seed in 0..5 {
        for start in 0..4 {
            let mut kinds: Vec<EditKind> = (start..start + 4)
                .map(|s| edit_for_step(seed, "p", s).kind)
                .collect();
            kinds.dedup();
            assert_eq!(kinds.len(), 4);
        }
    }
}

#[test]
fn only_constant_edits_change_a_reference_output() {
    for w in &WORKLOADS {
        for p in (w.programs)(3) {
            for step in 0..16 {
                let edit = edit_for_step(3, p.name, step);
                let edited = p.edited(&edit);
                assert_ne!(edited.source(0), p.source(0));
                if edit.kind != EditKind::Constant {
                    assert_eq!(edited.expected(0), p.expected(0), "{} {edit:?}", p.name);
                }
            }
        }
    }
}

#[test]
fn reference_outputs_differ_between_mixes() {
    for w in &WORKLOADS {
        for p in (w.programs)(11) {
            assert_ne!(p.expected(0), p.expected(1), "{}", p.name);
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    field(j, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key}: not a string"))
}

fn arr_of<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    field(j, key)
        .as_arr()
        .unwrap_or_else(|| panic!("{key}: not an array"))
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn benchmark_json_records_every_workload_with_its_loop() {
    let b = benchmark_json();
    let workloads = arr_of(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(str_of(j, "name"), w.name);
        let why = str_of(j, "why");
        assert!(
            why.contains(&w.shape()),
            "{}: {why:?} lacks {:?}",
            w.name,
            w.shape()
        );
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let b = benchmark_json();
    let e2e: Vec<(&str, &str)> = arr_of(&b, "end_to_end")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = arr_of(&b, "per_layer")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect();
    assert_eq!(layers, PER_LAYER);
    let bound = |m: &Json| field(m, "bound").as_f64().expect("bound is a number");
    let metrics = arr_of(&b, "end_to_end");
    let setup = metrics
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(str_of(setup, "better"), "lower");
    for m in metrics {
        assert!(bound(m) > 0.0 && bound(m) <= bound(setup) && bound(setup) <= 0.25);
    }
}
