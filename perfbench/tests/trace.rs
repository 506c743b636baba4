//! The traced run's plumbing: op specs and span dumps survive the trip
//! through a child process's arguments and stdout.

use pgmp_perfbench::ops::OpSpec;
use pgmp_perfbench::trace::Tracer;

#[test]
fn op_spec_round_trips_through_arguments() {
    let spec = OpSpec {
        kind: "rebase".into(),
        dir: "work/fib".into(),
        libs: "if-r,case".into(),
        files: vec!["base.pgmp".into(), "base.scm".into(), "r.pgmp".into()],
        epochs: 4,
    };
    let (back, trace) = OpSpec::parse(&spec.to_args(true)).expect("parses");
    assert!(trace);
    assert_eq!(format!("{back:?}"), format!("{spec:?}"));
}

#[test]
fn absorbed_dump_keeps_spans_counts_and_self_times() {
    let mut child = Tracer::new(true);
    child.op("run", |tr| {
        tr.span("reader", "read", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("eval", "eval", || ());
        tr.count("reader.forms", 3.0);
    });
    let mut parent = Tracer::new(true);
    parent
        .absorb(&child.dump(), "fib", 7, 1000)
        .expect("absorbs");
    parent
        .absorb(&child.dump(), "fib", 8, 2000)
        .expect("absorbs");
    assert_eq!(parent.ops.len(), 2);
    assert_eq!(parent.spans.len(), 6);
    assert_eq!(parent.spans[3].parent, None);
    assert_eq!(parent.spans[4].parent, Some(3));
    assert_eq!(parent.counts[&(8, "reader.forms")], 3.0);
    let costs = parent.self_costs();
    let root = parent.spans[0].ns();
    assert_eq!(costs[0].0 + costs[1].0 + costs[2].0, root);
    assert!(costs[1].0 >= 2_000_000, "the read span slept 2 ms");
}
