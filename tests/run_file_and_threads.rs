//! File-based engine entry points and thread-safety of the proc-macro
//! runtime.

use pgmp::Engine;
use pgmp_profiler::ProfileMode;

#[test]
fn run_file_compiles_and_attributes_source_to_the_path() {
    let dir = std::env::temp_dir().join("pgmp-runfile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.scm");
    std::fs::write(&path, "(define (f x) (* x x))\n(f 9)").unwrap();
    let mut e = Engine::new();
    let v = e.run_file(&path).unwrap();
    assert_eq!(v.to_string(), "81");

    // Errors point into the file.
    std::fs::write(&path, "(car 5)").unwrap();
    let err = e.run_file(&path).unwrap_err().to_string();
    assert!(err.contains("prog.scm"), "{err}");

    // Missing files error cleanly.
    assert!(e.run_file(dir.join("missing.scm")).is_err());
}

#[test]
fn run_file_profile_cycle() {
    let dir = std::env::temp_dir().join("pgmp-runfile2");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("train.scm");
    std::fs::write(
        &prog,
        "(define (f n) (if (< n 3) 'lo 'hi))
         (let loop ([i 0]) (unless (= i 30) (f i) (loop (add1 i))))",
    )
    .unwrap();
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_file(&prog).unwrap();
    assert!(!e.current_weights().is_empty());
}

#[test]
fn rt_counters_are_thread_safe() {
    // The Rust-side runtime must tolerate concurrent hits (each thread
    // counts into its own lane); counts must not be lost, and the sibling
    // test's enable/disable pair must not switch this one's counting off.
    pgmp_rt::enable_profiling();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..1000 {
                    pgmp_rt::hit("threaded-point");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    pgmp_rt::disable_profiling();
    assert_eq!(pgmp_rt::count("threaded-point"), 8 * 1000);
}

#[test]
fn rt_weights_snapshot_under_concurrent_writes_is_consistent() {
    pgmp_rt::enable_profiling();
    let writer = std::thread::spawn(|| {
        for _ in 0..2000 {
            pgmp_rt::hit("snapshot-writer");
        }
    });
    // Snapshots taken mid-write parse and stay in range.
    for _ in 0..20 {
        let w = pgmp_rt::snapshot_weights();
        let text = w.to_profile_string();
        let back = pgmp_rt::Weights::parse(&text).unwrap();
        assert_eq!(back, w);
    }
    writer.join().unwrap();
    pgmp_rt::disable_profiling();
}
