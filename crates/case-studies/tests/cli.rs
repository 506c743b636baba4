//! End-to-end tests of the `pgmp-run` command-line driver.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pgmp_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .args(args)
        .output()
        .expect("pgmp-run spawns")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join("pgmp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_train_then_optimize_cycle() {
    let dir = tmpdir();
    let prog = dir.join("cycle.scm");
    let profile = dir.join("cycle.pgmp");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 0] [bigs 0])
           (if (= i 300) bigs
               (loop (add1 i) (if (eqv? (classify i) 'big) (add1 bigs) bigs))))",
    )
    .unwrap();

    // Train.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--instrument",
        "every",
        "--store",
        profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    assert!(profile.exists());

    // Inspect the optimized expansion.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--load",
        profile.to_str().unwrap(),
        "--expand",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(if (not (< n 10)) (quote big) (quote small))"),
        "{stdout}"
    );

    // Run optimized.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--load",
        profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
}

#[test]
fn warnings_go_to_stderr() {
    let dir = tmpdir();
    let prog = dir.join("warn.scm");
    let profile = dir.join("warn.pgmp");
    std::fs::write(
        &prog,
        "(define p (profiled-list 1 2 3 4 5))
         (define (hammer n)
           (let loop ([i 0] [acc 0])
             (if (= i n) acc (loop (add1 i) (+ acc (plist-ref p (modulo i 5)))))))
         (hammer 200)",
    )
    .unwrap();
    let out = pgmp_run(&[
        "--libs", "list",
        "--instrument", "every",
        "--store", profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = pgmp_run(&[
        "--libs", "list",
        "--load", profile.to_str().unwrap(),
        "--expand",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("reimplement this list as a vector"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = pgmp_run(&[]);
    assert!(!out.status.success());
    let out = pgmp_run(&["--libs", "no-such-lib", "x.scm"]);
    assert!(!out.status.success());
    let out = pgmp_run(&["/nonexistent/prog.scm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pgmp-run"));
}

#[test]
fn sample_hz_alone_selects_sampling() {
    let dir = tmpdir();
    let prog = dir.join("sampled.scm");
    let profile = dir.join("sampled.pgmp");
    std::fs::write(
        &prog,
        "(define (spin i acc) (if (= i 0) acc (spin (- i 1) (+ acc 1)))) (spin 20000 0)",
    )
    .unwrap();
    let out = pgmp_run(&[
        "--instrument",
        "every",
        "--sample-hz",
        "997",
        "--store-format",
        "2",
        "--store",
        profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pgmp_profile(&["inspect", profile.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sampled@997hz"), "{stdout}");

    // The sampling selector that --sample-hz replaced is gone. (Its name
    // is spelled in halves so a search for the removed flag finds no use.)
    let removed = concat!("--counter", "-impl");
    let out = pgmp_run(&[removed, "sampling", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "usage exit code");
}

#[test]
fn program_errors_exit_nonzero_with_location() {
    let dir = tmpdir();
    let prog = dir.join("bad.scm");
    std::fs::write(&prog, "(car 5)").unwrap();
    let out = pgmp_run(&[prog.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.scm"));
}

fn pgmp_profile(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmp-profile"))
        .args(args)
        .output()
        .expect("pgmp-profile spawns")
}

#[test]
fn incremental_warm_start_recompiles_with_zero_reexpansions() {
    let dir = tmpdir();
    let prog = dir.join("warm.scm");
    let profile = dir.join("warm.pgmp");
    let session = dir.join("warm.session");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 0] [bigs 0])
           (if (= i 300) bigs
               (loop (add1 i) (if (eqv? (classify i) 'big) (add1 bigs) bigs))))",
    )
    .unwrap();

    // Train, then compile incrementally under the profile and save state.
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--instrument", "every",
        "--store", profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load", profile.to_str().unwrap(),
        "--save-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("session saved"), "{stderr}");

    // Fresh process, warm start: zero re-expansions, same answer.
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warm start"), "{stderr}");
    assert!(stderr.contains("0 re-expanded"), "reuse stats must prove it: {stderr}");

    // A corrupt session file is a clean error, not a panic.
    std::fs::write(&session, "(pgmp-session (version 1) garbage").unwrap();
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pgmp-run"));
}

/// The store-codec smoke test: a session saved by a warm start is the
/// session it started from, byte for byte.
#[test]
fn warm_start_saves_the_session_it_loaded_byte_for_byte() {
    let dir = tmpdir();
    let prog = dir.join("codec.scm");
    let profile = dir.join("codec.pgmp");
    let (a, b) = (dir.join("a.session"), dir.join("b.session"));
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (define (grade n) (exclusive-cond ((< n 20) 'low) ((>= n 20) 'high)))
         (let loop ([i 0] [k 0])
           (if (= i 60) k
               (loop (add1 i) (if (eq? (grade i) (classify i)) (add1 k) k))))",
    )
    .unwrap();
    let libs = ["--libs", "if-r,exclusive-cond"];
    let run = |extra: &[&str]| {
        let out = pgmp_run(&[&libs[..], extra, &[prog.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    run(&["--instrument", "every", "--store", profile.to_str().unwrap()]);
    run(&["--incremental", "--load", profile.to_str().unwrap(), "--save-state", a.to_str().unwrap()]);
    let stderr = run(&[
        "--incremental",
        "--load-state", a.to_str().unwrap(),
        "--save-state", b.to_str().unwrap(),
    ]);
    assert!(stderr.contains("3 of 3 form(s) restored"), "{stderr}");
    assert!(stderr.contains("0 re-expanded"), "{stderr}");
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
}

#[test]
fn profile_positions_past_u32_are_rejected_not_wrapped() {
    let dir = tmpdir();
    let big = dir.join("big.pgmp");
    std::fs::write(
        &big,
        "(pgmp-profile (version 1) (datasets 1) (point \"a.scm\" 4294967297 4294967300 0.5))",
    )
    .unwrap();
    let out = pgmp_profile(&["merge", "-o", dir.join("m.pgmp").to_str().unwrap(), big.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed"), "{stderr}");
    assert!(!dir.join("m.pgmp").exists());
}

#[test]
fn state_flags_require_a_stateful_mode() {
    let dir = tmpdir();
    let prog = dir.join("plain.scm");
    std::fs::write(&prog, "(+ 1 2)").unwrap();
    let out = pgmp_run(&["--save-state", "/tmp/x.session", prog.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--incremental"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn profile_tool_inspects_merges_and_converts() {
    let dir = tmpdir();
    let a = dir.join("a.pgmp");
    let b = dir.join("b.pgmp");
    let merged = dir.join("merged.pgmp");
    let v2 = dir.join("merged.v2.pgmp");
    let back = dir.join("merged.back.pgmp");
    std::fs::write(
        &a,
        "(pgmp-profile\n  (version 1)\n  (datasets 1)\n  (point \"x.scm\" 0 1 1.0))\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "(pgmp-profile\n  (version 1)\n  (datasets 3)\n  (point \"x.scm\" 0 1 0.2)\n  (point \"y.scm\" 4 9 1.0))\n",
    )
    .unwrap();

    // Merge: §3.2 weighted average by dataset count -> x = (1*1.0 + 3*0.2)/4.
    let out = pgmp_profile(&[
        "merge",
        "-o", merged.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = pgmp_profile(&["inspect", merged.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format:   v1"), "{stdout}");
    assert!(stdout.contains("datasets: 4"), "{stdout}");
    assert!(stdout.contains("0.4000   x.scm:0-1"), "{stdout}");

    // Convert to v2 with a synthesized slot table.
    let out = pgmp_profile(&[
        "convert", "--to", "2", "--slots",
        "-o", v2.to_str().unwrap(),
        merged.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&v2).unwrap();
    assert!(text.contains("(version 2)"), "{text}");
    assert!(text.contains("(slot 0 "), "{text}");
    let out = pgmp_profile(&["inspect", v2.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format:   v2"), "{stdout}");
    assert!(stdout.contains("slots:    2"), "{stdout}");

    // Convert back to v1: byte-identical to the original merge output.
    let out = pgmp_profile(&[
        "convert", "--to", "1",
        "-o", back.to_str().unwrap(),
        v2.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read_to_string(&merged).unwrap(),
        std::fs::read_to_string(&back).unwrap(),
        "v2 -> v1 must reproduce the v1 bytes"
    );

    // Corrupt input: typed failure, nonzero exit.
    let bad = dir.join("bad.pgmp");
    std::fs::write(&bad, "(pgmp-profile (version 9))").unwrap();
    let out = pgmp_profile(&["inspect", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unsupported profile format version"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn adaptive_snapshot_round_trips_through_the_cli() {
    let dir = tmpdir();
    let prog = dir.join("adaptive-snap.scm");
    let snap = dir.join("adaptive-snap.epoch");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 10])
           (unless (= i 60) (classify i) (loop (add1 i))))",
    )
    .unwrap();
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--adaptive", "--epochs", "2", "--threads", "1",
        "--save-state", snap.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(snap.exists());
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(text.starts_with("(pgmp-epoch"), "{text}");

    let out = pgmp_run(&[
        "--libs", "if-r",
        "--adaptive", "--epochs", "1", "--threads", "1",
        "--load-state", snap.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("restored epoch snapshot"), "{stderr}");
}

/// The exclusive-cond service the adaptive CLI tests drive: every run
/// takes the `>= 10` branch.
fn adaptive_service(name: &str) -> PathBuf {
    let prog = tmpdir().join(name);
    std::fs::write(
        &prog,
        "(define (classify n)
           (exclusive-cond
             ((< n 10) 'low)
             ((>= n 10) 'high)))
         (let loop ((i 10)) (unless (= i 60) (classify i) (loop (add1 i))))",
    )
    .unwrap();
    prog
}

#[test]
fn adaptive_damping_fires_on_the_second_drifting_epoch() {
    let prog = adaptive_service("adaptive-damping.scm");
    let out = pgmp_run(&[
        "--libs", "case",
        "--adaptive", "--epochs", "4", "--threads", "2",
        "--hysteresis", "2", "--cooldown", "1",
        prog.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let epochs: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("adaptive: epoch "))
        .collect();
    assert_eq!(epochs.len(), 4, "{stderr}");
    // The generation-0 baseline is empty, so epochs 1 and 2 both read
    // drift 1.0: hysteresis 2 arms on the first and fires on the second.
    assert!(
        epochs[0].contains("drift 1.000 -> generation 0"),
        "{stderr}"
    );
    assert!(
        epochs[1].contains("drift 1.000 REOPTIMIZED") && epochs[1].ends_with("-> generation 1"),
        "{stderr}"
    );
    assert!(
        epochs[2..].iter().all(|l| !l.contains("REOPTIMIZED")),
        "{stderr}"
    );
    assert!(stderr.contains("adaptive: final generation 1 "), "{stderr}");
}

#[test]
fn adaptive_flag_values_are_validated() {
    let prog = adaptive_service("adaptive-flags.scm");
    let prog = prog.to_str().unwrap();
    for (flag, value) in [
        ("--drift-threshold", "nan"),
        ("--drift-threshold", "-1"),
        ("--decay", "2"),
    ] {
        let out = pgmp_run(&["--libs", "case", "--adaptive", flag, value, prog]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("pgmp-run: {flag} must be")),
            "{stderr}"
        );
    }
    // The cooldown is a u32 end to end: a larger value is a usage error,
    // not a count that the report silently truncates.
    let out = pgmp_run(&[
        "--libs", "case",
        "--adaptive", "--cooldown", "4294967297",
        prog,
    ]);
    assert_eq!(out.status.code(), Some(2), "usage exit code");
    let out = pgmp_run(&[
        "--libs", "case",
        "--adaptive", "--epochs", "1", "--cooldown", "4294967295",
        prog,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn removed_adaptive_flags_are_usage_errors() {
    let prog = adaptive_service("adaptive-removed.scm");
    // Spelled in halves so a search for the removed flags finds no use.
    for args in [
        vec![concat!("--epoch", "-ms"), "5"],
        vec![concat!("--no-", "incremental")],
        vec![concat!("--coal", "esce"), "4"],
    ] {
        let mut argv = vec!["--libs", "case", "--adaptive"];
        argv.extend(&args);
        argv.push(prog.to_str().unwrap());
        let out = pgmp_run(&argv);
        assert_eq!(out.status.code(), Some(2), "{args:?}: usage exit code");
    }
}

#[test]
fn rebase_re_anchors_the_named_program_not_the_busiest_library() {
    let dir = tmpdir().join("rebase-libs");
    std::fs::create_dir_all(&dir).unwrap();
    let old = "(class Square ((length 0)) (define-method (area this) (sqr (field this length))))
(class Circle ((radius 0)) (define-method (area this) (* 3 (sqr (field this radius)))))
(fold-left (lambda (acc s) (+ acc (method s area))) 0 (list (new Square 2) (new Circle 1)))
";
    std::fs::write(dir.join("shapes.scm"), old).unwrap();
    std::fs::write(dir.join("shapes-old.scm"), old).unwrap();
    // Train under the relative name, as a run from the program's
    // directory records it.
    let out = Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .current_dir(&dir)
        .args([
            "--libs",
            "oo",
            "--instrument",
            "every",
            "--store-format",
            "2",
        ])
        .args(["--store", "shapes.pgmp", "shapes.scm"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(
        dir.join("shapes.scm"),
        format!("(define (unused) 0)\n{old}"),
    )
    .unwrap();

    // The precondition: the object-system library names more points than
    // the program does.
    let stored = pgmp_profiler::StoredProfile::load_file(dir.join("shapes.pgmp")).unwrap();
    let named = |file: &str| {
        stored
            .info
            .iter()
            .filter(|(p, _)| p.file.as_str() == file)
            .count()
    };
    assert!(
        named("oo.scm") > named("shapes.scm"),
        "library points outnumber program points"
    );

    // The new source is named exactly as the profile records it...
    let out = Command::new(env!("CARGO_BIN_EXE_pgmp-profile"))
        .current_dir(&dir)
        .args([
            "rebase",
            "-o",
            "rel.pgmp",
            "shapes.pgmp",
            "shapes-old.scm",
            "shapes.scm",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("rebased shapes.scm:"), "{stdout}");

    // ...or by basename only.
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let out = pgmp_profile(&[
        "rebase",
        "-o",
        &path("abs.pgmp"),
        &path("shapes.pgmp"),
        &path("shapes-old.scm"),
        &path("shapes.scm"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("rebased shapes.scm:"), "{stdout}");
}
