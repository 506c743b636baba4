//! Golden session fixture: pinned bytes for the session format.
//!
//! `tests/fixtures/warm.session` was saved by
//!
//! ```sh
//! cd tests/fixtures
//! pgmp-run --libs if-r,exclusive-cond --instrument every --store warm.pgmp warm.scm
//! pgmp-run --libs if-r,exclusive-cond --incremental --load warm.pgmp \
//!   --save-state warm.session warm.scm
//! ```
//!
//! A fresh engine must restore every form from it, recompile with zero
//! re-expansions, and save it back byte for byte. Chunk ids in the file
//! come from a process-wide counter, so this binary holds exactly one
//! test: a second one running in parallel would shift the ids.

use pgmp::incremental::{IncrementalConfig, IncrementalEngine};
use pgmp::Engine;
use pgmp_case_studies::{install, Lib};
use std::path::Path;

#[test]
fn golden_session_restores_every_form_and_saves_byte_identically() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = std::fs::read_to_string(fixtures.join("warm.session")).unwrap();
    let source = std::fs::read_to_string(fixtures.join("warm.scm")).unwrap();

    let mut engine = Engine::new();
    for lib in [Lib::IfR, Lib::ExclusiveCond] {
        install(&mut engine, lib).unwrap();
    }
    let mut incr =
        IncrementalEngine::with_engine(engine, &source, "warm.scm", IncrementalConfig::default())
            .unwrap();
    let ws = incr.load_state(fixtures.join("warm.session")).unwrap();
    assert_eq!(ws.total_forms, 4);
    assert_eq!(ws.restored + ws.replayed_meta, ws.total_forms, "{ws:?}");
    assert_eq!(ws.skipped, 0, "{ws:?}");
    assert_eq!(ws.source_file, "warm.scm");

    let weights = incr.engine_mut().profile();
    let unit = incr.compile(&weights).unwrap();
    assert_eq!(unit.stats.reexpanded, 0, "{:?}", unit.stats);
    // The stored profile reordered the hot clauses: `'big` (50 of 60
    // calls) leads `classify`, `'high` (40 of 60) leads `grade`.
    let text = unit.expansion.join("\n");
    assert!(
        text.contains("(if (not (< n 10)) (quote big) (quote small))"),
        "{text}"
    );
    assert!(
        text.find("(quote high)") < text.find("(quote low)"),
        "{text}"
    );

    let out = std::env::temp_dir().join(format!("pgmp-golden-{}.session", std::process::id()));
    let stats = incr.save_state(&out).unwrap();
    assert_eq!((stats.saved, stats.skipped), (4, 0));
    let saved = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).ok();
    assert!(
        saved == golden,
        "load -> save changed the session bytes:\n{saved}"
    );
}
