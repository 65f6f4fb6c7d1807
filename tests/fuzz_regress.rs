//! Replays the fuzzer-discovered reproducers committed under
//! `tests/repro/` and self-tests the shrinker.
//!
//! Every `.repro` file is a violation the coverage-guided fuzzer
//! (`examples/fuzz_fs.rs`) found and delta-debugged down to a handful of
//! ops; committing them pins the fixes forever. Replay is deterministic:
//! the differential against the healthy reference model on the repro's
//! kind(s), then a crash-recover-oracle cycle at every recorded boundary
//! — all single-threaded on the virtual clock, even for cases discovered
//! under real threads, so a committed boundary is a point of the
//! single-threaded replay's own schedule; one that never fires
//! mid-operation fails the replay.
//!
//! The `selftest_` fixture is different: it is the shrinker's own
//! regression. A seeded known-bad script must shrink, against a model
//! with a deliberately planted bug, to that exact byte-identical two-op
//! fixed point on every run.

mod common;

use common::{fixture, REPRO_DIR};
use faultfs::fuzz::{known_bad_script, shrink_differential};
use faultfs::{exec_op, Harness, ModelBug, Repro};
use nvmm::{FaultPlan, TimeMode};
use workloads::setups::{build, SystemConfig, SystemKind};

/// Every committed fixture as `(file name, contents)`, sorted.
fn all_repro_files() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(REPRO_DIR).expect("tests/repro must exist") {
        let p = entry.expect("dirent").path();
        if p.extension().is_some_and(|e| e == "repro") {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&p).expect("read repro")));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no committed reproducers in {REPRO_DIR}");
    out
}

/// Every fixture must parse, and serialization must be a fixed point
/// (parse → to_text → parse gives the same repro), so a committed file is
/// exactly what the fuzzer would write for it.
#[test]
fn committed_repros_parse_and_round_trip() {
    for (name, text) in all_repro_files() {
        let r = Repro::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!r.script.ops.is_empty(), "{name}: empty script");
        let back = Repro::parse(&r.to_text()).unwrap_or_else(|e| panic!("{name} reser: {e}"));
        assert_eq!(back, r, "{name}: serialization round-trip");
    }
}

/// Every non-selftest fixture replays clean against the healthy model:
/// the bugs they pinned stay fixed.
#[test]
fn committed_repros_stay_fixed() {
    let h = Harness::new();
    for (name, text) in all_repro_files() {
        // The selftest fixture only violates a deliberately-bugged model;
        // it gets its own fixed-point test below.
        if name.starts_with("selftest_") {
            continue;
        }
        let r = Repro::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let vs = r.replay(&h);
        assert!(vs.is_empty(), "{name} regressed: {vs:#?}");
    }
}

/// The shrinker self-test (negative gate): with a planted model bug the
/// seeded known-bad script must (a) fail the differential, (b) shrink to
/// at most two ops, (c) hit a fixed point, and (d) serialize to exactly
/// the committed fixture — byte-identical across runs and machines.
#[test]
fn known_bad_script_shrinks_to_the_committed_fixture() {
    let bug = ModelBug::TruncateExtendLost { threshold: 16_384 };
    let h = Harness::new();
    let repro = shrink_differential(&h, SystemKind::Pmfs, &known_bad_script(), Some(bug), 400)
        .expect("the known-bad script must fail against the planted bug");
    assert!(
        repro.script.ops.len() <= 2,
        "shrunk to {} ops: {:?}",
        repro.script.ops.len(),
        repro.script.ops
    );
    let again = shrink_differential(&h, SystemKind::Pmfs, &repro.script.ops, Some(bug), 400)
        .expect("the shrunk script must still fail");
    assert_eq!(again.script.ops, repro.script.ops, "shrink fixed point");

    let path = format!("{REPRO_DIR}/selftest_truncate_extend.repro");
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        repro.to_text(),
        fixture,
        "the shrinker no longer reproduces the committed fixture byte-for-byte"
    );

    // And against the *healthy* model the same fixture is clean — the
    // violation really was the planted bug, not the file system.
    let r = Repro::parse(&fixture).expect("fixture parses");
    let vs = r.replay(&h);
    assert!(vs.is_empty(), "fixture vs healthy model: {vs:#?}");
}

/// The four-thread fixture end to end: replay the committed boundaries
/// (quartiles of the replay's own schedule), then record a *fresh*
/// schedule by running the same script
/// partitioned round-robin over four real threads (spin mode) and replay
/// crashes at quartiles of that schedule too. Recording is inherently
/// nondeterministic; every replayed crash is deterministic.
#[test]
fn threaded_repro_replays_committed_and_fresh_schedules() {
    let r = fixture("fuzzed_threads4_appends");
    assert_eq!(r.threads, 4);
    assert!(
        !r.boundaries.is_empty(),
        "fixture lost its recorded schedule"
    );
    let h = Harness::new();
    let vs = r.replay(&h);
    assert!(vs.is_empty(), "committed boundaries: {vs:#?}");

    // Fresh recording, the tests/concurrency.rs way.
    let cfg = SystemConfig {
        device_bytes: 64 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 2 << 20,
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let plan = FaultPlan::new();
    sys.dev.fault_hook().install(plan.clone());
    plan.start_recording();
    let threads = r.threads as usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let ops: Vec<_> = r
                .script
                .ops
                .iter()
                .skip(t)
                .step_by(threads)
                .copied()
                .collect();
            let fs = sys.fs.clone();
            let env = sys.env.clone();
            scope.spawn(move || {
                for op in &ops {
                    // Clean errors are legal under concurrency; panics not.
                    let _ = exec_op(&*fs, &env, op);
                }
            });
        }
    });
    let schedule = plan.stop_recording();
    sys.dev.fault_hook().clear();
    sys.fs.unmount().unwrap();

    let crash_points: Vec<u64> = schedule
        .iter()
        .filter(|b| b.index > 0)
        .map(|b| b.index)
        .collect();
    assert!(
        crash_points.len() >= 4,
        "4-thread run recorded only {} crash-eligible boundaries",
        crash_points.len()
    );
    for q in 0..=3 {
        let k = crash_points[(crash_points.len() - 1) * q / 3];
        let out = h.crash_run(SystemKind::Hinfs, &r.script, k, None);
        assert!(
            out.violations.is_empty(),
            "crash at freshly recorded boundary {k}: {:#?}",
            out.violations
        );
        assert!(out.checks > 0, "boundary {k}: oracle checked nothing");
    }
}
