//! Coverage-guided scenario fuzzer over every file system in the suite:
//!
//! ```text
//! cargo run --release --example fuzz_fs -- [--seed N] [--iters N] \
//!     [--crash-points N] [--self-test] [--write-repros DIR]
//! ```
//!
//! The campaign seeds a corpus of scripted runs (the same shape the
//! `tests/` sweeps replay), then mutates it under coverage feedback:
//! every case runs the three-way differential (HiNFS, PMFS, EXT4 against
//! the shared reference model in `faultfs::model`), and cases that earn
//! new coverage points — trace-ring event kinds, contention-site first
//! hits, invariant-auditor state classes, crash shapes, per-op outcome
//! classes — also get a bounded crash-schedule sweep judged by the
//! durability oracle. Any violation is auto-shrunk (delta-debugging over
//! ops, then crash points) into a replayable reproducer.
//!
//! Everything is derived from `--seed` on the virtual clock, so stdout is
//! byte-identical across runs with the same flags — `scripts/fuzz_soak.sh`
//! diffs two runs to prove it. The campaign must also reach strictly more
//! distinct coverage points than replaying the seed corpus alone; the
//! process exits non-zero otherwise.
//!
//! `--self-test` is the negative gate: it plants a deliberate bug in the
//! reference model (`ModelBug::TruncateExtendLost`) and runs the campaign
//! at each seed of a fixed set (`--seed` is ignored), with the iteration
//! budget. It demands that at least [`SELF_TEST_FLOOR`] of the
//! [`SELF_TEST_SEEDS`] campaigns catch the bug, each with a reproducer
//! shrunk to at most 3 ops, and prints the shrunk fixed-point reproducer
//! of a seeded known-bad script so the soak script can diff it against the
//! committed fixture in `tests/repro/`.
//!
//! Which seeds catch the bug moves with any change to the persistence-
//! boundary schedule, since coverage feedback steers the mutations; the
//! catch rate over the set is what measures the fuzzer. At 48 iterations
//! it reads about two thirds (39 of seeds 1–60). At 0.65, 48 campaigns
//! fall under half with a probability near 1 %; a fuzzer with half that
//! power clears half with a probability near 1 % too. A campaign
//! reproducer the healthy model also fails is a real violation: printed,
//! not counted as a catch.
//!
//! Exit codes: 0 clean, 1 usage/self-test failure, 2 real violations
//! found (reproducers printed and, with `--write-repros`, written out).

use faultfs::fuzz::{known_bad_script, shrink_differential};
use faultfs::{FuzzConfig, Fuzzer, Harness, ModelBug, Repro};
use workloads::setups::SystemKind;

fn usage() -> ! {
    eprintln!(
        "usage: fuzz_fs [--seed N] [--iters N] [--crash-points N] [--self-test] \
         [--write-repros DIR]"
    );
    std::process::exit(1);
}

fn main() {
    let mut cfg = FuzzConfig::default();
    let mut self_test = false;
    let mut repro_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |a: Option<String>| -> u64 {
            a.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--seed" => cfg.seed = num(args.next()),
            "--iters" => cfg.iterations = num(args.next()) as usize,
            "--crash-points" => cfg.crash_points = num(args.next()) as usize,
            "--self-test" => self_test = true,
            "--write-repros" => repro_dir = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    if self_test {
        run_self_test(cfg);
        return;
    }

    println!(
        "== fuzz campaign: seed={:#x} seeds={} iters={} crash_points<={} ==",
        cfg.seed, cfg.seed_scripts, cfg.iterations, cfg.crash_points
    );
    let out = Fuzzer::new(cfg).run();
    println!("baseline (seed corpus replay): {}", out.baseline.summary());
    println!("campaign: {}", out.coverage.summary());
    println!(
        "corpus={} diff_legs={} crash_runs={} oracle_checks={}",
        out.corpus_size, out.diff_legs, out.crash_runs, out.oracle_checks
    );
    println!("coverage digest: {:016x}", out.coverage.digest());
    let gained = out.coverage.len() - out.baseline.len();
    println!(
        "coverage gain: +{gained} points over the scripted baseline ({} -> {})",
        out.baseline.len(),
        out.coverage.len()
    );
    if gained == 0 {
        eprintln!("FAIL: the campaign earned no coverage beyond the seed corpus");
        std::process::exit(1);
    }
    if out.repros.is_empty() {
        println!("no violations: every case agreed with the model and the oracle");
        return;
    }
    eprintln!("FOUND {} violation reproducer(s):", out.repros.len());
    for r in &out.repros {
        eprintln!("---\n{}", r.to_text());
        if let Some(dir) = &repro_dir {
            let path = format!("{dir}/{}.repro", r.name);
            std::fs::write(&path, r.to_text()).expect("write repro");
            eprintln!("wrote {path}");
        }
    }
    std::process::exit(2);
}

/// The self-test's campaign seeds.
const SELF_TEST_SEEDS: u64 = 48;

/// Campaigns of the [`SELF_TEST_SEEDS`] that must catch the planted bug.
const SELF_TEST_FLOOR: usize = 24;

fn run_self_test(cfg: FuzzConfig) {
    let bug = ModelBug::TruncateExtendLost { threshold: 16_384 };
    println!(
        "== negative self-test: planted {bug:?}, seeds 1..={SELF_TEST_SEEDS}, budget {} iters \
         each, floor {SELF_TEST_FLOOR} ==",
        cfg.iterations
    );

    // 1. Catch rate. The campaigns run on two threads, each on its own
    //    seeds. The planted bug lives in the model, which only the
    //    differential consults: a differential reproducer the healthy
    //    model replays clean is a catch. Any other is a real violation,
    //    printed apart and not counted.
    let seeds: Vec<u64> = (1..=SELF_TEST_SEEDS).collect();
    let mut found: Vec<(Vec<Repro>, Vec<Repro>)> = vec![Default::default(); seeds.len()];
    let half = seeds.len().div_ceil(2);
    std::thread::scope(|s| {
        for (seeds, out) in seeds.chunks(half).zip(found.chunks_mut(half)) {
            s.spawn(move || {
                let h = Harness::new();
                for (&seed, v) in seeds.iter().zip(out) {
                    let cfg = FuzzConfig {
                        seed,
                        bug: Some(bug),
                        ..cfg
                    };
                    let repros = Fuzzer::new(cfg).run().repros;
                    *v = repros
                        .into_iter()
                        .partition(|r| r.boundaries.is_empty() && r.replay(&h).is_empty());
                }
            });
        }
    });
    let mut caught = 0;
    for (seed, (planted, real)) in seeds.iter().zip(&found) {
        match planted.iter().map(|r| r.script.ops.len()).max() {
            Some(ops) => {
                caught += 1;
                println!("seed {seed}: caught, largest reproducer {ops} ops");
            }
            None => println!("seed {seed}: missed"),
        }
        for r in real {
            println!(
                "seed {seed}: real violation (the healthy model fails it too): {} — {}",
                r.name, r.note
            );
        }
    }
    println!("catch rate: {caught}/{SELF_TEST_SEEDS} (floor {SELF_TEST_FLOOR})");
    if caught < SELF_TEST_FLOOR {
        eprintln!("FAIL: fewer than {SELF_TEST_FLOOR} campaigns caught the planted model bug");
        std::process::exit(1);
    }
    let planted = found.iter().flat_map(|(planted, _)| planted);
    if let Some(r) = planted.into_iter().find(|r| r.script.ops.len() > 3) {
        eprintln!("FAIL: a reproducer did not shrink:\n{}", r.to_text());
        std::process::exit(1);
    }

    // 2. Shrinker fixed point: the seeded known-bad script must reduce to
    //    the same byte-identical reproducer every run — the soak script
    //    diffs the text below against tests/repro/selftest_truncate_extend.repro.
    let h = Harness::new();
    let ops = known_bad_script();
    let repro: Repro = shrink_differential(&h, SystemKind::Pmfs, &ops, Some(bug), 400)
        .expect("the known-bad script must fail the differential");
    if repro.script.ops.len() > 2 {
        eprintln!(
            "FAIL: known-bad script shrank to {} ops, want <= 2",
            repro.script.ops.len()
        );
        std::process::exit(1);
    }
    let again = shrink_differential(&h, SystemKind::Pmfs, &repro.script.ops, Some(bug), 400)
        .expect("the shrunk script must still fail");
    if again.script.ops != repro.script.ops {
        eprintln!("FAIL: shrinking is not a fixed point");
        std::process::exit(1);
    }
    println!(
        "shrunk fixed-point reproducer ({} ops):",
        repro.script.ops.len()
    );
    println!("--- repro ---");
    print!("{}", repro.to_text());
    println!("--- end repro ---");
    println!("self-test OK");
}
