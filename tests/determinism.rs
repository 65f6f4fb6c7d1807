//! Virtual time must be fully deterministic: identical seeds and configs
//! produce bit-identical reports across independent simulated machines.
//! Every figure in `EXPERIMENTS.md` depends on this property.

use std::sync::Arc;

use hinfs_suite::prelude::*;
use workloads::filebench::{FilebenchParams, Fileserver, Varmail};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::setups::{build, remount_with, ObsvOptions, System, SystemConfig, SystemKind};
use workloads::traces::{TraceReplay, USR0};
use workloads::RunReport;

fn one_run(kind: SystemKind, seed: u64) -> RunReport {
    one_run_cfg(kind, seed, ObsvOptions::none())
}

/// The unobserved seed-42 run of `kind` — the baseline four tests
/// compare against — computed once per process.
/// `repeated_runs_are_bit_identical` is what licenses the sharing: it
/// checks a second, independent run against this one.
fn baseline(kind: SystemKind) -> &'static RunReport {
    use std::sync::OnceLock;
    static RUNS: [OnceLock<RunReport>; 4] = [const { OnceLock::new() }; 4];
    let slot = KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("a KINDS member");
    RUNS[slot].get_or_init(|| one_run(kind, 42))
}

/// The systems every result-neutrality test covers.
const KINDS: [SystemKind; 4] = [
    SystemKind::Pmfs,
    SystemKind::Hinfs,
    SystemKind::Ext4Bd,
    SystemKind::Ext4Dax,
];

fn config(obsv: ObsvOptions) -> SystemConfig {
    SystemConfig {
        device_bytes: 64 << 20,
        buffer_bytes: 2 << 20,
        cache_pages: 512,
        journal_blocks: 256,
        inode_count: 4096,
        obsv,
        ..SystemConfig::default()
    }
}

fn one_run_cfg(kind: SystemKind, seed: u64, obsv: ObsvOptions) -> RunReport {
    let audited = obsv.audit;
    run_on(build(kind, &config(obsv)).unwrap(), seed, audited)
}

/// Populates `sys`, runs the mixed workload on it and unmounts it.
fn run_on(sys: System, seed: u64, audited: bool) -> RunReport {
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/d", 48, 10, 16 << 10), 7).unwrap();
    sys.env.rebase();
    let params = FilebenchParams {
        iosize: 64 << 10,
        append_size: 4 << 10,
    };
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(Fileserver::new(Arc::clone(&set), params)),
        Box::new(Varmail::new(Arc::clone(&set), params)),
        Box::new(TraceReplay::new(set, USR0, seed)),
    ];
    let r = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::duration_ms(100), seed);
    assert_eq!(r.error, None);
    if audited {
        // Snapshots and a full audit pass are read-only; take them before
        // unmount so the run exercises both with the caches still warm.
        let intro = sys.introspect.as_ref().expect("system introspects");
        let snap = intro.snapshot();
        assert_eq!(snap, intro.snapshot(), "snapshotting is repeatable");
        let rep = intro.audit();
        assert!(rep.is_clean(), "audit violations: {:?}", rep.violations);
        assert_eq!(sys.obs.audit_violations(), 0);
    }
    sys.fs.unmount().unwrap();
    r
}

fn assert_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.elapsed_ns, b.elapsed_ns, "{label}: elapsed");
    assert_eq!(a.metrics.steps, b.metrics.steps, "{label}: steps");
    assert_eq!(
        a.metrics.bytes_written, b.metrics.bytes_written,
        "{label}: bytes written"
    );
    assert_eq!(
        a.metrics.bytes_read, b.metrics.bytes_read,
        "{label}: bytes read"
    );
    assert_eq!(
        a.metrics.fsync_bytes, b.metrics.fsync_bytes,
        "{label}: fsync bytes"
    );
    assert_eq!(
        a.device.nvmm_bytes_written, b.device.nvmm_bytes_written,
        "{label}: device writes"
    );
    assert_eq!(a.ledger, b.ledger, "{label}: ledger");
    for op in workloads::metrics::ALL_OPS {
        assert_eq!(a.op_ns(op), b.op_ns(op), "{label}: {} time", op.label());
        assert_eq!(
            a.op_count(op),
            b.op_count(op),
            "{label}: {} count",
            op.label()
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    for kind in KINDS {
        assert_identical(baseline(kind), &one_run(kind, 42), kind.label());
    }
}

/// The observability layer (per-op records folded into timing and span
/// attribution) only reads the virtual clock — it never advances it — so
/// enabling all of it, auditor included, must leave every figure-relevant
/// number bit-identical to an unobserved run.
#[test]
fn spans_and_timing_do_not_change_results() {
    for kind in KINDS {
        let observed = one_run_cfg(kind, 42, ObsvOptions::all());
        assert_identical(baseline(kind), &observed, kind.label());
    }
}

/// Snapshots are pure reads and the auditor only takes the regular locks,
/// so running with `obsv_audit` on (every fsync self-audits) and taking
/// snapshots mid-flight must not perturb a single figure-relevant number.
#[test]
fn snapshots_and_audit_do_not_change_results() {
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs, SystemKind::Ext4Bd] {
        let plain = one_run(kind, 7);
        let audited = one_run_cfg(kind, 7, ObsvOptions::none().with_audit());
        assert_identical(&plain, &audited, kind.label());
    }
}

/// The per-op record composes every read-only hook (trace, spans,
/// contention waits, device counters) in one TLS frame and folds into
/// the histograms and reservoirs — all of it observation. Arming
/// `ObsvOptions::flight()` (`Level::Full`) must not change a single
/// result bit relative to an unobserved run.
#[test]
fn flight_recorder_does_not_change_results() {
    for kind in KINDS {
        let flown = one_run_cfg(kind, 42, ObsvOptions::flight());
        assert_identical(baseline(kind), &flown, kind.label());
    }
}

/// The lineage ledger (ack stamps, drain accounting, lag histograms)
/// only reads the virtual clock and the trace sequence — stamping and
/// draining never charge time. The benchmark's pinned spelling of the
/// full preset must leave every figure-relevant number bit-identical.
#[test]
fn lineage_tracking_does_not_change_results() {
    for kind in KINDS {
        let traced = one_run_cfg(kind, 42, ObsvOptions::flight().with_lineage());
        assert_identical(baseline(kind), &traced, kind.label());
    }
}

#[test]
fn different_seeds_differ() {
    let a = one_run(SystemKind::Hinfs, 1);
    let b = one_run(SystemKind::Hinfs, 2);
    assert_ne!(
        (a.elapsed_ns, a.metrics.bytes_written),
        (b.elapsed_ns, b.metrics.bytes_written),
        "seeded runs should explore different schedules"
    );
}

/// mkfs's metadata zeroing is the first store to a new device, and a
/// never-stored device skips its byte work while booking every charge.
/// Formatting a device whose flag a zero-valued `poke` cleared first must
/// therefore give the same run, bit for bit.
#[test]
fn a_never_stored_device_formats_like_a_touched_one() {
    let cfg = config(ObsvOptions::none());
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
        let run = |touched: bool| {
            let env = SimEnv::new(cfg.mode, cfg.cost.clone());
            let dev = NvmmDevice::new(env.clone(), cfg.device_bytes);
            if touched {
                dev.poke(cfg.device_bytes as u64 - 64, &[0]);
            }
            let popts = PmfsOptions {
                journal_blocks: cfg.journal_blocks,
                inode_count: cfg.inode_count,
            };
            match kind {
                SystemKind::Pmfs => Pmfs::mkfs(dev.clone(), popts).unwrap().unmount(),
                _ => {
                    let hcfg = HinfsConfig::default().with_buffer_bytes(cfg.buffer_bytes);
                    Hinfs::mkfs(dev.clone(), popts, hcfg).unwrap().unmount()
                }
            }
            .unwrap();
            run_on(remount_with(kind, dev, env, &cfg).unwrap(), 42, false)
        };
        assert_identical(&run(false), &run(true), kind.label());
    }
}
