//! One repetition: set up a system (mkfs → populate → unmount → cold
//! remount → rebase), run a workload's closed-loop clients against it for
//! the fixed virtual duration, read every layer's counters at the run's
//! boundaries, then check the outputs (durable content, invariants,
//! regime).

use std::collections::BTreeMap;
use std::time::Instant;

use faultfs::{FsKind, Harness, Script, SweepConfig};
use fskit::{FileSystem, FileType, OpenFlags};
use nvmm::Cat;
use obsv::Introspect;
use workloads::setups::{build, remount_with, ObsvOptions, System, SystemConfig, SystemKind};
use workloads::{RunLimit, RunReport, Runner};

use crate::metrics::Values;
use crate::spec::{Dataset, RegimeFacts, Spec};
use crate::stats::{Pct, P50, P99, P999};
use crate::timedfs::{reported_ops, Op, Recorded, TimedFs, Trace, TracedActor};
use crate::trace;

/// A system ready for a measured run.
struct Prepared {
    sys: System,
    cfg: SystemConfig,
    data: Dataset,
    /// Host seconds of mkfs + populate + unmount + remount.
    setup_s: f64,
}

/// Builds `kind` at the workload's sizes, populates the dataset through
/// it, remounts cold (the DRAM buffer starts empty, like the paper's
/// "after clearing the OS page cache") and rebases the timeline.
fn prepare(spec: &Spec, kind: SystemKind, obsv: ObsvOptions) -> fskit::Result<Prepared> {
    let t0 = Instant::now();
    let cfg = SystemConfig {
        obsv,
        ..spec.system_config()
    };
    let sys = build(kind, &cfg)?;
    let data = spec.populate(&*sys.fs)?;
    sys.fs.unmount()?;
    let System { kind, dev, env, .. } = sys;
    let sys = remount_with(kind, dev, env, &cfg)?;
    sys.env.rebase();
    Ok(Prepared {
        sys,
        cfg,
        data,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// What one repetition produced.
pub struct Rep {
    /// Metrics on the modelled clock (and counts): bit-exact per seed.
    pub modelled: Values,
    /// Wall ns of the measured run ÷ syscalls issued.
    pub host_ns_per_op: f64,
    pub setup_s: f64,
    /// `FileSystem` calls of the measured run and the checks made on it.
    pub tally: Tally,
    /// Per-layer metrics (traced HiNFS repetitions only).
    pub layers: Option<Values>,
    /// The spans (traced repetitions only).
    pub trace: Option<Trace>,
}

/// What was attempted and what failed: `FileSystem` calls (an `Err` is a
/// failure) and output checks (one attempt each).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Runs one repetition of `spec` on `kind`.
pub fn run_rep(
    spec: &Spec,
    kind: SystemKind,
    seed: u64,
    traced: bool,
    obsv: ObsvOptions,
) -> fskit::Result<Rep> {
    let Prepared {
        sys,
        cfg,
        data,
        setup_s,
    } = prepare(spec, kind, obsv)?;
    let label = format!("{} on {}", spec.name, kind.label());

    let fs = TimedFs::new(sys.fs.clone(), sys.env.clone(), traced);
    let mut actors = spec.actors(&data);
    if traced {
        actors = actors
            .into_iter()
            .enumerate()
            .map(|(i, a)| TracedActor::wrap(a, &fs, i))
            .collect();
    }
    let before = LayerCounters::read(&sys);
    let runner = Runner::new(sys.env.clone(), fs.clone()).with_device(sys.dev.clone());
    let t0 = Instant::now();
    let report = runner.run(actors, RunLimit::duration_ms(spec.duration_ms), seed);
    let host_ns = t0.elapsed().as_nanos() as u64;
    let after = LayerCounters::read(&sys);
    let mut rec = fs.take();
    drop(runner);
    drop(fs);

    let calls = rec.calls();
    let mut checks = Tally {
        attempted: calls,
        failed: rec.errors(),
        failures: Vec::new(),
    };
    checks.check(calls == report.total_ops(), || {
        format!(
            "{label}: decorator saw {calls} calls, runner accounted {}",
            report.total_ops()
        )
    });
    checks.check(rec.count[Op::Other as usize] == 0, || {
        format!("{label}: workload issued calls outside the reported op classes")
    });

    let mut modelled = modelled_metrics(&report, &mut rec);
    let mut layers = None;
    if sys.hinfs.is_some() {
        for class in ["write", "read"] {
            let n = modelled[&format!("{class}_samples")] as u64;
            checks.check(P999.supported(n), || {
                format!("{label}: {n} {class} samples do not support p999 (need 10 beyond it)")
            });
        }
        let facts = regime_facts(&report, &before, &after);
        for (ok, gauge) in spec.regime_gauges(&facts) {
            checks.check(ok, || format!("{label}: regime gauge failed: {gauge}"));
        }
        if let Some(t) = &rec.trace {
            let bad = trace::malformed_steps(&t.spans);
            checks.check(bad == 0, || {
                format!("{label}: {bad} step trees whose children do not fit inside the step")
            });
            let mut l = layer_metrics(&report, &rec, &before, &after, host_ns);
            for (class, _, mid, tail) in PERCENTILES {
                for pct in [mid.label, tail.label] {
                    // 0 where the workload never issues the op.
                    let v = modelled.get(&format!("{class}_{pct}_vns")).copied();
                    l.insert(format!("fskit.{class}.{pct}_vns"), v.unwrap_or(0.0));
                }
            }
            layers = Some(l);
        }
        verify_durable(sys, &cfg, &mut checks, &label)?;
    } else {
        modelled = modelled
            .into_iter()
            .map(|(k, v)| (format!("pmfs_{k}"), v))
            .collect();
        sys.fs.unmount()?;
    }

    Ok(Rep {
        modelled,
        host_ns_per_op: host_ns as f64 / calls.max(1) as f64,
        setup_s,
        tally: checks,
        layers,
        trace: rec.trace,
    })
}

/// The percentiles reported per op class: `(class, op, median, tail)`.
const PERCENTILES: [(&str, Op, Pct, Pct); 3] = [
    ("write", Op::Write, P50, P999),
    ("read", Op::Read, P50, P999),
    ("fsync", Op::Fsync, P50, P99),
];

/// Everything one run yields on the modelled clock: the end-to-end
/// metrics, the exact latency percentiles, and the op counts. Equal maps
/// mean the model ran identically.
fn modelled_metrics(report: &RunReport, rec: &mut Recorded) -> Values {
    let mut m = Values::new();
    m.insert("ops_per_vsec".into(), report.throughput());
    for (class, op, mid, tail) in PERCENTILES {
        let samples = rec.samples_mut(op);
        samples.sort_unstable();
        let n = samples.len();
        if n > 0 {
            for p in [mid, tail] {
                m.insert(format!("{class}_{}_vns", p.label), p.of(samples) as f64);
            }
            let mean = rec.vns[op as usize] as f64 / n as f64;
            m.insert(format!("{class}_mean_vns"), mean);
        }
        m.insert(format!("{class}_samples"), n as f64);
    }
    m.insert(
        "nvmm_write_amp".into(),
        report.device.nvmm_bytes_written as f64 / report.metrics.bytes_written.max(1) as f64,
    );
    m.insert("steps".into(), report.metrics.steps as f64);
    m.insert("syscalls".into(), report.total_ops() as f64);
    m.insert("elapsed_vns".into(), report.elapsed_ns as f64);
    m
}

/// Counters of every layer below the VFS boundary, read through public
/// APIs only (the surface README "Pinned API" lists).
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounters {
    hinfs: hinfs::stats::StatsSnapshot,
    journal: pmfs::journal::JournalSnapshot,
    journal_fill: f64,
    pmfs_free_blocks: u64,
    buffer_free_blocks: u64,
    buffer_high_blocks: u64,
    open_txs: u64,
}

impl LayerCounters {
    fn read(sys: &System) -> LayerCounters {
        let Some(h) = &sys.hinfs else {
            return LayerCounters::default();
        };
        let snap = Introspect::snapshot(h.as_ref());
        let buf = snap.buffer.unwrap_or_default();
        let usage = h.pmfs().journal().usage();
        LayerCounters {
            hinfs: h.stats().snapshot(),
            journal: h.pmfs().journal().stats().snapshot(),
            journal_fill: usage.fill_entries as f64 / usage.capacity_entries.max(1) as f64,
            pmfs_free_blocks: h.pmfs().free_blocks(),
            buffer_free_blocks: buf.free_blocks,
            buffer_high_blocks: buf.high_blocks,
            open_txs: buf.open_txs,
        }
    }
}

fn regime_facts(report: &RunReport, before: &LayerCounters, after: &LayerCounters) -> RegimeFacts {
    let h = after.hinfs.since(&before.hinfs);
    RegimeFacts {
        foreground_stalls: h.foreground_stalls,
        bbm_evals: h.bbm_evals,
        eager_writes: h.eager_writes,
        writeback_blocks: h.writeback_blocks,
        fetch_lines: h.fetch_lines,
        free_blocks_end: after.buffer_free_blocks,
        high_blocks: after.buffer_high_blocks,
        bytes_read: report.metrics.bytes_read,
        bytes_written: report.metrics.bytes_written,
        fsync_bytes: report.metrics.fsync_bytes,
    }
}

/// Per-layer metrics of a traced HiNFS run (everything except the probes
/// and the tracing-overhead ratio, which need other runs).
fn layer_metrics(
    report: &RunReport,
    rec: &Recorded,
    before: &LayerCounters,
    after: &LayerCounters,
    run_host_ns: u64,
) -> Values {
    let trace = rec.trace.as_ref().expect("traced run");
    let mut m = Values::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("workloads.steps", report.metrics.steps as f64);
    let in_fs = trace.host_by_op.iter().sum::<u64>() + trace.tick_host_ns;
    put(
        "workloads.host_share",
        1.0 - in_fs as f64 / run_host_ns.max(1) as f64,
    );
    for &op in reported_ops() {
        let (i, l) = (op as usize, op.label());
        put(&format!("fskit.{l}.count"), rec.count[i] as f64);
        put(&format!("fskit.{l}.vns"), rec.vns[i] as f64);
        put(&format!("fskit.{l}.host_ns"), trace.host_by_op[i] as f64);
        put(&format!("fskit.{l}.failed"), rec.failed[i] as f64);
    }

    let ledger = |c: Cat| report.ledger.get(c) as f64;
    put("fskit.syscall_vns", ledger(Cat::Syscall));
    put("hinfs.fetch_vns", ledger(Cat::Fetch));
    put("hinfs.writeback_vns", ledger(Cat::Writeback));
    put("hinfs.data_write_vns", ledger(Cat::UserWrite));
    put("hinfs.data_read_vns", ledger(Cat::UserRead));
    put("pmfs.journal_vns", ledger(Cat::Journal));
    put("pmfs.meta_vns", ledger(Cat::Meta));
    put("nvmm.fence_vns", ledger(Cat::Fence));
    put("nvmm.ledger_total_vns", report.ledger.total() as f64);

    let h = after.hinfs.since(&before.hinfs);
    put("hinfs.buffer_hit_ratio", h.hit_ratio());
    put("hinfs.lazy_writes", h.lazy_writes as f64);
    put("hinfs.eager_writes", h.eager_writes as f64);
    put("hinfs.bbm_evals", h.bbm_evals as f64);
    put("hinfs.bbm_accuracy", h.bbm_accuracy());
    put("hinfs.fetch_lines", h.fetch_lines as f64);
    put("hinfs.writeback_lines", h.writeback_lines as f64);
    put("hinfs.writeback_blocks", h.writeback_blocks as f64);
    put("hinfs.foreground_stalls", h.foreground_stalls as f64);
    put("hinfs.dropped_dirty_blocks", h.dropped_dirty_blocks as f64);
    put("hinfs.free_blocks_end", after.buffer_free_blocks as f64);
    put("hinfs.open_txs_end", after.open_txs as f64);

    let j = after.journal.since(&before.journal);
    put("pmfs.journal_begins", j.begins as f64);
    put("pmfs.journal_commits", j.commits as f64);
    put("pmfs.journal_undo_entries", j.undo_entries as f64);
    put("pmfs.journal_fill_end", after.journal_fill);
    put("pmfs.free_blocks_end", after.pmfs_free_blocks as f64);

    let d = &report.device;
    put("nvmm.bytes_written", d.nvmm_bytes_written as f64);
    put("nvmm.bytes_read", d.nvmm_bytes_read as f64);
    put("nvmm.flush_lines", d.flush_lines as f64);
    put("nvmm.fences", d.fences as f64);
    put("nvmm.fences_coalesced", d.fences_coalesced as f64);
    m
}

/// `(size, FNV-1a of content)` of every regular file, by path.
type TreeHash = BTreeMap<String, (u64, u64)>;

fn hash_tree(fs: &dyn FileSystem) -> fskit::Result<TreeHash> {
    let mut out = TreeHash::new();
    let mut dirs = vec![String::from("/")];
    let mut buf = vec![0u8; 1 << 20];
    while let Some(dir) = dirs.pop() {
        for e in fs.readdir(&dir)? {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            if e.ftype == FileType::Dir {
                dirs.push(path);
                continue;
            }
            let fd = fs.open(&path, OpenFlags::READ)?;
            let (mut off, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
            loop {
                let n = fs.read(fd, off, &mut buf)?;
                if n == 0 {
                    break;
                }
                for &b in &buf[..n] {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                off += n as u64;
            }
            fs.close(fd)?;
            out.insert(path, (off, hash));
        }
    }
    Ok(out)
}

/// The durability check after a HiNFS run: what the live mount serves
/// after `sync()` must be exactly what a cold mount finds on NVMM alone,
/// and the invariant auditor must be clean on both sides of the remount.
fn verify_durable(
    sys: System,
    cfg: &SystemConfig,
    checks: &mut Tally,
    label: &str,
) -> fskit::Result<()> {
    let mut audit = |sys: &System, when: &str| {
        let rep = sys.introspect.as_ref().expect("hinfs introspects").audit();
        checks.check(rep.is_clean(), || {
            format!("{label}: audit {when}: {}", rep.to_json())
        });
    };
    audit(&sys, "after the run");
    sys.fs.sync()?;
    let live = hash_tree(&*sys.fs)?;
    sys.fs.unmount()?;
    let System { kind, dev, env, .. } = sys;
    let cold = remount_with(kind, dev, env, cfg)?;
    let durable = hash_tree(&*cold.fs)?;
    audit(&cold, "after the cold remount");
    cold.fs.unmount()?;
    checks.check(live == durable, || {
        let differing = live
            .iter()
            .filter(|(p, h)| durable.get(*p) != Some(h))
            .count()
            + durable.keys().filter(|p| !live.contains_key(*p)).count();
        for (p, h) in live.iter().filter(|(p, h)| durable.get(*p) != Some(h)) {
            eprintln!("DIFF {p}: live {h:?} durable {:?}", durable.get(p));
        }
        format!(
            "{label}: {differing} of {} files differ between the synced live mount and NVMM alone",
            live.len()
        )
    });
    checks.check(!live.is_empty(), || format!("{label}: no files to verify"));
    Ok(())
}

/// The crash-consistency spot check: one seeded crash-point sweep on
/// HiNFS and on PMFS; every crash run is one attempt.
pub fn fault_sweep() -> Tally {
    let harness = Harness::new();
    let script = Script::random(2016, 12);
    let cfg = SweepConfig {
        max_points: 32,
        torn_every: 4,
        ..SweepConfig::default()
    };
    let mut tally = Tally::default();
    for kind in [FsKind::Hinfs, FsKind::Pmfs] {
        let out = harness.sweep(kind, &script, cfg);
        tally.attempted += out.runs + out.torn_runs;
        tally.failed += out.violations.len() as u64;
        tally.failures.extend(
            out.violations
                .into_iter()
                .map(|v| format!("fault sweep: oracle violation {v}")),
        );
    }
    tally
}
