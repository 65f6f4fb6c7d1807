//! One function per figure of the paper's evaluation. See `DESIGN.md` for
//! the experiment index and the expected shapes.

use nvmm::{Cat, CostModel};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::fio::{Fio, FioParams};
use workloads::kernel::{KernelGrep, KernelMake, SourceTree, TreeParams};
use workloads::postmark::{Postmark, PostmarkParams};
use workloads::runner::{Actor, RunLimit, Runner};
use workloads::setups::{remount_with, System, SystemKind};
use workloads::tpcc::{Tpcc, TpccParams};
use workloads::traces::{TraceReplay, ALL_TRACES};
use workloads::{OpKind, RunReport};

use crate::common::{filebench_once, prepared_system, run_personality, Personality, Scale};
use crate::table::{fmt2, mib, pct, Table};

/// Runs one figure by number (1, 2, 6, 7, ..., 13).
pub fn fig(n: u32, scale: &Scale) -> Option<Table> {
    match n {
        1 => Some(fig01(scale)),
        2 => Some(fig02(scale)),
        6 => Some(fig06(scale)),
        7 => Some(fig07(scale)),
        8 => Some(fig08(scale)),
        9 => Some(fig09(scale)),
        10 => Some(fig10(scale)),
        11 => Some(fig11(scale)),
        12 => Some(fig12(scale)),
        13 => Some(fig13(scale)),
        // Span-recomputed variants: the same breakdowns derived from the
        // live Phase spans instead of the cost ledger / runner accounting.
        101 => Some(fig01_spans(scale)),
        112 => Some(fig12_spans(scale)),
        _ => None,
    }
}

/// All figure numbers with experiments.
pub const ALL_FIGS: [u32; 10] = [1, 2, 6, 7, 8, 9, 10, 11, 12, 13];

fn run_actors(sys: &System, actors: Vec<Box<dyn Actor>>, limit: RunLimit, seed: u64) -> RunReport {
    Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, limit, seed)
}

// ---------------------------------------------------------------- Fig 1

/// Fig 1: time breakdown of the fio benchmark on PMFS across I/O sizes
/// (read:write = 1:2). Expected shape: Write Access dominates (> 80 %) at
/// I/O sizes ≥ 4 KiB and still exceeds ~16 % at 64 B.
pub fn fig01(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig01",
        "fio on PMFS: time breakdown vs I/O size (r:w = 1:2)",
        &["iosize", "read-access", "write-access", "others"],
    );
    for &iosize in &[64usize, 1 << 10, 4 << 10, 16 << 10, 64 << 10] {
        let cfg = scale.system_config(CostModel::default());
        let sys = workloads::setups::build(SystemKind::Pmfs, &cfg).expect("build pmfs");
        let params = FioParams::new("/fio-job", 16 << 20, iosize);
        Fio::setup(&*sys.fs, &params).expect("fio setup");
        sys.fs.sync().expect("sync");
        sys.env.rebase();
        let report = run_actors(
            &sys,
            vec![Box::new(Fio::new(params))],
            RunLimit::duration_ms(scale.duration_ms / 2),
            1,
        );
        let ledger = &report.ledger;
        let total = ledger.total().max(1);
        t.row(vec![
            format!("{iosize}B"),
            pct(ledger.get(Cat::UserRead) as f64 / total as f64),
            pct(ledger.get(Cat::UserWrite) as f64 / total as f64),
            pct(ledger.others() as f64 / total as f64),
        ]);
    }
    t.note("paper: write access ≥ 80% at ≥ 4KiB; ≥ 16% at 64B");
    t
}

/// Fig 1 recomputed from spans: the ledger's read-/write-access shares
/// next to the same shares derived from the live phase matrix
/// ([`obsv::Phase::NvmmCopy`] ≈ read access, `Persist` + `DramCopy` ≈
/// write access). The two disagree only by time charged outside any
/// device scope (syscall software overhead lands in `Other`), so the
/// columns track within ~5 percentage points.
pub fn fig01_spans(scale: &Scale) -> Table {
    use obsv::Phase;
    let mut t = Table::new(
        "fig01s",
        "fio on PMFS: ledger vs span-derived time shares",
        &[
            "iosize",
            "read-ledger",
            "read-spans",
            "write-ledger",
            "write-spans",
        ],
    );
    for &iosize in &[64usize, 4 << 10, 64 << 10] {
        let mut cfg = scale.system_config(CostModel::default());
        cfg.obsv = workloads::ObsvOptions::flight();
        let sys = workloads::setups::build(SystemKind::Pmfs, &cfg).expect("build pmfs");
        let params = FioParams::new("/fio-job", 16 << 20, iosize);
        Fio::setup(&*sys.fs, &params).expect("fio setup");
        sys.fs.sync().expect("sync");
        sys.env.rebase();
        let s0 = sys.dev.spans().snapshot();
        let report = run_actors(
            &sys,
            vec![Box::new(Fio::new(params))],
            RunLimit::duration_ms(scale.duration_ms / 2),
            1,
        );
        let spans = sys.dev.spans().snapshot().since(&s0);
        let ledger = &report.ledger;
        let ltotal = ledger.total().max(1) as f64;
        let stotal = spans.grand_total().max(1) as f64;
        let read_spans = spans.phase_total(Phase::NvmmCopy) as f64 / stotal;
        let write_spans = (spans.phase_total(Phase::Persist) + spans.phase_total(Phase::DramCopy))
            as f64
            / stotal;
        t.row(vec![
            format!("{iosize}B"),
            pct(ledger.get(Cat::UserRead) as f64 / ltotal),
            pct(read_spans),
            pct(ledger.get(Cat::UserWrite) as f64 / ltotal),
            pct(write_spans),
        ]);
    }
    t.note("ledger and span shares agree within ~5pp (documented tolerance)");
    t
}

// ---------------------------------------------------------------- Fig 2

/// Fig 2: percentage of fsync bytes per workload (with total written bytes
/// atop each bar). Expected: TPC-C > 90 %, LASR = 0 %, varmail/facebook
/// high, filebench fileserver/webserver/webproxy ≈ 0 %.
pub fn fig02(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig02",
        "fsync bytes as a share of written bytes, per workload",
        &["workload", "written-MiB", "fsync-bytes"],
    );
    let cost = CostModel::default;
    // Filebench personalities.
    for p in Personality::ALL {
        let (sys, set) = prepared_system(SystemKind::Pmfs, scale, cost());
        let r = run_personality(&sys, &set, p, scale.threads, scale);
        t.row(vec![
            p.label().into(),
            mib(r.metrics.bytes_written),
            pct(r.fsync_byte_fraction()),
        ]);
    }
    // Postmark.
    {
        let (sys, _set) = prepared_system(SystemKind::Pmfs, scale, cost());
        let pool = Fileset::populate(&*sys.fs, FilesetSpec::new("/mail", 128, 20, 2 << 10), 3)
            .expect("pool");
        sys.env.rebase();
        let r = run_actors(
            &sys,
            vec![Box::new(Postmark::new(pool, PostmarkParams::default()))],
            RunLimit::steps(1500),
            2,
        );
        t.row(vec![
            "postmark".into(),
            mib(r.metrics.bytes_written),
            pct(r.fsync_byte_fraction()),
        ]);
    }
    // TPC-C.
    {
        let (sys, _set) = prepared_system(SystemKind::Pmfs, scale, cost());
        let params = TpccParams {
            table_size: 16 << 20,
            ..TpccParams::default()
        };
        Tpcc::setup(&*sys.fs, &params).expect("tpcc setup");
        sys.env.rebase();
        let r = run_actors(
            &sys,
            vec![Box::new(Tpcc::new(params))],
            RunLimit::steps(400),
            2,
        );
        t.row(vec![
            "tpcc".into(),
            mib(r.metrics.bytes_written),
            pct(r.fsync_byte_fraction()),
        ]);
    }
    // Traces.
    for profile in ALL_TRACES {
        let (sys, set) = prepared_system(SystemKind::Pmfs, scale, cost());
        sys.env.rebase();
        let r = run_actors(
            &sys,
            vec![Box::new(TraceReplay::new(set, profile, 5))],
            RunLimit::steps(1500),
            2,
        );
        t.row(vec![
            profile.name.into(),
            mib(r.metrics.bytes_written),
            pct(r.fsync_byte_fraction()),
        ]);
    }
    t.note("paper: TPC-C > 90%, LASR = 0%, desktops in between");
    t
}

// ---------------------------------------------------------------- Fig 6

/// Fig 6: accuracy of the Buffer Benefit Model's use of the most recent
/// synchronization information, per workload. Expected: ≈ 90 %+ even in
/// the worst case.
pub fn fig06(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig06",
        "Buffer Benefit Model prediction accuracy (HiNFS)",
        &["workload", "evaluations", "accuracy"],
    );
    let mut record = |name: &str, sys: &System, evals: u64, acc: f64| {
        let _ = sys;
        t.row(vec![name.into(), evals.to_string(), pct(acc)]);
    };
    // Varmail.
    {
        let (sys, set) = prepared_system(SystemKind::Hinfs, scale, CostModel::default());
        let _ = run_personality(&sys, &set, Personality::Varmail, scale.threads, scale);
        let s = sys.hinfs.as_ref().expect("hinfs").stats().snapshot();
        record("varmail", &sys, s.bbm_evals, s.bbm_accuracy());
    }
    // TPC-C.
    {
        let (sys, _set) = prepared_system(SystemKind::Hinfs, scale, CostModel::default());
        let params = TpccParams {
            table_size: 16 << 20,
            ..TpccParams::default()
        };
        Tpcc::setup(&*sys.fs, &params).expect("tpcc setup");
        sys.env.rebase();
        let _ = run_actors(
            &sys,
            vec![Box::new(Tpcc::new(params))],
            RunLimit::steps(400),
            6,
        );
        let s = sys.hinfs.as_ref().expect("hinfs").stats().snapshot();
        record("tpcc", &sys, s.bbm_evals, s.bbm_accuracy());
    }
    // Usr0, Usr1, Facebook.
    for profile in [
        workloads::traces::USR0,
        workloads::traces::USR1,
        workloads::traces::FACEBOOK,
    ] {
        let (sys, set) = prepared_system(SystemKind::Hinfs, scale, CostModel::default());
        sys.env.rebase();
        let _ = run_actors(
            &sys,
            vec![Box::new(TraceReplay::new(set, profile, 5))],
            RunLimit::steps(1500),
            6,
        );
        let s = sys.hinfs.as_ref().expect("hinfs").stats().snapshot();
        record(profile.name, &sys, s.bbm_evals, s.bbm_accuracy());
    }
    t.note("paper: close to 90% even in the worst case (Usr0)");
    t
}

// ---------------------------------------------------------------- Fig 7

/// Fig 7: overall filebench throughput of the five systems, normalized to
/// PMFS. Expected: HiNFS best everywhere (up to ~2.8× on fileserver),
/// ≈ PMFS on webserver/varmail; NVMMBD systems worst except webproxy.
pub fn fig07(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig07",
        "filebench throughput normalized to PMFS (multi-thread)",
        &[
            "workload",
            "pmfs",
            "ext4-dax",
            "ext2-nvmmbd",
            "ext4-nvmmbd",
            "hinfs",
        ],
    );
    for p in Personality::ALL {
        let mut row = vec![p.label().to_string()];
        let base = filebench_once(
            SystemKind::Pmfs,
            p,
            scale.threads,
            scale,
            CostModel::default(),
        )
        .throughput();
        row.push(fmt2(1.0));
        for kind in [
            SystemKind::Ext4Dax,
            SystemKind::Ext2Bd,
            SystemKind::Ext4Bd,
            SystemKind::Hinfs,
        ] {
            let tput =
                filebench_once(kind, p, scale.threads, scale, CostModel::default()).throughput();
            row.push(fmt2(tput / base.max(1e-9)));
        }
        t.row(row);
    }
    t.note("paper: HiNFS up to 2.84x PMFS on fileserver; ~1x on webserver/varmail");
    t
}

// ---------------------------------------------------------------- Fig 8

/// Fig 8: throughput (ops/s) for 1–10 threads, per workload and system.
pub fn fig08(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig08",
        "throughput (ops/s) vs thread count",
        &["workload", "system", "1", "2", "4", "6", "8", "10"],
    );
    let thread_counts = [1usize, 2, 4, 6, 8, 10];
    let scale = Scale {
        duration_ms: scale.duration_ms / 2,
        ..scale.clone()
    };
    for p in Personality::ALL {
        for kind in SystemKind::FIG7 {
            let mut row = vec![p.label().to_string(), kind.label().to_string()];
            for &threads in &thread_counts {
                let r = filebench_once(kind, p, threads, &scale, CostModel::default());
                row.push(format!("{:.0}", r.throughput()));
            }
            t.row(row);
        }
    }
    t.note("paper: HiNFS scales best; PMFS/DAX are bandwidth-limited; HiNFS >= 1.5x PMFS at 10 threads on fileserver");
    t
}

// ---------------------------------------------------------------- Fig 9

/// Fig 9: (a) fileserver throughput vs I/O size for HiNFS, HiNFS-NCLFW and
/// PMFS; (b) total NVMM write bytes. Expected: CLFW wins (~30 %) below the
/// 4 KiB block size and slashes the write traffic; parity at ≥ 4 KiB.
pub fn fig09(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig09",
        "fileserver vs I/O size: throughput (ops/s) and NVMM write MiB",
        &[
            "iosize",
            "pmfs",
            "hinfs-nclfw",
            "hinfs",
            "wrMiB-nclfw",
            "wrMiB-hinfs",
        ],
    );
    for &iosize in &[64usize, 512, 1 << 10, 4 << 10, 16 << 10] {
        // Small files and a tight buffer keep the writeback path under
        // real pressure — the regime the paper's Fig 9 probes.
        let s = Scale {
            nfiles: scale.nfiles.max(256),
            mean_file: 8 << 10,
            iosize,
            append: iosize,
            buffer_frac: 0.08,
            duration_ms: scale.duration_ms / 2,
            ..scale.clone()
        };
        let mut row = vec![format!("{iosize}B")];
        let mut wb = Vec::new();
        for kind in [SystemKind::Pmfs, SystemKind::HinfsNclfw, SystemKind::Hinfs] {
            let (sys, set) = prepared_system(kind, &s, CostModel::default());
            let r = run_personality(&sys, &set, Personality::Fileserver, 1, &s);
            row.push(format!("{:.0}", r.throughput()));
            // Buffer writeback traffic, per 1000 workload loops (the
            // "NVMM write size" of Fig 9b, isolated from journal traffic).
            let lines = sys
                .hinfs
                .as_ref()
                .map(|h| h.stats().snapshot().writeback_lines)
                .unwrap_or(0);
            wb.push(lines * 64 * 1000 / r.metrics.steps.max(1));
            let _ = sys.fs.unmount();
        }
        row.push(mib(wb[1]));
        row.push(mib(wb[2]));
        t.row(row);
    }
    t.note("write MiB columns: buffer writeback traffic per 1000 loops; paper: CLFW far less traffic below 4KiB, parity at/above it");
    t
}

// ---------------------------------------------------------------- Fig 10

/// Fig 10: throughput as a function of the DRAM buffer (and page cache)
/// size relative to the dataset. Expected: fileserver improves with the
/// ratio; webproxy is flat (locality + short-lived files).
pub fn fig10(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig10",
        "throughput (ops/s) vs buffer-size/dataset ratio",
        &[
            "workload", "system", "0.1", "0.2", "0.4", "0.6", "0.8", "1.0",
        ],
    );
    let ratios = [0.1f64, 0.2, 0.4, 0.6, 0.8, 1.0];
    for p in [Personality::Fileserver, Personality::Webproxy] {
        for kind in [
            SystemKind::Pmfs,
            SystemKind::Ext2Bd,
            SystemKind::Ext4Bd,
            SystemKind::Hinfs,
        ] {
            let mut row = vec![p.label().to_string(), kind.label().to_string()];
            for &ratio in &ratios {
                let s = Scale {
                    buffer_frac: ratio,
                    cache_frac: ratio,
                    duration_ms: scale.duration_ms / 2,
                    ..scale.clone()
                };
                let r = filebench_once(kind, p, scale.threads, &s, CostModel::default());
                row.push(format!("{:.0}", r.throughput()));
            }
            t.row(row);
        }
    }
    t.note("paper: fileserver grows with the ratio; webproxy flat; NVMMBD << PMFS even at 1.0");
    t
}

// ---------------------------------------------------------------- Fig 11

/// Fig 11: single-thread throughput across NVMM write latencies
/// (50–800 ns). Expected: the HiNFS/PMFS gap grows with latency (~6× at
/// 800 ns on webproxy) and HiNFS is never worse, even at 50 ns.
pub fn fig11(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig11",
        "throughput (ops/s) vs NVMM write latency, 1 thread",
        &[
            "workload", "system", "50ns", "100ns", "200ns", "400ns", "800ns",
        ],
    );
    let lats = [50u64, 100, 200, 400, 800];
    let s = Scale {
        duration_ms: scale.duration_ms / 2,
        ..scale.clone()
    };
    for p in Personality::ALL {
        for kind in SystemKind::FIG7 {
            let mut row = vec![p.label().to_string(), kind.label().to_string()];
            for &lat in &lats {
                let cost = CostModel::default().with_write_latency(lat);
                let r = filebench_once(kind, p, 1, &s, cost);
                row.push(format!("{:.0}", r.throughput()));
            }
            t.row(row);
        }
    }
    t.note("paper: HiNFS/PMFS gap grows with latency; HiNFS no worse than PMFS even at 50ns");
    t
}

// ---------------------------------------------------------------- Fig 12

/// Fig 12: trace-replay execution time, broken down into read / write /
/// unlink / fsync, normalized to PMFS's total. Expected: HiNFS cuts
/// Usr0/Usr1/LASR by ~35–38 % vs PMFS (mostly write time), ties on
/// Facebook; HiNFS-WB is 14–32 % slower than HiNFS on sync-heavy traces.
pub fn fig12(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig12",
        "trace replay: per-op time breakdown normalized to PMFS total",
        &[
            "trace", "system", "read", "write", "unlink", "fsync", "total",
        ],
    );
    let steps = 2500u64;
    let tscale = Scale {
        nfiles: 128,
        mean_file: 32 << 10,
        ..scale.clone()
    };
    for profile in ALL_TRACES {
        let mut base_total = 0u64;
        for kind in SystemKind::FIG12 {
            let (sys, set) = prepared_system(kind, &tscale, CostModel::default());
            sys.env.rebase();
            let r = run_actors(
                &sys,
                vec![Box::new(TraceReplay::new(set, profile, 5))],
                RunLimit::steps(steps),
                12,
            );
            let _ = sys.fs.unmount();
            let read = r.op_ns(OpKind::Read);
            let write = r.op_ns(OpKind::Write);
            let unlink = r.op_ns(OpKind::Unlink);
            let fsync = r.op_ns(OpKind::Fsync);
            let total = r.syscall_ns();
            if kind == SystemKind::Pmfs {
                base_total = total.max(1);
            }
            let norm = |v: u64| fmt2(v as f64 / base_total as f64);
            t.row(vec![
                profile.name.into(),
                kind.label().into(),
                norm(read),
                norm(write),
                norm(unlink),
                norm(fsync),
                norm(total),
            ]);
        }
    }
    t.note("paper: HiNFS total ~0.62-0.65 of PMFS on usr0/usr1/lasr; ~1.0 on facebook; HiNFS-WB 14-32% above HiNFS on sync-heavy traces");
    t
}

/// Fig 12 recomputed from spans: per-op totals from the OpKind × Phase
/// matrix next to the runner's own per-op accounting for the same trace
/// replay. `FsObs::op` books an op's full instrumented time into its row
/// (the remainder under `Phase::Other`), so the two columns agree almost
/// exactly — the span layer and the runner read the same virtual clock
/// around the same call boundary.
pub fn fig12_spans(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig12s",
        "trace replay: runner per-op ns vs span row totals",
        &["trace", "system", "op", "runner-ns", "span-ns", "ratio"],
    );
    let steps = 2500u64;
    let tscale = Scale {
        nfiles: 128,
        mean_file: 32 << 10,
        ..scale.clone()
    };
    let profile = workloads::traces::USR0;
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
        let mut cfg = tscale.system_config(CostModel::default());
        cfg.obsv = workloads::ObsvOptions::flight();
        let sys = workloads::setups::build(kind, &cfg).expect("build");
        let set = workloads::fileset::Fileset::populate(&*sys.fs, tscale.fileset_spec(), 0xF11E)
            .expect("populate");
        sys.fs.unmount().expect("unmount");
        let workloads::setups::System { kind, dev, env, .. } = sys;
        let sys = remount_with(kind, dev, env, &cfg).expect("remount");
        sys.env.rebase();
        let s0 = sys.dev.spans().snapshot();
        let r = run_actors(
            &sys,
            vec![Box::new(TraceReplay::new(set, profile, 5))],
            RunLimit::steps(steps),
            12,
        );
        let spans = sys.dev.spans().snapshot().since(&s0);
        let _ = sys.fs.unmount();
        for op in [OpKind::Read, OpKind::Write, OpKind::Unlink, OpKind::Fsync] {
            let runner_ns = r.op_ns(op);
            let span_ns = spans.row_total(op as usize);
            let ratio = span_ns as f64 / runner_ns.max(1) as f64;
            t.row(vec![
                profile.name.into(),
                kind.label().into(),
                format!("{:?}", op).to_lowercase(),
                runner_ns.to_string(),
                span_ns.to_string(),
                fmt2(ratio),
            ]);
        }
    }
    t.note("span row totals track the runner accounting (ratio ~1.00)");
    t
}

// ---------------------------------------------------------------- Fig 13

/// Fig 13: macrobenchmark elapsed time normalized to PMFS. Expected: HiNFS
/// −60 % on postmark and −64 % on kernel-make vs PMFS; ≈ PMFS on TPC-C and
/// kernel-grep; every NVMM-aware system far below EXT*/NVMMBD; EXT2 faster
/// than EXT4 (no journal).
pub fn fig13(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig13",
        "macrobenchmark elapsed time normalized to PMFS",
        &[
            "benchmark",
            "pmfs",
            "ext4-dax",
            "ext2-nvmmbd",
            "ext4-nvmmbd",
            "hinfs-wb",
            "hinfs",
        ],
    );
    #[derive(Clone, Copy)]
    enum Macro {
        Postmark,
        Tpcc,
        Grep,
        Make,
    }
    let benchmarks = [
        ("postmark", Macro::Postmark),
        ("tpcc", Macro::Tpcc),
        ("kernel-grep", Macro::Grep),
        ("kernel-make", Macro::Make),
    ];
    for (name, m) in benchmarks {
        let mut elapsed = Vec::new();
        for kind in SystemKind::FIG12 {
            let cfg = scale.system_config(CostModel::default());
            let sys = workloads::setups::build(kind, &cfg).expect("build");
            let r = match m {
                Macro::Postmark => {
                    let pool =
                        Fileset::populate(&*sys.fs, FilesetSpec::new("/mail", 192, 20, 2 << 10), 3)
                            .expect("pool");
                    let sys = remount_and_rebase(sys, &cfg);
                    let r = run_actors(
                        &sys,
                        vec![Box::new(Postmark::new(pool, PostmarkParams::default()))],
                        RunLimit::steps(2000),
                        13,
                    );
                    let _ = sys.fs.unmount();
                    r
                }
                Macro::Tpcc => {
                    let params = TpccParams {
                        table_size: 16 << 20,
                        ..TpccParams::default()
                    };
                    Tpcc::setup(&*sys.fs, &params).expect("setup");
                    let sys = remount_and_rebase(sys, &cfg);
                    let r = run_actors(
                        &sys,
                        vec![Box::new(Tpcc::new(params))],
                        RunLimit::steps(400),
                        13,
                    );
                    let _ = sys.fs.unmount();
                    r
                }
                Macro::Grep => {
                    let tree = SourceTree::build(&*sys.fs, "/linux", TreeParams::default(), 5)
                        .expect("tree");
                    let sys = remount_and_rebase(sys, &cfg);
                    let r = run_actors(
                        &sys,
                        vec![Box::new(KernelGrep::new(tree))],
                        RunLimit::default(),
                        13,
                    );
                    let _ = sys.fs.unmount();
                    r
                }
                Macro::Make => {
                    let tree = SourceTree::build(&*sys.fs, "/linux", TreeParams::default(), 5)
                        .expect("tree");
                    let sys = remount_and_rebase(sys, &cfg);
                    let r = run_actors(
                        &sys,
                        vec![Box::new(KernelMake::new(tree))],
                        RunLimit::default(),
                        13,
                    );
                    let _ = sys.fs.unmount();
                    r
                }
            };
            elapsed.push(r.elapsed_ns.max(1));
        }
        let base = elapsed[0] as f64;
        let mut row = vec![name.to_string()];
        for e in &elapsed {
            row.push(fmt2(*e as f64 / base));
        }
        t.row(row);
    }
    t.note("paper: HiNFS ~0.40 of PMFS on postmark, ~0.36 on kernel-make, ~1.0 on tpcc/kernel-grep; ext2 < ext4");
    t
}

fn remount_and_rebase(sys: System, cfg: &workloads::setups::SystemConfig) -> System {
    let System {
        kind, dev, env, fs, ..
    } = sys;
    fs.unmount().expect("unmount");
    drop(fs);
    let sys = remount_with(kind, dev, env, cfg).expect("remount");
    sys.env.rebase();
    sys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale::quick()
    }

    #[test]
    fn fig01_breakdown_shape() {
        let t = fig01(&quick());
        assert_eq!(t.rows.len(), 5);
        // Largest I/O size: write access dominates.
        let last = t.rows.last().unwrap();
        let write_pct: f64 = last[2].trim_end_matches('%').parse().unwrap();
        assert!(write_pct > 60.0, "write access {write_pct}% at 64KiB");
        // Smallest: others significant but write still >= 10%.
        let first = &t.rows[0];
        let write_pct0: f64 = first[2].trim_end_matches('%').parse().unwrap();
        assert!(write_pct0 > 10.0, "write access {write_pct0}% at 64B");
        assert!(write_pct0 < write_pct);
    }

    #[test]
    fn fig06_accuracy_is_high() {
        let t = fig06(&quick());
        for row in &t.rows {
            let acc: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert!(acc > 75.0, "{} accuracy {acc}%", row[0]);
        }
    }

    #[test]
    fn fig01_spans_agree_with_ledger() {
        let t = fig01_spans(&quick());
        for row in &t.rows {
            let v = |i: usize| -> f64 { row[i].trim_end_matches('%').parse().unwrap() };
            assert!(
                (v(1) - v(2)).abs() <= 5.0,
                "{}: read ledger {} vs spans {}",
                row[0],
                row[1],
                row[2]
            );
            assert!(
                (v(3) - v(4)).abs() <= 5.0,
                "{}: write ledger {} vs spans {}",
                row[0],
                row[3],
                row[4]
            );
        }
    }

    #[test]
    fn fig12_spans_match_runner_accounting() {
        let t = fig12_spans(&quick());
        for row in &t.rows {
            let runner: u64 = row[3].parse().unwrap();
            if runner < 10_000 {
                continue; // too small for a meaningful ratio
            }
            let ratio: f64 = row[5].parse().unwrap();
            assert!(
                (0.95..=1.05).contains(&ratio),
                "{} {} {}: ratio {ratio}",
                row[0],
                row[1],
                row[2]
            );
        }
    }

    #[test]
    fn fig09_clfw_reduces_traffic_at_small_io() {
        let t = fig09(&quick());
        // 64 B row: NCLFW writes far more NVMM bytes than CLFW.
        let row = &t.rows[0];
        let nclfw: f64 = row[4].parse().unwrap();
        let clfw: f64 = row[5].parse().unwrap();
        assert!(
            nclfw > clfw * 1.3,
            "64B writeback traffic: nclfw {nclfw} MiB vs clfw {clfw} MiB"
        );
    }
}
