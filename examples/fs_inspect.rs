//! The suite's one inspection tool: live file-system state and everything
//! the `obsv` layer captured about a run.
//!
//! ```text
//! cargo run --example fs_inspect [-- <command>] [flags]
//!
//! commands
//!   snapshot   (default) run a quick fileserver workload, print the
//!              schema-versioned `obsv::FsSnapshot` JSON on stdout
//!   top        the same, one snapshot line per round (`fs_top`)
//!   dump       observability tour: a postmark + fsync-hammer run on
//!              HiNFS with everything on — registry deltas, per-op
//!              latency, span matrix, trace ring, full exposition
//!
//! flags
//!   --system S     pmfs | ext4-dax | ext2 | ext4 | hinfs   (snapshot/top)
//!   --audit        + online invariant audit                (snapshot/top)
//!   --contention   + lock/stall sites by wait time and the site × op matrix
//!   --tail         + p99 tail anatomy and exemplars        (always in dump)
//!   --lag          + durability lag and per-layer WAF      (always in dump)
//!   --json         trace ring as JSONL, pipe into `jq`     (dump)
//! ```
//!
//! `snapshot`/`top` keep stdout pure JSON — buffer-pool occupancy against
//! the `Low_f`/`High_f` watermarks, LRW age and dirty-cacheline
//! histograms, Eager/Lazy population, ghost-buffer size, journal fill and
//! reservations, the NVMM ledger — and put the reports on stderr. They
//! also verify that the snapshot agrees with the registry gauges and
//! counters the rest of the suite exports (they are the same collection,
//! so any disagreement is a bug). Exit status is non-zero when `--audit`
//! finds a violation or when the snapshot and the registry disagree.

use std::io::Write;

use fskit::OpenFlags;
use obsv::{row_label, OpKind, RegistrySnapshot, ALL_PHASES};
use workloads::filebench::{FilebenchParams, Fileserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::postmark::{Postmark, PostmarkParams};
use workloads::runner::{Actor, Ctx, RunLimit, Runner};
use workloads::setups::{build, System, SystemConfig, SystemKind};
use workloads::ObsvOptions;

/// Rounds of the `top` command.
const TOP_ROUNDS: u32 = 6;
/// Simulated duration of one `snapshot`/`top` workload round.
const ROUND_MS: u64 = 10;

struct Args {
    command: String,
    kind: SystemKind,
    audit: bool,
    contention: bool,
    tail: bool,
    lag: bool,
    json: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let kind = match argv
        .iter()
        .position(|a| a == "--system")
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
    {
        None | Some("hinfs") => SystemKind::Hinfs,
        Some("pmfs") => SystemKind::Pmfs,
        Some("ext4-dax") => SystemKind::Ext4Dax,
        Some("ext2") => SystemKind::Ext2Bd,
        Some("ext4") => SystemKind::Ext4Bd,
        Some(other) => {
            eprintln!("unknown --system `{other}` (hinfs|pmfs|ext4-dax|ext2|ext4)");
            std::process::exit(2);
        }
    };
    let command = match argv.first().map(String::as_str) {
        Some(c @ ("snapshot" | "top" | "dump")) => c.to_string(),
        Some(c) if !c.starts_with("--") => {
            eprintln!("unknown command `{c}` (snapshot|top|dump)");
            std::process::exit(2);
        }
        _ => "snapshot".to_string(),
    };
    Args {
        command,
        kind,
        audit: flag("--audit"),
        contention: flag("--contention"),
        tail: flag("--tail"),
        lag: flag("--lag"),
        json: flag("--json"),
    }
}

// ----- reports shared by every command -----

/// Top sites by wait time, then each touched site's Site × OpKind
/// wait/hold breakdown.
fn report_contention(out: &mut dyn Write, snap: &obsv::ContentionSnapshot) {
    let _ = writeln!(out, "--- lock contention: top sites by wait ---");
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>10} {:>14} {:>14}",
        "site", "acquisitions", "contended", "wait_ns", "hold_ns"
    );
    for site in snap.top_by_wait(10) {
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>10} {:>14} {:>14}",
            site.site.label(),
            site.acquisitions,
            site.contended,
            site.wait.sum(),
            site.hold.sum()
        );
    }
    let _ = writeln!(out, "--- contention by op (wait/hold ns) ---");
    for site in snap.touched() {
        let cells: Vec<String> = (0..obsv::SPAN_ROWS)
            .filter(|&row| site.wait_by_op[row] > 0 || site.hold_by_op[row] > 0)
            .map(|row| {
                format!(
                    "{}={}/{}",
                    row_label(row),
                    site.wait_by_op[row],
                    site.hold_by_op[row]
                )
            })
            .collect();
        if !cells.is_empty() {
            let _ = writeln!(out, "  {:<20} {}", site.site.label(), cells.join("  "));
        }
    }
}

/// The p99 over every op histogram merged, the summed anatomy of the
/// tail-reservoir exemplars at or above that bucket, and the slowest
/// exemplars one by one (phase split, lock waits, fences, seq window).
fn report_tail(out: &mut dyn Write, obs: &obsv::FsObs) {
    let mut merged = obsv::HistoSnapshot::default();
    for op in obsv::ALL_OPS {
        merged.merge(&obs.op_histo(op).snapshot());
    }
    let p99 = merged.quantile(0.99);
    let fsnap = obs.flight().snapshot();
    let cohort = fsnap.cohort(p99);
    let anatomy = obsv::TailAnatomy::aggregate(cohort.iter().copied());
    let _ = writeln!(
        out,
        "--- tail: p99={}ns, {} exemplars (of {} recorded ops), seq [{}, {}] ---",
        p99,
        anatomy.count,
        fsnap.recorded(),
        anatomy.seq_lo,
        anatomy.seq_hi
    );
    for (phase, ns) in anatomy.top_phases(4) {
        let per = ns / anatomy.count.max(1);
        let _ = writeln!(
            out,
            "  phase {:<18} {ns:>10}ns ({per}ns/exemplar)",
            phase.label()
        );
    }
    for (site, ns) in anatomy.top_waits(4) {
        let per = ns / anatomy.count.max(1);
        let _ = writeln!(
            out,
            "  wait  {:<18} {ns:>10}ns ({per}ns/exemplar)",
            site.label()
        );
    }
    for r in fsnap.all().into_iter().take(6) {
        let phases: Vec<String> = r
            .top_phases(3)
            .into_iter()
            .map(|(p, ns)| format!("{}={ns}", p.label()))
            .collect();
        let waits: Vec<String> = r
            .top_waits(2)
            .into_iter()
            .map(|(s, ns)| format!("{}={ns}", s.label()))
            .collect();
        let shard = if r.shard == obsv::NO_SHARD {
            "-".to_string()
        } else {
            r.shard.to_string()
        };
        let _ = writeln!(
            out,
            "  {:>10} ns  {:<8} at t={}ns shard={shard} batch={} fences={} stalls={} seq [{}, {}]  phases: {}{}{}",
            r.total_ns,
            r.op.label(),
            r.at_ns,
            r.batch,
            r.fences,
            r.stall_events,
            r.seq_start,
            r.seq_end,
            phases.join(" "),
            if waits.is_empty() { "" } else { "  waits: " },
            waits.join(" "),
        );
    }
}

/// Where each logical byte multiplied on its way to NVMM, and how far
/// behind the ack durability ran.
fn report_lineage(out: &mut dyn Write, lin: &obsv::LineageSnap) {
    let _ = writeln!(out, "--- data lifecycle (lineage) ---");
    for layer in obsv::ALL_LAYERS {
        let _ = writeln!(
            out,
            "  {:<18} {:>12} bytes  ({:.2}x logical)",
            layer.label(),
            lin.layer(layer),
            lin.amplification(layer)
        );
    }
    let _ = writeln!(
        out,
        "  {} fences ({:.3} per logical KiB); {} stamps, drains sync={} lazy={}",
        lin.fences,
        lin.fences_per_kib(),
        lin.stamps,
        lin.drains_sync,
        lin.drains_lazy
    );
    let _ = writeln!(
        out,
        "  durability lag: p50={}ns p99={}ns max={}ns over {} drains",
        lin.lag.quantile(0.50),
        lin.lag.quantile(0.99),
        lin.max_lag_ns,
        lin.lag.count()
    );
    for (row, bytes) in lin.top_amplifiers(4) {
        // Background-row lag folds into the write histogram, mirroring
        // the ledger's drain accounting.
        let lag_row = if row < obsv::ALL_OPS.len() {
            row
        } else {
            OpKind::Write as usize
        };
        let _ = writeln!(
            out,
            "  top persister {:<10} {:>12} persisted+drained bytes, lag p99 {}ns",
            row_label(row),
            bytes,
            lin.lag_by_op[lag_row].quantile(0.99)
        );
    }
}

// ----- snapshot / top -----

/// Registry gauge prefix of the system family (the same prefixes the
/// metric-naming test enforces).
fn prefix(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Pmfs => "pmfs_",
        SystemKind::Ext4Dax | SystemKind::Ext2Bd | SystemKind::Ext4Bd => "extfs_",
        _ => "hinfs_",
    }
}

/// Cross-checks the snapshot against the registry exposition; any
/// disagreement between the two views of the same state is returned.
fn agreement_failures(snap: &obsv::FsSnapshot, reg: &RegistrySnapshot, pre: &str) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |name: String, snap_v: u64, reg_v: u64| {
        if snap_v != reg_v {
            fails.push(format!("{name}: snapshot {snap_v} != registry {reg_v}"));
        }
    };
    let gauge = |name: &str| reg.gauge(&format!("{pre}{name}"));
    if let Some(b) = &snap.buffer {
        check(
            format!("{pre}buffer occupancy"),
            b.capacity_blocks - b.free_blocks,
            gauge("buffer_capacity_blocks") - gauge("buffer_free_blocks"),
        );
        for (name, v) in [
            ("buffer_dirty_blocks", b.dirty_blocks),
            ("buffer_eager_blocks", b.eager_blocks),
            ("buffer_lazy_blocks", b.lazy_buffered_blocks),
        ] {
            check(format!("{pre}{name}"), v, gauge(name));
        }
        check(
            "bbm_evals vs hinfs_bbm_evals counter".into(),
            b.bbm_evals,
            reg.counter("hinfs_bbm_evals"),
        );
    }
    if let Some(j) = &snap.journal {
        for (name, v) in [
            ("journal_fill_entries", j.fill_entries),
            ("journal_open_txs", j.open_txs),
        ] {
            check(format!("{pre}{name}"), v, gauge(name));
        }
    }
    if let Some(c) = &snap.cache {
        check(
            format!("{pre}cache_dirty_pages"),
            c.dirty_pages,
            gauge("cache_dirty_pages"),
        );
    }
    if let Some(d) = &snap.device {
        check(
            "device bytes_written vs nvmm_bytes_written".into(),
            d.bytes_written,
            reg.counter("nvmm_bytes_written"),
        );
    }
    // The lineage ledger is exported under the shared `obsv_` family (it
    // spans systems), so the snapshot section must agree with those
    // counters regardless of the mount's own prefix.
    if let Some(l) = &snap.lineage {
        for layer in obsv::ALL_LAYERS {
            let name = format!("obsv_lineage_{}_bytes", layer.label());
            check(name.clone(), l.layer(layer), reg.counter(&name));
        }
        for (name, v) in [
            ("obsv_lineage_fences", l.fences),
            ("obsv_lineage_stamps", l.stamps),
            ("obsv_lineage_drains_sync", l.drains_sync),
            ("obsv_lineage_drains_lazy", l.drains_lazy),
        ] {
            check(name.into(), v, reg.counter(name));
        }
        check(
            "obsv_lineage_max_lag_ns".into(),
            l.max_lag_ns,
            reg.gauge("obsv_lineage_max_lag_ns"),
        );
    }
    fails
}

/// The system's snapshot merged with the backing device's section.
fn full_snapshot(sys: &System) -> obsv::FsSnapshot {
    let mut snap = sys
        .introspect
        .as_ref()
        .map(|i| i.snapshot())
        .unwrap_or_default();
    snap.merge(obsv::Introspect::snapshot(&*sys.dev));
    snap
}

/// `snapshot` / `top`: returns whether any check failed.
fn inspect(args: &Args) -> bool {
    let top = args.command == "top";
    let mut obsv = if args.contention || args.tail || args.lag {
        ObsvOptions::flight()
    } else {
        ObsvOptions::none()
    };
    obsv.audit = args.audit;
    let cfg = SystemConfig {
        obsv,
        ..SystemConfig::small()
    };
    let sys = build(args.kind, &cfg).expect("build system");
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/files", 200, 16, 8 << 10), 7)
        .expect("populate");

    let rounds = if top { TOP_ROUNDS } else { 1 };
    for round in 0..rounds {
        let actors: Vec<Box<dyn Actor>> = vec![Box::new(Fileserver::new(
            set.clone(),
            FilebenchParams::default(),
        ))];
        Runner::new(sys.env.clone(), sys.fs.clone())
            .with_device(sys.dev.clone())
            .run(
                actors,
                RunLimit::duration_ms(ROUND_MS),
                0x1A5 + round as u64,
            );
        if top {
            // One snapshot line per round, newest state last.
            println!("{}", full_snapshot(&sys).to_json());
        }
    }
    let snap = full_snapshot(&sys);
    if !top {
        println!("{}", snap.to_json());
    }

    let err = &mut std::io::stderr();
    let obs = sys.obs.as_ref().expect("every system has an obs bundle");
    if args.contention {
        report_contention(err, &sys.env.contention().snapshot());
    }
    if args.tail {
        report_tail(err, obs);
    }
    if args.lag {
        report_lineage(err, &obs.lineage().snap());
    }

    let reg = sys.registry.snapshot();
    if reg.counters.contains_key("pmfs_namei_hits") {
        eprintln!(
            "namei: {} lookups answered from the name index, {} directory scans to build it, {} names indexed",
            reg.counter("pmfs_namei_hits"),
            reg.counter("pmfs_namei_builds"),
            reg.gauge("pmfs_namei_entries"),
        );
        eprintln!(
            "tree nodes: {} taken pre-zeroed from the pool, {} zeroed on allocation, {} parked now",
            reg.counter("pmfs_tree_nodes_recycled"),
            reg.counter("pmfs_tree_nodes_zeroed"),
            reg.gauge("pmfs_alloc_zeroed_pool"),
        );
    }

    let mut failed = false;
    let fails = agreement_failures(&snap, &reg, prefix(args.kind));
    if fails.is_empty() {
        eprintln!("agreement: snapshot matches registry exposition");
    } else {
        failed = true;
        for f in &fails {
            eprintln!("agreement FAILED: {f}");
        }
    }

    if args.audit {
        // Exercise the online (fsync-path) auditor too: one write + fsync
        // goes through the fsync core, which self-audits when the mount
        // was built with `ObsvOptions::with_audit()`.
        let fd = sys
            .fs
            .open("/inspect.probe", OpenFlags::RDWR | OpenFlags::CREATE)
            .expect("open probe");
        sys.fs.write(fd, 0, &[0x5A; 4096]).expect("write probe");
        sys.fs.fsync(fd).expect("fsync probe");
        sys.fs.close(fd).expect("close probe");
        let rep = sys
            .introspect
            .as_ref()
            .expect("system provides introspection")
            .audit();
        eprintln!("audit: {}", rep.to_json());
        for v in &rep.violations {
            eprintln!("audit VIOLATION: {v}");
        }
        eprintln!(
            "audit: {} online checks, {} violations",
            obs.audit_checks(),
            obs.audit_violations()
        );
        failed |= !rep.is_clean() || obs.audit_violations() > 0;
    }

    sys.fs.unmount().expect("unmount");
    failed
}

// ----- dump -----

/// An actor that alternates between two I/O patterns on one block so the
/// Buffer Benefit Model keeps changing its mind: a sync-heavy phase (one
/// small write per fsync — eager-persistent territory) and a batch phase
/// (many overwrites per fsync — buffering clearly wins). Each phase
/// boundary produces Lazy <-> Eager flips in the trace.
struct FsyncHammer {
    fd: Option<fskit::Fd>,
    n: u64,
}

impl Actor for FsyncHammer {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> fskit::Result<bool> {
        if self.fd.is_none() {
            self.fd = Some(ctx.open("/hammer.log", OpenFlags::RDWR | OpenFlags::CREATE)?);
        }
        let fd = self.fd.unwrap();
        if (self.n / 64).is_multiple_of(2) {
            // Sync-heavy: one cacheline, then fsync.
            ctx.write(fd, 0, &[0xAB; 64])?;
        } else {
            // Batch: overwrite one cacheline many times before the fsync,
            // so DRAM coalescing absorbs 16 writes into 1 flush.
            for _ in 0..16 {
                ctx.write(fd, 0, &[0xCD; 64])?;
            }
        }
        ctx.fsync(fd)?;
        self.n += 1;
        Ok(true)
    }
}

fn print_phase(name: &str, d: &RegistrySnapshot) {
    println!("--- phase `{name}` registry delta ---");
    for key in [
        "hinfs_buffer_hits",
        "hinfs_buffer_misses",
        "hinfs_lazy_writes",
        "hinfs_eager_writes",
        "hinfs_sync_writes",
        "hinfs_writeback_lines",
        "hinfs_foreground_stalls",
        "hinfs_bbm_evals",
        "pmfs_journal_commits",
        "pmfs_namei_hits",
        "pmfs_namei_builds",
        "pmfs_tree_nodes_recycled",
        "pmfs_tree_nodes_zeroed",
        "nvmm_bytes_written",
        "nvmm_bytes_read",
    ] {
        println!("  {key:<28} {}", d.counter(key));
    }
    println!();
}

fn dump(args: &Args) {
    // A deliberately tiny DRAM buffer (1 MiB on a 128 MiB device) so the
    // postmark churn crosses the writeback watermarks and forces reclaim.
    let cfg = SystemConfig {
        buffer_bytes: 1 << 20,
        obsv: ObsvOptions::all(),
        ..SystemConfig::small()
    };
    let sys = build(SystemKind::Hinfs, &cfg).expect("build hinfs");
    let obs = sys.obs.clone().expect("hinfs has an obs bundle");
    println!(
        "mounted {} with a {} KiB write buffer at Level::Full + auditor\n",
        sys.kind.label(),
        cfg.buffer_bytes >> 10
    );

    // Phase 1: populate a postmark file pool.
    let before = sys.registry.snapshot();
    let spec = FilesetSpec::new("/mail", 400, 20, 8 << 10);
    let set = Fileset::populate(&*sys.fs, spec, 11).expect("populate");
    print_phase("populate", &sys.registry.snapshot().since(&before));

    // Phase 2: postmark transactions plus the fsync hammer. A duration
    // limit (rather than a step count) keeps every actor busy up to the
    // same simulated instant, so each event kind keeps firing until the
    // end of the run.
    let runner = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .with_registry(sys.registry.clone());
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(Postmark::new(set.clone(), PostmarkParams::default())),
        Box::new(Postmark::new(set, PostmarkParams::default())),
        Box::new(FsyncHammer { fd: None, n: 0 }),
    ];
    let span_base = sys.dev.spans().snapshot();
    let report = runner.run(actors, RunLimit::duration_ms(30), 42);
    let spans = sys.dev.spans().snapshot().since(&span_base);
    print_phase(
        "transactions",
        report.registry.as_ref().expect("registry attached"),
    );
    println!(
        "transactions: {} ops in {} ms simulated ({:.0} ops/s)\n",
        report.total_ops(),
        report.elapsed_ns / 1_000_000,
        report.throughput()
    );

    // Per-op latency percentiles out of the log-bucketed histograms. The
    // p50/p95/p99 columns use the interpolated `quantile()`; p90/p999 come
    // from the coarser `percentiles()` helper.
    println!("--- per-op latency (ns) ---");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "op", "count", "p50", "p90", "p95", "p99", "p999", "mean", "max"
    );
    for op in [OpKind::Read, OpKind::Write, OpKind::Fsync] {
        let h = obs.op_histo(op).snapshot();
        let (_, p90, _, p999) = h.percentiles();
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10.0} {:>10}",
            op.label(),
            h.count(),
            h.quantile(0.50),
            p90,
            h.quantile(0.95),
            h.quantile(0.99),
            p999,
            h.mean(),
            h.max()
        );
    }
    println!();

    let out = &mut std::io::stdout();
    report_tail(out, &obs);
    println!();

    // Span phase matrix: where each op's virtual time actually went during
    // the transaction phase. Rows are ops (plus the background row),
    // columns are phases; only non-empty cells print. Next to each row
    // total, the runner's own per-op accounting: both measure the same
    // virtual clock over the same call window, so the ratio is 1.00 by
    // construction (the `fig 112` table in miniature).
    println!("--- span phase matrix (ns, transaction phase only) ---");
    for (row, row_ns) in spans.ns.iter().enumerate() {
        let total = spans.row_total(row);
        if total == 0 {
            continue;
        }
        print!("  {:<10} {:>12} total", row_label(row), total);
        if let Some(&op) = obsv::ALL_OPS.get(row) {
            let runner_ns = report.op_ns(op);
            if runner_ns > 0 {
                print!(" ({:.2}x runner)", total as f64 / runner_ns as f64);
            }
        }
        print!(" |");
        for (p, phase) in ALL_PHASES.iter().enumerate() {
            if spans.calls[row][p] > 0 {
                print!(" {}={}", phase.label(), row_ns[p]);
            }
        }
        println!();
    }
    println!();

    report_lineage(out, &obs.lineage().snap());
    println!();
    if args.contention {
        report_contention(out, &sys.env.contention().snapshot());
        println!();
    }

    // The retained trace window: as raw JSONL under `--json`, otherwise
    // per-kind totals, the last few events of each kind (so rare events
    // like BBM flips are visible next to the journal-commit firehose),
    // then the newest events verbatim.
    let window = obs.trace.tail(obs.trace.capacity());
    println!(
        "--- trace ring ({} retained of {} emitted, {} dropped) ---",
        window.len(),
        obs.trace.emitted(),
        obs.trace.dropped()
    );
    if args.json {
        print!("{}", obs.trace.tail_jsonl(obs.trace.capacity()));
    } else {
        let mut kinds: Vec<&str> = window.iter().map(|r| r.ev.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let of_kind: Vec<_> = window.iter().filter(|r| r.ev.kind() == kind).collect();
            println!("  {kind} x{} in window, last:", of_kind.len());
            for rec in of_kind.iter().rev().take(3).rev() {
                println!("    {rec}");
            }
        }
        println!("  newest 12 events:");
        for rec in window.iter().rev().take(12).rev() {
            println!("    {rec}");
        }
    }
    println!();

    // Full Prometheus-style exposition of the final state.
    println!("--- exposition ---");
    print!("{}", sys.registry.snapshot().to_prometheus());
    sys.fs.unmount().expect("unmount");
}

fn main() {
    let args = parse_args();
    if args.command == "dump" {
        dump(&args);
    } else if inspect(&args) {
        std::process::exit(1);
    }
}
