//! Crash-point enumeration with the durability oracle — the single
//! documented command for the robustness gate:
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! For each file system (HiNFS, PMFS, EXT4) the harness records the
//! numbered crash schedule of a scripted run — every flush/fence/persist
//! boundary the NVMM device crossed — then replays the script once per
//! boundary, power-failing there (plus seeded torn-store variants),
//! remounting through journal recovery, and checking the durability
//! oracle: fsync-acknowledged data must survive, lazily buffered data may
//! survive (per-byte: synced image, later write, or hole — never
//! garbage), and namespace operations are all-or-nothing.
//!
//! A second pass is the recycling drill: the committed script
//! `tests/repro/recycled_tree_node.repro` frees a block-tree node, wipes
//! and parks it, and maps the next file's first block under it; HiNFS and
//! PMFS are crashed at *every* boundary of it. A drill that never
//! exercises the path is no drill: the pass fails unless
//! `pmfs_tree_nodes_recycled` moved on both.
//!
//! The budget drill (`tests/repro/foreign_shard_stall.repro`) runs HiNFS
//! with an 8-block DRAM buffer: one file fills the whole budget, a file of
//! another shard then writes with the background writeback stalled, and
//! the stalled writer must take its victim from the foreign shard. The
//! script is swept under that stall, in lockstep with the reference model
//! on all three systems, and with a crash at every boundary; the pass
//! fails unless `hinfs_foreground_stalls` moved and the full shard gave
//! a block up.
//!
//! A last pass injects soft faults (journal-full backpressure, ENOSPC,
//! writeback stalls) and demands graceful degradation: clean errors, no
//! panics, and a clean crash + recovery afterwards.
//!
//! The process exits non-zero on any oracle violation, so this doubles as
//! the `scripts/verify.sh` smoke sweep.

use faultfs::Op;
use hinfs_suite::prelude::*;

/// Replays the budget drill's script on a HiNFS mount of `buffer_bytes`
/// with the background writeback stalled; returns the foreground stalls it
/// took and the per-shard occupancy right after the first write to `f1`.
fn budget_drill_counts(ops: &[Op], buffer_bytes: usize) -> (u64, Vec<u64>) {
    let sys = build(
        SystemKind::Hinfs,
        &SystemConfig {
            device_bytes: 64 << 20,
            buffer_bytes,
            ..SystemConfig::default()
        },
    )
    .expect("mkfs");
    let plan = nvmm::FaultPlan::new();
    sys.dev.fault_hook().install(plan.clone());
    plan.set_stall_writeback(true);
    let mut held = Vec::new();
    for op in ops {
        faultfs::exec_op(&*sys.fs, &sys.env, op).expect("drill op");
        if held.is_empty() && matches!(op, Op::Write { file: 1, .. }) {
            let snap = sys
                .introspect
                .as_ref()
                .expect("hinfs introspects")
                .snapshot();
            held = snap
                .buffer
                .expect("hinfs has a buffer")
                .shard_occupied_blocks;
        }
    }
    let stalls = sys.registry.snapshot().counter("hinfs_foreground_stalls");
    (stalls, held)
}

fn main() {
    let h = Harness::new();
    let mut violations: Vec<String> = Vec::new();

    // -- Pass 1: crash-point enumeration (fixed seed, capped points) --
    let script = Script::random(2016, 12);
    let cfg = SweepConfig {
        seed: 0xFA17,
        max_points: 32,
        torn_every: 4,
    };
    println!(
        "== crash-point enumeration: {} ops, <= {} points/fs ==",
        script.ops.len(),
        cfg.max_points
    );
    let sweep = |kind: FsKind, script: &Script, cfg: SweepConfig| {
        let out = h.sweep(kind, script, cfg);
        println!(
            "  {:<6} {:>4} boundaries | {:>3} crashes (+{} torn) | {:>4} oracle checks | \
             {:>2} txs undone, {:>3} entries undone/replayed | {} violations",
            out.kind.label(),
            out.boundaries,
            out.runs,
            out.torn_runs,
            out.checks,
            out.txs_undone,
            out.entries_undone,
            out.violations.len()
        );
        out.violations
    };
    for kind in FsKind::ALL {
        violations.extend(sweep(kind, &script, cfg));
    }

    // -- Pass 2: every boundary around a recycled tree node --
    let drill = faultfs::Repro::parse(include_str!("../tests/repro/recycled_tree_node.repro"))
        .expect("committed fixture parses");
    println!("\n== recycling drill: every boundary, every 3rd torn ==");
    let every = SweepConfig {
        max_points: usize::MAX,
        torn_every: 3,
        ..cfg
    };
    for (kind, sys_kind) in [
        (FsKind::Hinfs, SystemKind::Hinfs),
        (FsKind::Pmfs, SystemKind::Pmfs),
    ] {
        violations.extend(sweep(kind, &drill.script, every));
        let small = SystemConfig {
            device_bytes: 64 << 20,
            ..SystemConfig::default()
        };
        let sys = build(sys_kind, &small).expect("mkfs");
        for op in &drill.script.ops {
            faultfs::exec_op(&*sys.fs, &sys.env, op).expect("drill op");
        }
        let recycled = sys.registry.snapshot().counter("pmfs_tree_nodes_recycled");
        println!("         pmfs_tree_nodes_recycled in the script: {recycled}");
        if recycled == 0 {
            violations.push(format!("{}: the drill recycled no tree node", kind.label()));
        }
    }

    // -- Pass 3: the budget drill, on an 8-block HiNFS buffer --
    let drill = faultfs::Repro::parse(include_str!("../tests/repro/foreign_shard_stall.repro"))
        .expect("committed fixture parses");
    println!("\n== budget drill: 8-block buffer, writeback stalled ==");
    let tiny = 8 * nvmm::BLOCK_SIZE;
    let th = Harness::new().with_hinfs_buffer(tiny);
    let ops = &drill.script.ops;
    let out = th.fault_run(
        FsKind::Hinfs,
        &drill.script,
        InjectedFault::WritebackStall,
        0..ops.len(),
    );
    println!(
        "  hinfs  writeback-stall -> {} clean errors, {} oracle checks, {} violations",
        out.clean_errors.len(),
        out.checks,
        out.violations.len()
    );
    violations.extend(out.violations);
    violations.extend(drill.replay(&th));
    let out = th.sweep(FsKind::Hinfs, &drill.script, every);
    println!(
        "  hinfs  {} boundaries | {} crashes (+{} torn) | {} violations",
        out.boundaries,
        out.runs,
        out.torn_runs,
        out.violations.len()
    );
    violations.extend(out.violations);
    let (stalls, held) = budget_drill_counts(ops, tiny);
    println!("         hinfs_foreground_stalls in the script: {stalls}, blocks per shard after f1's write: {held:?}");
    if stalls == 0 || held.iter().any(|&h| h as usize * nvmm::BLOCK_SIZE == tiny) {
        violations.push("hinfs: the budget drill never evicted from a foreign shard".into());
    }

    // -- Pass 4: soft-fault injection over a journal-heavy script tail --
    let faulty = Script {
        ops: vec![
            Op::Create { file: 0 },
            Op::Append {
                file: 0,
                len: 4096,
                fill: 0x5a,
            },
            Op::Fsync { file: 0 },
            Op::Append {
                file: 0,
                len: 8192,
                fill: 0x6b,
            },
            Op::Fsync { file: 0 },
            Op::Mkdir { dir: 0 },
            Op::Unlink { file: 0 },
            Op::Create { file: 1 },
        ],
    };
    println!(
        "\n== fault injection (window: ops 3..{}) ==",
        faulty.ops.len()
    );
    for kind in FsKind::ALL {
        for fault in [
            InjectedFault::JournalFull,
            InjectedFault::Enospc,
            InjectedFault::WritebackStall,
        ] {
            let out = h.fault_run(kind, &faulty, fault, 3..faulty.ops.len());
            println!(
                "  {:<6} {:<15} -> {:>2} clean errors, {} oracle checks, {} violations",
                kind.label(),
                fault.label(),
                out.clean_errors.len(),
                out.checks,
                out.violations.len()
            );
            for (i, e) in &out.clean_errors {
                println!("           op {i}: {e}");
            }
            violations.extend(out.violations);
        }
    }

    // -- Summary through the obsv counters --
    let s = h.stats.snapshot();
    println!(
        "\ntotal: {} crashes injected, {} soft faults, {} recoveries, {} txs undone, \
         {} entries undone/replayed, {} oracle checks, {} violations",
        s.crashes_injected,
        s.faults_injected,
        s.recoveries,
        s.txs_undone,
        s.entries_undone,
        s.oracle_checks,
        s.oracle_violations
    );

    if !violations.is_empty() {
        eprintln!("\nDURABILITY ORACLE VIOLATIONS:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("crash_recovery: OK (zero violations, zero panics)");
}
