//! Crash-point enumeration and fault-injection sweeps (tier 1).
//!
//! Property side: random small op scripts, crash at every recorded
//! persistence boundary (plus torn-store variants), remount, and check
//! the durability oracle — across HiNFS, PMFS and EXT4.
//!
//! Deterministic side: each injectable fault (journal-full backpressure,
//! ENOSPC, writeback stall) must surface as a *clean* `FsError` on the
//! right operations — never a panic, never an oracle violation after the
//! fault is lifted and the image is crashed and recovered.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use faultfs::{exec_op, FsKind, Harness, InjectedFault, Op, Oracle, Repro, Script, SweepConfig};
use fskit::{FileSystem, FsError, OpenFlags};
use hinfs::{Hinfs, HinfsConfig};
use nvmm::{CostModel, FaultPlan, NvmmDevice, SimEnv};
use obsv::Introspect;
use pmfs::{Pmfs, PmfsOptions};
use proptest::prelude::*;

fn sweep_cfg() -> SweepConfig {
    SweepConfig {
        max_points: 16,
        torn_every: 4,
        ..SweepConfig::default()
    }
}

fn sweep_clean(kind: FsKind, seed: u64, n_ops: usize) {
    let h = Harness::new();
    let script = Script::random(seed, n_ops);
    let out = h.sweep(kind, &script, sweep_cfg());
    assert!(
        out.violations.is_empty(),
        "{} seed {seed}: {:#?}",
        kind.label(),
        out.violations
    );
    assert!(out.runs > 0 && out.checks > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn crash_every_point_hinfs((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Hinfs, seed, n);
    }

    #[test]
    fn crash_every_point_pmfs((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Pmfs, seed, n);
    }

    #[test]
    fn crash_every_point_ext4((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Ext4, seed, n);
    }
}

/// A script whose tail (inside the fault window) exercises journaled
/// namespace and data paths on a file created before the window opens.
fn faultable_script() -> Script {
    Script {
        ops: vec![
            Op::Create { file: 0 },
            Op::Append {
                file: 0,
                len: 4096,
                fill: 0x5a,
            },
            Op::Fsync { file: 0 },
            // -- fault window starts at index 3 --
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
    }
}

/// Runs `fault` over the script tail and asserts graceful degradation:
/// no panics, no oracle violations, and (when `expect_errors`) at least
/// one clean error mentioning `needle`.
fn fault_round(kind: FsKind, fault: InjectedFault, expect_errors: bool, needle: &str) {
    let h = Harness::new();
    let script = faultable_script();
    let out = h.fault_run(kind, &script, fault, 3..script.ops.len());
    assert!(
        out.violations.is_empty(),
        "{} under {}: {:#?}",
        kind.label(),
        fault.label(),
        out.violations
    );
    if expect_errors {
        assert!(
            out.clean_errors.iter().any(|(_, e)| e.contains(needle)),
            "{} under {}: expected a clean {needle} error, got {:?}",
            kind.label(),
            fault.label(),
            out.clean_errors
        );
    }
    assert!(h.stats.snapshot().faults_injected > 0 || !expect_errors);
}

#[test]
fn journal_full_is_a_clean_error_on_pmfs() {
    fault_round(
        FsKind::Pmfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_hinfs() {
    fault_round(
        FsKind::Hinfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_ext4() {
    fault_round(
        FsKind::Ext4,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn enospc_is_a_clean_error_everywhere() {
    for kind in FsKind::ALL {
        fault_round(kind, InjectedFault::Enospc, true, "NoSpace");
    }
}

#[test]
fn writeback_stall_degrades_gracefully_on_hinfs() {
    // A stalled writeback actor makes no progress but must not fail
    // foreground operations or break recovery once lifted.
    fault_round(FsKind::Hinfs, InjectedFault::WritebackStall, false, "");
}

/// Heavy sweep for manual soak runs: `cargo test --test fault_sweep -- --ignored`.
#[test]
#[ignore]
fn stress_many_seeds_all_kinds() {
    let h = Harness::new();
    for seed in 0..40u64 {
        for kind in FsKind::ALL {
            let script = Script::random(seed * 7 + 1, 14);
            let cfg = SweepConfig {
                max_points: 48,
                torn_every: 2,
                ..SweepConfig::default()
            };
            let out = h.sweep(kind, &script, cfg);
            assert!(
                out.violations.is_empty(),
                "{} seed {seed}: {:#?}",
                kind.label(),
                out.violations
            );
        }
    }
}

/// Mounts a small PMFS and appends to one file until at least one
/// allocator shard is completely drained: from here on every further
/// allocation runs the PR-7 steal-on-empty path. Returns the device, the
/// mounted fs and the open fd.
fn pmfs_in_steal_regime() -> (Arc<NvmmDevice>, Arc<Pmfs>, fskit::Fd) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new_tracked(env.clone(), 8 << 20);
    let fs = Pmfs::mkfs(
        dev.clone(),
        PmfsOptions {
            journal_blocks: 64,
            inode_count: 128,
        },
    )
    .unwrap();
    let fd = fs
        .open("/big", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    let mut guard = 0u32;
    while fs.allocator().free_blocks_by_shard().iter().all(|&f| f > 0) {
        fs.append(fd, &[0x42u8; 4096]).unwrap();
        guard += 1;
        assert!(guard < 4096, "filled the device without draining a shard");
    }
    assert!(
        fs.free_blocks() > 8,
        "no headroom left for the steal phase (free {})",
        fs.free_blocks()
    );
    (dev, fs, fd)
}

/// Exact block accounting after a remount: draining the rebuilt allocator
/// yields exactly `free_blocks()` distinct data-area blocks and then a
/// clean NoSpace — so free + reachable == data_blocks, with nothing
/// leaked, nothing double-counted. Freeing the drained blocks restores
/// the count (free panics on double free, proving ownership).
fn assert_exact_accounting(fs: &Pmfs) {
    let free = fs.free_blocks();
    let data = fs.layout().data_blocks();
    assert!(free < data, "the recovered tree must reach some blocks");
    let alloc = fs.allocator();
    let mut got = HashSet::new();
    let mut n = 0u64;
    while let Ok(b) = alloc.alloc() {
        assert!(got.insert(b), "block {b} handed out twice");
        n += 1;
        assert!(n <= free, "allocator over-delivered: {n} > free {free}");
    }
    assert_eq!(n, free, "allocator under-delivered against its own books");
    assert_eq!(alloc.alloc().unwrap_err(), FsError::NoSpace);
    for &b in &got {
        alloc.free(b);
    }
    assert_eq!(fs.free_blocks(), free, "drain+refill must be lossless");
}

/// ENOSPC injected while the allocator is in the steal regime: the append
/// fails with a clean NoSpace (no panic, no leaked reservation); lifting
/// the fault lets the same append succeed *through a steal*; and after a
/// crash + remount the rebuilt bitmap accounts for every block exactly.
#[test]
fn enospc_during_steal_is_clean_and_books_stay_exact() {
    let (dev, fs, fd) = pmfs_in_steal_regime();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_fail_alloc(true);
    let free_before = fs.free_blocks();
    let res = catch_unwind(AssertUnwindSafe(|| fs.append(fd, &[0x77u8; 4096])))
        .expect("injected ENOSPC during steal must not panic");
    assert_eq!(res.unwrap_err(), FsError::NoSpace);
    assert_eq!(
        fs.free_blocks(),
        free_before,
        "a failed allocation must not leak blocks"
    );
    // Lifted: the very same append now succeeds, served by steal-on-empty
    // (the preferred shard may be one of the drained ones).
    plan.set_fail_alloc(false);
    fs.append(fd, &[0x88u8; 4096]).unwrap();
    dev.fault_hook().clear();
    let size = fs.stat("/big").unwrap().size;

    // Power-fail and remount: PMFS acks are durable, and the recovery
    // walk must rebuild exact accounting.
    drop(fs);
    dev.crash();
    let fs2 = Pmfs::mount(dev.clone()).unwrap();
    assert_eq!(fs2.stat("/big").unwrap().size, size);
    assert!(obsv::Introspect::audit(&*fs2).is_clean());
    assert_exact_accounting(&fs2);
}

/// Power failure in the middle of an append whose allocation steals from
/// a neighbour shard: recovery must roll the open transaction back (the
/// acknowledged size survives, the in-flight append does not), the
/// rebuilt bitmap must account for every block exactly, and a second
/// clean remount must agree with the first.
#[test]
fn crash_during_steal_rebuilds_exact_accounting() {
    let _quiet = Harness::new(); // installs the quiet CrashSignal panic hook

    // Pass 1 (record): count the persistence boundaries one steal-path
    // append crosses. The whole setup runs on the virtual clock, so the
    // schedule is identical across builds.
    let n_boundaries = {
        let (dev, fs, fd) = pmfs_in_steal_regime();
        let plan = FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        plan.start_recording();
        fs.append(fd, &[0x99u8; 4096]).unwrap();
        let n = plan.stop_recording().iter().filter(|b| b.index > 0).count() as u64;
        assert!(n >= 3, "a steal-path append crossed only {n} boundaries");
        n
    };

    // Pass 2 (crash): rebuild the identical regime and power-fail at the
    // second-to-last boundary — inside the append's undo transaction,
    // after its journal entries persisted but before the commit record.
    let (dev, fs, fd) = pmfs_in_steal_regime();
    let size_acked = fs.stat("/big").unwrap().size;
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.arm_crash(n_boundaries - 1);
    let res = catch_unwind(AssertUnwindSafe(|| fs.append(fd, &[0x99u8; 4096])));
    match res {
        Err(payload) => assert!(
            payload.downcast_ref::<nvmm::CrashSignal>().is_some(),
            "foreign panic during steal-path append"
        ),
        Ok(_) => panic!("the armed crash must fire inside the append"),
    }
    dev.fault_hook().clear();
    drop(fs);
    dev.crash();

    let fs2 = Pmfs::mount(dev.clone()).unwrap();
    assert!(
        fs2.recovery_stats().txs_undone > 0,
        "the mid-steal append must have left an open transaction to undo"
    );
    assert_eq!(
        fs2.stat("/big").unwrap().size,
        size_acked,
        "acknowledged size must survive, the crashed append must not"
    );
    assert!(obsv::Introspect::audit(&*fs2).is_clean());
    assert_exact_accounting(&fs2);

    // Clean unmount persists the bitmap; the next mount loads it and must
    // agree with the rebuild to the block.
    let free = fs2.free_blocks();
    fs2.unmount().unwrap();
    let fs3 = Pmfs::mount(dev).unwrap();
    assert_eq!(
        fs3.free_blocks(),
        free,
        "persisted bitmap disagrees with rebuild"
    );
}

fn load_repro(name: &str) -> Repro {
    let path = format!("{}/tests/repro/{name}.repro", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Repro::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A fresh harness-sized PMFS or HiNFS on a tracked device, with the
/// PMFS underneath.
fn small_mount(kind: FsKind) -> (Arc<NvmmDevice>, Arc<dyn FileSystem>, Arc<Pmfs>) {
    let dev = NvmmDevice::new_tracked(SimEnv::new_virtual(CostModel::default()), 8 << 20);
    let popts = PmfsOptions {
        journal_blocks: 64,
        inode_count: 128,
    };
    match kind {
        FsKind::Pmfs => {
            let fs = Pmfs::mkfs(dev.clone(), popts).unwrap();
            (dev, fs.clone(), fs)
        }
        FsKind::Hinfs => {
            let cfg = HinfsConfig::default().with_buffer_bytes(1 << 20);
            let fs = Hinfs::mkfs(dev.clone(), popts, cfg).unwrap();
            let pmfs = fs.pmfs().clone();
            (dev, fs, pmfs)
        }
        FsKind::Ext4 => unreachable!("a PMFS-family helper"),
    }
}

/// The recycling drill (`tests/repro/recycled_tree_node.repro`): crash at
/// *every* persistence boundary, every third one torn as well, with a
/// tree node freed, wiped, parked and reused along the way.
#[test]
fn crash_everywhere_around_a_recycled_tree_node() {
    let r = load_repro("recycled_tree_node");
    let h = Harness::new();
    for kind in [FsKind::Pmfs, FsKind::Hinfs] {
        // A drill that never exercises the path is no drill.
        let (dev, fs, pmfs) = small_mount(kind);
        for op in &r.script.ops {
            exec_op(&*fs, dev.env(), op).unwrap();
        }
        assert!(
            pmfs.allocator().nodes_recycled() > 0,
            "{}: no tree node was recycled",
            kind.label()
        );
        let cfg = SweepConfig {
            max_points: usize::MAX,
            torn_every: 3,
            ..SweepConfig::default()
        };
        let out = h.sweep(kind, &r.script, cfg);
        assert!(
            out.violations.is_empty(),
            "{}: {:#?}",
            kind.label(),
            out.violations
        );
        assert_eq!(out.runs, out.boundaries, "every boundary was a crash point");
        assert!(out.torn_runs >= out.runs / 3 && out.checks > 0);
    }
}

/// Power fails at every boundary of the unlink that empties a tree node,
/// on both stacks. The oracle takes a zero for any byte, so it cannot
/// tell a file that came back whole from one whose root was wiped before
/// the rollback brought it back — this test can: up to the commit record
/// `/f0` is back with every synced byte, from it on `/f0` is gone; the
/// books are exact either way (a half-wiped or never-parked node is an
/// unreachable block the rebuild walk frees), also with blocks parked and
/// across the clean unmount that writes them as free.
#[test]
fn crash_anywhere_in_an_unlink_that_recycles_is_all_or_nothing() {
    let _quiet = Harness::new(); // installs the quiet CrashSignal panic hook
    let r = load_repro("recycled_tree_node");
    let (through_fsync, unlink) = (&r.script.ops[..3], &r.script.ops[3]);
    for kind in [FsKind::Pmfs, FsKind::Hinfs] {
        let prepare = || {
            let (dev, fs, pmfs) = small_mount(kind);
            for op in through_fsync {
                exec_op(&*fs, dev.env(), op).unwrap();
            }
            let plan = FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            (dev, fs, pmfs, plan)
        };

        // Record: the unlink's last two boundaries are the commit record,
        // in the journal, and the wipe, in the data area.
        let (dev, fs, pmfs, plan) = prepare();
        plan.start_recording();
        exec_op(&*fs, dev.env(), unlink).unwrap();
        let schedule = plan.stop_recording();
        let numbered: Vec<_> = schedule.iter().filter(|b| b.index > 0).collect();
        let data_start = pmfs.layout().data_start * nvmm::BLOCK_SIZE as u64;
        let (commit, wipe) = (numbered[numbered.len() - 2], numbered[numbered.len() - 1]);
        assert!(commit.off < data_start, "second to last: the commit record");
        assert!(
            wipe.off >= data_start && wipe.lines == 1,
            "last: five pointers"
        );
        assert_eq!(pmfs.allocator().zeroed_pool().len(), 1);

        for k in 1..=wipe.index {
            let (dev, fs, pmfs, plan) = prepare();
            plan.arm_crash(k);
            let res = catch_unwind(AssertUnwindSafe(|| exec_op(&*fs, dev.env(), unlink)));
            let payload = res.expect_err("the armed crash must fire inside the unlink");
            assert!(payload.downcast_ref::<nvmm::CrashSignal>().is_some());
            dev.fault_hook().clear();
            drop((fs, pmfs));
            dev.crash();

            let fs2 = Pmfs::mount(dev.clone()).unwrap();
            let what = format!("{} k={k} (commit at {})", kind.label(), commit.index);
            match fs2.stat("/f0") {
                Ok(st) => {
                    assert!(k < commit.index, "{what}: a committed unlink came back");
                    let mut got = vec![0u8; st.size as usize];
                    let fd = fs2.open("/f0", OpenFlags::READ).unwrap();
                    fs2.read(fd, 0, &mut got).unwrap();
                    fs2.close(fd).unwrap();
                    assert!(got == [165u8; 20480], "{what}: synced bytes lost");
                }
                Err(e) => {
                    assert_eq!(e, FsError::NotFound, "{what}");
                    assert!(k >= commit.index, "{what}: an open unlink took effect");
                }
            }
            assert!(fs2.audit().is_clean(), "{what}");
            assert_exact_accounting(&fs2);
            if k != commit.index {
                continue;
            }

            // Park a node, then drain: parked blocks are handed out once.
            let free = fs2.free_blocks();
            let park_one = || {
                for op in &r.script.ops {
                    exec_op(&*fs2, dev.env(), op).unwrap();
                }
                fs2.unlink("/f1").unwrap();
                assert!(!fs2.allocator().zeroed_pool().is_empty());
                assert_eq!(fs2.free_blocks(), free);
                assert!(fs2.audit().is_clean());
            };
            park_one();
            assert_exact_accounting(&fs2);
            // The drain emptied the pool; park again for the unmount.
            park_one();
            fs2.unmount().unwrap();
            let fs3 = Pmfs::mount(dev).unwrap();
            assert_eq!(fs3.free_blocks(), free, "parked blocks persist as free");
            assert!(fs3.allocator().zeroed_pool().is_empty());
            assert_exact_accounting(&fs3);
        }
    }
}

/// `tests/repro/create_journal_full.repro`: the ring refuses the third
/// request of the first create — the parent's undo image, which used to
/// be asked for only after the directory had grown.
#[test]
fn a_create_refused_the_parents_undo_image_is_clean_on_both_stacks() {
    let r = load_repro("create_journal_full");
    for kind in [FsKind::Pmfs, FsKind::Hinfs] {
        let (dev, fs, pmfs) = small_mount(kind);
        let plan = FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        let root = fs.stat("/").unwrap();
        let mut oracle = Oracle::new(kind);
        plan.fail_journal_after(2);
        for (i, op) in r.script.ops.iter().enumerate() {
            let res = exec_op(&*fs, dev.env(), op);
            if i == 0 {
                assert_eq!(res, Err(FsError::JournalFull), "{}", kind.label());
                assert_eq!(plan.faults_injected(), 1);
                plan.set_journal_unavailable(false);
                assert_eq!(fs.stat("/").unwrap(), root, "the root grew in memory");
                assert_eq!(fs.stat("/f0"), Err(FsError::NotFound));
                let rep = pmfs.audit();
                assert!(rep.is_clean(), "{}: {}", kind.label(), rep.to_json());
            }
            oracle.apply(op, &res);
        }
        dev.fault_hook().clear();
        drop((fs, pmfs));
        dev.crash();
        let fs2 = Pmfs::mount(dev).unwrap();
        assert!(fs2.audit().is_clean());
        let rep = oracle.check(&*fs2);
        assert!(
            rep.violations.is_empty(),
            "{}: {:#?}",
            kind.label(),
            rep.violations
        );
    }
}

/// `tests/repro/truncate_journal_full.repro`: the ring refuses one of the
/// script's truncates after `admit` requests. The second request of a
/// truncate used to be the core's undo image, asked for after the cut: a
/// refusal there left the in-memory inode truncated over an un-truncated
/// core.
#[test]
fn a_truncate_the_journal_refuses_changes_nothing_on_both_stacks() {
    let r = load_repro("truncate_journal_full");
    let content = |fs: &dyn FileSystem| {
        let fd = fs.open("/f0", OpenFlags::READ).unwrap();
        let mut buf = vec![0u8; fs.fstat(fd).unwrap().size as usize];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), buf.len());
        fs.close(fd).unwrap();
        buf
    };
    for kind in [FsKind::Pmfs, FsKind::Hinfs] {
        for (victim, op) in r.script.ops.iter().enumerate() {
            let Op::Truncate { size, .. } = *op else {
                continue;
            };
            let mut refused = 0;
            for admit in 0..4 {
                let what = format!("{} op {victim} admit {admit}", kind.label());
                let (dev, fs, pmfs) = small_mount(kind);
                let plan = FaultPlan::new();
                dev.fault_hook().install(plan.clone());
                let mut oracle = Oracle::new(kind);
                for op in &r.script.ops[..victim] {
                    oracle.apply(op, &exec_op(&*fs, dev.env(), op));
                }
                let before = content(&*fs);
                plan.fail_journal_after(admit);
                let res = exec_op(&*fs, dev.env(), op);
                plan.set_journal_unavailable(false);
                let after = content(&*fs);
                match res {
                    Ok(()) => assert_eq!(after.len() as u64, size, "{what}"),
                    Err(e) => {
                        refused += 1;
                        assert_eq!(e, FsError::JournalFull, "{what}");
                        assert!(after == before, "{what}: the file changed");
                    }
                }
                assert_eq!(pmfs.journal().open_txs(), 0, "{what}");
                let rep = pmfs.audit();
                assert!(rep.is_clean(), "{what}: {}", rep.to_json());
                oracle.apply(op, &res);
                for op in &r.script.ops[victim + 1..] {
                    oracle.apply(op, &exec_op(&*fs, dev.env(), op));
                }
                dev.fault_hook().clear();
                drop((fs, pmfs));
                dev.crash();
                let fs2 = Pmfs::mount(dev).unwrap();
                assert!(fs2.audit().is_clean(), "{what}");
                let rep = oracle.check(&*fs2);
                assert!(rep.violations.is_empty(), "{what}: {:#?}", rep.violations);
            }
            // `begin` is the request a refusal can still come from, and
            // with it admitted the truncate goes through.
            assert!((1..4).contains(&refused), "{} op {victim}", kind.label());
        }
    }
}

/// The budget drill (`tests/repro/foreign_shard_stall.repro`) on an
/// 8-block HiNFS buffer: under a writeback stall the writer of the empty
/// shard takes its first victim from the full one.
#[test]
fn a_stalled_writer_evicts_from_a_foreign_shard_under_every_crash() {
    let r = load_repro("foreign_shard_stall");
    let tiny = 8 * nvmm::BLOCK_SIZE;
    // A drill that never takes the path is no drill.
    let dev = NvmmDevice::new_tracked(SimEnv::new_virtual(CostModel::default()), 8 << 20);
    let popts = PmfsOptions {
        journal_blocks: 64,
        inode_count: 128,
    };
    let cfg = HinfsConfig::default().with_buffer_bytes(tiny);
    let fs = Hinfs::mkfs(dev.clone(), popts, cfg).unwrap();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_stall_writeback(true);
    for op in &r.script.ops {
        exec_op(&*fs, dev.env(), op).unwrap();
        if matches!(op, Op::Write { file: 1, .. }) {
            let held = fs.snapshot().buffer.unwrap().shard_occupied_blocks;
            assert_eq!(held.iter().sum::<u64>(), 8, "the budget is out");
            assert_eq!(held.iter().max(), Some(&7), "f0's shard gave one up");
        }
    }
    assert_eq!(fs.stats().snapshot().foreground_stalls, 4);
    assert!(fs.audit().is_clean());
    dev.fault_hook().clear();

    let h = Harness::new().with_hinfs_buffer(tiny);
    let window = 0..r.script.ops.len();
    let out = h.fault_run(
        FsKind::Hinfs,
        &r.script,
        InjectedFault::WritebackStall,
        window,
    );
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    assert_eq!(
        r.replay(&h),
        Vec::<String>::new(),
        "lockstep with the model"
    );
    let every = SweepConfig {
        max_points: usize::MAX,
        torn_every: 3,
        ..sweep_cfg()
    };
    let out = h.sweep(FsKind::Hinfs, &r.script, every);
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    assert!(out.runs > 100, "every boundary: {}", out.runs);
}

#[test]
fn harness_counters_flow_into_obsv() {
    let h = Harness::new();
    let script = Script::random(11, 8);
    let out = h.sweep(FsKind::Pmfs, &script, sweep_cfg());
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    let snap = h.stats.snapshot();
    assert!(snap.crashes_injected > 0);
    assert!(snap.recoveries > 0);
    assert!(snap.oracle_checks > 0);
    assert_eq!(snap.oracle_violations, 0);
    // The sweep's recovery events landed in the trace ring.
    let tail = h.trace.tail(64);
    assert!(tail
        .iter()
        .any(|r| matches!(r.ev, obsv::TraceEvent::RecoveryBegin { .. })));
}
