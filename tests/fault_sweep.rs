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

mod common;

use common::fixture;
use faultfs::{exec_op, Harness, InjectedFault, Op, Oracle, Script, SweepConfig, CRASH_KINDS};
use fskit::{FileSystem, FsError, OpenFlags};
use nvmm::{FaultPlan, NvmmDevice};
use obsv::Introspect;
use pmfs::Pmfs;
use proptest::prelude::*;
use workloads::setups::{self, SystemKind};

fn sweep_cfg() -> SweepConfig {
    SweepConfig {
        max_points: 16,
        torn_every: 4,
        ..SweepConfig::default()
    }
}

fn sweep_clean(kind: SystemKind, seed: u64, n_ops: usize) {
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
        sweep_clean(SystemKind::Hinfs, seed, n);
    }

    #[test]
    fn crash_every_point_pmfs((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(SystemKind::Pmfs, seed, n);
    }

    #[test]
    fn crash_every_point_ext4((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(SystemKind::Ext4Bd, seed, n);
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
fn fault_round(kind: SystemKind, fault: InjectedFault, expect_errors: bool, needle: &str) {
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
        SystemKind::Pmfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_hinfs() {
    fault_round(
        SystemKind::Hinfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_ext4() {
    fault_round(
        SystemKind::Ext4Bd,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn enospc_is_a_clean_error_everywhere() {
    for kind in CRASH_KINDS {
        fault_round(kind, InjectedFault::Enospc, true, "NoSpace");
    }
}

#[test]
fn writeback_stall_degrades_gracefully_on_hinfs() {
    // A stalled writeback actor makes no progress but must not fail
    // foreground operations or break recovery once lifted.
    fault_round(SystemKind::Hinfs, InjectedFault::WritebackStall, false, "");
}

/// Heavy sweep for manual soak runs: `cargo test --test fault_sweep -- --ignored`.
#[test]
#[ignore]
fn stress_many_seeds_all_kinds() {
    let h = Harness::new();
    for seed in 0..40u64 {
        for kind in CRASH_KINDS {
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
    let (dev, _, fs) = small_mount(SystemKind::Pmfs);
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

/// A fresh PMFS or HiNFS at the harness geometry ([`Harness::config`]),
/// with the PMFS underneath.
fn small_mount(kind: SystemKind) -> (Arc<NvmmDevice>, Arc<dyn FileSystem>, Arc<Pmfs>) {
    let sys = setups::build(kind, Harness::new().config()).unwrap();
    let pmfs = sys.pmfs.clone().expect("a PMFS-family kind");
    (sys.dev, sys.fs, pmfs)
}

/// The recycling drill (`tests/repro/recycled_tree_node.repro`): crash at
/// *every* persistence boundary, every third one torn as well, with a
/// tree node freed, wiped, parked and reused along the way.
#[test]
fn crash_everywhere_around_a_recycled_tree_node() {
    let r = fixture("recycled_tree_node");
    let h = Harness::new();
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
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
    let r = fixture("recycled_tree_node");
    let (through_fsync, unlink) = (&r.script.ops[..3], &r.script.ops[3]);
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
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
    let r = fixture("create_journal_full");
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
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

/// An extend exposes zeroes past the old end of file, even where a crash
/// left stale bytes there: 0xee written at EOF 5 000 lands in the mapped
/// tail block, the power fails before the size that covers it does, and
/// an `ftruncate(8192)` after recovery used to expose the 0xee on PMFS
/// (HiNFS zeroed its own copy; the zeroing is PMFS's truncate's now).
/// HiNFS writes with `O_SYNC` so the bytes go straight to NVMM too.
#[test]
fn an_extend_zeroes_the_stale_tail_a_crash_left_past_eof() {
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
        let cfg = Harness::new().config().clone();
        let sys = setups::build(kind, &cfg).unwrap();
        let (dev, env, fs) = (sys.dev.clone(), sys.env.clone(), sys.fs.clone());
        let flags = OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::SYNC;
        let fd = fs.open("/f", flags).unwrap();
        fs.write(fd, 0, &[0x11; 5000]).unwrap();
        fs.fsync(fd).unwrap();
        let plan = FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        // The first persist of the write is its data; the size follows.
        plan.arm_crash(1);
        let crashed = catch_unwind(AssertUnwindSafe(|| fs.write(fd, 5000, &[0xee; 100])));
        assert!(crashed.is_err(), "{}: the write crashed", kind.label());
        dev.fault_hook().clear();
        drop((fs, sys));
        dev.crash();
        let sys = setups::remount_with(kind, dev, env, &cfg).unwrap();
        let fs = &sys.fs;
        assert_eq!(fs.stat("/f").unwrap().size, 5000, "{}", kind.label());
        let fd = fs.open("/f", OpenFlags::RDWR).unwrap();
        fs.truncate(fd, 8192).unwrap();
        let mut buf = vec![0u8; 8192];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 8192);
        assert!(buf[..5000].iter().all(|&b| b == 0x11), "{}", kind.label());
        let stale = buf[5000..].iter().position(|&b| b != 0);
        assert_eq!(stale, None, "{}: stale byte past the old EOF", kind.label());
        fs.close(fd).unwrap();
    }
}

/// A write that starts past the end of file exposes zeroes in the gap,
/// even where a crash left stale bytes there: the 0xee a crashed write
/// put past EOF 5 000 used to come back between the old EOF and a later
/// write on PMFS — through the in-place path when that write starts in
/// the same block, through the transaction path when it starts in a
/// later one. HiNFS writes with `O_SYNC`, its eager path. Each second
/// write is synchronous, so the gap is checked again after a crash.
#[test]
fn a_write_past_eof_zeroes_the_stale_tail_a_crash_left() {
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
        for at in [6000u64, 10_000] {
            let what = format!("{} write at {at}", kind.label());
            let cfg = Harness::new().config().clone();
            let sys = setups::build(kind, &cfg).unwrap();
            let (dev, env, fs) = (sys.dev.clone(), sys.env.clone(), sys.fs.clone());
            let flags = OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::SYNC;
            let fd = fs.open("/f", flags).unwrap();
            fs.write(fd, 0, &[0x11; 5000]).unwrap();
            fs.fsync(fd).unwrap();
            let plan = FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            // The first persist of the write is its data; the size follows.
            plan.arm_crash(1);
            let crashed = catch_unwind(AssertUnwindSafe(|| fs.write(fd, 5000, &[0xee; 100])));
            assert!(crashed.is_err(), "{what}: the write crashed");
            dev.fault_hook().clear();
            drop((fs, sys));
            dev.crash();
            let sys = setups::remount_with(kind, dev.clone(), env.clone(), &cfg).unwrap();
            assert_eq!(sys.fs.stat("/f").unwrap().size, 5000, "{what}");
            let fd = sys
                .fs
                .open("/f", OpenFlags::RDWR | OpenFlags::SYNC)
                .unwrap();
            sys.fs.write(fd, at, &[0x22; 100]).unwrap();
            drop(sys);
            dev.crash();
            let sys = setups::remount_with(kind, dev, env, &cfg).unwrap();
            let fd = sys.fs.open("/f", OpenFlags::READ).unwrap();
            let mut buf = vec![0u8; at as usize + 100];
            assert_eq!(sys.fs.read(fd, 0, &mut buf).unwrap(), buf.len(), "{what}");
            assert!(buf[..5000].iter().all(|&b| b == 0x11), "{what}");
            let stale = buf[5000..at as usize].iter().position(|&b| b != 0);
            assert_eq!(stale, None, "{what}: stale byte past the old EOF");
            assert!(buf[at as usize..].iter().all(|&b| b == 0x22), "{what}");
        }
    }
}

/// `tests/repro/truncate_journal_full.repro`: the ring refuses one of the
/// script's truncates after `admit` requests. The second request of a
/// truncate used to be the core's undo image, asked for after the cut: a
/// refusal there left the in-memory inode truncated over an un-truncated
/// core.
#[test]
fn a_truncate_the_journal_refuses_changes_nothing_on_both_stacks() {
    let r = fixture("truncate_journal_full");
    let content = |fs: &dyn FileSystem| {
        let fd = fs.open("/f0", OpenFlags::READ).unwrap();
        let mut buf = vec![0u8; fs.fstat(fd).unwrap().size as usize];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), buf.len());
        fs.close(fd).unwrap();
        buf
    };
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
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
    let r = fixture("foreign_shard_stall");
    let h = Harness::new().with_hinfs_buffer(8 * nvmm::BLOCK_SIZE);
    // A drill that never takes the path is no drill.
    let sys = setups::build(SystemKind::Hinfs, h.config()).unwrap();
    let fs = sys.hinfs.clone().unwrap();
    let plan = FaultPlan::new();
    sys.dev.fault_hook().install(plan.clone());
    plan.set_stall_writeback(true);
    for op in &r.script.ops {
        exec_op(&*sys.fs, &sys.env, op).unwrap();
        if matches!(op, Op::Write { file: 1, .. }) {
            let held = fs.snapshot().buffer.unwrap().shard_occupied_blocks;
            assert_eq!(held.iter().sum::<u64>(), 8, "the budget is out");
            assert_eq!(held.iter().max(), Some(&7), "f0's shard gave one up");
        }
    }
    assert_eq!(fs.stats().snapshot().foreground_stalls, 4);
    assert!(fs.audit().is_clean());
    sys.dev.fault_hook().clear();

    let window = 0..r.script.ops.len();
    let out = h.fault_run(
        SystemKind::Hinfs,
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
    let out = h.sweep(SystemKind::Hinfs, &r.script, every);
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    assert!(out.runs > 100, "every boundary: {}", out.runs);
}

#[test]
fn harness_counters_flow_into_obsv() {
    let h = Harness::new();
    let script = Script::random(11, 8);
    let out = h.sweep(SystemKind::Pmfs, &script, sweep_cfg());
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

/// `tests/repro/write_journal_full_hinfs.repro` and
/// `tests/repro/write_enospc_pmfs.repro`: a HiNFS write the ring refused
/// after it had buffered its data and grown the size, and a PMFS write
/// the allocator refused part-way through its copy. Replayed on every
/// kind with the fault refusing every request after the first 0..24:
/// the first refused op changes nothing, and the fixture's own kind
/// refuses a write at least once.
#[test]
fn a_refused_write_changes_nothing() {
    let cases = [
        (
            "write_journal_full_hinfs",
            InjectedFault::JournalFull,
            SystemKind::Hinfs,
        ),
        ("write_enospc_pmfs", InjectedFault::Enospc, SystemKind::Pmfs),
    ];
    let cfg = Harness::new().config().clone();
    for (name, fault, own) in cases {
        let ops = fixture(name).script.ops;
        for kind in SystemKind::ALL {
            let mut writes = 0;
            for admit in 0..24 {
                let found = faultfs::first_refusal(kind, &cfg, &ops, fault, admit).unwrap();
                let Some(r) = found else { continue };
                assert!(
                    r.diffs.is_empty(),
                    "{name} {} admit {admit}: {r:?}",
                    kind.label()
                );
                writes += matches!(r.op, Op::Write { .. }) as u32;
            }
            if kind == own {
                assert!(writes > 0, "{name}: {} refused no write", kind.label());
            }
        }
    }
}
