//! Multicore stress tests for the sharded subsystems (PR 7).
//!
//! - the sharded PMFS block allocator keeps exact accounting under an
//!   8-thread alloc/free storm that drains shards through the
//!   steal-on-empty path: no lost blocks, no double allocations;
//! - an 8-thread HiNFS run in spin mode leaves every online invariant
//!   green and all data readable;
//! - eight threads churning a 64-block HiNFS buffer from three shards'
//!   worth of files (every write stalls, most victims are foreign) neither
//!   deadlock nor lose a block of the budget;
//! - a crash schedule recorded while four threads hammer HiNFS replays
//!   through the faultfs harness with the durability oracle clean at
//!   every sampled boundary.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use faultfs::{Harness, Script};
use fskit::vfs::{self, Namespace};
use fskit::{FileSystem, OpenFlags};
use nvmm::{CostModel, FaultPlan, SimEnv, TimeMode};
use pmfs::alloc::Allocator;
use pmfs::Layout;
use workloads::filebench::{FilebenchParams, Fileserver, Varmail};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::setups::{build, ObsvOptions, SystemConfig, SystemKind};
use workloads::{Actor, RunLimit, Runner};

/// Eight threads alloc/free against one sharded allocator sized so that
/// every thread's demand exceeds a single shard's segment — the tail of
/// each burst is served by steal-on-empty. Afterwards the books must be
/// exact: every block handed out at most once at any instant, and
/// nothing leaked.
#[test]
fn eight_thread_steal_stress_no_lost_or_double_blocks() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;

    let layout = Layout::compute(1024, 16, 256).expect("layout");
    let env = SimEnv::new_virtual(CostModel::default());
    let alloc = Arc::new(Allocator::new_empty(&layout, env.contention()));
    let total = alloc.free_blocks();
    // Each thread's burst is larger than one shard's segment, so draining
    // the preferred shard and stealing from neighbours is guaranteed.
    let burst = (total as usize / THREADS).max(obsv::NSHARDS * 2);
    let stolen_proof = total as usize / obsv::NSHARDS;
    assert!(
        burst > stolen_proof / 2,
        "burst {burst} too small to force steals (shard segment ≈ {stolen_proof})"
    );

    let still_held: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let double_allocs = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let alloc = Arc::clone(&alloc);
            let still_held = &still_held;
            let double_allocs = &double_allocs;
            scope.spawn(move || {
                let mut mine: Vec<u64> = Vec::new();
                for round in 0..ROUNDS {
                    while mine.len() < burst {
                        match alloc.alloc() {
                            Ok(b) => mine.push(b),
                            Err(_) => break, // pool exhausted: all shards drained
                        }
                    }
                    // A duplicate inside one thread's live set means two
                    // shards handed out the same block.
                    let set: HashSet<u64> = mine.iter().copied().collect();
                    if set.len() != mine.len() {
                        double_allocs.fetch_add(1, Ordering::Relaxed);
                    }
                    // Free an uneven slice (threads desynchronize, keeping
                    // shard occupancies skewed so steals keep happening).
                    let keep = (t + round) % mine.len().max(1);
                    for b in mine.drain(keep..) {
                        alloc.free(b);
                    }
                }
                still_held.lock().unwrap().extend(mine.drain(..));
            });
        }
    });

    assert_eq!(
        double_allocs.load(Ordering::Relaxed),
        0,
        "double allocation"
    );
    let held = still_held.into_inner().unwrap();
    let distinct: HashSet<u64> = held.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        held.len(),
        "two threads hold the same block"
    );
    assert_eq!(
        alloc.free_blocks() + held.len() as u64,
        total,
        "blocks lost or conjured: free {} held {} total {total}",
        alloc.free_blocks(),
        held.len()
    );
    // Returning everything restores the empty-image free count exactly
    // (free panics on double free, so this also proves ownership).
    for b in held {
        alloc.free(b);
    }
    assert_eq!(alloc.free_blocks(), total);
}

/// Eight fileserver actors on real threads (spin mode) against a sharded
/// HiNFS mount with the online auditor enabled: the run must finish with
/// every invariant green and the mount must unmount cleanly (which
/// flushes every shard).
#[test]
fn eight_thread_hinfs_run_keeps_invariants_green() {
    let cfg = SystemConfig {
        device_bytes: 128 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 4 << 20,
        obsv: ObsvOptions::all(),
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/d", 64, 6, 16 << 10), 3).unwrap();
    let params = FilebenchParams {
        iosize: 16 << 10,
        append_size: 8 << 10,
    };
    // Half fileserver (buffered churn), half varmail (fsync-heavy, so the
    // in-band auditor fires throughout the run).
    let actors: Vec<Box<dyn Actor>> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                Box::new(Fileserver::new(Arc::clone(&set), params)) as Box<dyn Actor>
            } else {
                Box::new(Varmail::new(Arc::clone(&set), params)) as Box<dyn Actor>
            }
        })
        .collect();
    let r = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::steps(25), 42);
    assert_eq!(r.error, None);

    let rep = sys.introspect.as_ref().unwrap().audit();
    assert!(rep.is_clean(), "post-run audit: {rep:?}");
    let obs = sys.obs;
    assert!(obs.audit_checks() > 0, "the auditor actually ran");
    assert_eq!(obs.audit_violations(), 0);
    sys.fs.unmount().unwrap();
}

/// Eight real threads write, fsync and truncate files of three buffer
/// shards through a budget of 64 blocks — less than two of their writes
/// — so most blocks stall, and with five shards empty and
/// files shared between threads the victim is often a foreign shard's or
/// a busy inode's. The run must end (no deadlock, no spin), and at
/// quiescence every block of the budget is free or linked exactly once.
#[test]
fn eight_thread_churn_on_a_tiny_budget_conserves_it() {
    const THREADS: usize = 8;
    let cfg = SystemConfig {
        device_bytes: 64 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 64 * nvmm::BLOCK_SIZE,
        obsv: ObsvOptions::all(),
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let mut paths = Vec::new();
    for i in 0.. {
        let path = format!("/c{i}");
        let fd = sys
            .fs
            .open(&path, OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        sys.fs.close(fd).unwrap();
        if sys.fs.stat(&path).unwrap().ino % (obsv::NSHARDS as u64) < 3 {
            paths.push(path);
        }
        if paths.len() == 6 {
            break;
        }
    }
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watchdog = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..1200 {
                if done.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("eight_thread_churn: no progress in 120 s (deadlock or spin)");
            std::process::abort();
        })
    };
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (fs, path) = (sys.fs.clone(), paths[t % paths.len()].clone());
            scope.spawn(move || {
                let fd = fs.open(&path, OpenFlags::RDWR).unwrap();
                let blk = nvmm::BLOCK_SIZE as u64;
                for i in 0..60u64 {
                    let data = vec![(t as u64 * 60 + i) as u8 | 1; 40 * nvmm::BLOCK_SIZE];
                    fs.write(fd, (i * 5 % 20) * blk + 64 * t as u64, &data)
                        .unwrap();
                    match i % 11 {
                        3 | 8 => fs.fsync(fd).unwrap(),
                        10 => fs.truncate(fd, 0).unwrap(),
                        _ => {}
                    }
                }
                fs.close(fd).unwrap();
            });
        }
    });
    done.store(true, Ordering::Relaxed);
    watchdog.join().unwrap();
    let hinfs = sys.hinfs.as_ref().unwrap();
    assert!(hinfs.stats().snapshot().foreground_stalls > 0);
    // Unmount joins the writeback threads: nothing moves any more.
    sys.fs.unmount().unwrap();
    let b = sys.introspect.as_ref().unwrap().snapshot().buffer.unwrap();
    assert_eq!(b.capacity_blocks, 64);
    let held: u64 = b.shard_occupied_blocks.iter().sum();
    assert_eq!(held + b.free_blocks, b.capacity_blocks, "{b:?}");
    assert!(b.shard_occupied_blocks[3..].iter().all(|&h| h == 0));
    let rep = sys.introspect.as_ref().unwrap().audit();
    assert!(rep.is_clean(), "post-run audit: {rep:?}");
    assert_eq!(sys.obs.audit_violations(), 0);
}

/// Records the persistence-boundary schedule of a four-thread HiNFS run
/// (spin mode, real concurrency), then replays crashes at boundaries
/// sampled from that schedule through the faultfs harness: recovery must
/// come up clean and the durability oracle must accept the recovered
/// tree — fsync-acknowledged data survives, no invariant breaks.
#[test]
fn crash_schedule_recorded_under_four_threads_replays_clean() {
    // Phase 1: record. A live FaultPlan counts every persist/flush the
    // four writer threads push through the device, giving the density of
    // crash-eligible boundaries a concurrent run produces.
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
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let fs = sys.fs.clone();
            scope.spawn(move || {
                let path = format!("/t{t}");
                let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
                for i in 0..12u64 {
                    fs.append(fd, &[(t * 16 + i) as u8; 2048]).unwrap();
                    if i % 3 == 0 {
                        fs.fsync(fd).unwrap();
                    }
                }
                fs.close(fd).unwrap();
            });
        }
    });
    let schedule = plan.stop_recording();
    sys.dev.fault_hook().clear();
    sys.fs.unmount().unwrap();

    let crash_points: Vec<u64> = schedule
        .iter()
        .filter(|b| b.index > 0) // fences are not crash-eligible
        .map(|b| b.index)
        .collect();
    assert!(
        crash_points.len() >= 8,
        "4-thread run recorded only {} crash-eligible boundaries",
        crash_points.len()
    );

    // Phase 2: replay. Crash at a spread of the recorded boundary numbers
    // (first, last, and quartiles) and let the oracle judge recovery.
    let h = Harness::new();
    let script = Script::random(0xC0FFEE, 12);
    for q in 0..=4 {
        let k = crash_points[(crash_points.len() - 1) * q / 4];
        let out = h.crash_run(SystemKind::Hinfs, &script, k, None);
        assert!(
            out.violations.is_empty(),
            "crash at recorded boundary {k}: {:#?}",
            out.violations
        );
        assert!(out.checks > 0, "boundary {k}: oracle checked nothing");
    }
}

/// A small spin-mode (real-thread) mount for the race regressions below.
fn spin_system(kind: SystemKind) -> workloads::setups::System {
    let cfg = SystemConfig {
        device_bytes: 64 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 2 << 20,
        ..SystemConfig::default()
    };
    build(kind, &cfg).unwrap()
}

/// Runs `body` on its own thread under a wall-clock watchdog, so a
/// deadlock fails the test instead of blocking the suite.
fn within_secs(secs: u64, what: &str, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(()) => worker.join().unwrap(),
        // Disconnected: the body panicked; surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress for {secs} s — deadlock")
        }
    }
}

/// Lock order on an inode is `state` → `opens` everywhere. `Pmfs::close`
/// (and ext's) used to take `opens` → `state`, which deadlocked against a
/// concurrent unlink of the same file (`state.write()` → `opens`): one
/// thread open/close-loops a path while another unlink/create-loops it.
#[test]
fn close_racing_unlink_of_the_same_file_does_not_deadlock() {
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs, SystemKind::Ext4Dax] {
        within_secs(60, kind.label(), move || {
            let sys = spin_system(kind);
            let create = OpenFlags::RDWR | OpenFlags::CREATE;
            sys.fs.close(sys.fs.open("/f", create).unwrap()).unwrap();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for _ in 0..4000 {
                        // The path may be mid-recreation: only opens that
                        // land are closed.
                        if let Ok(fd) = sys.fs.open("/f", OpenFlags::RDWR) {
                            sys.fs.close(fd).unwrap();
                        }
                    }
                });
                scope.spawn(|| {
                    for _ in 0..4000 {
                        let _ = sys.fs.unlink("/f");
                        sys.fs.close(sys.fs.open("/f", create).unwrap()).unwrap();
                    }
                });
            });
            sys.fs.unmount().unwrap();
        });
    }
}

/// Eight threads create, write, fsync and unlink files of their own, so
/// tree nodes are emptied, wiped, parked and taken back on all of them at
/// once. The zeroed pools must come out sound (audit code 16: every
/// parked block used once, parked once, all-zero).
#[test]
fn eight_thread_unlink_create_churn_keeps_the_zeroed_pool_sound() {
    for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
        within_secs(60, kind.label(), move || {
            let sys = spin_system(kind);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let fs = &sys.fs;
                    scope.spawn(move || {
                        let path = format!("/t{t}");
                        let create = OpenFlags::RDWR | OpenFlags::CREATE;
                        for round in 0..150u64 {
                            let fd = fs.open(&path, create).unwrap();
                            let blocks = 1 + (t + round) % 5;
                            fs.write(fd, 0, &vec![t as u8 + 1; (blocks * 4096) as usize])
                                .unwrap();
                            fs.fsync(fd).unwrap();
                            fs.close(fd).unwrap();
                            fs.unlink(&path).unwrap();
                        }
                    });
                }
            });
            let rep = sys.introspect.as_ref().unwrap().audit();
            assert!(rep.is_clean(), "{}: {rep:?}", kind.label());
            let reg = sys.registry.snapshot();
            assert!(reg.counter("pmfs_tree_nodes_recycled") > 0);
            assert!(reg.gauge("pmfs_alloc_zeroed_pool") > 0);
            sys.fs.unmount().unwrap();
        });
    }
}

/// The same inversion, forced rather than raced: the test thread plays
/// an unlinker inside its critical section (`state.write()` held, `opens`
/// not yet taken) while another thread closes the file's descriptor. A
/// closer that grabbed `opens` before waiting for `state` is holding the
/// one lock the unlinker needs next. Both families close through the one
/// namespace driver; ext4-dax's closer used to take `opens` first.
#[test]
fn close_never_holds_opens_while_waiting_for_state() {
    within_secs(60, "pmfs close lock order", || {
        let fs = pmfs::Pmfs::mkfs(spin_device(), pmfs::PmfsOptions::default()).unwrap();
        close_parks_on_state_with_empty_hands(&*fs);
    });
    within_secs(60, "ext4-dax close lock order", || {
        let opts = extfs::ExtOptions {
            journal_blocks: 256,
            inode_count: 4096,
            cache_pages: 512,
        };
        let fs = extfs::Extfs::mkfs(spin_device(), extfs::ExtMode::Ext4Dax, opts).unwrap();
        close_parks_on_state_with_empty_hands(&*fs);
    });
}

/// A fresh 16 MiB spin-mode (real-thread) device.
fn spin_device() -> Arc<nvmm::NvmmDevice> {
    let env = SimEnv::new(TimeMode::Spin, CostModel::default());
    nvmm::NvmmDevice::new(env, 16 << 20)
}

fn close_parks_on_state_with_empty_hands<F: FileSystem + Namespace>(fs: &F) {
    let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
    let h = vfs::resolve(fs, "/f").unwrap();
    let unlinker = h.state.write();
    std::thread::scope(|scope| {
        let closer = scope.spawn(|| fs.close(fd).unwrap());
        // The descriptor leaves the table just before the closer turns
        // to the inode's locks...
        while fs.fds().get(fd).is_ok() {
            std::thread::yield_now();
        }
        // ...where it must now be parked on `state`, hands empty.
        for _ in 0..10_000 {
            assert!(
                h.opens.try_lock().is_some(),
                "close holds `opens` while blocked on `state` (order is state → opens)"
            );
            std::thread::yield_now();
        }
        drop(unlinker);
        closer.join().unwrap();
    });
    fs.unmount().unwrap();
}

/// The last descriptor of an unlinked file and the last link of a closed
/// one both free the inode inside PMFS; HiNFS must drop the file's
/// buffered blocks and deferred transactions at exactly that moment.
/// Deciding "am I the last one?" before PMFS does let two racing
/// finishers both answer no, stranding an open transaction on a freed
/// inode that no flush could ever commit (`unmount with open
/// transactions`). Each round races the two finishers off a barrier.
#[test]
fn racing_last_close_and_unlink_strand_no_transactions() {
    within_secs(120, "hinfs last-close race", || {
        let sys = spin_system(SystemKind::Hinfs);
        let hinfs = sys.hinfs.clone().unwrap();
        let create = OpenFlags::RDWR | OpenFlags::CREATE;
        let gate = std::sync::Barrier::new(2);
        for round in 0..4000 {
            // Two descriptors, each with a buffered size-extending write
            // (a deferred metadata transaction waiting on a dirty block).
            let a = sys.fs.open("/victim", create).unwrap();
            let b = sys.fs.open("/victim", OpenFlags::RDWR).unwrap();
            sys.fs.write(a, 0, &[1u8; 4096]).unwrap();
            sys.fs.write(b, 4096, &[2u8; 4096]).unwrap();
            if round % 2 == 0 {
                // Unlinked while open twice: the two closes race.
                sys.fs.unlink("/victim").unwrap();
                std::thread::scope(|scope| {
                    for fd in [a, b] {
                        let (fs, gate) = (&sys.fs, &gate);
                        scope.spawn(move || {
                            gate.wait();
                            fs.close(fd).unwrap();
                        });
                    }
                });
            } else {
                // One descriptor left: its close races the unlink.
                sys.fs.close(a).unwrap();
                std::thread::scope(|scope| {
                    let (fs, gate) = (&sys.fs, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        fs.close(b).unwrap();
                    });
                    scope.spawn(move || {
                        gate.wait();
                        fs.unlink("/victim").unwrap();
                    });
                });
            }
            // The inode is gone; nothing of it may survive in the buffer.
            // (Checked every round: the next create reuses the inode
            // number and would silently adopt stranded state.)
            sys.fs.sync().unwrap();
            assert_eq!(
                hinfs.pmfs().journal().open_txs(),
                0,
                "round {round}: a flushed mount still holds open transactions"
            );
        }
        let rep = sys.introspect.as_ref().unwrap().audit();
        assert!(rep.is_clean(), "post-race audit: {rep:?}");
        sys.fs.unmount().unwrap();
    });
}

/// An `O_TRUNC` open discards the file's buffered blocks inside PMFS's
/// truncating transaction, under the inode lock. Discarding them before
/// PMFS took that lock let a buffered write slip in between: it then
/// committed after the truncate it was logged before, and the truncate
/// left a dirty block past the new end of file. Each round races such a
/// write against an `O_TRUNC` open off a barrier; the file must end in
/// one of the two serial outcomes with the auditor clean.
#[test]
fn o_trunc_open_racing_a_buffered_write_serializes() {
    within_secs(120, "hinfs O_TRUNC race", || {
        let cfg = SystemConfig {
            device_bytes: 64 << 20,
            mode: TimeMode::Spin,
            buffer_bytes: 2 << 20,
            obsv: ObsvOptions::none().with_audit(),
            ..SystemConfig::default()
        };
        let sys = build(SystemKind::Hinfs, &cfg).unwrap();
        let intro = sys.introspect.as_ref().unwrap();
        let fd = sys
            .fs
            .open("/v", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        let gate = std::sync::Barrier::new(2);
        for round in 0..2000u32 {
            let byte = (round % 251) as u8 + 1;
            std::thread::scope(|scope| {
                let (fs, gate) = (&sys.fs, &gate);
                scope.spawn(move || {
                    gate.wait();
                    // A varying head start for the opener sweeps the
                    // write across every point of its path.
                    for _ in 0..(round % 97) * 40 {
                        std::hint::spin_loop();
                    }
                    fs.write(fd, 0, &[byte; 4096]).unwrap();
                });
                scope.spawn(move || {
                    gate.wait();
                    let t = fs.open("/v", OpenFlags::RDWR | OpenFlags::TRUNC).unwrap();
                    fs.close(t).unwrap();
                });
            });
            // Write then truncate: empty, nothing buffered. Truncate then
            // write: the write's block (buffered, or on NVMM if Eager).
            let size = sys.fs.fstat(fd).unwrap().size;
            let buffered: u64 = intro
                .snapshot()
                .buffer
                .unwrap()
                .shard_occupied_blocks
                .iter()
                .sum();
            assert!(
                buffered <= size / 4096,
                "round {round}: {buffered} blocks past EOF {size}"
            );
            if size != 0 {
                let mut back = [0u8; 4096];
                sys.fs.read(fd, 0, &mut back).unwrap();
                assert!(back.iter().all(|&b| b == byte), "round {round}");
            }
            // Every fsync self-audits.
            sys.fs.fsync(fd).unwrap();
            sys.fs.truncate(fd, 0).unwrap();
        }
        sys.fs.close(fd).unwrap();
        let rep = intro.audit();
        assert!(rep.is_clean(), "post-race audit: {rep:?}");
        assert_eq!(sys.obs.audit_violations(), 0);
        sys.fs.unmount().unwrap();
    });
}
