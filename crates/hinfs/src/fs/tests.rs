use std::sync::Arc;

use fskit::{FileSystem, FsError, OpenFlags};
use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
use pmfs::{Pmfs, PmfsOptions};

use crate::fs::Hinfs;
use crate::HinfsConfig;

fn opts() -> PmfsOptions {
    PmfsOptions {
        journal_blocks: 128,
        inode_count: 512,
    }
}

fn small_cfg() -> HinfsConfig {
    HinfsConfig::default().with_buffer_bytes(64 * BLOCK_SIZE)
}

fn fresh_with(cfg: HinfsConfig) -> (Arc<NvmmDevice>, Arc<Hinfs>) {
    let env = SimEnv::new_virtual(CostModel::default());
    env.set_now(0);
    let dev = NvmmDevice::new_tracked(env, 16384 * BLOCK_SIZE);
    let fs = Hinfs::mkfs(dev.clone(), opts(), cfg).unwrap();
    (dev, fs)
}

fn fresh() -> (Arc<NvmmDevice>, Arc<Hinfs>) {
    fresh_with(small_cfg())
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

#[test]
fn buffered_write_read_roundtrip() {
    let (_d, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
    assert_eq!(fs.write(fd, 0, &data).unwrap(), data.len());
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data, "read-your-writes through the DRAM buffer");
    assert!(fs.stats().snapshot().lazy_writes > 0);
    assert_eq!(fs.stats().snapshot().eager_writes, 0);
    fs.close(fd).unwrap();
}

#[test]
fn lazy_writes_stay_off_nvmm_until_fsync() {
    let (dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    let before = dev.stats().snapshot();
    fs.write(fd, 0, &vec![7u8; 8 * BLOCK_SIZE]).unwrap();
    let mid = dev.stats().snapshot().since(&before);
    // Only journal/inode metadata reached NVMM, not the 32 KiB of data.
    assert!(
        mid.nvmm_bytes_written < 2048,
        "lazy write persisted {} bytes",
        mid.nvmm_bytes_written
    );
    fs.fsync(fd).unwrap();
    let after = dev.stats().snapshot().since(&before);
    assert!(
        after.nvmm_bytes_written >= 8 * BLOCK_SIZE as u64,
        "fsync flushed the data ({} bytes)",
        after.nvmm_bytes_written
    );
    fs.close(fd).unwrap();
}

#[test]
fn buffered_write_is_much_faster_than_direct() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev_h = NvmmDevice::new(env.clone(), 8192 * BLOCK_SIZE);
    let hin = Hinfs::mkfs(dev_h, opts(), small_cfg()).unwrap();
    let dev_p = NvmmDevice::new(env.clone(), 8192 * BLOCK_SIZE);
    let pm = Pmfs::mkfs(dev_p, opts()).unwrap();

    let data = vec![1u8; 16 * BLOCK_SIZE];
    let fd = hin.open("/f", rw_create()).unwrap();
    env.rebase();
    hin.write(fd, 0, &data).unwrap();
    let t_hinfs = env.now();
    hin.close(fd).unwrap();

    let fd = pm.open("/f", rw_create()).unwrap();
    env.rebase();
    pm.write(fd, 0, &data).unwrap();
    let t_pmfs = env.now();
    pm.close(fd).unwrap();

    assert!(
        t_hinfs * 3 < t_pmfs,
        "buffered write {t_hinfs} ns should be well under direct {t_pmfs} ns"
    );
}

#[test]
fn ordered_mode_crash_without_fsync_reverts_metadata() {
    let (dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 4096]).unwrap();
    fs.fsync(fd).unwrap();
    // Extend lazily, no fsync: the size-extension transaction stays open.
    fs.write(fd, 4096, &[2u8; 8192]).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Pmfs::mount(dev).unwrap();
    assert!(fs2.recovery_stats().txs_undone >= 1, "open tx rolled back");
    let st = fs2.stat("/f").unwrap();
    assert_eq!(st.size, 4096, "unsynced extension must not survive");
    let fd = fs2.open("/f", OpenFlags::READ).unwrap();
    let mut buf = [0u8; 4096];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 4096], "synced data intact");
    fs2.close(fd).unwrap();
}

#[test]
fn fsynced_data_survives_crash() {
    let (dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    let data: Vec<u8> = (0..12_345u32).map(|i| (i % 251) as u8).collect();
    fs.write(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Pmfs::mount(dev).unwrap();
    let fd = fs2.open("/f", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs2.read(fd, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    fs2.close(fd).unwrap();
}

#[test]
fn o_sync_writes_are_durable_without_fsync() {
    let (dev, fs) = fresh();
    let fd = fs.open("/f", rw_create() | OpenFlags::SYNC).unwrap();
    fs.write(fd, 0, &[5u8; 6000]).unwrap();
    assert!(fs.stats().snapshot().sync_writes > 0);
    dev.crash();
    drop((fd, fs));
    let fs2 = Pmfs::mount(dev).unwrap();
    assert_eq!(fs2.stat("/f").unwrap().size, 6000);
    let fd = fs2.open("/f", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; 6000];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 5));
    fs2.close(fd).unwrap();
}

#[test]
fn bbm_turns_uncoalesced_blocks_eager() {
    // Varmail-like pattern: append then fsync, block after block. N_cf
    // equals N_cw, so buffering never wins and blocks go eager.
    let (_d, fs) = fresh();
    let fd = fs.open("/mail", rw_create()).unwrap();
    for _ in 0..20 {
        fs.append(fd, &[9u8; BLOCK_SIZE]).unwrap();
        fs.fsync(fd).unwrap();
    }
    let s = fs.stats().snapshot();
    assert!(s.bbm_evals > 0);
    // Re-writing an eager block now bypasses the buffer.
    let lazy_before = fs.stats().snapshot().lazy_writes;
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    let s = fs.stats().snapshot();
    assert!(s.eager_writes > 0, "eager-persistent write went direct");
    assert_eq!(s.lazy_writes, lazy_before);
    // And the data is still correct.
    let mut buf = vec![0u8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 1));
    fs.close(fd).unwrap();
}

#[test]
fn coalesced_blocks_stay_lazy() {
    // Many overwrites of one block between fsyncs: N_cf << N_cw.
    let (_d, fs) = fresh();
    let fd = fs.open("/db", rw_create()).unwrap();
    for round in 0..3 {
        for _ in 0..50 {
            fs.write(fd, 0, &[round as u8; BLOCK_SIZE]).unwrap();
        }
        fs.fsync(fd).unwrap();
    }
    let s = fs.stats().snapshot();
    assert_eq!(s.eager_writes, 0, "heavily coalesced block stays lazy");
    assert!(s.bbm_accuracy() > 0.9);
    fs.close(fd).unwrap();
}

#[test]
fn eager_state_decays_after_five_seconds() {
    let (_d, fs) = fresh();
    let env = fs.env().clone();
    let fd = fs.open("/f", rw_create()).unwrap();
    // Make block 0 eager.
    for _ in 0..3 {
        fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
        fs.fsync(fd).unwrap();
    }
    fs.write(fd, 0, &[2u8; BLOCK_SIZE]).unwrap();
    let eager_count = fs.stats().snapshot().eager_writes;
    assert!(eager_count > 0);
    // 5+ virtual seconds without a sync: the state decays to lazy.
    env.set_now(env.now() + fs.config().eager_decay_ns + 1);
    let lazy_before = fs.stats().snapshot().lazy_writes;
    fs.write(fd, 0, &[3u8; BLOCK_SIZE]).unwrap();
    let s = fs.stats().snapshot();
    assert_eq!(s.eager_writes, eager_count, "no new eager writes");
    assert!(s.lazy_writes > lazy_before);
    fs.close(fd).unwrap();
}

#[test]
fn hinfs_wb_variant_never_goes_eager() {
    let (_d, fs) = fresh_with(small_cfg().wb_only());
    assert_eq!(fs.name(), "hinfs-wb");
    let fd = fs.open("/mail", rw_create()).unwrap();
    for _ in 0..10 {
        fs.append(fd, &[9u8; BLOCK_SIZE]).unwrap();
        fs.fsync(fd).unwrap();
    }
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    let s = fs.stats().snapshot();
    assert_eq!(s.eager_writes, 0, "HiNFS-WB buffers everything");
    fs.close(fd).unwrap();
}

#[test]
fn clfw_flushes_only_dirty_lines() {
    // The WB variant keeps the checker out of the way so the block stays
    // buffered across both fsyncs and the flush granularity is isolated.
    let (dev, fs) = fresh_with(small_cfg().wb_only());
    let fd = fs.open("/f", rw_create()).unwrap();
    // Prime a full block so later writes hit an existing NVMM block.
    fs.write(fd, 0, &[0u8; BLOCK_SIZE]).unwrap();
    fs.fsync(fd).unwrap();
    // Dirty a single 64 B line.
    fs.write(fd, 128, &[1u8; 64]).unwrap();
    let before = dev.stats().snapshot();
    fs.fsync(fd).unwrap();
    let delta = dev.stats().snapshot().since(&before);
    assert!(
        delta.nvmm_bytes_written <= 4 * 64,
        "CLFW should flush ~1 line, wrote {} bytes",
        delta.nvmm_bytes_written
    );
    fs.close(fd).unwrap();
}

#[test]
fn nclfw_flushes_whole_blocks() {
    let (dev, fs) = fresh_with(small_cfg().nclfw().wb_only());
    assert_eq!(fs.name(), "hinfs-wb");
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[0u8; BLOCK_SIZE]).unwrap();
    fs.fsync(fd).unwrap();
    fs.write(fd, 128, &[1u8; 64]).unwrap();
    let before = dev.stats().snapshot();
    fs.fsync(fd).unwrap();
    let delta = dev.stats().snapshot().since(&before);
    assert!(
        delta.nvmm_bytes_written >= BLOCK_SIZE as u64,
        "NCLFW writes back the whole block, wrote {} bytes",
        delta.nvmm_bytes_written
    );
    fs.close(fd).unwrap();
}

#[test]
fn clfw_fetches_only_partial_lines() {
    let (_d, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[3u8; BLOCK_SIZE]).unwrap();
    fs.fsync(fd).unwrap();
    // Evict so the block leaves the buffer, then write 0..112 (the paper's
    // example): only the second line is partially covered and fetched.
    fs.sync().unwrap();
    let of = fs.pmfs().open_file(fd).unwrap();
    {
        let _guard = of.handle.state.write();
        fs.drop_buffers(of.ino);
    }
    let fetch_before = fs.stats().snapshot().fetch_lines;
    fs.write(fd, 0, &[9u8; 112]).unwrap();
    let fetched = fs.stats().snapshot().fetch_lines - fetch_before;
    assert_eq!(fetched, 1, "only the partially covered line is fetched");
    // Stitched read: bytes 0..112 new, rest old.
    let mut buf = vec![0u8; 256];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf[..112].iter().all(|&b| b == 9));
    assert!(buf[112..].iter().all(|&b| b == 3));
    fs.close(fd).unwrap();
}

#[test]
fn deleted_files_skip_writeback() {
    // 16 dirty blocks of one file must all still be buffered at unlink.
    let (dev, fs) = fresh_with(small_cfg().with_buffer_bytes(512 * BLOCK_SIZE));
    let fd = fs.open("/tmp1", rw_create()).unwrap();
    fs.write(fd, 0, &vec![1u8; 16 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
    let before = dev.stats().snapshot();
    fs.unlink("/tmp1").unwrap();
    let s = fs.stats().snapshot();
    assert!(
        s.dropped_dirty_blocks >= 16,
        "dirty buffers dropped, got {}",
        s.dropped_dirty_blocks
    );
    let delta = dev.stats().snapshot().since(&before);
    assert!(
        delta.nvmm_bytes_written < 4096,
        "unlink must not write the dead data back ({} bytes)",
        delta.nvmm_bytes_written
    );
    assert_eq!(fs.pmfs().journal().open_txs(), 0);
}

#[test]
fn pool_pressure_reclaims_and_stays_correct() {
    // Buffer of 64 blocks, write 200 blocks: reclaim must kick in.
    let (_d, fs) = fresh();
    let fd = fs.open("/big", rw_create()).unwrap();
    let blockful = vec![0xabu8; BLOCK_SIZE];
    for i in 0..200u64 {
        fs.write(fd, i * BLOCK_SIZE as u64, &blockful).unwrap();
        fs.tick(fs.env().now());
    }
    let s = fs.stats().snapshot();
    assert!(s.writeback_blocks > 0, "background writeback ran");
    // All data readable (some from NVMM, some from buffer).
    let mut buf = vec![0u8; BLOCK_SIZE];
    for i in [0u64, 63, 64, 150, 199] {
        fs.read(fd, i * BLOCK_SIZE as u64, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xab), "block {i} corrupt");
    }
    // Watermark respected after a tick.
    assert!(fs.free_buffer_blocks() >= fs.config().low_blocks());
    fs.close(fd).unwrap();
}

/// The budget is the mount's: one inode may hold (nearly) all of it,
/// whatever shard it hashes to. (Sliced eight ways, 8 of these 57 blocks
/// fit and the rest stalled.)
#[test]
fn one_file_may_use_the_whole_buffer() {
    let (dev, fs) = fresh(); // 64 blocks
    let n = fs.config().buffer_blocks() * 9 / 10;
    let data: Vec<u8> = (0..n * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
    let fd = fs.open("/big", rw_create()).unwrap();
    fs.write(fd, 0, &data).unwrap();
    let s = fs.stats().snapshot();
    assert_eq!((s.foreground_stalls, s.writeback_blocks), (0, 0));
    assert_eq!(fs.dirty_blocks(), n);
    assert_eq!(fs.free_buffer_blocks(), fs.buffer_capacity() - n);
    let before = dev.stats().snapshot();
    let mut buf = vec![0u8; data.len()];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf == data);
    let read = dev.stats().snapshot().since(&before).nvmm_bytes_read;
    assert_eq!(read, 0, "every byte came from DRAM");
    fs.close(fd).unwrap();
}

/// A writer whose own shard holds nothing takes its victim from the next
/// shard that does — and, once it holds a block, from its own again: one
/// eviction per stalled block, with the background stalled throughout.
#[test]
fn a_stalled_writer_with_an_empty_shard_evicts_from_a_foreign_one() {
    let (dev, fs) = fresh_with(small_cfg().with_audit());
    let plan = nvmm::fault::FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_stall_writeback(true);
    let cap = fs.buffer_capacity();
    let (a, b) = (
        fs.open("/a", rw_create()).unwrap(),
        fs.open("/b", rw_create()).unwrap(),
    );
    let shard_of = |path| fs.shard_idx(fs.stat(path).unwrap().ino);
    let (sa, sb) = (shard_of("/a"), shard_of("/b"));
    assert_ne!(sa, sb, "consecutive inodes, different shards");
    fs.write(a, 0, &vec![0xA1; cap * BLOCK_SIZE]).unwrap();
    assert_eq!(fs.free_buffer_blocks(), 0, "shard A holds the whole budget");
    assert_eq!(fs.stats().snapshot().foreground_stalls, 0);
    fs.write(b, 0, &vec![0xB2; 5 * BLOCK_SIZE]).unwrap();
    assert_eq!(fs.stats().snapshot().foreground_stalls, 5, "no rescans");
    let held = obsv::Introspect::snapshot(&*fs)
        .buffer
        .unwrap()
        .shard_occupied_blocks;
    assert_eq!((held[sa], held[sb]), (cap as u64 - 1, 1));
    assert_eq!(fs.free_buffer_blocks(), 0);
    for (fd, fill, blocks) in [(a, 0xA1, cap), (b, 0xB2, 5)] {
        let mut buf = vec![0u8; blocks * BLOCK_SIZE];
        fs.read(fd, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == fill));
    }
    let rep = obsv::Introspect::audit(&*fs);
    assert!(rep.is_clean(), "{}", rep.to_json());
    assert_eq!(fs.obs().audit_violations(), 0);
}

#[test]
fn reclaim_plan_hands_the_deficit_to_the_fullest_shards() {
    use crate::writeback::reclaim_plan;
    let (low, high) = (5, 20);
    // At or above Low_f: nobody evicts.
    assert_eq!(reclaim_plan(5, low, high, &[40, 30, 25]), [0, 0, 0]);
    assert_eq!(reclaim_plan(50, low, high, &[40, 10, 0]), [0, 0, 0]);
    // Below: the deficit to High_f, fullest first, capped at the holding.
    assert_eq!(reclaim_plan(4, low, high, &[30, 40, 26]), [0, 16, 0]);
    assert_eq!(reclaim_plan(0, low, high, &[12, 3, 85]), [0, 0, 20]);
    assert_eq!(reclaim_plan(0, low, high, &[9, 78, 13]), [0, 20, 0]);
    assert_eq!(
        reclaim_plan(2, low, high, &[7, 0, 9, 82 - 80]),
        [7, 0, 9, 2]
    );
    // Ties go to the lower index.
    assert_eq!(reclaim_plan(0, low, high, &[8, 12, 12, 12]), [0, 12, 8, 0]);
    for held in [[25u8, 25, 25, 25], [0, 97, 1, 2], [3, 3, 90, 4]] {
        let held: Vec<usize> = held.iter().map(|&h| h as usize).collect();
        let free = 100 - held.iter().sum::<usize>();
        let plan = reclaim_plan(free, low, high, &held);
        assert_eq!(plan.iter().sum::<usize>(), high - free);
        assert!(plan.iter().zip(&held).all(|(p, h)| p <= h));
    }
}

#[test]
fn foreground_stall_when_background_cannot_keep_up() {
    let (_d, fs) = fresh(); // 64-block pool
    let fd = fs.open("/big", rw_create()).unwrap();
    // One write of 100 blocks: the background kick only happens between
    // calls, so the pool exhausts mid-operation and the foreground must
    // reclaim a victim itself.
    let huge = vec![0x11u8; 100 * BLOCK_SIZE];
    fs.write(fd, 0, &huge).unwrap();
    assert!(fs.stats().snapshot().foreground_stalls > 0);
    let mut buf = vec![0u8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x11));
    fs.read(fd, 99 * BLOCK_SIZE as u64, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x11));
    fs.close(fd).unwrap();
}

#[test]
fn periodic_tick_flushes_old_dirty_blocks() {
    let (_d, fs) = fresh();
    let env = fs.env().clone();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    assert_eq!(fs.dirty_blocks(), 1);
    // Before the dirty-age threshold nothing is flushed.
    env.set_now(env.now() + fs.config().periodic_wb_ns + 1);
    fs.tick(env.now());
    assert_eq!(fs.dirty_blocks(), 1, "young dirty block stays");
    // After 30 s the periodic pass flushes it.
    env.set_now(env.now() + fs.config().dirty_age_ns);
    fs.tick(env.now());
    assert_eq!(fs.dirty_blocks(), 0, "aged dirty block flushed");
    assert_eq!(fs.pmfs().journal().open_txs(), 0, "ordered tx committed");
    fs.close(fd).unwrap();
}

#[test]
fn unmount_flushes_everything() {
    let (dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 7) as u8).collect();
    fs.write(fd, 0, &data).unwrap();
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    drop(fs);
    // Remount with plain PMFS: everything must be on NVMM.
    let fs2 = Pmfs::mount(dev).unwrap();
    let fd = fs2.open("/f", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs2.read(fd, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    fs2.close(fd).unwrap();
}

#[test]
fn truncate_through_buffer() {
    let (_d, fs) = fresh();
    let fd = fs.open("/t", rw_create()).unwrap();
    fs.write(fd, 0, &[7u8; 3 * BLOCK_SIZE]).unwrap();
    fs.truncate(fd, 100).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 100);
    let mut buf = vec![0u8; 200];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 100);
    assert!(buf[..100].iter().all(|&b| b == 7));
    // Extend again: zeroes beyond the cut.
    fs.truncate(fd, BLOCK_SIZE as u64).unwrap();
    let mut buf = vec![0xffu8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf[100..].iter().all(|&b| b == 0));
    fs.close(fd).unwrap();
}

#[test]
fn o_trunc_discards_buffers() {
    let (_d, fs) = fresh();
    let fd = fs.open("/t", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 2 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::TRUNC).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 0);
    let mut buf = [0u8; 64];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 0);
    fs.close(fd).unwrap();
}

#[test]
fn rename_replace_discards_target_buffers() {
    let (_d, fs) = fresh();
    let a = fs.open("/a", rw_create()).unwrap();
    fs.write(a, 0, b"source").unwrap();
    fs.close(a).unwrap();
    let b = fs.open("/b", rw_create()).unwrap();
    fs.write(b, 0, &[9u8; BLOCK_SIZE]).unwrap();
    fs.close(b).unwrap();
    fs.rename("/a", "/b").unwrap();
    assert_eq!(fs.stat("/b").unwrap().size, 6);
    assert_eq!(fs.stat("/a"), Err(FsError::NotFound));
    let fd = fs.open("/b", OpenFlags::READ).unwrap();
    let mut buf = [0u8; 6];
    fs.read(fd, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"source");
    fs.close(fd).unwrap();
}

#[test]
fn mmap_pins_blocks_eager() {
    let (_d, fs) = fresh();
    let fd = fs.open("/m", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 2 * BLOCK_SIZE]).unwrap();
    let map = fs.mmap(fd, 0, BLOCK_SIZE).unwrap();
    let mut buf = [0u8; 64];
    map.load(0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 64], "mapping sees flushed buffer content");
    // Writes after mmap bypass the buffer (pinned eager).
    let lazy_before = fs.stats().snapshot().lazy_writes;
    fs.write(fd, BLOCK_SIZE as u64, &[2u8; BLOCK_SIZE]).unwrap();
    let s = fs.stats().snapshot();
    assert_eq!(s.lazy_writes, lazy_before);
    assert!(s.eager_writes > 0);
    // The file-I/O write is immediately visible through the mapping's
    // sibling block? (Different block; check via read instead.)
    let mut big = vec![0u8; BLOCK_SIZE];
    fs.read(fd, BLOCK_SIZE as u64, &mut big).unwrap();
    assert!(big.iter().all(|&b| b == 2));
    fs.close(fd).unwrap();
}

#[test]
fn sync_flushes_all_files() {
    let (dev, fs) = fresh();
    let mut fds = Vec::new();
    for i in 0..5 {
        let fd = fs.open(&format!("/f{i}"), rw_create()).unwrap();
        fs.write(fd, 0, &[i as u8; 2 * BLOCK_SIZE]).unwrap();
        fds.push(fd);
    }
    assert!(fs.dirty_blocks() > 0);
    fs.sync().unwrap();
    assert_eq!(fs.dirty_blocks(), 0);
    assert_eq!(fs.pmfs().journal().open_txs(), 0);
    dev.crash();
    for fd in fds {
        let _ = fd;
    }
    drop(fs);
    let fs2 = Pmfs::mount(dev).unwrap();
    for i in 0..5 {
        assert_eq!(
            fs2.stat(&format!("/f{i}")).unwrap().size,
            2 * BLOCK_SIZE as u64
        );
    }
}

#[test]
fn read_write_mix_across_eviction_boundaries() {
    // Deterministic pseudo-random op mix compared against an in-memory
    // model, with a tiny pool to force constant eviction and re-fetch.
    let (_d, fs) = fresh_with(HinfsConfig::default().with_buffer_bytes(16 * BLOCK_SIZE));
    let fd = fs.open("/model", rw_create()).unwrap();
    let file_len = 40 * BLOCK_SIZE;
    let mut model = vec![0u8; file_len];
    fs.write(fd, 0, &model).unwrap();
    let mut seed = 0x12345678u64;
    let mut rnd = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for step in 0..400 {
        let off = (rnd() as usize) % (file_len - 600);
        let len = 1 + (rnd() as usize) % 600;
        if rnd() % 3 == 0 {
            let mut got = vec![0u8; len];
            assert_eq!(fs.read(fd, off as u64, &mut got).unwrap(), len);
            assert_eq!(got, model[off..off + len], "step {step} read mismatch");
        } else {
            let val = (rnd() % 256) as u8;
            let data = vec![val; len];
            fs.write(fd, off as u64, &data).unwrap();
            model[off..off + len].copy_from_slice(&data);
        }
        if step % 37 == 0 {
            fs.tick(fs.env().now());
        }
        if step % 97 == 0 {
            fs.fsync(fd).unwrap();
        }
    }
    fs.fsync(fd).unwrap();
    let mut all = vec![0u8; file_len];
    fs.read(fd, 0, &mut all).unwrap();
    assert_eq!(all, model);
    fs.close(fd).unwrap();
}

#[test]
fn append_interleaved_with_fsync_keeps_sizes() {
    let (_d, fs) = fresh();
    let fd = fs.open("/log", rw_create() | OpenFlags::APPEND).unwrap();
    let mut expect = 0u64;
    for i in 0..50 {
        let n = 100 + (i * 37) % 5000;
        let off = fs.append(fd, &vec![i as u8; n]).unwrap();
        assert_eq!(off, expect);
        expect += n as u64;
        if i % 7 == 0 {
            fs.fsync(fd).unwrap();
        }
    }
    assert_eq!(fs.fstat(fd).unwrap().size, expect);
    fs.close(fd).unwrap();
}

#[test]
fn journal_pressure_is_relieved_by_flushing() {
    // A tiny journal fills with open lazy transactions; writes must make
    // progress by flushing and committing instead of failing.
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 16384 * BLOCK_SIZE);
    let fs = Hinfs::mkfs(
        dev,
        PmfsOptions {
            journal_blocks: 3, // 2 entry blocks = 128 entries
            inode_count: 64,
        },
        small_cfg(),
    )
    .unwrap();
    let fd = fs.open("/f", rw_create()).unwrap();
    for i in 0..200u64 {
        fs.append(fd, &vec![i as u8; 700]).unwrap();
    }
    assert_eq!(fs.fstat(fd).unwrap().size, 200 * 700);
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
}

#[test]
fn unlinked_open_file_drops_buffers_at_close() {
    let (dev, fs) = fresh();
    let fd = fs.open("/tmp", rw_create()).unwrap();
    fs.write(fd, 0, &vec![4u8; 8 * BLOCK_SIZE]).unwrap();
    fs.unlink("/tmp").unwrap();
    // Still readable through the fd.
    let mut buf = [0u8; 64];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 64);
    assert_eq!(buf, [4u8; 64]);
    let before = dev.stats().snapshot();
    fs.close(fd).unwrap();
    let delta = dev.stats().snapshot().since(&before);
    assert!(
        delta.nvmm_bytes_written < 4096,
        "final close must not flush dead data ({} bytes)",
        delta.nvmm_bytes_written
    );
    assert_eq!(fs.pmfs().journal().open_txs(), 0);
}

#[test]
fn stat_reflects_buffered_size() {
    let (_d, fs) = fresh();
    let fd = fs.open("/s", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 5000]).unwrap();
    // Size is visible through stat before any flush.
    assert_eq!(fs.stat("/s").unwrap().size, 5000);
    assert_eq!(fs.fstat(fd).unwrap().size, 5000);
    fs.close(fd).unwrap();
}

#[test]
fn spin_mode_smoke() {
    // Real busy-wait mode with real background threads, scaled-down costs.
    let cost = CostModel {
        nvmm_write_latency_ns: 50,
        ..CostModel::default()
    };
    let env = SimEnv::new_spin(cost);
    let dev = NvmmDevice::new(env, 4096 * BLOCK_SIZE);
    let cfg = HinfsConfig {
        buffer_bytes: 32 * BLOCK_SIZE,
        periodic_wb_ns: 2_000_000, // 2 ms
        dirty_age_ns: 1_000_000,
        wb_threads: 1,
        ..HinfsConfig::default()
    };
    let fs = Hinfs::mkfs(dev, opts(), cfg).unwrap();
    let fd = fs.open("/spin", rw_create()).unwrap();
    let data = vec![3u8; BLOCK_SIZE];
    for i in 0..100u64 {
        fs.write(fd, i * BLOCK_SIZE as u64, &data).unwrap();
    }
    fs.fsync(fd).unwrap();
    let mut buf = vec![0u8; BLOCK_SIZE];
    for i in [0u64, 50, 99] {
        fs.read(fd, i * BLOCK_SIZE as u64, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
    }
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
}

/// A file with a dirty buffered block over a hole and **no** open
/// transaction: truncate-extend (committed at once), then a write inside
/// the new size. Flushing that block needs journal space of its own.
fn sparse_file_with_a_dirty_hole_block(fs: &Hinfs, path: &str, fill: u8) -> fskit::Fd {
    let fd = fs.open(path, rw_create()).unwrap();
    fs.truncate(fd, 8 * BLOCK_SIZE as u64).unwrap();
    fs.write(fd, 0, &vec![fill; BLOCK_SIZE]).unwrap();
    assert_eq!(fs.pmfs().journal().open_txs(), 0, "no size change, no tx");
    assert_eq!(fs.dirty_blocks(), 1);
    fd
}

fn first_block_after_remount(dev: Arc<NvmmDevice>, path: &str) -> Vec<u8> {
    let fs = Hinfs::mount(dev, small_cfg()).unwrap();
    let fd = fs.open(path, OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; BLOCK_SIZE];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), BLOCK_SIZE);
    buf
}

#[test]
fn a_flush_the_journal_refuses_maps_nothing_and_sync_reports_it() {
    let (dev, fs) = fresh();
    let fd = sparse_file_with_a_dirty_hole_block(&fs, "/sparse", 0xAB);
    let plan = nvmm::fault::FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_journal_unavailable(true);
    let free_before = fs.pmfs().free_blocks();
    // Neither may claim success while the block cannot be mapped, and a
    // refused flush has no side effects: nothing allocated, still dirty,
    // still served from DRAM.
    assert_eq!(fs.fsync(fd), Err(FsError::JournalFull));
    assert_eq!(fs.sync(), Err(FsError::JournalFull));
    assert_eq!(fs.unmount(), Err(FsError::JournalFull));
    assert_eq!(fs.pmfs().free_blocks(), free_before);
    assert_eq!(fs.dirty_blocks(), 1);
    let mut buf = vec![0u8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    assert_eq!(buf, vec![0xAB; BLOCK_SIZE]);
    // Once the journal admits again the same calls succeed and the data
    // is on NVMM.
    plan.set_journal_unavailable(false);
    fs.sync().unwrap();
    assert_eq!(fs.dirty_blocks(), 0);
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    assert_eq!(
        first_block_after_remount(dev, "/sparse"),
        vec![0xAB; BLOCK_SIZE]
    );
}

#[test]
fn sync_passes_a_file_the_full_ring_refuses_and_maps_it_once_the_ring_drained() {
    // One shard, so `sync` visits files in inode order: the sparse file
    // (older, lower ino) before the appender whose open transaction pins
    // the ring.
    let (dev, fs) = fresh_with(small_cfg().with_shards(1));
    let sparse = sparse_file_with_a_dirty_hole_block(&fs, "/sparse", 0xCD);
    let pinner = fs.open("/pinner", rw_create()).unwrap();
    fs.append(pinner, &vec![0xEE; BLOCK_SIZE]).unwrap();
    let j = fs.pmfs().journal();
    assert_eq!(j.open_txs(), 1, "the append's deferred commit");
    // Fill the ring to the last entry with a committed filler transaction
    // (committing resolves it but returns no space: the pinner's open
    // transaction keeps the generation alive).
    let scratch = pmfs::Layout::block_off(fs.pmfs().layout().data_start);
    let filler = j.begin().unwrap();
    while j.free_entries() > 0 {
        j.log_range(&filler, scratch, 40).unwrap();
    }
    j.commit(filler);
    assert_eq!(j.free_entries(), 0);
    let gen = j.generation();
    // On its own the sparse file cannot flush: no room for its inode-core
    // transaction, and no open transaction of its own to ride on.
    assert_eq!(fs.fsync(sparse), Err(FsError::JournalFull));
    assert_eq!(fs.dirty_blocks(), 2);
    // sync: the sparse file is refused and passed by; the pinner's block
    // rides on its own open transaction, whose commit empties the ring;
    // the retry then maps the sparse file's block.
    fs.sync().unwrap();
    assert_eq!(fs.dirty_blocks(), 0);
    assert_eq!(j.open_txs(), 0);
    assert!(j.generation() > gen, "the drained ring was retired");
    fs.close(sparse).unwrap();
    fs.close(pinner).unwrap();
    fs.unmount().unwrap();
    assert_eq!(
        first_block_after_remount(dev, "/sparse"),
        vec![0xCD; BLOCK_SIZE]
    );
}

#[test]
fn an_aged_block_the_journal_refuses_stays_dirty_and_the_tick_returns() {
    let (dev, fs) = fresh();
    let env = fs.env().clone();
    let fd = sparse_file_with_a_dirty_hole_block(&fs, "/sparse", 0x5A);
    let plan = nvmm::fault::FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_journal_unavailable(true);
    // Past the dirty age the periodic pass picks the block, takes the
    // inode lock for it and is refused. It must give the pass up — the
    // same oldest block would be picked again, at the same `now`.
    env.set_now(env.now() + fs.config().dirty_age_ns + fs.config().periodic_wb_ns + 1);
    fs.tick(env.now());
    assert_eq!(fs.dirty_blocks(), 1, "refused, not dropped");
    // The next due pass, with the journal admitting again, flushes it.
    plan.set_journal_unavailable(false);
    env.set_now(env.now() + fs.config().periodic_wb_ns + 1);
    fs.tick(env.now());
    assert_eq!(fs.dirty_blocks(), 0);
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    assert_eq!(
        first_block_after_remount(dev, "/sparse"),
        vec![0x5A; BLOCK_SIZE]
    );
}

// ----- the flush batch: one core update, one pointer run -----

/// Records the persistence boundaries `f` crosses.
fn schedule_of(dev: &NvmmDevice, f: impl FnOnce()) -> Vec<nvmm::BoundaryRec> {
    let plan = nvmm::FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.start_recording();
    f();
    let sched = plan.stop_recording();
    dev.fault_hook().clear();
    sched
}

fn inode_of(fs: &Hinfs, fd: fskit::Fd) -> (u64, pmfs::inode::InodeMem) {
    let of = fs.pmfs().open_file(fd).unwrap();
    let mem = *of.handle.state.read();
    (of.ino, mem)
}

fn within_block(off: u64, pblk: u64) -> bool {
    (pmfs::Layout::block_off(pblk)..pmfs::Layout::block_off(pblk + 1)).contains(&off)
}

#[test]
fn fsync_maps_a_fresh_batch_under_the_writes_own_transaction() {
    let (dev, fs) = fresh_with(small_cfg().with_buffer_bytes(512 * BLOCK_SIZE));
    let fd = fs.open("/f", rw_create()).unwrap();
    let j = fs.pmfs().journal();
    let begins = j.stats().snapshot().begins;
    fs.append(fd, &vec![7u8; 5 * BLOCK_SIZE]).unwrap();
    assert_eq!(j.stats().snapshot().begins, begins + 1);
    assert_eq!(j.open_txs(), 1, "the append's deferred commit");
    let sched = schedule_of(&dev, || fs.fsync(fd).unwrap());
    let after = j.stats().snapshot();
    assert_eq!(after.begins, begins + 1, "the flush rode the append's own");
    assert_eq!(j.open_txs(), 0);
    let (ino, mem) = inode_of(&fs, fd);
    assert_eq!((mem.blocks, mem.tree_height), (5, 1));
    let persists = |hit: &dyn Fn(&nvmm::BoundaryRec) -> bool| {
        sched
            .iter()
            .filter(|b| b.kind == nvmm::BoundaryKind::Persist && hit(b))
            .count()
    };
    let core = fs.pmfs().layout().inode_off(ino);
    assert_eq!(persists(&|b| b.off == core), 1, "one inode-core persist");
    // Inside the leaf: its zeroing (64 lines) and the pointer run.
    let pointer_lines = persists(&|b| within_block(b.off, mem.tree_root) && b.lines == 1);
    assert!((1..=2).contains(&pointer_lines), "{pointer_lines}");
    fs.close(fd).unwrap();
}

#[test]
fn a_batch_with_no_transaction_to_ride_opens_one_and_commits_it_after_the_data() {
    let (dev, fs) = fresh();
    let fd = fs.open("/sparse", rw_create()).unwrap();
    fs.truncate(fd, 8 * BLOCK_SIZE as u64).unwrap();
    fs.write(fd, 0, &vec![3u8; 3 * BLOCK_SIZE]).unwrap();
    let j = fs.pmfs().journal();
    assert_eq!(j.open_txs(), 0, "no size change, no tx");
    let before = j.stats().snapshot();
    let sched = schedule_of(&dev, || fs.fsync(fd).unwrap());
    let after = j.stats().snapshot();
    assert_eq!(after.begins, before.begins + 1, "one for the whole batch");
    assert_eq!(after.commits, before.commits + 1);
    assert_eq!(
        after.undo_entries,
        before.undo_entries + 2,
        "one core image"
    );
    // In schedule order: the last data persist, a fence, the commit entry.
    let (_, mem) = inode_of(&fs, fd);
    let data: Vec<u64> = (0..3)
        .map(|i| pmfs::tree::lookup(&dev, &mem, i).expect("mapped"))
        .collect();
    let l = fs.pmfs().layout();
    let journal = pmfs::Layout::block_off(l.journal_start)..pmfs::Layout::block_off(l.data_start);
    let last_data = sched
        .iter()
        .rposition(|b| data.iter().any(|&p| within_block(b.off, p)))
        .expect("data was written");
    let commit = sched
        .iter()
        .rposition(|b| b.kind == nvmm::BoundaryKind::Flush && journal.contains(&b.off))
        .expect("a commit entry was flushed");
    assert!(last_data < commit);
    assert!(
        sched[last_data..commit]
            .iter()
            .any(|b| b.kind == nvmm::BoundaryKind::Fence),
        "the data is fenced before the commit entry"
    );
    fs.close(fd).unwrap();
}

#[test]
fn a_refused_batch_keeps_its_hole_blocks_dirty_and_still_flushes_the_mapped_ones() {
    // (The WB variant: the checker would turn the synced block eager.)
    let (dev, fs) = fresh_with(small_cfg().wb_only());
    let fd = fs.open("/sparse", rw_create()).unwrap();
    fs.truncate(fd, 8 * BLOCK_SIZE as u64).unwrap();
    fs.write(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
    fs.fsync(fd).unwrap();
    // Block 0 dirty over its NVMM block, blocks 1 and 2 dirty over holes,
    // and no transaction open to ride on.
    fs.write(fd, 0, &vec![2u8; 3 * BLOCK_SIZE]).unwrap();
    assert_eq!(fs.pmfs().journal().open_txs(), 0);
    assert_eq!(fs.dirty_blocks(), 3);
    let plan = nvmm::FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_journal_unavailable(true);
    let free = fs.pmfs().free_blocks();
    assert_eq!(fs.fsync(fd), Err(FsError::JournalFull));
    assert_eq!(plan.faults_injected(), 1, "asked once for the batch");
    assert_eq!(fs.pmfs().free_blocks(), free, "nothing allocated");
    assert_eq!(fs.dirty_blocks(), 2);
    let (ino, mem) = inode_of(&fs, fd);
    {
        let sh = fs.shard(ino).lock();
        let dirty = |iblk| sh.pool().meta(sh.slot_of(ino, iblk).unwrap()).dirty != 0;
        assert!(!dirty(0) && dirty(1) && dirty(2));
    }
    let mut nvmm_copy = vec![0u8; BLOCK_SIZE];
    let p0 = pmfs::tree::lookup(&dev, &mem, 0).unwrap();
    dev.peek(pmfs::Layout::block_off(p0), &mut nvmm_copy);
    assert_eq!(
        nvmm_copy,
        vec![2u8; BLOCK_SIZE],
        "the mapped block was flushed"
    );
    plan.set_journal_unavailable(false);
    fs.fsync(fd).unwrap();
    assert_eq!(fs.dirty_blocks(), 0);
    fs.close(fd).unwrap();
}

#[test]
fn an_allocator_running_dry_mid_batch_maps_the_prefix_and_reports_it() {
    use obsv::Introspect;
    for k in 0..6u64 {
        let (dev, fs) = fresh_with(small_cfg().with_buffer_bytes(512 * BLOCK_SIZE));
        let fd = fs.open("/f", rw_create()).unwrap();
        // The leaf exists, so the batch allocates data blocks only.
        fs.append(fd, &vec![0x10; BLOCK_SIZE]).unwrap();
        fs.fsync(fd).unwrap();
        let data: Vec<u8> = (1..=6u8).flat_map(|b| vec![b; BLOCK_SIZE]).collect();
        fs.append(fd, &data).unwrap();
        let plan = nvmm::FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        plan.fail_alloc_after(k);
        assert_eq!(fs.fsync(fd), Err(FsError::NoSpace), "k={k}");
        assert_eq!(
            fs.dirty_blocks() as u64,
            6 - k,
            "k={k}: the rest stays dirty"
        );
        let (_, mem) = inode_of(&fs, fd);
        assert_eq!(mem.blocks, 1 + k);
        for iblk in 1..=6u64 {
            let on_nvmm = pmfs::tree::lookup(&dev, &mem, iblk).map(|p| {
                let mut b = vec![0u8; BLOCK_SIZE];
                dev.peek(pmfs::Layout::block_off(p), &mut b);
                b
            });
            let want = (iblk <= k).then(|| vec![iblk as u8; BLOCK_SIZE]);
            assert_eq!(on_nvmm, want, "k={k} block {iblk}");
        }
        assert!(fs.audit().is_clean(), "k={k}: {}", fs.audit().to_json());
        // With space again the rest follows, and all of it is durable.
        plan.set_fail_alloc(false);
        fs.fsync(fd).unwrap();
        assert_eq!(fs.dirty_blocks(), 0);
        assert!(fs.audit().is_clean());
        dev.fault_hook().clear();
        dev.crash();
        drop((fd, fs));
        let fs2 = Pmfs::mount(dev).unwrap();
        let fd = fs2.open("/f", OpenFlags::READ).unwrap();
        let mut buf = vec![0u8; 7 * BLOCK_SIZE];
        assert_eq!(fs2.read(fd, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(&buf[BLOCK_SIZE..], &data[..], "k={k}");
        fs2.close(fd).unwrap();
    }
}

mod budget_props {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Write(u8, u64, usize),
        Fsync(u8),
        Unlink(u8),
        Truncate(u8, u64),
        Tick,
    }

    fn op() -> impl Strategy<Value = Op> {
        let file = 0u8..6;
        prop_oneof![
            (file.clone(), 0u64..40, 1usize..24).prop_map(|(f, b, n)| Op::Write(f, b, n)),
            (file.clone(), 0u64..40, 1usize..24).prop_map(|(f, b, n)| Op::Write(f, b, n)),
            file.clone().prop_map(Op::Fsync),
            file.clone().prop_map(Op::Unlink),
            (file, 0u64..40).prop_map(|(f, b)| Op::Truncate(f, b)),
            Just(Op::Tick),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Whatever a script does, every block of the budget is either
        /// free or linked in exactly one shard.
        #[test]
        fn the_budget_is_conserved(ops in proptest::collection::vec(op(), 1..40)) {
            let (_d, fs) = fresh_with(small_cfg().with_audit());
            let path = |f: u8| format!("/f{f}");
            for op in ops {
                match op {
                    Op::Write(f, blk, n) => {
                        let fd = fs.open(&path(f), rw_create()).unwrap();
                        fs.write(fd, blk * BLOCK_SIZE as u64 + 100, &vec![f + 1; n * 1000]).unwrap();
                        fs.close(fd).unwrap();
                    }
                    Op::Fsync(f) => {
                        if let Ok(fd) = fs.open(&path(f), OpenFlags::RDWR) {
                            fs.fsync(fd).unwrap();
                            fs.close(fd).unwrap();
                        }
                    }
                    Op::Unlink(f) => {
                        let _ = fs.unlink(&path(f));
                    }
                    Op::Truncate(f, blk) => {
                        if let Ok(fd) = fs.open(&path(f), OpenFlags::RDWR) {
                            fs.truncate(fd, blk * BLOCK_SIZE as u64 + 7).unwrap();
                            fs.close(fd).unwrap();
                        }
                    }
                    Op::Tick => fs.tick(fs.env().now()),
                }
                let b = obsv::Introspect::snapshot(&*fs).buffer.unwrap();
                prop_assert_eq!(b.capacity_blocks, fs.config().buffer_blocks() as u64);
                prop_assert!(b.free_blocks <= b.capacity_blocks);
                let held: u64 = b.shard_occupied_blocks.iter().sum();
                prop_assert_eq!(held + b.free_blocks, b.capacity_blocks);
                prop_assert_eq!(held, b.occupied_blocks);
            }
            prop_assert!(obsv::Introspect::audit(&*fs).is_clean());
            prop_assert_eq!(fs.obs().audit_violations(), 0);
        }
    }
}
