use std::sync::Arc;

use fskit::{FileSystem, FsError, OpenFlags};
use nvmm::{Cat, CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};

use crate::fs::{ExtOptions, Extfs};
use crate::ExtMode;

fn small_opts() -> ExtOptions {
    ExtOptions {
        journal_blocks: 64,
        inode_count: 512,
        cache_pages: 256,
    }
}

fn fresh(mode: ExtMode) -> (Arc<NvmmDevice>, Arc<Extfs>) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 16384 * BLOCK_SIZE);
    let fs = Extfs::mkfs(dev.clone(), mode, small_opts()).unwrap();
    (dev, fs)
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

fn all_modes() -> [ExtMode; 3] {
    [ExtMode::Ext2, ExtMode::Ext4, ExtMode::Ext4Dax]
}

#[test]
fn write_read_roundtrip_all_modes() {
    for mode in all_modes() {
        let (_d, fs) = fresh(mode);
        let fd = fs.open("/f", rw_create()).unwrap();
        let data: Vec<u8> = (0..25_000u32).map(|i| (i % 249) as u8).collect();
        assert_eq!(fs.write(fd, 0, &data).unwrap(), data.len());
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data, "{mode:?}");
        fs.close(fd).unwrap();
    }
}

#[test]
fn namespace_operations_all_modes() {
    for mode in all_modes() {
        let (_d, fs) = fresh(mode);
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let fd = fs.open("/a/b/f", rw_create()).unwrap();
        fs.write(fd, 0, b"x").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/a/b/f").unwrap().size, 1);
        assert_eq!(fs.rmdir("/a"), Err(FsError::DirectoryNotEmpty));
        fs.rename("/a/b/f", "/a/g").unwrap();
        assert_eq!(fs.stat("/a/g").unwrap().size, 1);
        fs.rmdir("/a/b").unwrap();
        fs.unlink("/a/g").unwrap();
        fs.rmdir("/a").unwrap();
        assert!(fs.readdir("/").unwrap().is_empty());
    }
}

#[test]
fn data_goes_through_page_cache_in_block_modes() {
    let (dev, fs) = fresh(ExtMode::Ext4);
    let fd = fs.open("/f", rw_create()).unwrap();
    let before = dev.stats().snapshot();
    fs.write(fd, 0, &vec![5u8; 8 * BLOCK_SIZE]).unwrap();
    let mid = dev.stats().snapshot().since(&before);
    assert!(
        mid.nvmm_bytes_written == 0,
        "writes parked in the page cache ({} bytes hit the device)",
        mid.nvmm_bytes_written
    );
    fs.fsync(fd).unwrap();
    let after = dev.stats().snapshot().since(&before);
    assert!(after.nvmm_bytes_written >= 8 * BLOCK_SIZE as u64);
    fs.close(fd).unwrap();
}

#[test]
fn dax_writes_hit_nvmm_immediately() {
    let (dev, fs) = fresh(ExtMode::Ext4Dax);
    let fd = fs.open("/f", rw_create()).unwrap();
    let before = dev.stats().snapshot();
    fs.write(fd, 0, &vec![5u8; 2 * BLOCK_SIZE]).unwrap();
    let delta = dev.stats().snapshot().since(&before);
    assert!(delta.nvmm_bytes_written >= 2 * BLOCK_SIZE as u64);
    // Survives a crash even without fsync (journal holds only metadata,
    // which was not yet committed — so re-mount, replay, and the *data*
    // must be there while size metadata may lag; fsync first to be exact).
    fs.fsync(fd).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Extfs::mount(dev, ExtMode::Ext4Dax, small_opts()).unwrap();
    assert_eq!(fs2.stat("/f").unwrap().size, 2 * BLOCK_SIZE as u64);
    let fd = fs2.open("/f", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; BLOCK_SIZE];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 5));
    fs2.close(fd).unwrap();
}

#[test]
fn double_copy_read_costs_more_than_dax() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev_blk = NvmmDevice::new(env.clone(), 8192 * BLOCK_SIZE);
    let ext = Extfs::mkfs(dev_blk, ExtMode::Ext4, small_opts()).unwrap();
    let dev_dax = NvmmDevice::new(env.clone(), 8192 * BLOCK_SIZE);
    let dax = Extfs::mkfs(dev_dax, ExtMode::Ext4Dax, small_opts()).unwrap();

    let data = vec![1u8; 64 * BLOCK_SIZE];
    let fd_e = ext.open("/f", rw_create()).unwrap();
    ext.write(fd_e, 0, &data).unwrap();
    ext.sync().unwrap();
    let fd_d = dax.open("/f", rw_create()).unwrap();
    dax.write(fd_d, 0, &data).unwrap();

    // Cold-cache read on ext4: fetch + copy-out (+ block layer). To make it
    // cold, use a fresh mount.
    ext.unmount().unwrap();
    let dev_blk = ext.device().byte_device().clone();
    drop(ext);
    let ext = Extfs::mount(dev_blk, ExtMode::Ext4, small_opts()).unwrap();
    let fd_e = ext.open("/f", OpenFlags::READ).unwrap();

    let mut buf = vec![0u8; 64 * BLOCK_SIZE];
    env.rebase();
    ext.read(fd_e, 0, &mut buf).unwrap();
    let t_ext = env.now();
    env.rebase();
    dax.read(fd_d, 0, &mut buf).unwrap();
    let t_dax = env.now();
    assert!(
        t_ext > t_dax * 2,
        "double copy + block layer ({t_ext} ns) should dwarf DAX ({t_dax} ns)"
    );
}

#[test]
fn ext4_fsync_metadata_survives_crash() {
    let (dev, fs) = fresh(ExtMode::Ext4);
    let fd = fs.open("/dir-survives", rw_create()).unwrap();
    fs.write(fd, 0, &[7u8; 5000]).unwrap();
    fs.fsync(fd).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Extfs::mount(dev, ExtMode::Ext4, small_opts()).unwrap();
    let st = fs2.stat("/dir-survives").unwrap();
    assert_eq!(st.size, 5000);
    let fd = fs2.open("/dir-survives", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; 5000];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 7),
        "ordered mode: data before commit"
    );
    fs2.close(fd).unwrap();
}

#[test]
fn ext4_unsynced_create_lost_cleanly_on_crash() {
    let (dev, fs) = fresh(ExtMode::Ext4);
    // Establish a synced baseline file.
    let fd = fs.open("/base", rw_create()).unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    // Unsynced create: may vanish, but the fs must stay consistent.
    let fd = fs.open("/ghost", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 100]).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Extfs::mount(dev, ExtMode::Ext4, small_opts()).unwrap();
    assert!(fs2.stat("/base").is_ok());
    assert_eq!(fs2.stat("/ghost"), Err(FsError::NotFound));
    // And the namespace still works.
    let fd = fs2.open("/new", rw_create()).unwrap();
    fs2.close(fd).unwrap();
}

#[test]
fn remount_after_clean_unmount_all_modes() {
    for mode in all_modes() {
        let (dev, fs) = fresh(mode);
        let fd = fs.open("/keep", rw_create()).unwrap();
        fs.write(fd, 0, b"persistent data").unwrap();
        fs.close(fd).unwrap();
        let free = fs.free_blocks();
        fs.unmount().unwrap();
        drop(fs);
        let fs2 = Extfs::mount(dev, mode, small_opts()).unwrap();
        assert_eq!(fs2.free_blocks(), free, "{mode:?} bitmap persisted");
        let fd = fs2.open("/keep", OpenFlags::READ).unwrap();
        let mut buf = [0u8; 15];
        fs2.read(fd, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"persistent data");
        fs2.close(fd).unwrap();
    }
}

#[test]
fn unlink_frees_blocks_and_inode() {
    let (_d, fs) = fresh(ExtMode::Ext4);
    // Force the root directory block allocation first; it stays allocated.
    let fd = fs.open("/sibling", rw_create()).unwrap();
    fs.close(fd).unwrap();
    let free0 = fs.free_blocks();
    let fd = fs.open("/big", rw_create()).unwrap();
    fs.write(fd, 0, &vec![1u8; 100 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
    assert!(fs.free_blocks() < free0);
    fs.unlink("/big").unwrap();
    assert_eq!(fs.free_blocks(), free0, "data and indirect blocks freed");
    assert_eq!(fs.stat("/big"), Err(FsError::NotFound));
}

#[test]
fn large_file_uses_indirect_blocks() {
    let (_d, fs) = fresh(ExtMode::Ext4);
    let fd = fs.open("/large", rw_create()).unwrap();
    // 600 blocks: direct + single-indirect + into double-indirect.
    let chunk = vec![0xcdu8; 50 * BLOCK_SIZE];
    for i in 0..12u64 {
        fs.write(fd, i * chunk.len() as u64, &chunk).unwrap();
    }
    let st = fs.fstat(fd).unwrap();
    assert_eq!(st.size, 600 * BLOCK_SIZE as u64);
    assert_eq!(st.blocks, 600);
    let mut buf = vec![0u8; 100];
    fs.read(fd, 599 * BLOCK_SIZE as u64, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0xcd));
    fs.close(fd).unwrap();
}

#[test]
fn sparse_files_read_zero() {
    for mode in all_modes() {
        let (_d, fs) = fresh(mode);
        let fd = fs.open("/sparse", rw_create()).unwrap();
        fs.write(fd, 20 * BLOCK_SIZE as u64, b"end").unwrap();
        let st = fs.fstat(fd).unwrap();
        assert_eq!(st.blocks, 1, "{mode:?}");
        let mut buf = vec![0xffu8; BLOCK_SIZE];
        fs.read(fd, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "{mode:?} hole reads zero");
        fs.close(fd).unwrap();
    }
}

#[test]
fn fresh_partial_block_zero_padded() {
    for mode in all_modes() {
        let (_d, fs) = fresh(mode);
        let fd = fs.open("/p", rw_create()).unwrap();
        fs.write(fd, 100, b"mid").unwrap();
        let mut head = [0xffu8; 100];
        fs.read(fd, 0, &mut head).unwrap();
        assert!(head.iter().all(|&b| b == 0), "{mode:?}");
        fs.close(fd).unwrap();
    }
}

#[test]
fn truncate_shrink_and_regrow() {
    for mode in all_modes() {
        let (_d, fs) = fresh(mode);
        let fd = fs.open("/t", rw_create()).unwrap();
        fs.write(fd, 0, &[9u8; 3 * BLOCK_SIZE]).unwrap();
        fs.truncate(fd, BLOCK_SIZE as u64 + 50).unwrap();
        assert_eq!(fs.fstat(fd).unwrap().size, BLOCK_SIZE as u64 + 50);
        fs.truncate(fd, 3 * BLOCK_SIZE as u64).unwrap();
        let mut buf = vec![0xffu8; BLOCK_SIZE];
        fs.read(fd, BLOCK_SIZE as u64, &mut buf).unwrap();
        assert!(buf[..50].iter().all(|&b| b == 9), "{mode:?}");
        assert!(
            buf[50..].iter().all(|&b| b == 0),
            "{mode:?} stale tail zeroed"
        );
        fs.close(fd).unwrap();
    }
}

#[test]
fn cache_thrashing_preserves_data() {
    // Cache of 256 pages, working set of 600 blocks: constant eviction.
    let (_d, fs) = fresh(ExtMode::Ext2);
    let fd = fs.open("/thrash", rw_create()).unwrap();
    for i in 0..600u64 {
        let val = (i % 251) as u8;
        fs.write(fd, i * BLOCK_SIZE as u64, &vec![val; BLOCK_SIZE])
            .unwrap();
    }
    let (_, misses0) = fs.cache().hit_miss();
    let mut buf = vec![0u8; BLOCK_SIZE];
    for i in (0..600u64).step_by(37) {
        fs.read(fd, i * BLOCK_SIZE as u64, &mut buf).unwrap();
        let val = (i % 251) as u8;
        assert!(buf.iter().all(|&b| b == val), "block {i}");
    }
    let (_, misses1) = fs.cache().hit_miss();
    assert!(misses1 > misses0, "reads missed and refetched");
    fs.close(fd).unwrap();
}

#[test]
fn o_sync_forces_durability() {
    let (dev, fs) = fresh(ExtMode::Ext4);
    let fd = fs.open("/s", rw_create() | OpenFlags::SYNC).unwrap();
    fs.write(fd, 0, &[3u8; 1000]).unwrap();
    dev.crash();
    drop((fd, fs));
    let fs2 = Extfs::mount(dev, ExtMode::Ext4, small_opts()).unwrap();
    assert_eq!(fs2.stat("/s").unwrap().size, 1000);
}

#[test]
fn periodic_tick_commits_and_flushes() {
    let (_d, fs) = fresh(ExtMode::Ext4);
    let env = fs.env().clone();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    assert!(fs.cache().dirty_pages() > 0);
    // Past the periodic commit and the dirty age: everything flushes.
    env.set_now(env.now() + 31_000_000_000);
    fs.tick(env.now());
    env.set_now(env.now() + 31_000_000_000);
    fs.tick(env.now());
    assert_eq!(fs.cache().dirty_pages(), 0);
    fs.close(fd).unwrap();
}

#[test]
fn read_only_fd_rejects_writes() {
    let (_d, fs) = fresh(ExtMode::Ext2);
    let fd = fs.open("/r", rw_create()).unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("/r", OpenFlags::READ).unwrap();
    assert_eq!(fs.write(fd, 0, b"x"), Err(FsError::BadFd));
    assert_eq!(fs.truncate(fd, 0), Err(FsError::BadFd));
    fs.close(fd).unwrap();
}

#[test]
fn metadata_ops_charge_block_layer_on_miss() {
    let (_d, fs) = fresh(ExtMode::Ext2);
    nvmm::ledger::reset();
    let fd = fs.open("/m", rw_create()).unwrap();
    fs.close(fd).unwrap();
    let snap = nvmm::ledger::snapshot();
    assert!(
        snap.get(Cat::BlockLayer) > 0,
        "metadata misses go through the block layer"
    );
}

/// The name index serves repeat lookups: in a directory of several
/// blocks, the second `stat` of a name reads no directory block — the
/// page cache sees no access at all — and counts as an index hit.
#[test]
fn a_second_stat_reads_no_directory_block() {
    let (_d, fs) = fresh(ExtMode::Ext4Dax);
    fs.mkdir("/d").unwrap();
    let long = |i: u32| format!("{i:0>200}");
    for i in 0..60 {
        let fd = fs.open(&format!("/d/{}", long(i)), rw_create()).unwrap();
        fs.close(fd).unwrap();
    }
    assert!(fs.stat("/d").unwrap().size >= 3 * BLOCK_SIZE as u64);
    fs.unmount().unwrap();
    let dev = fs.device().byte_device().clone();
    drop(fs);
    let fs = Extfs::mount(dev, ExtMode::Ext4Dax, small_opts()).unwrap();
    let name = format!("/d/{}", long(59));
    let hits = || fs.namei().hits.load(std::sync::atomic::Ordering::Relaxed);
    fs.stat(&name).unwrap();
    assert_eq!(
        fs.namei().builds.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    let (h0, before) = (hits(), fs.cache().hit_miss());
    let t0 = fs.env().now();
    fs.stat(&name).unwrap();
    assert_eq!(fs.cache().hit_miss(), before, "no page-cache access");
    assert_eq!(hits(), h0 + 2, "`d` in the root, the name in `d`");
    let cost = fs.env().cost();
    let entries = cost.dram_copy_ns(fskit::dirent::entry_len(1))
        + cost.dram_copy_ns(fskit::dirent::entry_len(200));
    assert_eq!(fs.env().now() - t0, cost.syscall_ns + entries);
    assert!(obsv::Introspect::audit(&*fs).is_clean());
}

/// A rename whose add finds no room in a directory that cannot grow
/// (the device is full) used to return ENOSPC with the source entry
/// already removed: the file was lost. It now puts the source back, on
/// both the cross-directory and the same-directory branch, and the
/// remount agrees.
#[test]
fn a_rename_refused_for_space_keeps_its_source() {
    let long = "x".repeat(60);
    for (from, to) in [("/f", format!("/d/{long}")), ("/d/f", format!("/d/{long}"))] {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 512 * BLOCK_SIZE);
        let fs = Extfs::mkfs(dev.clone(), ExtMode::Ext4, small_opts()).unwrap();
        fs.mkdir("/d").unwrap();
        let fd = fs.open("/d/entry-0000", rw_create()).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(from, rw_create()).unwrap();
        fs.write(fd, 0, b"payload").unwrap();
        fs.close(fd).unwrap();
        // Fill the device, then `/d`'s one block.
        let fd = fs.open("/fill", rw_create()).unwrap();
        let mut off = 0;
        while fs.write(fd, off, &[7u8; BLOCK_SIZE]).is_ok() {
            off += BLOCK_SIZE as u64;
        }
        fs.close(fd).unwrap();
        for i in 1.. {
            match fs.open(&format!("/d/entry-{i:04}"), rw_create()) {
                Ok(fd) => fs.close(fd).unwrap(),
                Err(e) => {
                    assert_eq!(e, FsError::NoSpace);
                    break;
                }
            }
        }
        assert_eq!(fs.stat("/d").unwrap().size, BLOCK_SIZE as u64);
        assert_eq!(fs.rename(from, &to), Err(FsError::NoSpace), "{from}");
        assert_eq!(fs.stat(&to), Err(FsError::NotFound));
        let read = |fs: &Extfs| {
            let fd = fs.open(from, OpenFlags::READ).unwrap();
            let mut buf = [0u8; 7];
            assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 7, "{from}");
            fs.close(fd).unwrap();
            buf
        };
        assert_eq!(&read(&fs), b"payload");
        assert!(obsv::Introspect::audit(&*fs).is_clean());
        fs.unmount().unwrap();
        drop(fs);
        let fs = Extfs::mount(dev, ExtMode::Ext4, small_opts()).unwrap();
        assert_eq!(&read(&fs), b"payload", "{from} after the remount");
    }
}
