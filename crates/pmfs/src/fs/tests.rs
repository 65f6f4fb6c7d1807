use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use fskit::vfs::Namespace;
use fskit::{FileSystem, FileType, FsError, OpenFlags};
use nvmm::{Cat, CostModel, FaultPlan, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::Introspect;

use crate::fs::{Pmfs, PmfsOptions, VolatileLayer};
use crate::inode::{InodeHandle, InodeMem, LIVENESS};
use crate::{dir, file};

fn small_opts() -> PmfsOptions {
    PmfsOptions {
        journal_blocks: 64,
        inode_count: 512,
    }
}

fn fresh() -> (Arc<NvmmDevice>, Arc<Pmfs>) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 16384 * BLOCK_SIZE);
    let fs = Pmfs::mkfs(dev.clone(), small_opts()).unwrap();
    (dev, fs)
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

#[test]
fn create_write_read_roundtrip() {
    let (_d, fs) = fresh();
    let fd = fs.open("/hello.txt", rw_create()).unwrap();
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
    assert_eq!(fs.write(fd, 0, &data).unwrap(), data.len());
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    fs.close(fd).unwrap();
    // Re-open and read again.
    let fd = fs.open("/hello.txt", OpenFlags::READ).unwrap();
    let mut buf2 = vec![0u8; data.len()];
    fs.read(fd, 0, &mut buf2).unwrap();
    assert_eq!(buf2, data);
    fs.close(fd).unwrap();
}

#[test]
fn open_flags_semantics() {
    let (_d, fs) = fresh();
    assert_eq!(fs.open("/nope", OpenFlags::READ), Err(FsError::NotFound));
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, b"0123456789").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(
        fs.open("/f", rw_create() | OpenFlags::EXCL),
        Err(FsError::AlreadyExists)
    );
    // O_TRUNC clears content.
    let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::TRUNC).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 0);
    fs.close(fd).unwrap();
    // Read-only descriptor cannot write.
    let fd = fs.open("/f", OpenFlags::READ).unwrap();
    assert_eq!(fs.write(fd, 0, b"x"), Err(FsError::BadFd));
    fs.close(fd).unwrap();
}

/// A [`VolatileLayer`] that records each call, and for each `discard`
/// whether the inode's lock was write-held and how many transactions
/// were open.
#[derive(Default)]
struct Recorder {
    fs: OnceLock<Weak<Pmfs>>,
    discards: Mutex<Vec<Discard>>,
    rooms: AtomicUsize,
}

#[derive(Debug, PartialEq)]
struct Discard {
    ino: u64,
    size: u64,
    locked: bool,
    open_txs: usize,
}

impl VolatileLayer for Recorder {
    fn discard(&self, h: &InodeHandle, _state: &mut InodeMem, size: u64) -> fskit::Result<()> {
        let fs = self.fs.get().and_then(Weak::upgrade).unwrap();
        self.discards.lock().unwrap().push(Discard {
            ino: h.ino,
            size,
            locked: h.state.try_read().is_none(),
            open_txs: fs.journal().open_txs(),
        });
        Ok(())
    }

    fn make_room(&self) {
        self.rooms.fetch_add(1, Relaxed);
    }
}

impl Recorder {
    /// Asserts the calls since the last check: `rooms` `make_room`s, and
    /// a `discard` of each `(ino, size)` in order, each under the inode's
    /// write lock inside exactly one transaction.
    fn saw(&self, what: &str, rooms: usize, discards: &[(u64, u64)]) {
        let want: Vec<Discard> = discards
            .iter()
            .map(|&(ino, size)| Discard {
                ino,
                size,
                locked: true,
                open_txs: 1,
            })
            .collect();
        let got = std::mem::take(&mut *self.discards.lock().unwrap());
        assert_eq!(got, want, "{what}");
        assert_eq!(self.rooms.swap(0, Relaxed), rooms, "{what}: make_room");
    }
}

/// The contract with the layer above, on a plain mount with a recording
/// layer: `discard` runs exactly where an inode is freed or cut — last
/// close of an unlinked file, unlink, rename over a closed file, `O_TRUNC`
/// open, `ftruncate` — and nowhere else; `make_room` once per namespace
/// op and per truncate.
#[test]
fn the_layer_discards_exactly_where_an_inode_is_freed_or_cut() {
    let (_d, fs) = fresh();
    let rec = Arc::new(Recorder::default());
    rec.fs.set(Arc::downgrade(&fs)).unwrap();
    let layer: Weak<Recorder> = Arc::downgrade(&rec);
    fs.attach_layer(layer);
    let ino = |path: &str| fs.stat(path).unwrap().ino;
    let create = |path: &str| {
        let fd = fs.open(path, rw_create()).unwrap();
        fs.write(fd, 0, &[7u8; 3 * BLOCK_SIZE]).unwrap();
        fd
    };

    let fd = create("/a");
    fs.close(fd).unwrap();
    rec.saw("create and close", 2, &[]);
    let a = ino("/a");
    let fd = fs.open("/a", OpenFlags::RDWR | OpenFlags::TRUNC).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 0);
    rec.saw("O_TRUNC open", 1, &[(a, 0)]);
    fs.truncate(fd, 100).unwrap();
    rec.saw("ftruncate", 1, &[(a, 100)]);
    fs.close(fd).unwrap();
    rec.saw("close", 1, &[]);
    for flags in [OpenFlags::RDWR, OpenFlags::READ | OpenFlags::TRUNC] {
        let fd = fs.open("/a", flags).unwrap();
        fs.close(fd).unwrap();
        rec.saw("open without a cut", 2, &[]);
    }
    fs.unlink("/a").unwrap();
    rec.saw("unlink", 1, &[(a, 0)]);

    let fd = create("/b");
    let b = ino("/b");
    fs.unlink("/b").unwrap();
    rec.saw("unlink of an open file", 2, &[]);
    fs.close(fd).unwrap();
    rec.saw("its last close", 1, &[(b, 0)]);

    let (c, d) = (create("/c"), create("/d"));
    fs.close(c).unwrap();
    fs.close(d).unwrap();
    let d = ino("/d");
    rec.saw("set-up", 4, &[]);
    fs.rename("/c", "/d").unwrap();
    rec.saw("rename over a closed file", 1, &[(d, 0)]);

    let e = create("/e");
    let f = create("/f");
    fs.close(f).unwrap();
    let e_ino = ino("/e");
    rec.saw("set-up", 3, &[]);
    fs.rename("/f", "/e").unwrap();
    rec.saw("rename over an open file", 1, &[]);
    fs.close(e).unwrap();
    rec.saw("its last close", 1, &[(e_ino, 0)]);

    fs.mkdir("/g").unwrap();
    fs.rmdir("/g").unwrap();
    rec.saw("mkdir and rmdir", 2, &[]);
    assert!(fs.audit().is_clean(), "{}", fs.audit().to_json());
}

#[test]
fn append_mode_appends() {
    let (_d, fs) = fresh();
    let fd = fs.open("/log", rw_create() | OpenFlags::APPEND).unwrap();
    assert_eq!(fs.append(fd, b"one").unwrap(), 0);
    assert_eq!(fs.append(fd, b"two").unwrap(), 3);
    // write() on an APPEND descriptor appends regardless of offset.
    fs.write(fd, 0, b"three").unwrap();
    let mut buf = [0u8; 11];
    fs.read(fd, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"onetwothree");
    fs.close(fd).unwrap();
}

#[test]
fn directories_nest() {
    let (_d, fs) = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mkdir("/a/b/c").unwrap();
    let fd = fs.open("/a/b/c/file", rw_create()).unwrap();
    fs.write(fd, 0, b"deep").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.stat("/a/b/c/file").unwrap().size, 4);
    assert_eq!(fs.mkdir("/a"), Err(FsError::AlreadyExists));
    assert_eq!(fs.mkdir("/x/y"), Err(FsError::NotFound));
    let names: Vec<String> = fs
        .readdir("/a/b")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["c"]);
}

#[test]
fn unlink_and_rmdir() {
    let (_d, fs) = fresh();
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 10_000]).unwrap();
    fs.close(fd).unwrap();
    let free_before = fs.free_blocks();
    assert_eq!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty));
    fs.unlink("/d/f").unwrap();
    assert!(fs.free_blocks() > free_before, "blocks freed on unlink");
    assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
    fs.rmdir("/d").unwrap();
    assert_eq!(fs.stat("/d"), Err(FsError::NotFound));
    assert_eq!(fs.unlink("/d/f"), Err(FsError::NotFound));
}

#[test]
fn unlinked_open_file_survives_until_close() {
    let (_d, fs) = fresh();
    let fd = fs.open("/tmpfile", rw_create()).unwrap();
    fs.write(fd, 0, b"still here").unwrap();
    fs.unlink("/tmpfile").unwrap();
    assert_eq!(fs.stat("/tmpfile"), Err(FsError::NotFound));
    let mut buf = [0u8; 10];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 10);
    assert_eq!(&buf, b"still here");
    let free_before = fs.free_blocks();
    fs.close(fd).unwrap();
    assert!(fs.free_blocks() > free_before, "freed at last close");
}

#[test]
fn rename_moves_and_replaces() {
    let (_d, fs) = fresh();
    fs.mkdir("/src").unwrap();
    fs.mkdir("/dst").unwrap();
    let fd = fs.open("/src/a", rw_create()).unwrap();
    fs.write(fd, 0, b"payload").unwrap();
    fs.close(fd).unwrap();
    fs.rename("/src/a", "/dst/b").unwrap();
    assert_eq!(fs.stat("/src/a"), Err(FsError::NotFound));
    assert_eq!(fs.stat("/dst/b").unwrap().size, 7);
    // Replace an existing destination.
    let fd = fs.open("/dst/victim", rw_create()).unwrap();
    fs.write(fd, 0, b"old").unwrap();
    fs.close(fd).unwrap();
    fs.rename("/dst/b", "/dst/victim").unwrap();
    assert_eq!(fs.stat("/dst/victim").unwrap().size, 7);
    assert_eq!(fs.stat("/dst/b"), Err(FsError::NotFound));
    // Same-directory rename.
    fs.rename("/dst/victim", "/dst/final").unwrap();
    assert_eq!(fs.stat("/dst/final").unwrap().size, 7);
}

#[test]
fn stat_reports_metadata() {
    let (_d, fs) = fresh();
    let fd = fs.open("/s", rw_create()).unwrap();
    fs.write(fd, 0, &[0u8; 5000]).unwrap();
    fs.close(fd).unwrap();
    let st = fs.stat("/s").unwrap();
    assert_eq!(st.ftype, FileType::File);
    assert_eq!(st.size, 5000);
    assert_eq!(st.blocks, 2);
    assert_eq!(st.nlink, 1);
    let root = fs.stat("/").unwrap();
    assert_eq!(root.ftype, FileType::Dir);
}

#[test]
fn truncate_via_fd() {
    let (_d, fs) = fresh();
    let fd = fs.open("/t", rw_create()).unwrap();
    fs.write(fd, 0, &[7u8; 10_000]).unwrap();
    fs.truncate(fd, 100).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 100);
    fs.truncate(fd, 8000).unwrap();
    let mut buf = vec![0xffu8; 8000];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf[..100].iter().all(|&b| b == 7));
    assert!(buf[100..].iter().all(|&b| b == 0));
    fs.close(fd).unwrap();
}

#[test]
fn remount_after_clean_unmount() {
    let (dev, fs) = fresh();
    let fd = fs.open("/persisted", rw_create()).unwrap();
    fs.write(fd, 0, b"across remount").unwrap();
    fs.close(fd).unwrap();
    let free = fs.free_blocks();
    fs.unmount().unwrap();
    drop(fs);
    let fs2 = Pmfs::mount(dev).unwrap();
    assert_eq!(fs2.free_blocks(), free, "clean mount loads allocator image");
    let fd = fs2.open("/persisted", OpenFlags::READ).unwrap();
    let mut buf = [0u8; 14];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"across remount");
    fs2.close(fd).unwrap();
}

#[test]
fn crash_recovery_preserves_committed_state() {
    let (dev, fs) = fresh();
    fs.mkdir("/dir").unwrap();
    let fd = fs.open("/dir/f", rw_create()).unwrap();
    fs.write(fd, 0, &[9u8; 12_000]).unwrap();
    fs.close(fd).unwrap();
    let free = fs.free_blocks();
    // Crash without unmount.
    dev.crash();
    drop(fs);
    let fs2 = Pmfs::mount(dev).unwrap();
    let st = fs2.stat("/dir/f").unwrap();
    assert_eq!(st.size, 12_000);
    let fd = fs2.open("/dir/f", OpenFlags::READ).unwrap();
    let mut buf = vec![0u8; 12_000];
    fs2.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 9));
    fs2.close(fd).unwrap();
    assert_eq!(
        fs2.free_blocks(),
        free,
        "allocator rebuild matches pre-crash state"
    );
}

#[test]
fn allocator_rebuild_reclaims_leaks() {
    // Simulate a crash that leaves an allocated-but-unreachable block by
    // crashing right after mkfs and allocating behind the scenes.
    let (dev, fs) = fresh();
    let total_free = fs.free_blocks();
    // Leak: allocate a block in DRAM only (no tree linkage), then crash.
    let _leaked = fs.allocator().alloc().unwrap();
    dev.crash();
    drop(fs);
    let fs2 = Pmfs::mount(dev).unwrap();
    assert_eq!(fs2.free_blocks(), total_free, "leak reclaimed by rebuild");
}

#[test]
fn fsync_is_cheap_for_direct_writes() {
    let (_d, fs) = fresh();
    let env = fs.env().clone();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 4096]).unwrap();
    env.set_now(1_000_000);
    let t0 = env.now();
    fs.fsync(fd).unwrap();
    let dt = env.now() - t0;
    // fsync costs only the syscall + a fence: data is already durable.
    assert!(dt < 2 * env.cost().syscall_ns, "fsync took {dt} ns");
    fs.close(fd).unwrap();
}

#[test]
fn write_charges_nvmm_latency_read_does_not() {
    let (_d, fs) = fresh();
    let env = fs.env().clone();
    let fd = fs.open("/f", rw_create()).unwrap();
    env.set_now(0);
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    let write_time = env.now();
    // 64 lines of data at 200 ns plus overheads.
    assert!(write_time >= env.cost().nvmm_persist_ns(64));
    env.set_now(0);
    let mut buf = [0u8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    let read_time = env.now();
    assert!(
        read_time < write_time / 4,
        "read {read_time} ns vs write {write_time} ns: direct reads are DRAM-speed"
    );
    fs.close(fd).unwrap();
}

#[test]
fn many_files_in_one_directory() {
    let (_d, fs) = fresh();
    for i in 0..200 {
        let fd = fs.open(&format!("/file-{i:04}"), rw_create()).unwrap();
        fs.write(fd, 0, format!("content {i}").as_bytes()).unwrap();
        fs.close(fd).unwrap();
    }
    assert_eq!(fs.readdir("/").unwrap().len(), 200);
    for i in (0..200).step_by(7) {
        let st = fs.stat(&format!("/file-{i:04}")).unwrap();
        assert_eq!(st.size, format!("content {i}").len() as u64);
    }
    for i in 0..200 {
        fs.unlink(&format!("/file-{i:04}")).unwrap();
    }
    assert!(fs.readdir("/").unwrap().is_empty());
}

#[test]
fn inode_exhaustion() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 16384 * BLOCK_SIZE);
    let fs = Pmfs::mkfs(
        dev,
        PmfsOptions {
            journal_blocks: 64,
            inode_count: 16,
        },
    )
    .unwrap();
    let mut made = 0;
    loop {
        match fs.open(&format!("/f{made}"), rw_create()) {
            Ok(fd) => {
                fs.close(fd).unwrap();
                made += 1;
            }
            Err(FsError::NoInodes) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(made, 14, "16 slots minus reserved ino 0 and root");
    fs.unlink("/f0").unwrap();
    let fd = fs.open("/again", rw_create()).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn device_fills_up() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 512 * BLOCK_SIZE);
    let fs = Pmfs::mkfs(
        dev,
        PmfsOptions {
            journal_blocks: 16,
            inode_count: 64,
        },
    )
    .unwrap();
    let fd = fs.open("/big", rw_create()).unwrap();
    let chunk = vec![1u8; 64 * BLOCK_SIZE];
    let mut written = 0u64;
    let err = loop {
        match fs.write(fd, written, &chunk) {
            Ok(n) => written += n as u64,
            Err(e) => break e,
        }
    };
    assert_eq!(err, FsError::NoSpace);
    fs.close(fd).unwrap();
}

#[test]
fn mmap_load_store_msync() {
    let (dev, fs) = fresh();
    let fd = fs.open("/mapped", rw_create()).unwrap();
    fs.write(fd, 0, &[0xaau8; 2 * BLOCK_SIZE]).unwrap();
    let map = fs.mmap(fd, 0, 2 * BLOCK_SIZE).unwrap();
    let mut buf = [0u8; 16];
    map.load(100, &mut buf).unwrap();
    assert_eq!(buf, [0xaa; 16]);
    map.store(100, &[0x55; 16]).unwrap();
    map.load(100, &mut buf).unwrap();
    assert_eq!(buf, [0x55; 16], "store visible before msync");
    // Without msync the store is volatile.
    let pending_before = dev.pending_lines();
    assert!(pending_before > 0, "store left pending lines");
    map.msync(0, 2 * BLOCK_SIZE).unwrap();
    assert_eq!(dev.pending_lines(), 0, "msync flushed everything");
    fs.close(fd).unwrap();
}

#[test]
fn mmap_store_lost_without_msync() {
    let (dev, fs) = fresh();
    let fd = fs.open("/mapped", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
    let map = fs.mmap(fd, 0, BLOCK_SIZE).unwrap();
    map.store(0, &[2u8; 64]).unwrap();
    map.store(512, &[3u8; 64]).unwrap();
    map.msync(512, 64).unwrap(); // only the second store
    dev.crash();
    let mut buf = [0u8; 64];
    fs.read(fd, 0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 64], "unsynced store lost on crash");
    fs.read(fd, 512, &mut buf).unwrap();
    assert_eq!(buf, [3u8; 64], "synced store survives");
    fs.close(fd).unwrap();
}

#[test]
fn mmap_rejects_out_of_file_range() {
    let (_d, fs) = fresh();
    let fd = fs.open("/m", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 100]).unwrap();
    assert!(fs.mmap(fd, 0, 200).is_err());
    let map = fs.mmap(fd, 0, 100).unwrap();
    let mut b = [0u8; 50];
    assert!(map.load(80, &mut b).is_err());
    fs.close(fd).unwrap();
}

#[test]
fn bad_fd_errors() {
    let (_d, fs) = fresh();
    let mut buf = [0u8; 4];
    assert_eq!(fs.read(99, 0, &mut buf), Err(FsError::BadFd));
    assert_eq!(fs.write(99, 0, &buf), Err(FsError::BadFd));
    assert_eq!(fs.fsync(99), Err(FsError::BadFd));
    assert_eq!(fs.close(99), Err(FsError::BadFd));
}

#[test]
fn open_directory_rejected() {
    let (_d, fs) = fresh();
    fs.mkdir("/dir").unwrap();
    assert_eq!(fs.open("/dir", OpenFlags::READ), Err(FsError::IsADirectory));
    assert_eq!(fs.unlink("/dir"), Err(FsError::IsADirectory));
    assert_eq!(
        fs.rmdir("/"),
        Err(FsError::InvalidArgument("root has no name"))
    );
}

#[test]
fn sparse_files_read_zero() {
    let (_d, fs) = fresh();
    let fd = fs.open("/sparse", rw_create()).unwrap();
    fs.write(fd, 10 * BLOCK_SIZE as u64, b"end").unwrap();
    let st = fs.fstat(fd).unwrap();
    assert_eq!(st.size, 10 * BLOCK_SIZE as u64 + 3);
    assert_eq!(st.blocks, 1);
    let mut buf = vec![0xffu8; BLOCK_SIZE];
    fs.read(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0));
    fs.close(fd).unwrap();
}

#[test]
fn journal_time_shows_up_in_ledger() {
    let (_d, fs) = fresh();
    nvmm::ledger::reset();
    let fd = fs.open("/j", rw_create()).unwrap();
    fs.write(fd, 0, &[1u8; 64]).unwrap();
    fs.close(fd).unwrap();
    let snap = nvmm::ledger::snapshot();
    assert!(snap.get(Cat::Journal) > 0, "metadata writes were journaled");
    assert!(snap.get(Cat::UserWrite) > 0);
    assert!(snap.get(Cat::Syscall) > 0);
}

fn touch(fs: &Pmfs, path: &str) {
    let fd = fs.open(path, rw_create()).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn mmap_that_runs_out_of_space_leaves_no_transaction_open() {
    let (dev, fs) = fresh();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    let fd = fs.open("/holes", rw_create()).unwrap();
    fs.truncate(fd, 8 * BLOCK_SIZE as u64).unwrap();
    // The reservation of the mapping's holes finds the allocator dry.
    plan.fail_alloc_after(0);
    assert_eq!(fs.mmap(fd, 0, 8 * BLOCK_SIZE).err(), Some(FsError::NoSpace));
    plan.set_fail_alloc(false);
    assert_eq!(fs.journal().open_txs(), 0, "the failed mapping opened none");
    assert_eq!(fs.fstat(fd).unwrap().blocks, 0, "and mapped nothing");
    assert!(fs.audit().is_clean());
    // The ring is not pinned: the same mapping now goes through.
    fs.mmap(fd, 0, 8 * BLOCK_SIZE).unwrap();
    assert_eq!(fs.journal().open_txs(), 0);
    fs.close(fd).unwrap();
}

/// `dir::add` used to keep the block it had allocated for a growing
/// directory when the tree then found no node to link it under.
#[test]
fn a_directory_growth_refused_its_tree_node_gives_the_block_back() {
    let (dev, fs) = fresh();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    fs.mkdir("/d").unwrap();
    let free0 = fs.free_blocks();
    // `/d` is empty: its first entry needs a block and a tree root to
    // link it under, reserved as one — and refused.
    plan.fail_alloc_after(0);
    assert_eq!(fs.mkdir("/d/sub"), Err(FsError::NoSpace));
    assert_eq!(fs.free_blocks(), free0, "mkdir leaked its directory block");
    plan.fail_alloc_after(0);
    assert_eq!(fs.open("/d/f", rw_create()).err(), Some(FsError::NoSpace));
    assert_eq!(fs.free_blocks(), free0, "create leaked its directory block");
    plan.set_fail_alloc(false);
    assert_eq!(fs.journal().open_txs(), 0);
    assert!(fs.audit().is_clean());
    fs.mkdir("/d/sub").unwrap();
    touch(&fs, "/d/f");
    assert_eq!(fs.readdir("/d").unwrap().len(), 2);
    assert_eq!(fs.free_blocks(), free0 - 2, "one block, one tree node");
}

/// `create_node` used to journal the parent's core *after* `dir::add`: a
/// full ring at that point aborted with the appended directory block
/// still linked and counted in the in-memory parent — an entry, on the
/// next lookup, to an inode the abort had freed.
#[test]
fn a_create_refused_the_parents_undo_image_leaves_the_directory_as_it_was() {
    let (dev, fs) = fresh();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    fs.mkdir("/d").unwrap();
    let (before, free0) = (fs.stat("/d").unwrap(), fs.free_blocks());
    // `begin` and the new inode's core are admitted, the parent's core is
    // not. `/d` is empty, so the entry would have appended a block.
    plan.fail_journal_after(2);
    assert_eq!(
        fs.open("/d/f", rw_create()).err(),
        Some(FsError::JournalFull)
    );
    plan.set_journal_unavailable(false);
    assert_eq!(fs.stat("/d").unwrap(), before, "the parent grew in memory");
    assert_eq!(fs.free_blocks(), free0);
    assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
    assert_eq!(fs.journal().open_txs(), 0);
    assert!(fs.audit().is_clean(), "{}", fs.audit().to_json());
    // The same create goes through, and is all a crash leaves in `/d`.
    touch(&fs, "/d/f");
    dev.crash();
    drop(fs);
    let fs = Pmfs::mount(dev).unwrap();
    let names: Vec<String> = fs
        .readdir("/d")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, ["f"]);
    assert!(fs.audit().is_clean());
}

/// A crash between linking a run and persisting the core that counts it
/// leaves the tree holding more blocks than `blocks` says; freeing them
/// (unlink, truncate) must not wrap the count.
#[test]
fn unlink_after_a_crash_that_left_the_core_behind_the_tree() {
    for shrink_first in [false, true] {
        let (dev, fs) = fresh();
        touch(&fs, "/anchor"); // the root's directory block exists
        let free0 = fs.free_blocks();
        let fd = fs.open("/f", rw_create()).unwrap();
        fs.write(fd, 0, &[1u8; BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
        // Link two more blocks into the leaf; "crash" before the inode
        // core that would count them is journaled and persisted.
        let ino = fs.stat("/f").unwrap().ino;
        let mut ahead: InodeMem = *fs.inode(ino).unwrap().state.read();
        let mut held = fs.allocator().reserve(3).unwrap();
        let (off, data) = (BLOCK_SIZE as u64, &[2u8; 2 * BLOCK_SIZE]);
        file::write_at(&dev, fs.allocator(), &mut held, &mut ahead, off, data, 1);
        fs.allocator().unreserve(held);
        dev.crash();
        drop(fs);
        let fs = Pmfs::mount(dev).unwrap();
        assert_eq!(fs.stat("/f").unwrap().blocks, 1, "the core is behind");
        if shrink_first {
            let fd = fs.open("/f", OpenFlags::RDWR).unwrap();
            fs.truncate(fd, 10).unwrap();
            assert_eq!(fs.fstat(fd).unwrap().blocks, 0, "3 freed of 1 counted");
            fs.close(fd).unwrap();
        }
        fs.unlink("/f").unwrap();
        assert_eq!(fs.free_blocks(), free0, "every block came back");
        assert!(fs.audit().is_clean());
    }
}

/// Reads and the NVMM bytes they moved, of one `stat`.
fn stat_cost(dev: &NvmmDevice, fs: &Pmfs, path: &str) -> (u64, u64) {
    let (t0, r0) = (fs.env().now(), dev.stats().snapshot().nvmm_bytes_read);
    fs.stat(path).unwrap();
    (
        fs.env().now() - t0,
        dev.stats().snapshot().nvmm_bytes_read - r0,
    )
}

#[test]
fn lookups_after_the_first_read_no_directory_block() {
    let (dev, fs) = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    touch(&fs, "/a/b/file");
    fs.unmount().unwrap();
    drop(fs);
    let fs = Pmfs::mount(dev.clone()).unwrap();
    let builds = || fs.namei().builds.load(std::sync::atomic::Ordering::Relaxed);
    // Cold: each of the three directories on the path is scanned once.
    let (cold_ns, cold_bytes) = stat_cost(&dev, &fs, "/a/b/file");
    assert_eq!(builds(), 3);
    assert!(cold_bytes >= 3 * BLOCK_SIZE as u64);
    // Warm: three index hits, each the DRAM copy of one entry, and the
    // inodes are cached — nothing is read from NVMM.
    let (warm_ns, warm_bytes) = stat_cost(&dev, &fs, "/a/b/file");
    assert_eq!(builds(), 3);
    assert_eq!(warm_bytes, 0);
    let cost = fs.env().cost();
    let hits: u64 = ["a", "b", "file"]
        .iter()
        .map(|n| cost.dram_copy_ns(dir::entry_len(n.len())))
        .sum();
    assert_eq!(warm_ns, cost.syscall_ns + hits);
    assert!(cold_ns > warm_ns + 3 * cost.dram_copy_ns(BLOCK_SIZE));
    // "No such name" is answered from the index too.
    let r0 = dev.stats().snapshot().nvmm_bytes_read;
    assert_eq!(fs.stat("/a/b/nope"), Err(FsError::NotFound));
    assert_eq!(dev.stats().snapshot().nvmm_bytes_read, r0);
    assert!(fs.audit().is_clean());
}

#[test]
fn index_is_rebuilt_after_remount_and_after_crash_recovery() {
    let (dev, fs) = fresh();
    fs.mkdir("/d").unwrap();
    touch(&fs, "/d/kept");
    touch(&fs, "/d/gone");
    fs.unlink("/d/gone").unwrap();
    let d = fs.inode(fs.stat("/d").unwrap().ino).unwrap();
    assert_eq!(d.names.lock().as_ref().map(|ix| ix.len()), Some(1));
    // Clean remount: the index is volatile, the new mount starts without.
    fs.unmount().unwrap();
    drop((d, fs));
    let fs = Pmfs::mount(dev.clone()).unwrap();
    let d = fs.inode(fs.stat("/d").unwrap().ino).unwrap();
    assert!(d.names.lock().is_none(), "nothing looked up in /d yet");
    assert!(fs.stat("/d/kept").is_ok());
    assert_eq!(fs.stat("/d/gone"), Err(FsError::NotFound));
    // Crash in the middle of a create: the entry is on the media (and in
    // the index) but its transaction never commits.
    let tx = fs.journal().begin().unwrap();
    {
        let mut state = d.state.write();
        dir::add(
            &dev,
            fs.journal(),
            &tx,
            fs.allocator(),
            &mut state,
            d.names.lock().as_mut().unwrap(),
            "uncommitted",
            77,
            FileType::File,
        )
        .unwrap();
    }
    let _never_committed = tx;
    dev.crash();
    drop((d, fs));
    let fs = Pmfs::mount(dev).unwrap();
    assert!(fs.recovery_stats().txs_undone > 0);
    assert_eq!(fs.stat("/d/uncommitted"), Err(FsError::NotFound));
    assert!(fs.stat("/d/kept").is_ok());
    assert!(fs.audit().is_clean());
}

#[test]
fn a_reused_inode_number_does_not_inherit_the_dead_directorys_names() {
    let (_d, fs) = fresh();
    fs.mkdir("/old").unwrap();
    touch(&fs, "/old/secret");
    let old = fs.inode(fs.stat("/old").unwrap().ino).unwrap();
    assert!(old.names.lock().as_ref().unwrap().get("secret").is_some());
    fs.unlink("/old/secret").unwrap();
    fs.rmdir("/old").unwrap();
    assert!(old.names.lock().is_none(), "freed with the inode");
    // Lowest free slot first: the new directory gets the same number.
    fs.mkdir("/new").unwrap();
    let new = fs.inode(fs.stat("/new").unwrap().ino).unwrap();
    assert_eq!(new.ino, old.ino);
    assert!(!Arc::ptr_eq(&new, &old));
    assert_eq!(fs.stat("/new/secret"), Err(FsError::NotFound));
    assert!(new.names.lock().as_ref().unwrap().is_empty());
    assert_eq!(
        fs.namei()
            .entries
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "only `new`, in the root's index"
    );
    assert!(fs.audit().is_clean());
}

#[test]
fn a_name_the_media_repeats_resolves_to_its_first_entry() {
    let (dev, fs) = fresh();
    fs.mkdir("/d").unwrap();
    touch(&fs, "/d/first");
    touch(&fs, "/d/second");
    let first = fs.stat("/d/first").unwrap().ino;
    let second = fs.stat("/d/second").unwrap().ino;
    // Damage the image: a second `first`, pointing elsewhere.
    let d = fs.inode(fs.stat("/d").unwrap().ino).unwrap();
    let tx = fs.journal().begin().unwrap();
    dir::add(
        &dev,
        fs.journal(),
        &tx,
        fs.allocator(),
        &mut d.state.write(),
        d.names.lock().as_mut().unwrap(),
        "first",
        second,
        FileType::File,
    )
    .unwrap();
    fs.journal().commit(tx);
    fs.unmount().unwrap();
    drop((d, fs));
    let fs = Pmfs::mount(dev.clone()).unwrap();
    assert_eq!(fs.stat("/d/first").unwrap().ino, first);
    let d = fs.inode(fs.stat("/d").unwrap().ino).unwrap();
    let reference = dir::index(&dev, &d.state.read()).unwrap().get("first");
    assert_eq!(reference, Some((first, FileType::File)));
    assert_eq!(d.names.lock().as_ref().unwrap().len(), 2);
    assert!(fs.audit().is_clean(), "the index is the first-match view");
}

#[test]
fn the_auditor_names_an_index_that_left_the_media() {
    let (_d, fs) = fresh();
    touch(&fs, "/real");
    let root = fs.inode(crate::layout::ROOT_INO).unwrap();
    {
        let mut names = root.names.lock();
        let index = names.as_mut().unwrap();
        // An edit the media never sees.
        index.add("phantom", 99, FileType::File).unwrap();
    }
    let rep = fs.audit();
    let labels: Vec<&str> = rep.violations.iter().map(|v| v.invariant()).collect();
    // The phantom name, and the entries gauge that never counted it.
    assert_eq!(labels, ["namei.index", "namei.index"], "{}", rep.to_json());
    assert_eq!(rep.violations[0].ino, crate::layout::ROOT_INO);
}

/// Audit code 15 covers the slots: a name whose cookie points at a
/// header that does not carry it is reported, even when its inode and
/// type are right.
#[test]
fn the_auditor_names_a_stale_slot_cookie() {
    let (dev, fs) = fresh();
    touch(&fs, "/a");
    touch(&fs, "/b");
    touch(&fs, "/c");
    let a = fs.stat("/a").unwrap().ino;
    let root = fs.inode(crate::layout::ROOT_INO).unwrap();
    // Point /b's header at /a's inode too: the two headers are now alike.
    let tx = fs.journal().begin().unwrap();
    let mut names = root.names.lock();
    let index = names.as_mut().unwrap();
    let journal = fs.journal();
    assert!(dir::rewrite(&dev, journal, &tx, index, "b", "b", a, FileType::File).unwrap());
    fs.journal().commit(tx);
    drop(names);
    assert!(fs.audit().is_clean());
    {
        // Swap the two names' slots in the index alone.
        let mut names = root.names.lock();
        let index = names.as_mut().unwrap();
        for (from, to) in [("a", "t"), ("b", "a"), ("t", "b")] {
            assert!(index
                .rewrite(from, to, a, FileType::File)
                .unwrap()
                .is_some());
        }
        assert_eq!(index.get("a"), Some((a, FileType::File)));
    }
    let rep = fs.audit();
    let labels: Vec<&str> = rep.violations.iter().map(|v| v.invariant()).collect();
    assert_eq!(labels, ["namei.index"], "{}", rep.to_json());
    assert_eq!(rep.violations[0].ino, crate::layout::ROOT_INO);
}

/// Entry edits go from the name index to the slot: a create that fits
/// and an unlink read no directory block — the one NVMM read is the
/// journal copying its undo images — journal one entry header each, and
/// stamp the parent's mtime with one 8-byte store. The child's slot
/// journals its liveness word only, both ways.
#[test]
fn creates_and_unlinks_read_no_directory_block() {
    let (dev, fs) = fresh();
    touch(&fs, "/warm");
    let undo = || fs.journal().stats().snapshot().undo_entries;
    let read = || dev.stats().snapshot().nvmm_bytes_read;
    let lines = || dev.stats().snapshot().nvmm_bytes_written / nvmm::CACHELINE as u64;
    // Word 0 of the core and one entry header, both ways (one undo entry
    // each).
    let images = (2, (LIVENESS + dir::HDR) as u64);
    // A create, with its open and close: two undo entries, the new core,
    // the entry, the mtime stamp, the commit record; an unlink stores
    // word 0 where the create wrote the core.
    let (create_lines, unlink_lines) = (7, 6);
    for i in 0..20 {
        let (u0, r0, w0) = (undo(), read(), lines());
        touch(&fs, &format!("/f{i}"));
        let got = (undo() - u0, read() - r0, lines() - w0);
        assert_eq!(got, (images.0, images.1, create_lines), "create {i}");
    }
    for i in (0..20).step_by(3) {
        let (u0, r0, w0) = (undo(), read(), lines());
        fs.unlink(&format!("/f{i}")).unwrap();
        let got = (undo() - u0, read() - r0, lines() - w0);
        assert_eq!(got, (images.0, images.1, unlink_lines), "unlink {i}");
    }
    // A create reusing freed space, and a freed slot with its dead tail,
    // journals the same.
    let (u0, r0, w0) = (undo(), read(), lines());
    touch(&fs, "/f0");
    let got = (undo() - u0, read() - r0, lines() - w0);
    assert_eq!(got, (images.0, images.1, create_lines));
    let mtime = fs.stat("/").unwrap().mtime_ns;
    fs.unmount().unwrap();
    drop(fs);
    let fs = Pmfs::mount(dev).unwrap();
    assert_eq!(
        fs.stat("/").unwrap().mtime_ns,
        mtime,
        "the stamp is durable"
    );
    assert!(fs.audit().is_clean());
}

/// `/d` holding 256 entries of 16 bytes: its one block, with no slack.
fn full_dir(fs: &Pmfs) {
    fs.mkdir("/d").unwrap();
    for i in 0..256 {
        touch(fs, &format!("/d/a{i:03}"));
    }
    assert_eq!(fs.stat("/d").unwrap().blocks, 1);
}

/// A same-directory rename whose new name fits the old record rewrites
/// that record in place: a full directory does not grow, and the header
/// with the name is the one undo image.
#[test]
fn a_same_length_rename_in_a_full_directory_does_not_grow_it() {
    let (_dev, fs) = fresh();
    full_dir(&fs);
    let (free0, undo0) = (
        fs.free_blocks(),
        fs.journal().stats().snapshot().undo_entries,
    );
    fs.rename("/d/a100", "/d/b100").unwrap();
    assert_eq!(fs.stat("/d").unwrap().blocks, 1);
    assert_eq!(fs.free_blocks(), free0);
    assert_eq!(fs.journal().stats().snapshot().undo_entries - undo0, 1);
    assert_eq!(fs.stat("/d/a100"), Err(FsError::NotFound));
    assert!(fs.stat("/d/b100").is_ok());
    assert_eq!(fs.readdir("/d").unwrap().len(), 256);
    assert!(fs.audit().is_clean(), "{}", fs.audit().to_json());
}

/// A same-directory rename to a name its record cannot hold adds the new
/// entry first and then removes the old one; a crash at any persistence
/// boundary of it, clean or torn, recovers to one of the two listings.
/// Here `c` follows the record `b` was merged into: removed first, `c`
/// would be merged there too, and the new entry, laid over the gap, would
/// overwrite `c`'s header, which a rollback then points at again.
#[test]
fn a_rename_that_outgrows_its_record_survives_a_crash_at_every_boundary() {
    let long = "c-longername";
    let names = |fs: &Pmfs| {
        let mut v: Vec<String> = fs
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        v.sort();
        v
    };
    let before = ["a", "c", "d"].map(String::from).to_vec();
    let after = ["a", long, "d"].map(String::from).to_vec();
    let mut crashed = 0;
    for k in 1.. {
        for torn in [None, Some(0x7e57 ^ k)] {
            let (dev, fs) = fresh();
            fs.mkdir("/d").unwrap();
            for n in ["a", "b", "c", "d"] {
                touch(&fs, &format!("/d/{n}"));
            }
            fs.unlink("/d/b").unwrap();
            let plan = FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            plan.arm_crash(k);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fs.rename("/d/c", &format!("/d/{long}"))
            }));
            dev.fault_hook().clear();
            let Err(payload) = res else {
                assert_eq!(names(&fs), after);
                assert!(crashed > 0);
                return;
            };
            assert!(payload.downcast_ref::<nvmm::CrashSignal>().is_some());
            crashed += 1;
            drop(fs);
            match torn {
                Some(seed) => _ = dev.crash_partial(seed),
                None => dev.crash(),
            }
            let fs = Pmfs::mount(dev).unwrap();
            let got = fs.readdir("/d").map(|_| names(&fs));
            assert!(
                got == Ok(before.clone()) || got == Ok(after.clone()),
                "k={k} torn={torn:?}: {got:?}"
            );
            assert!(fs.audit().is_clean(), "k={k}: {}", fs.audit().to_json());
        }
    }
}

/// A directory renamed over an empty one replaces it in one transaction:
/// a crash at any persistence boundary of the rename, clean or torn,
/// recovers to the tree before or the tree after — never one without
/// `/b`, and never one that leaks the replaced directory.
#[test]
fn a_directory_renamed_over_an_empty_one_survives_a_crash_at_every_boundary() {
    let tree = |fs: &Pmfs| -> Vec<String> {
        let mut v = Vec::new();
        for e in fs.readdir("/").unwrap() {
            v.push(format!("/{}", e.name));
            if e.ftype == FileType::Dir {
                let inner = fs.readdir(&format!("/{}", e.name)).unwrap();
                v.extend(inner.into_iter().map(|c| format!("/{}/{}", e.name, c.name)));
            }
        }
        v.sort();
        v
    };
    let before = ["/a", "/a/x", "/b", "/c"].map(String::from).to_vec();
    let after = ["/b", "/b/x", "/c"].map(String::from).to_vec();
    let mut crashed = 0;
    for k in 1.. {
        for torn in [None, Some(0xd1d1 ^ k)] {
            let (dev, fs) = fresh();
            for d in ["/a", "/b"] {
                fs.mkdir(d).unwrap();
            }
            touch(&fs, "/a/x");
            touch(&fs, "/c");
            // `/b` is empty but holds a block.
            touch(&fs, "/b/y");
            fs.unlink("/b/y").unwrap();
            let free0 = fs.free_blocks();
            let plan = FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            plan.arm_crash(k);
            let res =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fs.rename("/a", "/b")));
            dev.fault_hook().clear();
            let Err(payload) = res else {
                assert_eq!(tree(&fs), after);
                assert!(fs.free_blocks() > free0, "the replaced directory's blocks");
                assert!(crashed > 0);
                return;
            };
            assert!(payload.downcast_ref::<nvmm::CrashSignal>().is_some());
            crashed += 1;
            drop(fs);
            match torn {
                Some(seed) => _ = dev.crash_partial(seed),
                None => dev.crash(),
            }
            let fs = Pmfs::mount(dev).unwrap();
            let got = tree(&fs);
            assert!(
                got == before || got == after,
                "k={k} torn={torn:?}: {got:?}"
            );
            assert!(fs.audit().is_clean(), "k={k}: {}", fs.audit().to_json());
        }
    }
}

/// `/f` holding `len` bytes of a pattern, open read-write.
fn file_of(fs: &Pmfs, len: usize) -> fskit::Fd {
    let fd = fs.open("/f", rw_create()).unwrap();
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    fs.write(fd, 0, &data).unwrap();
    fd
}

/// What one op cost: journal transactions begun, NVMM lines persisted,
/// fences.
fn write_cost(dev: &NvmmDevice, fs: &Pmfs, op: impl FnOnce()) -> (u64, u64, u64) {
    let begins = || fs.journal().stats().snapshot().begins;
    let (b0, s0) = (begins(), dev.stats().snapshot());
    op();
    let s1 = dev.stats().snapshot();
    let lines = (s1.nvmm_bytes_written - s0.nvmm_bytes_written) / nvmm::CACHELINE as u64;
    (begins() - b0, lines, s1.fences - s0.fences)
}

/// Cachelines a data write of `len` bytes at block offset `in_blk` covers.
fn data_lines(in_blk: usize, len: usize) -> u64 {
    ((in_blk + len).div_ceil(nvmm::CACHELINE) - in_blk / nvmm::CACHELINE) as u64
}

/// The core on NVMM decodes to the in-DRAM image of `/f`.
fn assert_core_on_media(dev: &NvmmDevice, fs: &Pmfs, what: &str) {
    let h = fskit::vfs::resolve(fs, "/f").unwrap();
    let mut raw = [0u8; crate::inode::INODE_CORE];
    dev.peek(fs.layout().inode_off(h.ino), &mut raw);
    let media = InodeMem::decode(&raw).unwrap();
    assert_eq!(media.as_ref(), Some(&*h.state.read()), "{what}");
}

/// An overwrite inside one mapped block takes PMFS's in-place path: its
/// data lines and the mtime word, no transaction.
#[test]
fn an_in_block_overwrite_opens_no_transaction() {
    let (dev, fs) = fresh();
    let fd = file_of(&fs, 2 * BLOCK_SIZE);
    let cost = write_cost(&dev, &fs, || {
        assert_eq!(
            fs.write(fd, BLOCK_SIZE as u64 + 100, &[9u8; 1000]),
            Ok(1000)
        );
    });
    assert_eq!(cost, (0, data_lines(100, 1000) + 1, 2));
    assert_eq!(fs.fstat(fd).unwrap().size, 2 * BLOCK_SIZE as u64);
    assert_core_on_media(&dev, &fs, "overwrite");
    let mut buf = [0u8; 1002];
    fs.read(fd, BLOCK_SIZE as u64 + 99, &mut buf).unwrap();
    assert_eq!(buf[0], ((BLOCK_SIZE + 99) % 251) as u8);
    assert!(buf[1..1001].iter().all(|&b| b == 9));
    assert_eq!(buf[1001], ((BLOCK_SIZE + 1100) % 251) as u8);
    fs.close(fd).unwrap();
}

/// An append that stays inside the tail block stores the size word, then
/// the mtime word: two meta lines, three fences, no transaction — for
/// `append` and for `O_APPEND`.
#[test]
fn an_in_block_append_opens_no_transaction() {
    let (dev, fs) = fresh();
    let fd = file_of(&fs, 5000);
    let cost = write_cost(&dev, &fs, || {
        assert_eq!(fs.append(fd, &[7u8; 100]), Ok(5000))
    });
    assert_eq!(cost, (0, data_lines(904, 100) + 2, 3));
    assert_eq!(fs.fstat(fd).unwrap().size, 5100);
    assert_core_on_media(&dev, &fs, "append");
    fs.close(fd).unwrap();
    let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::APPEND).unwrap();
    let cost = write_cost(&dev, &fs, || {
        assert_eq!(fs.write(fd, 0, &[8u8; 50]), Ok(50))
    });
    assert_eq!(cost, (0, data_lines(1004, 50) + 2, 3));
    assert_eq!(fs.fstat(fd).unwrap().size, 5150);
    assert_core_on_media(&dev, &fs, "O_APPEND");
    let mut buf = [0u8; 150];
    fs.read(fd, 5000, &mut buf).unwrap();
    assert!(buf[..100].iter().all(|&b| b == 7) && buf[100..].iter().all(|&b| b == 8));
    fs.close(fd).unwrap();
}

/// A write that crosses a block, lands in a hole, opens a new block or
/// comes as two slices keeps the journaled path: one transaction each.
#[test]
fn other_writes_keep_the_journaled_path() {
    let (dev, fs) = fresh();
    let fd = file_of(&fs, 2 * BLOCK_SIZE);
    fs.truncate(fd, 4 * BLOCK_SIZE as u64).unwrap();
    let cases: [(&str, u64, &[&[u8]]); 4] = [
        ("crosses a block", BLOCK_SIZE as u64 - 10, &[&[1u8; 20]]),
        ("lands in a hole", 2 * BLOCK_SIZE as u64 + 10, &[&[2u8; 20]]),
        (
            "opens a block past EOF",
            4 * BLOCK_SIZE as u64,
            &[&[3u8; 20]],
        ),
        ("is vectored", 100, &[&[4u8; 10], &[5u8; 10]]),
    ];
    for (what, off, iovs) in cases {
        let (begins, _, _) = write_cost(&dev, &fs, || {
            assert_eq!(fs.write_vectored(fd, off, iovs), Ok(20), "{what}");
        });
        assert_eq!(begins, 1, "{what}");
        assert_core_on_media(&dev, &fs, what);
    }
    assert_eq!(fs.journal().open_txs(), 0);
    fs.close(fd).unwrap();
}

/// A write the journal refuses used to have happened: `begin` was
/// admitted, the data, size and mtime moved, and the core's undo log was
/// refused — the live file kept the bytes, and a clean remount read the
/// old size. The core's undo slots are now set aside at `begin`, so the
/// refusal comes before a byte moves, whichever journal consult is made
/// to refuse.
#[test]
fn a_write_refused_for_journal_space_changes_nothing() {
    let read_all = |fs: &Pmfs| {
        let fd = fs.open("/f", OpenFlags::READ).unwrap();
        let mut buf = vec![0u8; 3 * BLOCK_SIZE];
        let n = fs.read(fd, 0, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        buf
    };
    for append in [false, true] {
        let mut refused = 0;
        for k in 0..3 {
            let (dev, fs) = fresh();
            let fd = file_of(&fs, 100);
            let before = read_all(&fs);
            let plan = FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            plan.fail_journal_after(k);
            let data = [0xa5u8; 5336];
            let res = if append {
                fs.append(fd, &data).map(drop)
            } else {
                fs.write(fd, 100, &data).map(drop)
            };
            plan.set_journal_unavailable(false);
            let live = read_all(&fs);
            match res {
                Err(e) => {
                    assert_eq!(e, FsError::JournalFull);
                    assert_eq!(
                        live, before,
                        "append={append} k={k}: the refused write moved"
                    );
                    refused += 1;
                }
                Ok(()) => assert_eq!(live.len(), 5436, "append={append} k={k}"),
            }
            assert_eq!(fs.journal().open_txs(), 0);
            assert!(fs.audit().is_clean());
            fs.close(fd).unwrap();
            fs.unmount().unwrap();
            drop(fs);
            let fs = Pmfs::mount(dev).unwrap();
            assert_eq!(
                read_all(&fs),
                live,
                "append={append} k={k}: the remount differs"
            );
        }
        assert_eq!(refused, 1, "append={append}: only `begin` refuses");
    }
}

/// A crash at any persistence boundary, clean or torn, of an in-place
/// write recovers the file at its old size or at its new size with every
/// new byte; bytes the write did not cover are unchanged, and a gap it
/// opened past the old EOF reads zero.
#[test]
fn an_in_place_write_survives_a_crash_at_every_boundary() {
    const OLD: usize = 5000;
    let pattern = |i: usize| (i % 251) as u8;
    let cases = [
        ("overwrite", 100u64, 1000usize),
        ("append", 5000, 100),
        ("gap", 5200, 100),
    ];
    for (what, off, len) in cases {
        let new_size = OLD.max(off as usize + len);
        let mut crashed = 0;
        for k in 1.. {
            let mut done = false;
            for torn in [None, Some(0xf1fe ^ k)] {
                let (dev, fs) = fresh();
                let fd = file_of(&fs, OLD);
                let begins = fs.journal().stats().snapshot().begins;
                let plan = FaultPlan::new();
                dev.fault_hook().install(plan.clone());
                plan.arm_crash(k);
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fs.write(fd, off, &vec![0xeeu8; len])
                }));
                dev.fault_hook().clear();
                assert_eq!(fs.journal().stats().snapshot().begins, begins, "{what}");
                let Err(payload) = res else {
                    assert_eq!(fs.fstat(fd).unwrap().size, new_size as u64);
                    assert!(crashed > 0, "{what}");
                    done = true;
                    break;
                };
                assert!(payload.downcast_ref::<nvmm::CrashSignal>().is_some());
                crashed += 1;
                drop(fs);
                match torn {
                    Some(seed) => _ = dev.crash_partial(seed),
                    None => dev.crash(),
                }
                let fs = Pmfs::mount(dev).unwrap();
                let fd = fs.open("/f", OpenFlags::READ).unwrap();
                let size = fs.fstat(fd).unwrap().size as usize;
                assert!(size == OLD || size == new_size, "{what} k={k}: size {size}");
                let mut got = vec![0u8; size];
                assert_eq!(fs.read(fd, 0, &mut got).unwrap(), size);
                let range = off as usize..off as usize + len;
                for (i, &b) in got.iter().enumerate() {
                    let ok = if range.contains(&i) {
                        b == 0xee || (size == OLD && b == pattern(i))
                    } else if i < OLD {
                        b == pattern(i)
                    } else {
                        b == 0
                    };
                    assert!(ok, "{what} k={k} torn={torn:?}: byte {i} reads {b:#x}");
                }
                fs.close(fd).unwrap();
                assert!(fs.audit().is_clean(), "{what} k={k}");
            }
            if done {
                break;
            }
        }
    }
}
