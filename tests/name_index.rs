//! Property test of the per-directory DRAM name index (`fskit::namei`)
//! in both file system families — PMFS and an ext kind (EXT4-DAX, which
//! journals): under random create / unlink / mkdir / rmdir / rename
//! sequences — with ENOSPC and journal-full injected so operations fail
//! or abort half-way, and with clean and crashed remounts in between —
//! every *built* index says exactly what a scan of the directory's blocks
//! says, a directory whose index was never built (or was dropped) answers
//! the same through the build path, and the auditor's `namei.index` code
//! agrees throughout.

use std::sync::Arc;

use extfs::{ExtMode, ExtOptions, Extfs};
use fskit::namei::NameIndex;
use fskit::vfs::Namespace;
use fskit::{FileSystem, FileType, FsError, OpenFlags};
use nvmm::{CostModel, FaultPlan, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::{AuditReport, Introspect};
use pmfs::{Pmfs, PmfsOptions};
use proptest::prelude::*;

/// Directory slots: 0 is the root, 1..=3 are `/d1`..`/d3` (which may or
/// may not exist at any moment).
const SLOTS: u8 = 4;
/// Entry names per directory. Long, so a directory spans several blocks
/// (15 entries per block) and an add regularly needs a fresh one.
const NAMES: u8 = 40;

fn dir_path(slot: u8) -> String {
    match slot {
        0 => String::new(),
        s => format!("/d{s}"),
    }
}

fn entry_name(n: u8) -> String {
    format!("{n:0>250}")
}

fn path(slot: u8, n: u8) -> String {
    format!("{}/{}", dir_path(slot), entry_name(n))
}

/// The two families, mounted.
enum Mounted {
    Pmfs(Arc<Pmfs>),
    Ext(Arc<Extfs>),
}

/// Which family a run drives.
#[derive(Debug, Clone, Copy)]
enum Family {
    Pmfs,
    Ext,
}

const EXT_OPTS: ExtOptions = ExtOptions {
    journal_blocks: 64,
    inode_count: 512,
    cache_pages: 256,
};

impl Family {
    fn mkfs(self, dev: &Arc<NvmmDevice>) -> Mounted {
        match self {
            Family::Pmfs => {
                let opts = PmfsOptions {
                    journal_blocks: 64,
                    inode_count: 512,
                };
                Mounted::Pmfs(Pmfs::mkfs(dev.clone(), opts).unwrap())
            }
            Family::Ext => {
                Mounted::Ext(Extfs::mkfs(dev.clone(), ExtMode::Ext4Dax, EXT_OPTS).unwrap())
            }
        }
    }

    fn mount(self, dev: &Arc<NvmmDevice>) -> Mounted {
        match self {
            Family::Pmfs => Mounted::Pmfs(Pmfs::mount(dev.clone()).unwrap()),
            Family::Ext => {
                Mounted::Ext(Extfs::mount(dev.clone(), ExtMode::Ext4Dax, EXT_OPTS).unwrap())
            }
        }
    }
}

impl Mounted {
    fn fs(&self) -> &dyn FileSystem {
        match self {
            Mounted::Pmfs(fs) => &**fs,
            Mounted::Ext(fs) => &**fs,
        }
    }

    fn audit(&self) -> AuditReport {
        match self {
            Mounted::Pmfs(fs) => fs.audit(),
            Mounted::Ext(fs) => fs.audit(),
        }
    }

    /// Directory `ino`'s built index, if any, and the index a scan of its
    /// blocks builds (uncharged, so checking moves nothing).
    fn indexes(&self, ino: u64) -> (Option<NameIndex>, NameIndex) {
        match self {
            Mounted::Pmfs(fs) => {
                let h = fs.inode(ino).unwrap();
                let media = pmfs::dir::index_uncharged(fs.device(), &h.state.read());
                let built = h.names.lock().clone();
                (built, media.unwrap())
            }
            Mounted::Ext(fs) => {
                let h = fs.inode(ino).unwrap();
                let media = extfs::dir::index_uncharged(fs.cache(), &h.state.read());
                let built = h.names.lock().clone();
                (built, media.unwrap())
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8, u8),
    Unlink(u8, u8),
    Mkdir(u8),
    Rmdir(u8),
    /// File (or whatever the name is) from one entry to another.
    Rename(u8, u8, u8, u8),
    /// Directory slot to directory slot (replaces an empty one).
    RenameDir(u8, u8),
    /// Admit this many more block allocations, then ENOSPC.
    AllocsLeft(u64),
    JournalFull(bool),
    FaultsOff,
    Remount,
    Crash,
    /// Resolve every name of one directory through the file system.
    Probe(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = || 0u8..SLOTS;
    let sub = || 1u8..SLOTS;
    let name = || 0u8..NAMES;
    prop_oneof![
        10 => (slot(), name()).prop_map(|(d, n)| Op::Create(d, n)),
        5 => (slot(), name()).prop_map(|(d, n)| Op::Unlink(d, n)),
        3 => sub().prop_map(Op::Mkdir),
        1 => sub().prop_map(Op::Rmdir),
        6 => (slot(), name(), slot(), name()).prop_map(|(a, b, c, d)| Op::Rename(a, b, c, d)),
        1 => (sub(), sub()).prop_map(|(a, b)| Op::RenameDir(a, b)),
        2 => (0u64..3).prop_map(Op::AllocsLeft),
        1 => any::<bool>().prop_map(Op::JournalFull),
        2 => Just(Op::FaultsOff),
        1 => Just(Op::Remount),
        1 => Just(Op::Crash),
        2 => slot().prop_map(Op::Probe),
    ]
}

/// The live directories: the root and its subdirectories.
fn live_dirs(fs: &dyn FileSystem) -> Vec<(String, u64)> {
    let mut dirs = vec![(String::new(), fs.stat("/").unwrap().ino)];
    for e in fs.readdir("/").unwrap() {
        if e.ftype == FileType::Dir {
            dirs.push((format!("/{}", e.name), e.ino));
        }
    }
    dirs
}

/// Every name of directory `dpath` resolves through the file system to
/// what a scan of the directory's blocks finds.
fn probe(m: &Mounted, dpath: &str, ino: u64) {
    let media = m.indexes(ino).1;
    for n in 0..NAMES {
        let name = entry_name(n);
        let through_fs = match m.fs().stat(&format!("{dpath}/{name}")) {
            Ok(st) => Some((st.ino, st.ftype)),
            Err(FsError::NotFound) => None,
            Err(e) => panic!("{dpath}/{n}: {e:?}"),
        };
        assert_eq!(through_fs, media.get(&name), "{dpath}/{n}");
    }
}

/// After every step: built indexes equal the media, the auditor agrees.
fn check(m: &Mounted, step: usize, op: &Op) {
    for (dpath, ino) in live_dirs(m.fs()) {
        if let (Some(built), media) = m.indexes(ino) {
            assert_eq!(built, media, "step {step} {op:?}: index of `{dpath}/`");
        }
    }
    let rep = m.audit();
    assert!(rep.is_clean(), "step {step} {op:?}: {}", rep.to_json());
}

fn run(family: Family, ops: &[Op]) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 4096 * BLOCK_SIZE);
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    let mut m = family.mkfs(&dev);
    let faults_off = || {
        plan.set_fail_alloc(false);
        plan.set_journal_unavailable(false);
    };
    for (step, op) in ops.iter().enumerate() {
        let fs = m.fs();
        // Results are not judged here (the differential fuzzer does
        // that): an injected fault may fail any of them half-way.
        match *op {
            Op::Create(d, n) => {
                if let Ok(fd) = fs.open(&path(d, n), OpenFlags::RDWR | OpenFlags::CREATE) {
                    fs.close(fd).unwrap();
                }
            }
            Op::Unlink(d, n) => drop(fs.unlink(&path(d, n))),
            Op::Mkdir(d) => drop(fs.mkdir(&dir_path(d))),
            Op::Rmdir(d) => drop(fs.rmdir(&dir_path(d))),
            Op::Rename(a, b, c, d) => drop(fs.rename(&path(a, b), &path(c, d))),
            Op::RenameDir(a, b) => drop(fs.rename(&dir_path(a), &dir_path(b))),
            Op::AllocsLeft(n) => plan.fail_alloc_after(n),
            Op::JournalFull(on) => plan.set_journal_unavailable(on),
            Op::FaultsOff => faults_off(),
            Op::Remount => {
                faults_off();
                fs.unmount().unwrap();
                m = family.mount(&dev);
            }
            Op::Crash => {
                faults_off();
                dev.crash();
                m = family.mount(&dev);
            }
            Op::Probe(d) => {
                // Mostly a directory whose index is absent: remounts and
                // aborts drop them, only lookups *inside* build them.
                if let Ok(st) = fs.stat(&format!("{}/", dir_path(d))) {
                    if st.ftype == FileType::Dir {
                        probe(&m, &dir_path(d), st.ino);
                    }
                }
            }
        }
        check(&m, step, op);
    }
    // Whatever state the indexes ended in, every name of every directory
    // resolves to what the media says — and now all of them are built.
    faults_off();
    for (dpath, ino) in live_dirs(m.fs()) {
        probe(&m, &dpath, ino);
        assert!(m.indexes(ino).0.is_some(), "{family:?} `{dpath}/`");
    }
    check(&m, ops.len(), &Op::FaultsOff);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn index_equals_media_under_aborts_and_remounts(
        ops in prop::collection::vec(op_strategy(), 40..160)
    ) {
        run(Family::Pmfs, &ops);
        run(Family::Ext, &ops);
    }
}

/// The property above only proves something if the aborts and the
/// absent-index answers it is about actually happen.
#[test]
fn the_generator_reaches_aborts_and_unbuilt_directories() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env, 4096 * BLOCK_SIZE);
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    let fs = Pmfs::mkfs(dev.clone(), PmfsOptions::default()).unwrap();
    fs.mkdir("/d1").unwrap();
    fs.mkdir("/d2").unwrap();
    let fd = fs
        .open(&path(1, 0), OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    fs.close(fd).unwrap();
    let d1 = fs.inode(fs.stat("/d1").unwrap().ino).unwrap();
    let d2 = fs.inode(fs.stat("/d2").unwrap().ino).unwrap();
    assert!(d1.names.lock().is_some(), "the create looked the name up");
    assert!(d2.names.lock().is_none(), "nothing was looked up in /d2");
    // A cross-directory rename whose add runs out of space after its
    // remove went through: the rollback restores the source entry, and
    // the source index — which had already forgotten the name — goes.
    let aborts = fs.journal().stats().snapshot().aborts;
    plan.fail_alloc_after(0);
    assert_eq!(fs.rename(&path(1, 0), &path(2, 7)), Err(FsError::NoSpace));
    plan.set_fail_alloc(false);
    assert_eq!(fs.journal().stats().snapshot().aborts, aborts + 1);
    assert!(d1.names.lock().is_none(), "dropped by the abort");
    assert!(
        fs.stat(&path(1, 0)).is_ok(),
        "rebuilt from the rolled-back media"
    );
    assert_eq!(fs.stat(&path(2, 7)), Err(FsError::NotFound));
    assert!(fs.audit().is_clean());

    // The ext family has no rollback: a failed create changes nothing,
    // and its index stays built and exact; a directory nothing was looked
    // up in has none.
    let ext = Extfs::mkfs(dev.clone(), ExtMode::Ext4Dax, EXT_OPTS).unwrap();
    ext.mkdir("/d1").unwrap();
    ext.mkdir("/d2").unwrap();
    let d1 = ext.inode(ext.stat("/d1").unwrap().ino).unwrap();
    let d2 = ext.inode(ext.stat("/d2").unwrap().ino).unwrap();
    assert!(d1.names.lock().is_none() && d2.names.lock().is_none());
    plan.fail_alloc_after(0);
    let create = ext.open(&path(1, 0), OpenFlags::RDWR | OpenFlags::CREATE);
    assert_eq!(create, Err(FsError::NoSpace));
    plan.set_fail_alloc(false);
    assert!(d1.names.lock().is_some(), "the create looked the name up");
    assert!(d2.names.lock().is_none(), "nothing was looked up in /d2");
    assert!(ext.audit().is_clean());
}
