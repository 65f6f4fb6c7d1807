//! Property test of the per-directory DRAM name index: under random
//! create / unlink / mkdir / rmdir / rename sequences — with ENOSPC and
//! journal-full injected so operations abort half-way, and with clean and
//! crashed remounts in between — every *built* index says exactly what a
//! scan of the directory's blocks says, a directory whose index was never
//! built (or was dropped by an abort) answers the same through the build
//! path, and the auditor's `namei.index` code agrees throughout.

use std::sync::Arc;

use fskit::{FileSystem, FileType, FsError, OpenFlags};
use nvmm::{CostModel, FaultPlan, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::Introspect;
use pmfs::inode::NameIndex;
use pmfs::{dir, Pmfs, PmfsOptions};
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

/// What a scan of the media says, first entry per name.
fn media_index(dev: &NvmmDevice, mem: &pmfs::inode::InodeMem) -> NameIndex {
    let mut ix = NameIndex::new();
    for e in dir::list(dev, mem).unwrap() {
        ix.entry(e.name).or_insert((e.ino, e.ftype));
    }
    ix
}

/// The live directories: the root and its subdirectories.
fn live_dirs(fs: &Pmfs) -> Vec<(String, u64)> {
    let mut dirs = vec![(String::new(), fs.stat("/").unwrap().ino)];
    for e in fs.readdir("/").unwrap() {
        if e.ftype == FileType::Dir {
            dirs.push((format!("/{}", e.name), e.ino));
        }
    }
    dirs
}

/// Every name of directory `dpath` resolves through the file system to
/// what `dir::lookup` finds on the media.
fn probe(dev: &NvmmDevice, fs: &Pmfs, dpath: &str, ino: u64) {
    let mem = *fs.inode(ino).unwrap().state.read();
    for n in 0..NAMES {
        let name = entry_name(n);
        let through_fs = match fs.stat(&format!("{dpath}/{name}")) {
            Ok(st) => Some((st.ino, st.ftype)),
            Err(FsError::NotFound) => None,
            Err(e) => panic!("{dpath}/{n}: {e:?}"),
        };
        assert_eq!(
            through_fs,
            dir::lookup(dev, &mem, &name).unwrap(),
            "{dpath}/{n}"
        );
    }
}

/// After every step: built indexes equal the media, the auditor agrees.
fn check(dev: &NvmmDevice, fs: &Pmfs, step: usize, op: &Op) {
    for (dpath, ino) in live_dirs(fs) {
        let h = fs.inode(ino).unwrap();
        let mem = *h.state.read();
        let built = h.names.lock().clone();
        if let Some(index) = built {
            assert_eq!(
                index,
                media_index(dev, &mem),
                "step {step} {op:?}: index of `{dpath}/`"
            );
        }
    }
    let rep = fs.audit();
    assert!(rep.is_clean(), "step {step} {op:?}: {}", rep.to_json());
}

fn run(ops: &[Op]) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new_tracked(env, 4096 * BLOCK_SIZE);
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    let opts = PmfsOptions {
        journal_blocks: 64,
        inode_count: 512,
    };
    let mut fs: Arc<Pmfs> = Pmfs::mkfs(dev.clone(), opts).unwrap();
    let faults_off = || {
        plan.set_fail_alloc(false);
        plan.set_journal_unavailable(false);
    };
    for (step, op) in ops.iter().enumerate() {
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
                fs = Pmfs::mount(dev.clone()).unwrap();
            }
            Op::Crash => {
                faults_off();
                dev.crash();
                fs = Pmfs::mount(dev.clone()).unwrap();
            }
            Op::Probe(d) => {
                // Mostly a directory whose index is absent: remounts and
                // aborts drop them, only lookups *inside* build them.
                if let Ok(st) = fs.stat(&format!("{}/", dir_path(d))) {
                    if st.ftype == FileType::Dir {
                        probe(&dev, &fs, &dir_path(d), st.ino);
                    }
                }
            }
        }
        check(&dev, &fs, step, op);
    }
    // Whatever state the indexes ended in, every name of every directory
    // resolves to what the media says — and now all of them are built.
    faults_off();
    for (dpath, ino) in live_dirs(&fs) {
        probe(&dev, &fs, &dpath, ino);
        assert!(fs.inode(ino).unwrap().names.lock().is_some());
    }
    check(&dev, &fs, ops.len(), &Op::FaultsOff);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn index_equals_media_under_aborts_and_remounts(
        ops in prop::collection::vec(op_strategy(), 40..160)
    ) {
        run(&ops);
    }
}

/// The property above only proves something if the aborts and the
/// absent-index answers it is about actually happen.
#[test]
fn the_generator_reaches_aborts_and_unbuilt_directories() {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new_tracked(env, 4096 * BLOCK_SIZE);
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
}
