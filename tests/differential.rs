//! Differential testing: the same operation sequence must produce the same
//! observable file system state on every system in the workspace — PMFS,
//! HiNFS (all variants), EXT4-DAX, and ext2/ext4 on NVMMBD all implement
//! the same VFS contract — and the same outcomes as the fuzzer's
//! reference model.

mod common;

use common::fixture;
use faultfs::{first_refusal, InjectedFault, Op};
use hinfs_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::setups::{build, SystemConfig, SystemKind};

fn cfg() -> SystemConfig {
    SystemConfig {
        device_bytes: 64 << 20,
        buffer_bytes: 2 << 20,
        cache_pages: 512,
        journal_blocks: 256,
        inode_count: 4096,
        ..SystemConfig::default()
    }
}

/// Drives one scripted mixed workload and returns the observable state:
/// every file's full contents plus the directory listing.
fn drive(fs: &dyn FileSystem) -> Vec<(String, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    let mut files: Vec<(String, Fd)> = Vec::new();
    for i in 0..12 {
        let path = format!("/a/f{i}");
        let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
        files.push((path, fd));
    }
    for step in 0..300 {
        let (path, fd) = &files[rng.gen_range(0..files.len())];
        let _ = path;
        match rng.gen_range(0..10) {
            0..=4 => {
                let off = rng.gen_range(0..96 * 1024u64);
                let len = rng.gen_range(1..9000usize);
                let val = (step % 251) as u8;
                fs.write(*fd, off, &vec![val; len]).unwrap();
            }
            5..=6 => {
                let data = vec![(step % 7) as u8; rng.gen_range(1..5000)];
                fs.append(*fd, &data).unwrap();
            }
            7 => {
                fs.fsync(*fd).unwrap();
            }
            8 => {
                let size = rng.gen_range(0..64 * 1024u64);
                fs.truncate(*fd, size).unwrap();
            }
            _ => {
                let mut buf = vec![0u8; 4096];
                let off = rng.gen_range(0..64 * 1024u64);
                let _ = fs.read(*fd, off, &mut buf).unwrap();
            }
        }
        fs.tick((step as u64 + 1) * 50_000);
    }
    // Rename and unlink a couple of files.
    fs.rename("/a/f0", "/a/b/renamed").unwrap();
    fs.unlink("/a/f1").unwrap();
    // Collect state.
    let mut state = Vec::new();
    let mut stack = vec!["".to_string()];
    while let Some(dir) = stack.pop() {
        let path = if dir.is_empty() {
            "/".into()
        } else {
            dir.clone()
        };
        let mut entries = fs.readdir(&path).unwrap();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            let child = format!("{dir}/{}", e.name);
            match e.ftype {
                FileType::Dir => stack.push(child),
                FileType::File => {
                    let st = fs.stat(&child).unwrap();
                    let fd = fs.open(&child, OpenFlags::READ).unwrap();
                    let mut content = vec![0u8; st.size as usize];
                    let n = fs.read(fd, 0, &mut content).unwrap();
                    assert_eq!(n as u64, st.size);
                    fs.close(fd).unwrap();
                    state.push((child, content));
                }
            }
        }
    }
    state.sort();
    state
}

#[test]
fn all_systems_agree_on_the_same_script() {
    let reference = {
        let sys = build(SystemKind::Pmfs, &cfg()).unwrap();
        let state = drive(&*sys.fs);
        sys.fs.unmount().unwrap();
        state
    };
    assert!(!reference.is_empty());
    for kind in SystemKind::ALL.into_iter().skip(1) {
        let sys = build(kind, &cfg()).unwrap();
        let state = drive(&*sys.fs);
        sys.fs.unmount().unwrap();
        assert_eq!(
            state.len(),
            reference.len(),
            "{}: file count differs",
            kind.label()
        );
        for (got, want) in state.iter().zip(&reference) {
            assert_eq!(got.0, want.0, "{}: path mismatch", kind.label());
            assert_eq!(
                got.1.len(),
                want.1.len(),
                "{}: size mismatch for {}",
                kind.label(),
                got.0
            );
            assert_eq!(
                got.1,
                want.1,
                "{}: content mismatch for {}",
                kind.label(),
                got.0
            );
        }
    }
}

#[test]
fn state_survives_remount_on_every_system() {
    for kind in SystemKind::ALL {
        let sys = build(kind, &cfg()).unwrap();
        let state = drive(&*sys.fs);
        sys.fs.unmount().unwrap();
        let sys2 = workloads::setups::remount_with(kind, sys.dev, sys.env, &cfg()).unwrap();
        // Re-collect and compare contents after a cold remount.
        for (path, want) in &state {
            let st = sys2.fs.stat(path).unwrap_or_else(|e| {
                panic!("{}: {} missing after remount: {e}", kind.label(), path)
            });
            assert_eq!(st.size as usize, want.len(), "{}: {}", kind.label(), path);
            let fd = sys2.fs.open(path, OpenFlags::READ).unwrap();
            let mut got = vec![0u8; want.len()];
            sys2.fs.read(fd, 0, &mut got).unwrap();
            sys2.fs.close(fd).unwrap();
            assert_eq!(
                &got,
                want,
                "{}: {} content after remount",
                kind.label(),
                path
            );
        }
        sys2.fs.unmount().unwrap();
    }
}

/// The fuzzer's lockstep on every system: each op of a random script has
/// the outcome class the reference model expects, and the final files
/// and directories match it byte for byte.
#[test]
fn every_system_runs_in_lockstep_with_the_model() {
    let h = Harness::new();
    for seed in 0..32u64 {
        let script = Script::random(0x10C5 + seed, 60);
        for kind in SystemKind::ALL {
            let vs = faultfs::differential(&h, kind, &script.ops, None);
            assert!(vs.is_empty(), "{} seed {seed}: {vs:#?}", kind.label());
        }
    }
}

/// The namespace rules, one row per case: every system — one namespace
/// driver over both families — gives the same outcome. `setup` runs
/// first on a fresh image; `op` is the row.
#[test]
fn namespace_rules() {
    type Row = (
        &'static str,
        &'static str,
        fn(&dyn FileSystem) -> fskit::Result<()>,
    );
    fn open(fs: &dyn FileSystem, path: &str, flags: OpenFlags) -> fskit::Result<()> {
        fs.open(path, flags).map(drop)
    }
    let rw = OpenFlags::RDWR;
    let rows: [Row; 22] = [
        ("open missing", "", |fs| open(fs, "/x", OpenFlags::RDWR)),
        ("open creates", "", |fs| {
            open(fs, "/x", OpenFlags::RDWR | OpenFlags::CREATE)
        }),
        ("open existing", "f", |fs| open(fs, "/f", OpenFlags::RDWR)),
        ("open creat existing", "f", |fs| {
            open(fs, "/f", OpenFlags::RDWR | OpenFlags::CREATE)
        }),
        ("open excl existing", "f", |fs| {
            open(
                fs,
                "/f",
                OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::EXCL,
            )
        }),
        ("open excl missing", "", |fs| {
            open(
                fs,
                "/x",
                OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::EXCL,
            )
        }),
        ("open trunc", "f", |fs| {
            open(fs, "/f", OpenFlags::RDWR | OpenFlags::TRUNC)
        }),
        ("open a directory", "d", |fs| {
            open(fs, "/d", OpenFlags::READ)
        }),
        ("create over a directory", "d", |fs| {
            open(fs, "/d", OpenFlags::RDWR | OpenFlags::CREATE)
        }),
        ("file in mid-path", "f", |fs| {
            open(fs, "/f/x", OpenFlags::RDWR | OpenFlags::CREATE)
        }),
        ("rename onto itself", "f", |fs| fs.rename("/f", "/f")),
        ("rename onto itself through dots", "f", |fs| {
            fs.rename("/f", "/x/../f")
        }),
        ("rename missing source", "", |fs| fs.rename("/x", "/y")),
        ("rename file over file", "fg", |fs| fs.rename("/f", "/g")),
        ("rename file over directory", "fd", |fs| {
            fs.rename("/f", "/d")
        }),
        ("rename directory over file", "fd", |fs| {
            fs.rename("/d", "/f")
        }),
        ("rename over empty directory", "de", |fs| {
            fs.rename("/d", "/e")
        }),
        ("rename over non-empty directory", "dn", |fs| {
            fs.rename("/d", "/n")
        }),
        ("rename into own subtree", "n", |fs| {
            fs.rename("/n", "/n/s/t")
        }),
        ("rmdir non-empty", "n", |fs| fs.rmdir("/n")),
        ("unlink a directory", "d", |fs| fs.unlink("/d")),
        ("mkdir existing", "d", |fs| fs.mkdir("/d")),
    ];
    let want = [
        Err(FsError::NotFound),
        Ok(()),
        Ok(()),
        Ok(()),
        Err(FsError::AlreadyExists),
        Ok(()),
        Ok(()),
        Err(FsError::IsADirectory),
        Err(FsError::IsADirectory),
        Err(FsError::NotADirectory),
        Ok(()),
        Ok(()),
        Err(FsError::NotFound),
        Ok(()),
        Err(FsError::IsADirectory),
        Err(FsError::NotADirectory),
        Ok(()),
        Err(FsError::DirectoryNotEmpty),
        Err(FsError::InvalidArgument("rename into its own subtree")),
        Err(FsError::DirectoryNotEmpty),
        Err(FsError::IsADirectory),
        Err(FsError::AlreadyExists),
    ];
    for kind in SystemKind::ALL {
        for ((what, setup, op), want) in rows.iter().zip(&want) {
            let sys = build(kind, &cfg()).unwrap();
            let fs = &*sys.fs;
            // Setup letters: f, g files; d, e empty directories; n a
            // directory holding /n/s.
            for c in setup.chars() {
                match c {
                    'f' | 'g' => fs
                        .close(fs.open(&format!("/{c}"), rw | OpenFlags::CREATE).unwrap())
                        .unwrap(),
                    'n' => {
                        fs.mkdir("/n").unwrap();
                        fs.mkdir("/n/s").unwrap();
                    }
                    _ => fs.mkdir(&format!("/{c}")).unwrap(),
                }
            }
            let before: Vec<_> = fs.readdir("/").unwrap();
            let got = op(fs);
            assert_eq!(&got, want, "{}: {what}", kind.label());
            if got.is_err() {
                assert_eq!(fs.readdir("/").unwrap(), before, "{}: {what}", kind.label());
            }
            if *what == "rename into own subtree" {
                assert!(
                    fs.stat("/n/s").is_ok(),
                    "{}: the subtree went",
                    kind.label()
                );
            }
            sys.fs.unmount().unwrap();
        }
    }
}

/// The data rules, one row per case: every system — one data driver
/// over all three families — gives the same outcome, size and mtime,
/// and leaves the same bytes. Each row runs on a fresh image holding
/// `/f`, 100 bytes of 0x11, through a descriptor of its own.
#[test]
fn data_rules() {
    type Row = (
        &'static str,
        OpenFlags,
        fn(&dyn FileSystem, Fd) -> fskit::Result<u64>,
    );
    let (rd, wr, rw) = (OpenFlags::READ, OpenFlags::WRITE, OpenFlags::RDWR);
    let rows: [Row; 11] = [
        ("write on O_RDONLY", rd, |fs, fd| {
            fs.write(fd, 0, b"x").map(|n| n as u64)
        }),
        ("append on O_RDONLY", rd, |fs, fd| fs.append(fd, b"x")),
        ("ftruncate on O_RDONLY", rd, |fs, fd| {
            fs.truncate(fd, 0).map(|()| 0)
        }),
        ("read on O_WRONLY", wr, |fs, fd| {
            fs.read(fd, 0, &mut [0; 8]).map(|n| n as u64)
        }),
        ("read past EOF", rd, |fs, fd| {
            fs.read(fd, 200, &mut [0; 8]).map(|n| n as u64)
        }),
        ("empty write at EOF", rw, |fs, fd| {
            fs.write(fd, 100, &[]).map(|n| n as u64)
        }),
        ("empty write past EOF", rw, |fs, fd| {
            fs.write(fd, 5000, &[]).map(|n| n as u64)
        }),
        ("empty append", rw, |fs, fd| fs.append(fd, &[])),
        (
            "O_APPEND write at an offset",
            rw | OpenFlags::APPEND,
            |fs, fd| fs.write(fd, 7, b"abcde").map(|n| n as u64),
        ),
        ("write past EOF", rw, |fs, fd| {
            fs.write(fd, 5000, b"z").map(|n| n as u64)
        }),
        ("ftruncate to the current size", rw, |fs, fd| {
            fs.truncate(fd, 100).map(|()| 0)
        }),
    ];
    // Outcome, size after, and whether the mtime moved.
    let want: [(fskit::Result<u64>, u64, bool); 11] = [
        (Err(FsError::BadFd), 100, false),
        (Err(FsError::BadFd), 100, false),
        (Err(FsError::BadFd), 100, false),
        (Err(FsError::BadFd), 100, false),
        (Ok(0), 100, false),
        (Ok(0), 100, false),
        (Ok(0), 100, false),
        (Ok(100), 100, false),
        (Ok(5), 105, true),
        (Ok(1), 5001, true),
        (Ok(0), 100, false),
    ];
    let mut reference: Vec<Vec<u8>> = Vec::new();
    for kind in SystemKind::ALL {
        for (i, ((what, flags, op), want)) in rows.iter().zip(&want).enumerate() {
            let sys = build(kind, &cfg()).unwrap();
            let fs = &*sys.fs;
            let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
            fs.write(fd, 0, &[0x11; 100]).unwrap();
            fs.close(fd).unwrap();
            let before = fs.stat("/f").unwrap();
            let fd = fs.open("/f", *flags).unwrap();
            let got = op(fs, fd);
            fs.close(fd).unwrap();
            let after = fs.stat("/f").unwrap();
            let stamped = after.mtime_ns != before.mtime_ns;
            let label = format!("{}: {what}", kind.label());
            assert_eq!((got, after.size, stamped), want.clone(), "{label}");
            let fd = fs.open("/f", OpenFlags::READ).unwrap();
            let mut content = vec![0u8; after.size as usize];
            assert_eq!(fs.read(fd, 0, &mut content), Ok(content.len()), "{label}");
            fs.close(fd).unwrap();
            assert!(content[..100].iter().all(|&b| b == 0x11), "{label}");
            if *what == "write past EOF" {
                assert!(content[100..5000].iter().all(|&b| b == 0), "{label}");
            }
            match reference.get(i) {
                Some(r) => assert!(&content == r, "{label}: the bytes differ"),
                None => reference.push(content),
            }
            sys.fs.unmount().unwrap();
        }
        // A refused write or append leaves size, mtime and bytes as they
        // were: an `O_SYNC` one past EOF, with the journal refusing every
        // request (the allocator, on ext2, which has no journal).
        for (what, append) in [("refused write past EOF", false), ("refused append", true)] {
            let sys = build(kind, &cfg()).unwrap();
            let fs = &*sys.fs;
            let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
            fs.write(fd, 0, &[0x11; 100]).unwrap();
            let before = fs.stat("/f").unwrap();
            let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::SYNC).unwrap();
            let plan = nvmm::FaultPlan::new();
            sys.dev.fault_hook().install(plan.clone());
            match kind {
                SystemKind::Ext2Bd => plan.fail_alloc_after(0),
                _ => plan.fail_journal_after(0),
            }
            let got = match append {
                true => fs.append(fd, &[0x22; 5000]).map(drop),
                false => fs.write(fd, 5000, b"z").map(drop),
            };
            sys.dev.fault_hook().clear();
            let label = format!("{}: {what}", kind.label());
            assert!(
                matches!(got, Err(FsError::JournalFull | FsError::NoSpace)),
                "{label}: {got:?}"
            );
            assert_eq!(fs.stat("/f").unwrap(), before, "{label}");
            let mut content = vec![0u8; 200];
            assert_eq!(fs.read(fd, 0, &mut content), Ok(100), "{label}");
            assert!(content[..100].iter().all(|&b| b == 0x11), "{label}");
            sys.fs.unmount().unwrap();
        }
    }
}

/// `tests/repro/unlink_journal_full_hinfs.repro`: an unlink the journal
/// refuses changes nothing, under every admit count, on every kind. It
/// used to discard HiNFS's buffered blocks of the file before its
/// liveness log, which the full ring then refused: the file stayed, its
/// data did not. The case it was shrunk from is checked as found.
#[test]
fn an_unlink_the_journal_refuses_keeps_the_files_data() {
    let s = Script::random(8, 40);
    let r = first_refusal(
        SystemKind::HinfsWb,
        &cfg(),
        &s.ops,
        InjectedFault::JournalFull,
        8,
    );
    let r = r.unwrap().expect("the journal refuses an op of the script");
    assert!(r.diffs.is_empty(), "{r:?}");
    let ops = fixture("unlink_journal_full_hinfs").script.ops;
    for kind in SystemKind::ALL {
        let mut unlinks = 0;
        for admit in 0..16 {
            let fault = InjectedFault::JournalFull;
            let Some(r) = first_refusal(kind, &cfg(), &ops, fault, admit).unwrap() else {
                continue;
            };
            assert!(r.diffs.is_empty(), "{} admit {admit}: {r:?}", kind.label());
            unlinks += matches!(r.op, Op::Unlink { .. }) as u32;
        }
        let journaled = kind != SystemKind::Ext2Bd;
        assert_eq!(unlinks > 0, journaled, "{}", kind.label());
    }
}

/// An `O_SYNC` write over a file holding unsynced data, with the journal
/// or the allocator refusing every request after the first `admit`:
/// refused, it changed no byte, size or mtime; admitted, it landed whole.
#[test]
fn an_o_sync_write_is_refused_whole_or_lands_whole() {
    for kind in SystemKind::ALL {
        for fault in [InjectedFault::JournalFull, InjectedFault::Enospc] {
            for admit in 0..12 {
                let sys = build(kind, &cfg()).unwrap();
                let fs = &*sys.fs;
                let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
                fs.write(fd, 0, &[0x11; 10_000]).unwrap();
                fs.write(fd, 20_000, &[0x33; 100]).unwrap();
                let before = fs.stat("/f").unwrap();
                let sync = fs.open("/f", OpenFlags::RDWR | OpenFlags::SYNC).unwrap();
                let plan = nvmm::FaultPlan::new();
                sys.dev.fault_hook().install(plan.clone());
                match fault {
                    InjectedFault::JournalFull => plan.fail_journal_after(admit),
                    _ => plan.fail_alloc_after(admit),
                }
                let got = fs.write(sync, 6_000, &[0x22; 9_000]);
                sys.dev.fault_hook().clear();
                let label = format!("{} {} admit {admit}: {got:?}", kind.label(), fault.label());
                let mut content = vec![0u8; 20_100];
                assert_eq!(fs.read(fd, 0, &mut content), Ok(20_100), "{label}");
                let want = |i: usize| match i {
                    _ if got.is_ok() && (6_000..15_000).contains(&i) => 0x22,
                    0..10_000 => 0x11,
                    20_000.. => 0x33,
                    _ => 0,
                };
                let bad = (0..content.len()).find(|&i| content[i] != want(i));
                assert_eq!(bad, None, "{label}");
                if got.is_err() {
                    // What it flushed of the unsynced data may count blocks.
                    let after = fs.stat("/f").unwrap();
                    let sized = (after.size, after.mtime_ns);
                    assert_eq!(sized, (before.size, before.mtime_ns), "{label}");
                }
                sys.fs.unmount().unwrap();
            }
        }
    }
}
