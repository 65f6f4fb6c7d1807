//! Allocate-on-flush under a full journal ring must not lose data.
//!
//! Runs the `fileserver-fit` traffic of the repo benchmark (384 files ×
//! 64 KiB, 16 KiB appends, buffer 2 × dataset, two clients, 800 ms of
//! virtual time at seed `0xBEEF`) on a journal small enough that the undo
//! ring fills during the run — 2048 blocks (the default) and 1024; the
//! test asserts the ring's generation moved. A flush that had to allocate
//! the NVMM block once mapped it in the in-memory inode only when the
//! ring had no room for the inode-core transaction, and a **clean**
//! `sync()` + `unmount()` + `mount()` then returned files of the right
//! size and all zeroes: 3 of 384 files at 2048 blocks and 214 at 1024
//! with the benchmark's 1 MiB transfer size; 1 and 241 with the 128 KiB
//! used here, which still writes every file in one call and spares an
//! unoptimised test build most of the generator's buffer refills. Such a
//! flush now leaves the block dirty and reports the refusal (DESIGN
//! § *Design decisions*, allocate-on-flush); this test keeps it so.
//!
//! The contract: a block is mapped only under a journaled inode-core
//! update, so what the live mount serves after `sync()` is exactly what a
//! cold mount finds on NVMM alone, and the auditor is clean on both sides.

use std::collections::BTreeMap;

use hinfs_suite::prelude::*;
use workloads::filebench::{FilebenchParams, Fileserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::setups::{remount_with, System};

const FILES: usize = 384;
const MEAN_FILE: usize = 64 << 10;

/// `path -> (size, FNV-1a of content)` of every regular file.
fn hash_tree(fs: &dyn FileSystem) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    let mut dirs = vec![String::from("/")];
    let mut buf = vec![0u8; 1 << 20];
    while let Some(dir) = dirs.pop() {
        for e in fs.readdir(&dir).unwrap() {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            if e.ftype == FileType::Dir {
                dirs.push(path);
                continue;
            }
            let fd = fs.open(&path, OpenFlags::READ).unwrap();
            let (mut off, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
            loop {
                let n = fs.read(fd, off, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                for &b in &buf[..n] {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                off += n as u64;
            }
            fs.close(fd).unwrap();
            out.insert(path, (off, hash));
        }
    }
    out
}

fn assert_audit_clean(sys: &System, when: &str) {
    let rep = sys.introspect.as_ref().expect("hinfs introspects").audit();
    assert!(rep.is_clean(), "audit {when}: {}", rep.to_json());
}

fn synced_content_survives_a_cold_remount(journal_blocks: u64) {
    let cfg = SystemConfig {
        device_bytes: 512 << 20,
        buffer_bytes: 2 * FILES * MEAN_FILE,
        journal_blocks,
        inode_count: 65536,
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let set = Fileset::populate(
        &*sys.fs,
        FilesetSpec::new("/data", FILES, 20, MEAN_FILE),
        0xF11E,
    )
    .unwrap();
    sys.fs.unmount().unwrap();
    let System { kind, dev, env, .. } = sys;
    let sys = remount_with(kind, dev, env, &cfg).unwrap();
    sys.env.rebase();

    let params = FilebenchParams {
        iosize: 128 << 10,
        append_size: 16 << 10,
    };
    let actors: Vec<Box<dyn Actor>> = (0..2)
        .map(|_| Box::new(Fileserver::new(set.clone(), params)) as Box<dyn Actor>)
        .collect();
    let runner = Runner::new(sys.env.clone(), sys.fs.clone()).with_device(sys.dev.clone());
    let report = runner.run(actors, RunLimit::duration_ms(800), 0xBEEF);
    drop(runner);
    assert_eq!(report.error, None);
    assert!(report.total_ops() > 0);
    let usage = sys.hinfs.as_ref().unwrap().pmfs().journal().usage();
    assert!(
        usage.generation > 2,
        "the run must have filled the ring at least once (generation {})",
        usage.generation
    );

    assert_audit_clean(&sys, "after the run");
    sys.fs.sync().unwrap();
    let live = hash_tree(&*sys.fs);
    sys.fs.unmount().unwrap();
    let System { kind, dev, env, .. } = sys;
    let cold = remount_with(kind, dev, env, &cfg).unwrap();
    let durable = hash_tree(&*cold.fs);
    assert_audit_clean(&cold, "after the cold remount");
    cold.fs.unmount().unwrap();

    assert!(!live.is_empty());
    let lost: Vec<&String> = live
        .iter()
        .filter(|(p, h)| durable.get(*p) != Some(h))
        .map(|(p, _)| p)
        .collect();
    assert!(
        lost.is_empty() && live.len() == durable.len(),
        "{} of {} files differ between the synced live mount and NVMM alone \
         ({journal_blocks}-block journal), e.g. {:?}",
        lost.len(),
        live.len(),
        lost.first()
    );
}

#[test]
fn default_journal_loses_nothing_across_sync_and_remount() {
    synced_content_survives_a_cold_remount(2048);
}

#[test]
fn half_size_journal_loses_nothing_across_sync_and_remount() {
    synced_content_survives_a_cold_remount(1024);
}
