//! Crash-consistency matrix: power-fail the NVMM-aware systems at random
//! points of a random workload and check the recovery invariants:
//!
//! 1. Recovery always succeeds (the journal never leaves broken metadata).
//! 2. Everything fsync'd (data and size) survives exactly.
//! 3. Ordered data mode: no garbage — every recovered byte was either
//!    written by the workload or is zero.

use hinfs_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const MARKERS: [u8; 4] = [0x11, 0x22, 0x33, 0x44];

struct Harness {
    /// Last-fsynced image per file (must survive exactly as a prefix
    /// invariant: fsynced size + content survive).
    synced: HashMap<String, Vec<u8>>,
}

fn run_crash_round(seed: u64, use_hinfs: bool) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new(env.clone(), 64 << 20);
    let popts = PmfsOptions {
        journal_blocks: 256,
        inode_count: 2048,
    };
    let fs: std::sync::Arc<dyn FileSystem> = if use_hinfs {
        Hinfs::mkfs(
            dev.clone(),
            popts,
            HinfsConfig::default().with_buffer_bytes(1 << 20),
        )
        .unwrap()
    } else {
        Pmfs::mkfs(dev.clone(), popts).unwrap()
    };

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Harness {
        synced: HashMap::new(),
    };
    let mut shadow: HashMap<String, Vec<u8>> = HashMap::new();
    let nfiles = 6;
    let mut fds = Vec::new();
    for i in 0..nfiles {
        let path = format!("/c{i}");
        let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
        fds.push((path, fd));
    }
    let steps = rng.gen_range(20..120);
    for step in 0..steps {
        let i = rng.gen_range(0..nfiles);
        let (path, fd) = &fds[i];
        match rng.gen_range(0..5) {
            0..=2 => {
                let off = rng.gen_range(0..48 * 1024u64) as usize;
                let len = rng.gen_range(1..12_000usize);
                let data = vec![MARKERS[step % MARKERS.len()]; len];
                fs.write(*fd, off as u64, &data).unwrap();
                let img = shadow.entry(path.clone()).or_default();
                if img.len() < off + len {
                    img.resize(off + len, 0);
                }
                img[off..off + len].copy_from_slice(&data);
            }
            3 => {
                fs.fsync(*fd).unwrap();
                h.synced
                    .insert(path.clone(), shadow.get(path).cloned().unwrap_or_default());
            }
            _ => {
                fs.tick(env.now());
            }
        }
    }
    // Crash at an arbitrary point (no unmount, descriptors open, buffer
    // dirty, transactions in flight).
    dev.crash();
    drop(fds);
    drop(fs);

    // Invariant 1: recovery succeeds.
    let fs2 = Pmfs::mount(dev).unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    for i in 0..nfiles {
        let path = format!("/c{i}");
        let st = fs2
            .stat(&path)
            .unwrap_or_else(|e| panic!("seed {seed}: {path} lost: {e}"));
        let fd = fs2.open(&path, OpenFlags::READ).unwrap();
        let mut got = vec![0u8; st.size as usize];
        fs2.read(fd, 0, &mut got).unwrap();
        fs2.close(fd).unwrap();
        // Invariant 2: the fsynced image survives exactly.
        if let Some(synced) = h.synced.get(&path) {
            assert!(
                st.size as usize >= synced.len(),
                "seed {seed}: {path} lost fsynced size ({} < {})",
                st.size,
                synced.len()
            );
            // Bytes the last fsync covered must match unless a later
            // (possibly persisted) write overwrote them — so each byte is
            // either the synced value or some later-written marker/zero.
            for (pos, (&g, &s)) in got.iter().zip(synced).enumerate() {
                assert!(
                    g == s || MARKERS.contains(&g) || g == 0,
                    "seed {seed}: {path}[{pos}] = {g:#x}, synced {s:#x}"
                );
            }
        }
        // Invariant 3: no garbage anywhere.
        for (pos, &b) in got.iter().enumerate() {
            assert!(
                b == 0 || MARKERS.contains(&b),
                "seed {seed}: {path}[{pos}] holds garbage byte {b:#x}"
            );
        }
    }
    fs2.unmount().unwrap();
}

#[test]
fn hinfs_crash_rounds() {
    for seed in 0..25 {
        run_crash_round(1000 + seed, true);
    }
}

#[test]
fn pmfs_crash_rounds() {
    for seed in 0..25 {
        run_crash_round(2000 + seed, false);
    }
}

#[test]
fn crash_mid_namespace_churn_recovers() {
    // Creates/unlinks in flight when the power fails.
    for seed in 0..10u64 {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 64 << 20);
        let fs = Hinfs::mkfs(
            dev.clone(),
            PmfsOptions {
                journal_blocks: 256,
                inode_count: 2048,
            },
            HinfsConfig::default().with_buffer_bytes(1 << 20),
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        fs.mkdir("/dir").unwrap();
        for i in 0..rng.gen_range(5..60) {
            let path = format!("/dir/n{i}");
            let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
            fs.write(fd, 0, &[0x11; 600]).unwrap();
            fs.close(fd).unwrap();
            if rng.gen_bool(0.4) {
                fs.unlink(&path).unwrap();
            }
        }
        dev.crash();
        drop(fs);
        let fs2 = Pmfs::mount(dev).unwrap();
        // The namespace parses and every listed file opens and reads.
        for e in fs2.readdir("/dir").unwrap() {
            let p = format!("/dir/{}", e.name);
            let st = fs2.stat(&p).unwrap();
            let fd = fs2.open(&p, OpenFlags::READ).unwrap();
            let mut buf = vec![0u8; st.size as usize];
            fs2.read(fd, 0, &mut buf).unwrap();
            fs2.close(fd).unwrap();
            assert!(buf.iter().all(|&b| b == 0x11 || b == 0));
        }
        fs2.unmount().unwrap();
    }
}
