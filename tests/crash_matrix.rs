//! Crash-consistency matrix: power-fail the NVMM-aware systems after the
//! last op of a random script and judge each recovery with the exact
//! durability oracle: recovery succeeds, everything fsync'd (data and
//! size) survives exactly, no byte appears that was never written, and
//! every namespace op is all-or-nothing.

use faultfs::{Harness, Script};
use hinfs_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::setups::remount_with;

/// Crashes 25 random scripts of 20 to 120 ops on `kind`, each after its
/// last op (no boundary is armed that the replay reaches: descriptors,
/// dirty buffers and open transactions are all in flight).
fn crash_rounds(kind: SystemKind, first_seed: u64) {
    let h = Harness::new();
    for seed in first_seed..first_seed + 25 {
        let len = SmallRng::seed_from_u64(seed).gen_range(20..120);
        let out = h.crash_run(kind, &Script::random(seed, len), u64::MAX, None);
        assert!(!out.crashed_mid_op, "seed {seed}: the crash hit an op");
        assert!(
            out.violations.is_empty(),
            "{} seed {seed}: {:#?}",
            kind.label(),
            out.violations
        );
        assert!(out.checks > 0, "seed {seed}: the oracle checked nothing");
    }
}

#[test]
fn hinfs_crash_rounds() {
    crash_rounds(SystemKind::Hinfs, 1000);
}

#[test]
fn pmfs_crash_rounds() {
    crash_rounds(SystemKind::Pmfs, 2000);
}

/// Creates and unlinks in flight in one directory when the power fails:
/// up to 60 names, more than a script's file slots can reach.
#[test]
fn crash_mid_namespace_churn_recovers() {
    let cfg = SystemConfig {
        device_bytes: 64 << 20,
        buffer_bytes: 1 << 20,
        journal_blocks: 256,
        inode_count: 2048,
        ..SystemConfig::default()
    };
    for seed in 0..10u64 {
        let sys = build(SystemKind::Hinfs, &cfg).unwrap();
        let fs = &sys.fs;
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
        sys.dev.crash();
        let fs2 = remount_with(sys.kind, sys.dev, sys.env, &cfg).unwrap().fs;
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
