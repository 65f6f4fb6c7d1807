//! Data-lifecycle provenance: the lineage ledger's durability-lag
//! contract, checked end to end on real mounts.
//!
//! 1. Synchronous acks are exact: after `fsync` returns, nothing that op
//!    acked may still be volatile — every drain is lag-0 and the max-lag
//!    gauge stays at zero, on all four systems.
//! 2. The ledger is a crash oracle: once it reports a write's bytes as
//!    writeback-drained, a power failure at that instant (no unmount, no
//!    fsync) must not lose them.
//! 3. HiNFS's own staleness promise (30 s dirty-age + periodic-pass
//!    slack) is audited online against the measured max lag (audit
//!    code 14), and a driven run stays inside the bound.

use std::sync::Arc;

use hinfs_suite::prelude::*;
use workloads::filebench::{FilebenchParams, Fileserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::setups::{build, remount_with, ObsvOptions, SystemConfig, SystemKind};

/// Distinct from anything the allocator zero-fills.
const FILL: u8 = 0x5C;
/// Large enough that metadata-page drains alone can never account for it.
const PAYLOAD: usize = 256 << 10;

fn cfg() -> SystemConfig {
    SystemConfig {
        device_bytes: 64 << 20,
        buffer_bytes: 2 << 20,
        cache_pages: 512,
        journal_blocks: 256,
        inode_count: 4096,
        obsv: ObsvOptions::flight().with_lineage(),
        ..SystemConfig::default()
    }
}

/// After `fsync` returns, the acked data is durable *now*: the ledger
/// must show only lag-0 (sync-contract) drains and a zero max-lag gauge.
#[test]
fn fsync_acked_data_has_zero_lag_on_every_system() {
    for kind in [
        SystemKind::Pmfs,
        SystemKind::Hinfs,
        SystemKind::Ext4Bd,
        SystemKind::Ext4Dax,
    ] {
        let sys = build(kind, &cfg()).unwrap();
        let obs = &sys.obs;
        let fd = sys
            .fs
            .open("/sync.log", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        for round in 0..8u64 {
            sys.fs
                .write(fd, round * 16 * 1024, &vec![FILL; 16 * 1024])
                .unwrap();
            sys.fs.fsync(fd).unwrap();
        }
        sys.fs.close(fd).unwrap();

        let snap = obs.lineage().snap();
        let label = kind.label();
        assert_eq!(snap.max_lag_ns, 0, "{label}: fsync'd data lagged its ack");
        assert_eq!(snap.drains_lazy, 0, "{label}: no lazy pass ran");
        assert!(
            snap.drains_sync > 0,
            "{label}: the fsyncs must retire stamps or persist inline"
        );
        assert_eq!(snap.lag.quantile(0.99), 0, "{label}: lag histogram");
        assert_eq!(
            snap.layer(obsv::Layer::Logical),
            8 * 16 * 1024,
            "{label}: logical bytes ledger"
        );
        assert!(
            snap.layer(obsv::Layer::NvmmPersisted) >= 8 * 16 * 1024,
            "{label}: acked bytes reached NVMM"
        );
        sys.fs.unmount().unwrap();
    }
}

/// The ledger as a crash oracle: drive background drains (no fsync, no
/// unmount) until `writeback_drained` covers a buffered write's bytes,
/// then power-fail the device at that exact instant. Recovery must find
/// the payload intact — if the ledger ever reported bytes drained that
/// were still volatile, this is where it burns.
#[test]
fn crash_after_reported_drain_finds_the_data() {
    for kind in [SystemKind::Hinfs, SystemKind::Pmfs, SystemKind::Ext4Bd] {
        let sys = build(kind, &cfg()).unwrap();
        let obs = Arc::clone(&sys.obs);
        let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();
        let fd = sys
            .fs
            .open("/oracle.dat", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        sys.fs.write(fd, 0, &payload).unwrap();

        // Tick virtual time forward in periodic-pass steps until the
        // ledger claims our bytes hit NVMM via writeback (PMFS reports
        // them inline-drained immediately; HiNFS needs the 30 s
        // dirty-age rule to pass; ext4 needs a periodic jbd commit).
        let mut reported = false;
        for _ in 0..40 {
            if obs.lineage().snap().layer(obsv::Layer::WritebackDrained) >= PAYLOAD as u64 {
                reported = true;
                break;
            }
            sys.env.set_now(sys.env.now() + 5_000_000_000);
            sys.fs.tick(sys.env.now());
        }
        let label = kind.label();
        assert!(
            reported,
            "{label}: background drains never covered the payload"
        );

        // Power-fail with the mount live: open descriptor, no fsync.
        sys.dev.crash();
        let dev = Arc::clone(&sys.dev);
        let env = Arc::clone(&sys.env);
        drop(sys);

        let sys2 = remount_with(kind, dev, env, &cfg())
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        let st = sys2
            .fs
            .stat("/oracle.dat")
            .unwrap_or_else(|e| panic!("{label}: file lost after reported drain: {e}"));
        assert!(
            st.size as usize >= PAYLOAD,
            "{label}: size {} lost bytes the ledger reported drained",
            st.size
        );
        let fd = sys2.fs.open("/oracle.dat", OpenFlags::READ).unwrap();
        let mut got = vec![0u8; PAYLOAD];
        sys2.fs.read(fd, 0, &mut got).unwrap();
        sys2.fs.close(fd).unwrap();
        assert_eq!(
            got, payload,
            "{label}: drained bytes did not survive the crash"
        );
        sys2.fs.unmount().unwrap();
    }
}

/// HiNFS promises acked data is never more than `dirty_age_ns` plus two
/// periodic-pass periods from durability. A driven run with real lazy
/// drains must measure a non-zero max lag that the online auditor
/// (check 14, `lineage.sync_decay_bound`) confirms is inside the bound.
#[test]
fn hinfs_max_lag_stays_inside_the_sync_decay_bound() {
    let mut c = cfg();
    c.obsv.audit = true;
    let sys = build(SystemKind::Hinfs, &c).unwrap();
    let obs = Arc::clone(&sys.obs);
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/d", 48, 10, 16 << 10), 7).unwrap();
    let actors: Vec<Box<dyn Actor>> =
        vec![Box::new(Fileserver::new(set, FilebenchParams::default()))];
    let r = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::duration_ms(200), 42);
    assert_eq!(r.error, None);
    // Park past the dirty-age horizon so the periodic passes measurably
    // drain aged blocks (real, non-zero lag) before the audit runs.
    for _ in 0..8 {
        sys.env.set_now(sys.env.now() + 5_000_000_000);
        sys.fs.tick(sys.env.now());
    }

    let snap = obs.lineage().snap();
    assert!(snap.drains_lazy > 0, "run produced no lazy drains to bound");
    assert!(snap.max_lag_ns > 0, "lazy drains must measure real lag");
    let hc = HinfsConfig::default();
    let bound = hc.dirty_age_ns + 2 * hc.periodic_wb_ns;
    assert!(
        snap.max_lag_ns <= bound,
        "max lag {} exceeds the sync-decay bound {}",
        snap.max_lag_ns,
        bound
    );
    let rep = sys.introspect.as_ref().expect("hinfs introspects").audit();
    assert!(rep.is_clean(), "audit violations: {:?}", rep.violations);
    sys.fs.unmount().unwrap();
}
