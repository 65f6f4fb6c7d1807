//! Golden outputs of every name `obsv` declares: the labels of its
//! labelled enums in discriminant order, each trace-event kind's human
//! rendering and coverage feature, and the snapshot's JSON keys and gauge
//! names. Tools, the bench and the fuzzer read these strings;
//! a refactor of how they are declared must keep them byte-identical.

use obsv::{
    CoverageDomain, CoverageMap, FsSnapshot, HistoSnapshot, Site, TraceEvent, TraceRecord, Visitor,
    ALL_LAYERS, ALL_OPS, ALL_PHASES, ALL_SITES, COVERAGE_DOMAINS,
};

fn labels<T: Copy>(all: &[T], label: impl Fn(T) -> &'static str) -> String {
    all.iter().map(|&v| label(v)).collect::<Vec<_>>().join(" ")
}

#[test]
fn labels_in_discriminant_order() {
    assert_eq!(
        labels(&ALL_OPS, |o| o.label()),
        "open close read write fsync unlink mkdir readdir stat rename truncate"
    );
    for (i, op) in ALL_OPS.iter().enumerate() {
        assert_eq!(*op as usize, i);
    }
    assert_eq!(
        labels(&ALL_PHASES, |p| p.label()),
        "buf_lookup dram_copy nvmm_copy cacheline_stitch persist fence journal alloc index \
         ghost_probe other"
    );
    for (i, p) in ALL_PHASES.iter().enumerate() {
        assert_eq!(*p as usize, i);
    }
    assert_eq!(
        labels(&ALL_LAYERS, |l| l.label()),
        "logical dram_buffered journal_logged nvmm_persisted writeback_drained"
    );
    for (i, l) in ALL_LAYERS.iter().enumerate() {
        assert_eq!(*l as usize, i);
    }
    assert_eq!(
        labels(&COVERAGE_DOMAINS, |d| d.label()),
        "trace site state crash op"
    );
    for (i, d) in COVERAGE_DOMAINS.iter().enumerate() {
        assert_eq!(*d as usize, i);
    }
}

#[test]
fn all_50_site_labels_in_discriminant_order() {
    assert_eq!(ALL_SITES.len(), 50);
    assert_eq!(
        labels(&ALL_SITES, |s| s.label()),
        "nvmm.device nvmm.gate fskit.fdtable pmfs.journal pmfs.alloc pmfs.ns \
         pmfs.inode_map hinfs.buffer_pool hinfs.writeback extfs.jbd extfs.alloc extfs.ns \
         extfs.dirty_data extfs.cache extfs.inode_map stall.writeback stall.journal_full \
         stall.throttle \
         hinfs.shard0 hinfs.shard1 hinfs.shard2 hinfs.shard3 hinfs.shard4 hinfs.shard5 \
         hinfs.shard6 hinfs.shard7 \
         pmfs.alloc_shard0 pmfs.alloc_shard1 pmfs.alloc_shard2 pmfs.alloc_shard3 \
         pmfs.alloc_shard4 pmfs.alloc_shard5 pmfs.alloc_shard6 pmfs.alloc_shard7 \
         pmfs.ns_shard0 pmfs.ns_shard1 pmfs.ns_shard2 pmfs.ns_shard3 pmfs.ns_shard4 \
         pmfs.ns_shard5 pmfs.ns_shard6 pmfs.ns_shard7 \
         pmfs.inode_shard0 pmfs.inode_shard1 pmfs.inode_shard2 pmfs.inode_shard3 \
         pmfs.inode_shard4 pmfs.inode_shard5 pmfs.inode_shard6 pmfs.inode_shard7"
    );
    // The named sites keep their positions, and each shard family is a
    // contiguous run of eight starting where the previous one ended; a
    // family constructor wraps its index.
    let pos = |s: Site| ALL_SITES.iter().position(|&t| t == s).unwrap();
    assert_eq!(pos(Site::NvmmDevice), 0);
    assert_eq!(pos(Site::FskitFdtable), 2);
    assert_eq!(pos(Site::HinfsWriteback), 8);
    assert_eq!(pos(Site::StallThrottle), 17);
    type Family = fn(usize) -> Site;
    let families: [(Family, usize); 4] = [
        (Site::hinfs_shard, 18),
        (Site::pmfs_alloc_shard, 26),
        (Site::pmfs_ns_shard, 34),
        (Site::pmfs_inode_shard, 42),
    ];
    for (family, base) in families {
        for i in 0..8 {
            assert_eq!(pos(family(i)), base + i);
            assert_eq!(family(i + 8), family(i));
        }
    }
}

/// One event per kind, two for the kinds with a flag.
fn every_kind() -> Vec<TraceEvent> {
    vec![
        TraceEvent::ReclaimBegin {
            free: 3,
            target: 51,
        },
        TraceEvent::ReclaimEnd {
            victims: 48,
            free: 51,
        },
        TraceEvent::WatermarkLow { free: 11, low: 12 },
        TraceEvent::ForegroundStall { ino: 42 },
        TraceEvent::BbmFlip {
            ino: 7,
            iblk: 9,
            to_lazy: true,
            n_cw: 120,
            n_cf: 8,
            l_dram: 40,
            l_nvmm: 200,
            sync_age_ns: 1_500_000,
        },
        TraceEvent::BbmFlip {
            ino: 7,
            iblk: 9,
            to_lazy: false,
            n_cw: 8,
            n_cf: 8,
            l_dram: 40,
            l_nvmm: 200,
            sync_age_ns: 9_000_000_000,
        },
        TraceEvent::JournalCommit {
            txid: 77,
            log_entries: 5,
        },
        TraceEvent::PeriodicPass { age_flushed: 2 },
        TraceEvent::RecoveryBegin { gen: 4 },
        TraceEvent::RecoveryEnd {
            txs_undone: 1,
            entries_undone: 3,
        },
        TraceEvent::FaultInjected {
            kind: 2,
            at_boundary: 17,
        },
        TraceEvent::AuditViolation {
            code: 2,
            ino: 0,
            iblk: 0,
            got: 63,
            want: 64,
        },
        TraceEvent::LineageDrained {
            row: 3,
            lazy: true,
            bytes: 4096,
            lag_ns: 5_000_000_000,
            seq_lo: 17,
            seq_hi: 29,
        },
        TraceEvent::LineageDrained {
            row: 11,
            lazy: false,
            bytes: 64,
            lag_ns: 0,
            seq_lo: 30,
            seq_hi: 30,
        },
    ]
}

const DISPLAY: &str = "[           0 ns] #0      reclaim.begin free=3 target=51
[         100 ns] #1      reclaim.end victims=48 free=51
[         200 ns] #2      watermark.low free=11 low=12
[         300 ns] #3      foreground.stall ino=42
[         400 ns] #4      bbm.flip ino=7 iblk=9 to=lazy n_cw=120 n_cf=8 l_dram=40 l_nvmm=200 sync_age_ns=1500000
[         500 ns] #5      bbm.flip ino=7 iblk=9 to=eager n_cw=8 n_cf=8 l_dram=40 l_nvmm=200 sync_age_ns=9000000000
[         600 ns] #6      journal.commit txid=77 log_entries=5
[         700 ns] #7      writeback.periodic age_flushed=2
[         800 ns] #8      recovery.begin gen=4
[         900 ns] #9      recovery.end txs_undone=1 entries_undone=3
[        1000 ns] #10     fault.injected kind=enospc at_boundary=17
[        1100 ns] #11     audit.violation invariant=lrw.accounting ino=0 iblk=0 got=63 want=64
[        1200 ns] #12     lineage.drained origin=write kind=lazy bytes=4096 lag_ns=5000000000 seq=[17, 29]
[        1300 ns] #13     lineage.drained origin=bg kind=sync bytes=64 lag_ns=0 seq=[30, 30]
";

fn records() -> Vec<TraceRecord> {
    every_kind()
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            seq: i as u64,
            at_ns: i as u64 * 100,
            ev,
        })
        .collect()
}

#[test]
fn trace_display_line_per_kind() {
    let got: String = records().iter().map(|r| format!("{r}\n")).collect();
    assert_eq!(got, DISPLAY);
    // Out-of-table codes keep their fallback names.
    let odd = [
        TraceEvent::FaultInjected {
            kind: 9,
            at_boundary: 0,
        },
        TraceEvent::AuditViolation {
            code: 999,
            ino: 1,
            iblk: 2,
            got: 3,
            want: 4,
        },
        TraceEvent::LineageDrained {
            row: 200,
            lazy: true,
            bytes: 1,
            lag_ns: 2,
            seq_lo: 3,
            seq_hi: 4,
        },
    ];
    let got: Vec<String> = odd.iter().map(|e| e.to_string()).collect();
    assert_eq!(
        got,
        [
            "fault.injected kind=unknown at_boundary=0",
            "audit.violation invariant=unknown ino=1 iblk=2 got=3 want=4",
            "lineage.drained origin=bg kind=lazy bytes=1 lag_ns=2 seq=[3, 4]",
        ]
    );
}

#[test]
fn trace_ring_round_trips_every_kind() {
    let ring = obsv::TraceRing::new(32);
    for (i, ev) in every_kind().into_iter().enumerate() {
        ring.push(i as u64 * 100, ev);
    }
    assert_eq!(ring.tail(64), records());
}

/// The coverage feature `add_trace` derives from each event: kind index
/// in bits 24.., the bucketed payload below.
const FEATURES: [u64; 14] = [
    0x0000_0002,
    0x0100_0006,
    0x0200_0004,
    0x0300_0000,
    0x0401_0704,
    0x0400_0404,
    0x0500_0003,
    0x0600_0002,
    0x0700_0000,
    0x0800_0102,
    0x0900_0002,
    0x0a00_0002,
    0x0b03_0121,
    0x0b0b_0000,
];

#[test]
fn coverage_feature_per_kind() {
    for (ev, want) in every_kind().iter().zip(FEATURES) {
        let mut m = CoverageMap::new();
        assert_eq!(m.add_trace(5, ev), 1);
        assert!(
            !m.insert(CoverageDomain::Trace, 5, want),
            "{ev}: feature is not {want:#x}"
        );
        assert_eq!(m.len(), 1);
    }
}

struct Names(Vec<String>);

impl Visitor for Names {
    fn counter(&mut self, name: &str, v: u64) {
        self.0.push(format!("c {name}={v}"));
    }
    fn gauge(&mut self, name: &str, v: u64) {
        self.0.push(format!("g {name}={v}"));
    }
    fn histo(&mut self, name: &str, s: HistoSnapshot) {
        self.0.push(format!("h {name}={}", s.count()));
    }
}

/// A snapshot with every section present and every field distinct.
fn full_snapshot() -> FsSnapshot {
    let obs = obsv::FsObs::default();
    obs.set_level(obsv::Level::Full);
    obs.op(obsv::OpKind::Write, || {
        obsv::note_bytes(obsv::Layer::Logical, 4096);
        obsv::note_bytes(obsv::Layer::DramBuffered, 4096);
        obsv::note_bytes(obsv::Layer::JournalLogged, 128);
        obsv::note_bytes(obsv::Layer::NvmmPersisted, 64);
        obsv::note_fence();
    });
    let stamp = obs.stamp(10);
    obs.record_drain(&stamp, obsv::DrainKind::Lazy, 1_000, 4096);
    FsSnapshot {
        system: "hin\"fs".into(),
        at_ns: 42,
        buffer: Some(obsv::BufferSnap {
            capacity_blocks: 1,
            free_blocks: 2,
            occupied_blocks: 3,
            shard_occupied_blocks: vec![4, 5],
            dirty_blocks: 6,
            low_blocks: 7,
            high_blocks: 8,
            eager_blocks: 9,
            lazy_buffered_blocks: 10,
            ghost_blocks: 11,
            bbm_tracked_blocks: 12,
            bbm_evals: 13,
            bbm_accurate: 14,
            files_tracked: 15,
            open_txs: 16,
            dirty_line_histo: [17, 18, 19, 20, 21, 22, 23, 24, 25],
            lrw_age_histo: [26, 27, 28, 29, 30, 31, 32],
            lrw_oldest_age_ns: 33,
        }),
        journal: Some(obsv::JournalSnap {
            capacity_entries: 34,
            fill_entries: 35,
            reserved_entries: 36,
            free_entries: 37,
            open_txs: 38,
            generation: 39,
        }),
        cache: Some(obsv::CacheSnap {
            capacity_pages: 40,
            cached_pages: 41,
            dirty_pages: 42,
            hits: 43,
            misses: 44,
        }),
        device: Some(obsv::DeviceSnap {
            capacity_bytes: 45,
            bytes_written: 46,
            bytes_read: 47,
            flush_lines: 48,
            fences: 49,
            cached_store_bytes: 50,
            ledger_ns: vec![("persist".into(), 51), ("fence".into(), 52)],
            ledger_total_ns: 103,
        }),
        lineage: Some(obs.lineage().snap()),
    }
}

const SNAPSHOT_JSON: &str = concat!(
    r#"{"schema":1,"system":"hin_fs","at_ns":42,"#,
    r#""buffer":{"capacity_blocks":1,"free_blocks":2,"occupied_blocks":3,"dirty_blocks":6,"#,
    r#""low_blocks":7,"high_blocks":8,"eager_blocks":9,"lazy_buffered_blocks":10,"#,
    r#""ghost_blocks":11,"bbm_tracked_blocks":12,"bbm_evals":13,"bbm_accurate":14,"#,
    r#""files_tracked":15,"open_txs":16,"lrw_oldest_age_ns":33,"shard_occupied_blocks":[4,5],"#,
    r#""dirty_line_histo":[17,18,19,20,21,22,23,24,25],"#,
    r#""lrw_age_bounds_ns":[1000000,10000000,100000000,1000000000,5000000000,30000000000],"#,
    r#""lrw_age_histo":[26,27,28,29,30,31,32]},"#,
    r#""journal":{"capacity_entries":34,"fill_entries":35,"reserved_entries":36,"#,
    r#""free_entries":37,"open_txs":38,"generation":39},"#,
    r#""cache":{"capacity_pages":40,"cached_pages":41,"dirty_pages":42,"hits":43,"misses":44},"#,
    r#""device":{"capacity_bytes":45,"bytes_written":46,"bytes_read":47,"flush_lines":48,"#,
    r#""fences":49,"cached_store_bytes":50,"ledger_total_ns":103,"#,
    r#""ledger_ns":{"persist":51,"fence":52}},"#,
    r#""lineage":{"layers":{"logical":4096,"dram_buffered":4096,"journal_logged":128,"#,
    r#""nvmm_persisted":64,"writeback_drained":4096},"fences":1,"stamps":1,"drains_sync":0,"#,
    r#""drains_lazy":1,"max_lag_ns":990,"fences_per_kib":0.250,"#,
    r#""lag":{"count":1,"p50_ns":990,"p99_ns":990,"max_ns":990}}}"#,
);

const GAUGES: &str = "g p_buffer_capacity_blocks=1 g p_buffer_free_blocks=2 \
g p_buffer_dirty_blocks=6 g p_buffer_low_blocks=7 g p_buffer_high_blocks=8 \
g p_buffer_eager_blocks=9 g p_buffer_lazy_blocks=10 g p_buffer_ghost_blocks=11 \
g p_buffer_open_txs=16 g p_buffer_files_tracked=15 \
g p_journal_capacity_entries=34 g p_journal_fill_entries=35 \
g p_journal_reserved_entries=36 g p_journal_free_entries=37 g p_journal_open_txs=38 \
g p_journal_generation=39 \
g p_cache_capacity_pages=40 g p_cache_cached_pages=41 g p_cache_dirty_pages=42 \
g p_lineage_logical_bytes=4096 g p_lineage_dram_buffered_bytes=4096 \
g p_lineage_journal_logged_bytes=128 g p_lineage_nvmm_persisted_bytes=64 \
g p_lineage_writeback_drained_bytes=4096 g p_lineage_fences=1 g p_lineage_stamps=1 \
g p_lineage_drains_sync=0 g p_lineage_drains_lazy=1 g p_lineage_max_lag_ns=990";

/// Gauges compare as a set: the registry keys them by name, so only the
/// names and values are observable, not the visit order.
fn sorted(s: &str) -> Vec<String> {
    let mut v: Vec<String> = s
        .split(" g ")
        .map(|x| x.trim_start_matches("g ").to_string())
        .collect();
    v.sort();
    v
}

#[test]
fn snapshot_json_keys_and_gauge_names() {
    let snap = full_snapshot();
    assert_eq!(snap.to_json(), SNAPSHOT_JSON);
    let mut names = Names(Vec::new());
    snap.visit_gauges("p_", &mut names);
    assert_eq!(sorted(&names.0.join(" ")), sorted(GAUGES));
}

#[test]
fn fs_obs_exposes_its_lineage_under_the_same_names() {
    let obs = obsv::FsObs::default();
    obs.set_level(obsv::Level::Full);
    obs.op(obsv::OpKind::Write, || {
        obsv::note_bytes(obsv::Layer::Logical, 4096)
    });
    let mut names = Names(Vec::new());
    obsv::MetricSource::collect(&obs, &mut names);
    assert_eq!(
        names.0.join(" "),
        "h obsv_op_write_ns=1 c obsv_audit_checks=0 c obsv_audit_violations=0 \
         c obsv_lineage_logical_bytes=4096 c obsv_lineage_dram_buffered_bytes=0 \
         c obsv_lineage_journal_logged_bytes=0 c obsv_lineage_nvmm_persisted_bytes=0 \
         c obsv_lineage_writeback_drained_bytes=0 c obsv_lineage_fences=0 \
         c obsv_lineage_stamps=0 c obsv_lineage_drains_sync=0 c obsv_lineage_drains_lazy=0 \
         g obsv_lineage_max_lag_ns=0"
    );
}

#[test]
fn audit_report_json_and_violation_rendering() {
    let mut rep = obsv::AuditReport::new(5);
    rep.check_eq(4, 3, 9, 7, 5);
    rep.check_le(999, 0, 0, 2, 1);
    assert_eq!(
        rep.to_json(),
        r#"{"at_ns":5,"checks":2,"violations":[{"invariant":"bitmap.dirty_subset_valid","ino":3,"iblk":9,"got":7,"want":5},{"invariant":"unknown","ino":0,"iblk":0,"got":2,"want":1}]}"#
    );
    let shown: Vec<String> = rep.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        shown,
        [
            "bitmap.dirty_subset_valid ino=3 iblk=9 got=7 want=5",
            "unknown ino=0 iblk=0 got=2 want=1",
        ]
    );
}
