//! Data-lifecycle provenance: follows logical writes from ack to
//! durability across every system in the suite.
//!
//! The per-op histograms stop at the syscall boundary, but the systems
//! under test deliberately *defer* durability — HiNFS buffers lazy
//! writes in DRAM, its tracker defers journal commits into group
//! batches, the ext family parks dirty pages in the page cache until
//! fsync or the periodic commit. A [`LineageTable`] measures the cost of
//! that bet on two axes:
//!
//! - **Durability lag** — simulated time from a write's acknowledgement
//!   (the clean→dirty stamp on its DRAM block/page) to the drain that
//!   made it durable on NVMM. Synchronous drains (fsync, O_SYNC, eager
//!   in-op persists, in-op journal commits) record lag 0 by definition:
//!   the durability contract is met at the op's return. Lazy drains
//!   (writeback passes, reclaim evictions, deferred group commits,
//!   periodic jbd commits, cache evictions) record the real age of the
//!   stamped data. A max-lag gauge feeds the online auditor, which
//!   checks it against the mount's sync-decay bound.
//! - **Per-layer write amplification** — logical bytes vs DRAM-buffered
//!   vs journal-logged vs NVMM-persisted vs writeback-drained bytes,
//!   plus fences, per [`OpKind`] row (background work gets its own row,
//!   like the span matrix). `fences per logical KiB` and
//!   `persisted/logical` fall straight out of the ledger.
//!
//! The table is a pure accumulator with two feeders, both gated by the
//! owning [`FsObs`](crate::FsObs) level: finished op frames fold their
//! per-layer bytes and fence counts into the ledger row of the op that
//! opened them (see the `scope` module), and stamp sites call
//! [`FsObs::stamp`](crate::FsObs::stamp) /
//! [`FsObs::record_drain`](crate::FsObs::record_drain), which reuse
//! timestamps the callers already hold — so enabling lineage changes no
//! result bit (proven by `tests/determinism.rs`).

use crate::histo::{Histo, HistoSnapshot};
use crate::{OpKind, ALL_OPS, BG_ROW, NOPS};
use std::sync::atomic::{AtomicU64, Ordering};

/// The layers a logical byte moves through on its way to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Layer {
    /// Bytes the application handed to the file system.
    Logical = 0,
    /// Bytes staged in DRAM (HiNFS buffer slots, ext page cache).
    DramBuffered = 1,
    /// Bytes written to a journal region (undo entries, jbd blocks).
    JournalLogged = 2,
    /// Bytes persisted to NVMM media (cacheline granularity, all paths).
    NvmmPersisted = 3,
    /// Bytes drained out of a volatile staging layer to NVMM — the
    /// subset of persisted traffic that retired a stamp.
    WritebackDrained = 4,
}

/// Number of [`Layer`] variants.
pub const NLAYERS: usize = 5;

/// All layers in discriminant order.
pub const ALL_LAYERS: [Layer; NLAYERS] = [
    Layer::Logical,
    Layer::DramBuffered,
    Layer::JournalLogged,
    Layer::NvmmPersisted,
    Layer::WritebackDrained,
];

impl Layer {
    /// Stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Logical => "logical",
            Layer::DramBuffered => "dram_buffered",
            Layer::JournalLogged => "journal_logged",
            Layer::NvmmPersisted => "nvmm_persisted",
            Layer::WritebackDrained => "writeback_drained",
        }
    }
}

/// Rows in the lineage ledger: one per [`OpKind`] plus the background
/// row (index [`BG_ROW`], label `bg`), mirroring the span matrix.
pub const LINEAGE_ROWS: usize = NOPS + 1;

/// How a drain met the durability contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainKind {
    /// The drain happened inside a synchronization the caller asked for
    /// (fsync, sync, O_SYNC, eager in-op persist, in-op journal commit):
    /// the ack-to-durable contract is met at op return, lag is 0.
    Sync,
    /// The drain happened behind the caller's back (writeback pass,
    /// reclaim eviction, deferred group commit, periodic jbd commit,
    /// cache eviction): the stamped data was acked but not durable for
    /// the recorded lag.
    Lazy,
}

/// An ack stamp carried by a buffered block / page / deferred
/// transaction: when the data was acknowledged and where the trace ring
/// stood at that moment (the start of the op's causal seq window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamp {
    /// Simulated time of the clean→dirty transition (the ack).
    pub ack_ns: u64,
    /// Trace-ring seq ticket at the ack.
    pub seq: u64,
    /// Origin row: the [`OpKind`] discriminant of the op that stamped,
    /// or [`BG_ROW`] when no op was in flight.
    pub row: u8,
}

impl Stamp {
    /// The origin op kind, when the stamp was made inside an op.
    pub fn origin(&self) -> Option<OpKind> {
        ALL_OPS.get(self.row as usize).copied()
    }
}

/// Per-file-system data-lifecycle ledger: a bytes matrix of
/// [`LINEAGE_ROWS`] × [`NLAYERS`], per-row fence counts, per-origin-op
/// durability-lag histograms and the max-lag gauge.
#[derive(Debug)]
pub struct LineageTable {
    bytes: Box<[[AtomicU64; NLAYERS]]>,
    fences: Box<[AtomicU64]>,
    lag: [Histo; NOPS],
    max_lag_ns: AtomicU64,
    stamps: AtomicU64,
    drains_sync: AtomicU64,
    drains_lazy: AtomicU64,
}

impl Default for LineageTable {
    fn default() -> Self {
        LineageTable::new()
    }
}

impl LineageTable {
    /// An empty table.
    pub fn new() -> LineageTable {
        LineageTable {
            bytes: (0..LINEAGE_ROWS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            fences: (0..LINEAGE_ROWS).map(|_| AtomicU64::new(0)).collect(),
            lag: std::array::from_fn(|_| Histo::new()),
            max_lag_ns: AtomicU64::new(0),
            stamps: AtomicU64::new(0),
            drains_sync: AtomicU64::new(0),
            drains_lazy: AtomicU64::new(0),
        }
    }

    /// Adds one finished frame's per-layer bytes and fences to `row`.
    pub(crate) fn fold(&self, row: usize, bytes: &[u64; NLAYERS], fences: u64) {
        for (cell, &b) in self.bytes[row].iter().zip(bytes) {
            if b > 0 {
                cell.fetch_add(b, Ordering::Relaxed);
            }
        }
        if fences > 0 {
            self.fences[row].fetch_add(fences, Ordering::Relaxed);
        }
    }

    /// Counts one ack stamp.
    pub(crate) fn count_stamp(&self) {
        self.stamps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one drain retiring a stamp; see
    /// [`FsObs::record_drain`](crate::FsObs::record_drain).
    pub(crate) fn record_drain(
        &self,
        stamp: &Stamp,
        kind: DrainKind,
        now_ns: u64,
        bytes: u64,
    ) -> u64 {
        let lag = match kind {
            DrainKind::Sync => {
                self.drains_sync.fetch_add(1, Ordering::Relaxed);
                0
            }
            DrainKind::Lazy => {
                self.drains_lazy.fetch_add(1, Ordering::Relaxed);
                now_ns.saturating_sub(stamp.ack_ns)
            }
        };
        let row = (stamp.row as usize).min(BG_ROW);
        self.bytes[row][Layer::WritebackDrained as usize].fetch_add(bytes, Ordering::Relaxed);
        let op_row = if row < NOPS {
            row
        } else {
            OpKind::Write as usize
        };
        self.lag[op_row].record(lag);
        self.max_lag_ns.fetch_max(lag, Ordering::Relaxed);
        lag
    }

    /// The exact largest durability lag recorded so far, ns.
    pub fn max_lag_ns(&self) -> u64 {
        self.max_lag_ns.load(Ordering::Relaxed)
    }

    /// Stamps created (blocks/pages/transactions entering a staging
    /// layer while enabled).
    pub fn stamps(&self) -> u64 {
        self.stamps.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the whole ledger.
    pub fn snap(&self) -> LineageSnap {
        let row_bytes: Vec<[u64; NLAYERS]> = self
            .bytes
            .iter()
            .map(|row| std::array::from_fn(|l| row[l].load(Ordering::Relaxed)))
            .collect();
        let mut layer_bytes = [0u64; NLAYERS];
        for row in &row_bytes {
            for (l, &b) in row.iter().enumerate() {
                layer_bytes[l] += b;
            }
        }
        let lag_by_op: Vec<HistoSnapshot> = self.lag.iter().map(|h| h.snapshot()).collect();
        let mut lag = HistoSnapshot::default();
        for s in &lag_by_op {
            lag.merge(s);
        }
        LineageSnap {
            row_bytes,
            layer_bytes,
            fences: self.fences.iter().map(|f| f.load(Ordering::Relaxed)).sum(),
            row_fences: self
                .fences
                .iter()
                .map(|f| f.load(Ordering::Relaxed))
                .collect(),
            lag_by_op,
            lag,
            max_lag_ns: self.max_lag_ns(),
            stamps: self.stamps(),
            drains_sync: self.drains_sync.load(Ordering::Relaxed),
            drains_lazy: self.drains_lazy.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`LineageTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageSnap {
    /// Bytes per row × layer ([`LINEAGE_ROWS`] rows, `bg` last).
    pub row_bytes: Vec<[u64; NLAYERS]>,
    /// Bytes per layer summed over all rows.
    pub layer_bytes: [u64; NLAYERS],
    /// Fences summed over all rows.
    pub fences: u64,
    /// Fences per row.
    pub row_fences: Vec<u64>,
    /// Durability-lag distribution per origin [`OpKind`].
    pub lag_by_op: Vec<HistoSnapshot>,
    /// Durability-lag distribution merged over all origins.
    pub lag: HistoSnapshot,
    /// Exact largest lag recorded, ns.
    pub max_lag_ns: u64,
    /// Ack stamps created.
    pub stamps: u64,
    /// Drains recorded with the sync (lag-0) contract.
    pub drains_sync: u64,
    /// Drains recorded with real (lazy) lag.
    pub drains_lazy: u64,
}

impl Default for LineageSnap {
    fn default() -> Self {
        LineageSnap {
            row_bytes: vec![[0; NLAYERS]; LINEAGE_ROWS],
            layer_bytes: [0; NLAYERS],
            fences: 0,
            row_fences: vec![0; LINEAGE_ROWS],
            lag_by_op: vec![HistoSnapshot::default(); NOPS],
            lag: HistoSnapshot::default(),
            max_lag_ns: 0,
            stamps: 0,
            drains_sync: 0,
            drains_lazy: 0,
        }
    }
}

impl LineageSnap {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.stamps == 0
            && self.drains_sync == 0
            && self.drains_lazy == 0
            && self.layer_bytes.iter().all(|&b| b == 0)
            && self.fences == 0
    }

    /// Bytes in one layer (all rows).
    pub fn layer(&self, layer: Layer) -> u64 {
        self.layer_bytes[layer as usize]
    }

    /// Fences per logical KiB, or 0 with no logical bytes.
    pub fn fences_per_kib(&self) -> f64 {
        let logical = self.layer(Layer::Logical);
        if logical == 0 {
            return 0.0;
        }
        self.fences as f64 * 1024.0 / logical as f64
    }

    /// Write amplification of `layer` against logical bytes, as a float
    /// (0.0 with no logical traffic).
    pub fn amplification(&self, layer: Layer) -> f64 {
        let logical = self.layer(Layer::Logical);
        if logical == 0 {
            return 0.0;
        }
        self.layer(layer) as f64 / logical as f64
    }

    /// The rows with the most NVMM-persisted + drained bytes, largest
    /// first: `(row, persisted + drained bytes)`, zero rows skipped.
    pub fn top_amplifiers(&self, k: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .row_bytes
            .iter()
            .enumerate()
            .map(|(row, b)| {
                (
                    row,
                    b[Layer::NvmmPersisted as usize] + b[Layer::WritebackDrained as usize],
                )
            })
            .filter(|&(_, b)| b > 0)
            .collect();
        v.sort_by_key(|&(row, b)| (std::cmp::Reverse(b), row));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsObs, Level};

    // How bytes reach a row (op scopes, nesting, background) is tested
    // with the op scope in `scope.rs`; these cover stamps, drains and the
    // derived ratios.

    fn full() -> FsObs {
        let obs = FsObs::default();
        obs.set_level(Level::Full);
        obs
    }

    #[test]
    fn stamps_and_drains_track_lag() {
        let obs = full();
        let stamp = obs.op(OpKind::Write, || obs.stamp(1_000));
        assert_eq!(stamp.origin(), Some(OpKind::Write));
        assert_eq!(stamp.ack_ns, 1_000);
        assert_eq!(stamp.seq, obs.trace.emitted());
        // A lazy drain 9µs later records the real age...
        let lag = obs.record_drain(&stamp, DrainKind::Lazy, 10_000, 4096);
        assert_eq!(lag, 9_000);
        // ...a sync drain of a second stamp asserts 0.
        let stamp2 = obs.op(OpKind::Write, || obs.stamp(2_000));
        assert_eq!(obs.record_drain(&stamp2, DrainKind::Sync, 99_000, 4096), 0);
        let s = obs.lineage().snap();
        assert_eq!(s.stamps, 2);
        assert_eq!(s.drains_lazy, 1);
        assert_eq!(s.drains_sync, 1);
        assert_eq!(s.max_lag_ns, 9_000);
        assert_eq!(s.lag.count(), 2);
        assert_eq!(s.lag.max(), 9_000);
        assert_eq!(s.lag_by_op[OpKind::Write as usize].count(), 2);
        assert_eq!(
            s.row_bytes[OpKind::Write as usize][Layer::WritebackDrained as usize],
            8192
        );
    }

    #[test]
    fn inline_drains_are_lag_zero_on_the_current_row() {
        let obs = full();
        obs.op(OpKind::Truncate, || obs.record_inline_drain(4096));
        let s = obs.lineage().snap();
        assert_eq!(s.drains_sync, 1);
        assert_eq!(s.max_lag_ns, 0);
        assert_eq!(s.lag_by_op[OpKind::Truncate as usize].count(), 1);
        assert_eq!(s.lag_by_op[OpKind::Truncate as usize].max(), 0);
        assert_eq!(
            s.row_bytes[OpKind::Truncate as usize][Layer::WritebackDrained as usize],
            4096
        );
    }

    #[test]
    fn bg_stamps_fold_into_the_write_lag_histogram() {
        let obs = full();
        let stamp = obs.stamp(500); // no scope: bg provenance
        assert_eq!(stamp.row as usize, BG_ROW);
        assert_eq!(stamp.origin(), None);
        obs.record_drain(&stamp, DrainKind::Lazy, 700, 64);
        let s = obs.lineage().snap();
        assert_eq!(s.row_bytes[BG_ROW][Layer::WritebackDrained as usize], 64);
        assert_eq!(s.lag_by_op[OpKind::Write as usize].count(), 1);
        assert_eq!(s.max_lag_ns, 200);
    }

    #[test]
    fn snap_derives_amplification_and_fence_rate() {
        let t = LineageTable::new();
        t.fold(OpKind::Write as usize, &[2048, 0, 0, 8192, 0], 3);
        t.fold(BG_ROW, &[0, 0, 0, 100, 0], 0);
        let s = t.snap();
        assert_eq!(s.amplification(Layer::NvmmPersisted), 8292.0 / 2048.0);
        assert_eq!(s.fences_per_kib(), 1.5, "not truncated to 1");
        let top = s.top_amplifiers(4);
        assert_eq!(top[0], (OpKind::Write as usize, 8192));
        assert_eq!(top[1], (BG_ROW, 100));
        // Empty table divides to zero, not a panic.
        let empty = LineageTable::new().snap();
        assert_eq!(empty.amplification(Layer::NvmmPersisted), 0.0);
        assert_eq!(empty.fences_per_kib(), 0.0);
        assert!(empty.top_amplifiers(3).is_empty());
    }
}
