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
//!   vs journal-logged vs NVMM-persisted vs writeback-drained bytes, plus
//!   fences. `fences per logical KiB` and `persisted/logical` fall
//!   straight out of the ledger.
//!
//! The table is a pure accumulator fed by the op scope's fold and by
//! [`FsObs::stamp`](crate::FsObs::stamp) /
//! [`FsObs::record_drain`](crate::FsObs::record_drain), which reuse
//! timestamps the callers already hold — so enabling lineage changes no
//! result bit (proven by `tests/determinism.rs`).

use crate::histo::{Histo, HistoSnapshot};
use crate::Visitor;
use std::sync::atomic::{AtomicU64, Ordering};

labelled! {
    /// The layers a logical byte moves through on its way to durability.
    #[repr(usize)]
    pub enum Layer, all ALL_LAYERS, count NLAYERS {
        /// Bytes the application handed to the file system.
        Logical = "logical",
        /// Bytes staged in DRAM (HiNFS buffer slots, ext page cache).
        DramBuffered = "dram_buffered",
        /// Bytes written to a journal region (undo entries, jbd blocks).
        JournalLogged = "journal_logged",
        /// Bytes persisted to NVMM media (cacheline granularity, all paths).
        NvmmPersisted = "nvmm_persisted",
        /// Bytes drained out of a volatile staging layer to NVMM — the
        /// subset of persisted traffic that retired a stamp.
        WritebackDrained = "writeback_drained",
    }
}

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

/// Per-file-system data-lifecycle ledger: bytes per layer, the fence
/// count, the durability-lag histogram and the max-lag gauge.
#[derive(Debug, Default)]
pub struct LineageTable {
    bytes: [AtomicU64; NLAYERS],
    fences: AtomicU64,
    lag: Histo,
    max_lag_ns: AtomicU64,
    stamps: AtomicU64,
    drains_sync: AtomicU64,
    drains_lazy: AtomicU64,
}

impl LineageTable {
    /// Adds one finished frame's per-layer bytes and fences.
    pub(crate) fn fold(&self, bytes: &[u64; NLAYERS], fences: u64) {
        for (cell, &b) in self.bytes.iter().zip(bytes) {
            if b > 0 {
                cell.fetch_add(b, Ordering::Relaxed);
            }
        }
        if fences > 0 {
            self.fences.fetch_add(fences, Ordering::Relaxed);
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
        self.bytes[Layer::WritebackDrained as usize].fetch_add(bytes, Ordering::Relaxed);
        self.lag.record(lag);
        self.max_lag_ns.fetch_max(lag, Ordering::Relaxed);
        lag
    }

    /// The exact largest durability lag recorded so far, ns.
    pub fn max_lag_ns(&self) -> u64 {
        self.max_lag_ns.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the whole ledger.
    pub fn snap(&self) -> LineageSnap {
        LineageSnap {
            bytes: std::array::from_fn(|l| self.bytes[l].load(Ordering::Relaxed)),
            fences: self.fences.load(Ordering::Relaxed),
            lag: self.lag.snapshot(),
            max_lag_ns: self.max_lag_ns(),
            stamps: self.stamps.load(Ordering::Relaxed),
            drains_sync: self.drains_sync.load(Ordering::Relaxed),
            drains_lazy: self.drains_lazy.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`LineageTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageSnap {
    /// Bytes per layer.
    pub bytes: [u64; NLAYERS],
    /// Fences issued inside scopes.
    pub fences: u64,
    /// Durability-lag distribution.
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

impl LineageSnap {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.totals().iter().all(|&(_, v)| v == 0) && ALL_LAYERS.iter().all(|&l| self.layer(l) == 0)
    }

    /// The scalar totals under their exposition names, in exposition
    /// order: the snapshot JSON, its gauges and `obsv_lineage_*` all list
    /// these.
    pub fn totals(&self) -> [(&'static str, u64); 5] {
        [
            ("fences", self.fences),
            ("stamps", self.stamps),
            ("drains_sync", self.drains_sync),
            ("drains_lazy", self.drains_lazy),
            ("max_lag_ns", self.max_lag_ns),
        ]
    }

    /// Reports the bytes of each layer as `<prefix><layer>_bytes`, then
    /// each of [`LineageSnap::totals`] as `<prefix><name>`, through `emit`.
    pub(crate) fn visit(
        &self,
        prefix: &str,
        out: &mut dyn Visitor,
        emit: impl Fn(&mut dyn Visitor, &str, u64),
    ) {
        for layer in ALL_LAYERS {
            emit(
                out,
                &format!("{prefix}{}_bytes", layer.label()),
                self.layer(layer),
            );
        }
        for (name, v) in self.totals() {
            emit(out, &format!("{prefix}{name}"), v);
        }
    }

    /// Bytes in one layer.
    pub fn layer(&self, layer: Layer) -> u64 {
        self.bytes[layer as usize]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsObs, Level, OpKind};

    // How bytes reach the ledger (op scopes, nesting, background) is
    // tested with the op scope in `scope.rs`; these cover stamps, drains
    // and the derived ratios.

    fn full() -> FsObs {
        let obs = FsObs::default();
        obs.set_level(Level::Full);
        obs
    }

    #[test]
    fn stamps_and_drains_track_lag() {
        let obs = full();
        let stamp = obs.op(OpKind::Write, || obs.stamp(1_000));
        assert_eq!(stamp.row, OpKind::Write as u8);
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
        assert_eq!(s.layer(Layer::WritebackDrained), 8192);
    }

    #[test]
    fn inline_drains_are_lag_zero_on_the_current_row() {
        let obs = full();
        obs.op(OpKind::Truncate, || obs.record_inline_drain(4096));
        let s = obs.lineage().snap();
        assert_eq!(s.drains_sync, 1);
        assert_eq!(s.max_lag_ns, 0);
        assert_eq!((s.lag.count(), s.lag.max()), (1, 0));
        assert_eq!(s.layer(Layer::WritebackDrained), 4096);
    }

    #[test]
    fn snap_derives_amplification_and_fence_rate() {
        let t = LineageTable::default();
        t.fold(&[2048, 0, 0, 8192, 0], 3);
        t.fold(&[0, 0, 0, 100, 0], 0);
        let s = t.snap();
        assert_eq!(s.amplification(Layer::NvmmPersisted), 8292.0 / 2048.0);
        assert_eq!(s.fences_per_kib(), 1.5, "not truncated to 1");
        // Empty table divides to zero, not a panic.
        let empty = LineageTable::default().snap();
        assert_eq!(empty.amplification(Layer::NvmmPersisted), 0.0);
        assert_eq!(empty.fences_per_kib(), 0.0);
    }
}
