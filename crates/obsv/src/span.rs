//! The [`OpKind`] × [`Phase`] span matrix and the phase timers that feed
//! it.
//!
//! A [`SpanTable`] answers the question the whole-op histograms cannot:
//! *where inside* a `write` did the time go — DRAM copy, NVMM persist,
//! fence, journal logging, buffer lookup? This is the instrument behind
//! the paper's Fig 1 ("NVMM read/write access vs Others") and Fig 12
//! (per-op time breakdown) tables, recomputed from live measurements
//! instead of the analytic ledger.
//!
//! The table itself is a plain accumulator: [`SpanTable::scope`] books
//! the modelled time charged inside a phase on the calling thread's op
//! frame (the `scope` module), and the finished frame folds into the
//! matrix once, under the row of the op that opened it; spans outside
//! any frame charge the background row ([`BG_ROW`], label `bg`)
//! directly.

use crate::scope::{close_span, swap_charged};
use crate::{Clock, OpKind, ALL_OPS, NOPS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

labelled! {
    /// Execution phase a span attributes time to.
    #[repr(usize)]
    pub enum Phase, all ALL_PHASES, count NPHASES {
        /// DRAM buffer-cache lookup / page-cache indexing on the write path.
        BufLookup = "buf_lookup",
        /// Copying between user buffers and DRAM (buffer slots, page cache).
        DramCopy = "dram_copy",
        /// Copying from NVMM into DRAM (reads, CLFW fetches, writeback reads).
        NvmmCopy = "nvmm_copy",
        /// Stitching a read from interleaved DRAM and NVMM cachelines.
        CachelineStitch = "cacheline_stitch",
        /// Persistent stores to NVMM (data writes, flushes) and their
        /// bandwidth-gate admission.
        Persist = "persist",
        /// Store fences (`sfence`) ordering persistent writes.
        Fence = "fence",
        /// Journal work: undo logging, commit records, recovery scans.
        Journal = "journal",
        /// Block / inode allocator work.
        Alloc = "alloc",
        /// Metadata indexing: inode table and directory persistence.
        Index = "index",
        /// Buffer Benefit Model evaluation (ghost-probe bookkeeping at fsync).
        GhostProbe = "ghost_probe",
        /// Instrumented op time in no named phase (syscall overhead,
        /// software-only bookkeeping).
        Other = "other",
    }
}

/// Rows in the span matrix: one per [`OpKind`] plus the background row.
pub const SPAN_ROWS: usize = NOPS + 1;

/// Row index for work attributed to no operation (writeback thread,
/// mount-time recovery).
pub const BG_ROW: usize = NOPS;

/// Stable label of a span-matrix row.
pub fn row_label(row: usize) -> &'static str {
    if row == BG_ROW {
        "bg"
    } else {
        ALL_OPS[row].label()
    }
}

#[derive(Debug, Default)]
struct SpanCell {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// Accumulated per-op × per-phase exclusive time, in simulated ns.
///
/// One table exists per simulated NVMM device; every file system mounted
/// on that device folds its finished op frames into it. Disabled by
/// default.
#[derive(Debug)]
pub struct SpanTable {
    enabled: AtomicBool,
    clock: Clock,
    cells: [[SpanCell; NPHASES]; SPAN_ROWS],
}

impl SpanTable {
    /// A disabled, zeroed table whose bundles time their ops on `clock`.
    pub fn new(clock: Clock) -> SpanTable {
        SpanTable {
            enabled: AtomicBool::new(false),
            clock,
            cells: std::array::from_fn(|_| std::array::from_fn(|_| SpanCell::default())),
        }
    }

    /// Switches span booking. Leaves accumulated totals in place.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being booked — one relaxed load, the whole cost
    /// of [`SpanTable::scope`] while disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The injected clock: the outermost op scopes of the bundles
    /// folding into this table read it at their two ends.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Runs `f` inside a phase span. When enabled, the modelled ns
    /// charged inside `f` outside any nested span ([`crate::note_charge`])
    /// are booked on the calling thread's op frame (and reach this table
    /// when the frame folds), or charged straight to the background row
    /// when no frame is open. Reads no clock; when disabled this is a
    /// single relaxed load.
    #[inline]
    pub fn scope<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let _g = ScopeGuard {
            table: self,
            phase,
            outer: swap_charged(0),
        };
        f()
    }

    /// Point-in-time copy of the matrix.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            ns: std::array::from_fn(|r| {
                std::array::from_fn(|p| self.cells[r][p].ns.load(Ordering::Relaxed))
            }),
            calls: std::array::from_fn(|r| {
                std::array::from_fn(|p| self.cells[r][p].calls.load(Ordering::Relaxed))
            }),
        }
    }

    /// Adds one frame's per-phase exclusive ns and completions to `row`.
    pub(crate) fn fold(&self, row: usize, ns: &[u64; NPHASES], calls: &[u32; NPHASES]) {
        for (p, cell) in self.cells[row].iter().enumerate() {
            if calls[p] > 0 {
                cell.ns.fetch_add(ns[p], Ordering::Relaxed);
                cell.calls.fetch_add(calls[p] as u64, Ordering::Relaxed);
            }
        }
    }
}

struct ScopeGuard<'a> {
    table: &'a SpanTable,
    phase: Phase,
    /// The enclosing scope's charge count, handed back on close.
    outer: u64,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        // Outside any op frame (untimed syscalls, mount-time work) the
        // span is background time.
        if let Some(excl) = close_span(self.phase, self.outer) {
            let cell = &self.table.cells[BG_ROW][self.phase as usize];
            cell.ns.fetch_add(excl, Ordering::Relaxed);
            cell.calls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A frozen copy of a [`SpanTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Exclusive simulated ns per `[row][phase]` cell.
    pub ns: [[u64; NPHASES]; SPAN_ROWS],
    /// Scope completions per `[row][phase]` cell.
    pub calls: [[u64; NPHASES]; SPAN_ROWS],
}

impl SpanSnapshot {
    /// Exclusive ns booked to `(op, phase)`.
    pub fn ns_of(&self, op: OpKind, phase: Phase) -> u64 {
        self.ns[op as usize][phase as usize]
    }

    /// Total ns in one row (an op's full instrumented time, since the
    /// op scope's remainder lands in [`Phase::Other`]).
    pub fn row_total(&self, row: usize) -> u64 {
        self.ns[row].iter().sum()
    }

    /// Total ns in one phase across every row.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.ns.iter().map(|r| r[phase as usize]).sum()
    }

    /// Total instrumented ns in the whole matrix.
    pub fn grand_total(&self) -> u64 {
        self.ns.iter().flatten().sum()
    }

    /// Cell-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        let diff = |a: &[[u64; NPHASES]; SPAN_ROWS], b: &[[u64; NPHASES]; SPAN_ROWS]| {
            std::array::from_fn(|r| std::array::from_fn(|p| a[r][p].saturating_sub(b[r][p])))
        };
        SpanSnapshot {
            ns: diff(&self.ns, &earlier.ns),
            calls: diff(&self.calls, &earlier.calls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Frame-level behaviour (nesting, detached, op rows) is tested with
    // the op scope in `scope.rs`; these cover the table itself.

    #[test]
    fn disabled_scope_never_calls_the_clock() {
        let t = SpanTable::new(Clock::new(|| panic!("clock must not run while disabled")));
        assert!(!t.enabled());
        assert_eq!(t.scope(Phase::Persist, || 42), 42);
        assert_eq!(t.snapshot().grand_total(), 0);
    }

    #[test]
    fn snapshot_since_diffs_cellwise() {
        let t = SpanTable::new(Clock::new(|| panic!("spans read no clock")));
        t.set_enabled(true);
        t.scope(Phase::Fence, || crate::note_charge(10));
        let early = t.snapshot();
        t.scope(Phase::Fence, || crate::note_charge(32));
        let d = t.snapshot().since(&early);
        assert_eq!(d.ns[BG_ROW][Phase::Fence as usize], 32);
        assert_eq!(d.calls[BG_ROW][Phase::Fence as usize], 1);
    }

    #[test]
    fn labels_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(seen.insert(p.label()));
        }
        for r in 0..SPAN_ROWS {
            assert!(seen.insert(row_label(r)), "row {r} collides");
        }
    }
}
