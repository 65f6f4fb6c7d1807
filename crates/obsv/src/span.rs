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
//! The table itself is a plain accumulator. [`SpanTable::scope`] times a
//! phase on the calling thread's op frame (the `scope` module):
//! nesting lives in the frame's fixed-depth span stack, a nested span's
//! elapsed time is subtracted from its parent, and the op's own
//! remainder is booked under [`Phase::Other`] — so every simulated
//! nanosecond of an op lands in exactly one phase cell and its row sums
//! to the op's latency. The finished frame folds into the matrix once,
//! under the row of the op that opened it; spans outside any frame
//! (untimed syscalls, the writeback thread) charge the background row
//! ([`BG_ROW`], label `bg`) directly.

use crate::scope::{pop_span, push_span};
use crate::{Clock, MetricSource, OpKind, Visitor, ALL_OPS, NOPS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Execution phase a span attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// DRAM buffer-cache lookup / page-cache indexing on the write path.
    BufLookup = 0,
    /// Copying between user buffers and DRAM (buffer slots, page cache).
    DramCopy = 1,
    /// Copying from NVMM into DRAM (reads, CLFW fetches, writeback reads).
    NvmmCopy = 2,
    /// Stitching a read from interleaved DRAM and NVMM cachelines.
    CachelineStitch = 3,
    /// Persistent stores to NVMM (data writes, flushes) and their
    /// bandwidth-gate admission.
    Persist = 4,
    /// Store fences (`sfence`) ordering persistent writes.
    Fence = 5,
    /// Journal work: undo logging, commit records, recovery scans.
    Journal = 6,
    /// Block / inode allocator work.
    Alloc = 7,
    /// Metadata indexing: inode table and directory persistence.
    Index = 8,
    /// Buffer Benefit Model evaluation (ghost-probe bookkeeping at fsync).
    GhostProbe = 9,
    /// Instrumented op time in no named phase (syscall overhead,
    /// software-only bookkeeping).
    Other = 10,
}

/// Number of [`Phase`] variants.
pub const NPHASES: usize = 11;

/// All phases in discriminant order.
pub const ALL_PHASES: [Phase; NPHASES] = [
    Phase::BufLookup,
    Phase::DramCopy,
    Phase::NvmmCopy,
    Phase::CachelineStitch,
    Phase::Persist,
    Phase::Fence,
    Phase::Journal,
    Phase::Alloc,
    Phase::Index,
    Phase::GhostProbe,
    Phase::Other,
];

impl Phase {
    /// Stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BufLookup => "buf_lookup",
            Phase::DramCopy => "dram_copy",
            Phase::NvmmCopy => "nvmm_copy",
            Phase::CachelineStitch => "cacheline_stitch",
            Phase::Persist => "persist",
            Phase::Fence => "fence",
            Phase::Journal => "journal",
            Phase::Alloc => "alloc",
            Phase::Index => "index",
            Phase::GhostProbe => "ghost_probe",
            Phase::Other => "other",
        }
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
    /// A disabled, zeroed table timing its spans on `clock`.
    pub fn new(clock: Clock) -> SpanTable {
        SpanTable {
            enabled: AtomicBool::new(false),
            clock,
            cells: std::array::from_fn(|_| std::array::from_fn(|_| SpanCell::default())),
        }
    }

    /// Switches span timing. Leaves accumulated totals in place.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being timed — one relaxed load, the whole cost
    /// of [`SpanTable::scope`] while disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The injected clock (also times the ops of the bundles folding
    /// into this table).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Runs `f` inside a phase span. When enabled, the elapsed clock
    /// time minus any nested spans is booked on the calling thread's op
    /// frame (and reaches this table when the frame folds), or charged
    /// straight to the background row when no frame is open; when
    /// disabled this is a single relaxed load and the clock is never
    /// read.
    #[inline]
    pub fn scope<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let pushed = push_span(self.clock.now());
        let _g = ScopeGuard {
            table: self,
            phase,
            pushed,
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
    pushed: bool,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        // Outside any op frame (untimed syscalls, mount-time work) the
        // span is background time.
        if let Some(excl) = pop_span(self.phase, self.table.clock.now()) {
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

impl Default for SpanSnapshot {
    fn default() -> Self {
        SpanSnapshot {
            ns: [[0; NPHASES]; SPAN_ROWS],
            calls: [[0; NPHASES]; SPAN_ROWS],
        }
    }
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
        let mut out = self.clone();
        for r in 0..SPAN_ROWS {
            for p in 0..NPHASES {
                out.ns[r][p] = self.ns[r][p].saturating_sub(earlier.ns[r][p]);
                out.calls[r][p] = self.calls[r][p].saturating_sub(earlier.calls[r][p]);
            }
        }
        out
    }
}

impl MetricSource for SpanTable {
    fn collect(&self, out: &mut dyn Visitor) {
        let snap = self.snapshot();
        for r in 0..SPAN_ROWS {
            for (p, phase) in ALL_PHASES.iter().enumerate() {
                if snap.calls[r][p] == 0 {
                    continue;
                }
                let base = format!("obsv_span_{}_{}", row_label(r), phase.label());
                out.counter(&format!("{base}_ns"), snap.ns[r][p]);
                out.counter(&format!("{base}_calls"), snap.calls[r][p]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

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
        let now = Arc::new(AtomicU64::new(0));
        let now2 = now.clone();
        let t = SpanTable::new(Clock::new(move || now2.load(Ordering::Relaxed)));
        t.set_enabled(true);
        t.scope(Phase::Fence, || now.store(10, Ordering::Relaxed));
        let early = t.snapshot();
        t.scope(Phase::Fence, || now.store(42, Ordering::Relaxed));
        let d = t.snapshot().since(&early);
        assert_eq!(d.ns[BG_ROW][Phase::Fence as usize], 32);
        assert_eq!(d.calls[BG_ROW][Phase::Fence as usize], 1);
    }

    #[test]
    fn exposes_only_touched_cells() {
        let t = Arc::new(SpanTable::new(Clock::new(|| 0)));
        let (mut ns, mut calls) = ([0; NPHASES], [0; NPHASES]);
        ns[Phase::Fence as usize] = 48;
        calls[Phase::Fence as usize] = 1;
        calls[Phase::Other as usize] = 1;
        t.fold(OpKind::Fsync as usize, &ns, &calls);
        let reg = MetricsRegistry::new();
        reg.register("", t.clone());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obsv_span_fsync_fence_ns"), 48);
        assert_eq!(snap.counter("obsv_span_fsync_fence_calls"), 1);
        assert_eq!(snap.counter("obsv_span_fsync_other_calls"), 1);
        // Untouched cells stay out of the exposition entirely.
        assert!(!snap.to_prometheus().contains("span_write_persist_ns"));
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
