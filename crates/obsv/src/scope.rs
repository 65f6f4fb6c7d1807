//! The per-op scope: one thread-local frame, one in-flight record, folded
//! once.
//!
//! Every instrumented syscall runs inside [`FsObs::op`]; background work
//! (writeback passes, periodic commits) inside [`FsObs::bg_scope`]. The
//! outermost scope on a thread opens the frame and owns it; nested scopes
//! — HiNFS delegating a syscall to PMFS, a writeback pass kicked inline
//! by a write — only deepen it. While the frame is open every hook
//! (`note_*`, [`SpanTable::scope`](crate::SpanTable::scope), the
//! contention layer's wait samples) writes the frame's one [`OpRecord`].
//! When the outermost scope closes, the record is folded once into the
//! aggregations: the op latency histogram, the span matrix, the lineage
//! ledger row and the top-K tail reservoir.
//!
//! Rules, stated once:
//!
//! - **Off costs one load.** [`FsObs::op`] checks one relaxed level load;
//!   every `note_*` hook checks the frame's depth (one thread-local read).
//! - **The outermost scope names the row.** A nested op never re-labels
//!   the frame: an `open` that HiNFS forwards to PMFS is one `open`.
//! - **Background is a row, not a mechanism.** A background scope is the
//!   same frame with `row = BG_ROW`; it has no latency and no anatomy, so
//!   only its span charges and ledger bytes fold. [`detached`] marks work
//!   running inline on another actor's timeline (the virtual-mode
//!   writeback pass): its span time lands in the background row, while
//!   the bytes it persists and the stalls it absorbs stay on the op that
//!   paid for them.
//! - **Clocks are read, never advanced**, and only at the scope's two
//!   ends, so the record changes no result bit.

use crate::histo::bucket_of;
use crate::span::{Phase, ALL_PHASES, BG_ROW, NPHASES};
use crate::{FsObs, Layer, Level, OpKind, Site, ALL_SITES, NLAYERS, NSITES};
use std::cell::RefCell;

/// Shard id meaning "this op touched no buffer-pool shard".
pub const NO_SHARD: u32 = u32::MAX;

/// The complete anatomy of one operation: what every hook writes while
/// the op is in flight, and what the tail reservoir keeps of the slowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The op kind.
    pub op: OpKind,
    /// When the op started, simulated ns.
    pub at_ns: u64,
    /// Total op latency, simulated ns.
    pub total_ns: u64,
    /// Buffer-pool / allocator shard the op touched last, or
    /// [`NO_SHARD`].
    pub shard: u32,
    /// Largest group-commit batch flushed inside the op (0 = none).
    pub batch: u32,
    /// Store fences issued while the op was in flight.
    pub fences: u32,
    /// Fences *saved* by group-commit coalescing (`sfence_coalesced(n)`
    /// counts as 1 fence issued and `n-1` coalesced).
    pub fences_coalesced: u32,
    /// Stall events (`stall.*` sites) the op absorbed: writeback
    /// interference, journal-full relief, bandwidth throttling.
    pub stall_events: u32,
    /// Bytes per [`Layer`] the op moved: logical bytes handed in, bytes
    /// staged in DRAM, bytes journaled, bytes persisted to NVMM
    /// (cacheline granularity). `WritebackDrained` is booked by stamp
    /// retirement, not per op, and stays 0 here.
    pub bytes: [u64; NLAYERS],
    /// Trace-ring seq ticket when the op began.
    pub seq_start: u64,
    /// Trace-ring seq ticket when the op finished; `seq_start..seq_end`
    /// bounds the ring events emitted while the op was in flight.
    pub seq_end: u64,
    /// Exclusive simulated ns per [`Phase`]; sums to `total_ns` (the
    /// remainder outside named phases is folded into [`Phase::Other`]).
    pub phase_ns: [u64; NPHASES],
    /// Scope completions per [`Phase`].
    pub phase_calls: [u32; NPHASES],
    /// Blocked simulated ns per [`Site`] (lock waits, condvar waits,
    /// stall sites).
    pub wait_ns: [u64; NSITES],
}

impl OpRecord {
    pub(crate) const EMPTY: OpRecord = OpRecord {
        op: OpKind::Open,
        at_ns: 0,
        total_ns: 0,
        shard: NO_SHARD,
        batch: 0,
        fences: 0,
        fences_coalesced: 0,
        stall_events: 0,
        bytes: [0; NLAYERS],
        seq_start: 0,
        seq_end: 0,
        phase_ns: [0; NPHASES],
        phase_calls: [0; NPHASES],
        wait_ns: [0; NSITES],
    };

    /// Bytes the op persisted to NVMM (cacheline granularity).
    pub fn persisted_bytes(&self) -> u64 {
        self.bytes[Layer::NvmmPersisted as usize]
    }

    /// The latency-histogram bucket this record's total falls in — the
    /// link between an exemplar and the quantile math.
    pub fn bucket(&self) -> usize {
        bucket_of(self.total_ns)
    }

    /// The `k` largest nonzero phase contributions, largest first.
    pub fn top_phases(&self, k: usize) -> Vec<(Phase, u64)> {
        top_k(&ALL_PHASES, &self.phase_ns, k)
    }

    /// The `k` largest nonzero per-site waits, largest first.
    pub fn top_waits(&self, k: usize) -> Vec<(Site, u64)> {
        top_k(&ALL_SITES, &self.wait_ns, k)
    }
}

/// The `k` largest nonzero `values`, largest first, ties in label order.
pub(crate) fn top_k<L: Copy>(labels: &[L], values: &[u64], k: usize) -> Vec<(L, u64)> {
    let mut v: Vec<(usize, u64)> = values
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, ns)| ns > 0)
        .collect();
    v.sort_by_key(|&(i, ns)| (std::cmp::Reverse(ns), i));
    v.truncate(k);
    v.into_iter().map(|(i, ns)| (labels[i], ns)).collect()
}

/// Deepest span nesting tracked per thread. Deeper spans still run their
/// bodies; they just go unmeasured (ops → device → journal → device is
/// 4–6 deep in practice).
const MAX_DEPTH: usize = 32;

#[derive(Clone, Copy)]
struct Span {
    start: u64,
    child: u64,
}

/// Exclusive ns and completions per phase.
#[derive(Clone, Copy)]
struct PhaseTotals {
    ns: [u64; NPHASES],
    calls: [u32; NPHASES],
}

impl PhaseTotals {
    const ZERO: PhaseTotals = PhaseTotals {
        ns: [0; NPHASES],
        calls: [0; NPHASES],
    };

    fn add(&mut self, phase: Phase, excl_ns: u64) {
        self.ns[phase as usize] += excl_ns;
        self.calls[phase as usize] += 1;
    }
}

/// The calling thread's op frame.
struct Frame {
    /// Open op/bg scopes; 0 = idle (no hook records).
    depth: u32,
    /// The outermost scope's row: an [`OpKind`] discriminant or
    /// [`BG_ROW`].
    row: usize,
    /// Inside [`detached`]: span charges go to the background row.
    detached: bool,
    spans: [Span; MAX_DEPTH],
    span_depth: usize,
    /// Spans below this index belong to the context a [`detached`] block
    /// left behind; pops stop folding child time at this boundary.
    span_base: usize,
    /// The in-flight record (the op's own anatomy).
    rec: OpRecord,
    /// Span charges owed to the background row: everything in a
    /// background frame, detached work in an op frame.
    bg: PhaseTotals,
}

thread_local! {
    static FRAME: RefCell<Frame> = const {
        RefCell::new(Frame {
            depth: 0,
            row: BG_ROW,
            detached: false,
            spans: [Span { start: 0, child: 0 }; MAX_DEPTH],
            span_depth: 0,
            span_base: 0,
            rec: OpRecord::EMPTY,
            bg: PhaseTotals::ZERO,
        })
    };
}

impl Frame {
    /// Opens a scope. The outermost one claims the frame for `row` and
    /// starts a fresh record; a nested one deepens it and, when `timed`,
    /// pushes a span so its own remainder can be booked at close. Returns
    /// whether a span was pushed.
    fn enter(&mut self, row: usize, timed: Option<(u64, u64)>) -> bool {
        self.depth += 1;
        if self.depth == 1 {
            self.row = row;
            self.bg = PhaseTotals::ZERO;
            self.rec = OpRecord::EMPTY;
            if let (Some(&op), Some((at_ns, seq))) = (crate::ALL_OPS.get(row), timed) {
                self.rec.op = op;
                self.rec.at_ns = at_ns;
                self.rec.seq_start = seq;
            }
            return false;
        }
        timed.is_some_and(|(start, _)| self.push_span(start))
    }

    fn push_span(&mut self, start: u64) -> bool {
        if self.span_depth == MAX_DEPTH {
            return false;
        }
        self.spans[self.span_depth] = Span { start, child: 0 };
        self.span_depth += 1;
        true
    }

    /// Pops the top span, folding its elapsed time into the parent span
    /// and returning its exclusive time.
    fn pop_span(&mut self, end: u64) -> u64 {
        debug_assert!(self.span_depth > 0, "span stack underflow");
        self.span_depth -= 1;
        let d = self.span_depth;
        let s = self.spans[d];
        let elapsed = end.saturating_sub(s.start);
        if d > self.span_base {
            self.spans[d - 1].child = self.spans[d - 1].child.saturating_add(elapsed);
        }
        elapsed.saturating_sub(s.child)
    }

    /// Books exclusive span time: on the op's own anatomy, or on the
    /// background row for background frames and detached work.
    fn charge(&mut self, phase: Phase, excl_ns: u64) {
        if self.detached || self.row == BG_ROW {
            self.bg.add(phase, excl_ns);
        } else {
            self.rec.phase_ns[phase as usize] += excl_ns;
            self.rec.phase_calls[phase as usize] += 1;
        }
    }

    /// Closes a scope at `end` (an op scope's clock read; background
    /// scopes have none). Returns whether the frame is now finished and
    /// must be folded.
    fn exit(&mut self, end: Option<(u64, u64)>, pushed: bool) -> bool {
        self.depth -= 1;
        if self.depth > 0 {
            if let (true, Some((end_ns, _))) = (pushed, end) {
                let excl = self.pop_span(end_ns);
                self.charge(Phase::Other, excl);
            }
            return false;
        }
        if let (true, Some((end_ns, seq))) = (self.row != BG_ROW, end) {
            // The op's time in no named phase is its `Other` remainder,
            // so the record's phases (and its span-matrix row) sum to
            // the op's latency.
            let rec = &mut self.rec;
            rec.total_ns = end_ns.saturating_sub(rec.at_ns);
            rec.seq_end = seq;
            let phased: u64 = rec.phase_ns.iter().sum();
            rec.phase_ns[Phase::Other as usize] += rec.total_ns.saturating_sub(phased);
            rec.phase_calls[Phase::Other as usize] += 1;
        }
        true
    }
}

/// Runs `f` on the in-flight record, if a frame is open.
#[inline]
fn note(f: impl FnOnce(&mut OpRecord)) {
    FRAME.with(|fr| {
        let mut fr = fr.borrow_mut();
        if fr.depth > 0 {
            f(&mut fr.rec);
        }
    });
}

/// Books logical bytes the application handed to the file system.
#[inline]
pub fn note_logical(bytes: u64) {
    note(|r| r.bytes[Layer::Logical as usize] += bytes);
}

/// Books bytes staged into a DRAM layer (buffer slot, page cache).
#[inline]
pub fn note_buffered(bytes: u64) {
    note(|r| r.bytes[Layer::DramBuffered as usize] += bytes);
}

/// Books bytes written into a journal region.
#[inline]
pub fn note_journaled(bytes: u64) {
    note(|r| r.bytes[Layer::JournalLogged as usize] += bytes);
}

/// Books `bytes` persisted to NVMM (cacheline granularity).
#[inline]
pub fn note_persisted(bytes: u64) {
    note(|r| r.bytes[Layer::NvmmPersisted as usize] += bytes);
}

/// Books one fence covering `coalesced` logical transactions (`sfence`
/// passes 1; `sfence_coalesced(n)` passes `n`, crediting `n-1` saved
/// fences).
#[inline]
pub fn note_fence(coalesced: u64) {
    note(|r| {
        r.fences += 1;
        r.fences_coalesced += coalesced.saturating_sub(1) as u32;
    });
}

/// Books the buffer-pool / allocator shard the op is touching
/// (last-wins; most ops touch exactly one).
#[inline]
pub fn note_shard(shard: u32) {
    note(|r| r.shard = shard);
}

/// Books a group-commit batch of `n` transactions flushed inside the op
/// (max-wins).
#[inline]
pub fn note_batch(n: u32) {
    note(|r| r.batch = r.batch.max(n));
}

/// Adds blocked time at `site` to the in-flight record; `stall.*` sites
/// also tick the stall-event count. Called by the contention layer on
/// every wait sample.
#[inline]
pub(crate) fn note_wait(site: Site, wait_ns: u64) {
    note(|r| {
        r.wait_ns[site as usize] += wait_ns;
        if matches!(
            site,
            Site::StallWriteback | Site::StallJournalFull | Site::StallThrottle
        ) {
            r.stall_events += 1;
        }
    });
}

/// The row the calling thread's span time and lock waits/holds belong
/// to right now: the open frame's row, or [`BG_ROW`] when idle or inside
/// [`detached`].
pub(crate) fn current_row() -> usize {
    FRAME.with(|fr| {
        let fr = fr.borrow();
        if fr.depth > 0 && !fr.detached {
            fr.row
        } else {
            BG_ROW
        }
    })
}

/// The row an ack stamp made right now originates from: the open
/// frame's row (detached or not — the op that dirtied the data owns the
/// stamp), or [`BG_ROW`] when idle.
pub(crate) fn stamp_row() -> usize {
    FRAME.with(|fr| {
        let fr = fr.borrow();
        if fr.depth > 0 {
            fr.row
        } else {
            BG_ROW
        }
    })
}

/// Pushes a phase span starting at `start`; returns whether it fit in
/// the fixed stack.
pub(crate) fn push_span(start: u64) -> bool {
    FRAME.with(|fr| fr.borrow_mut().push_span(start))
}

/// Pops the top phase span at `end`. Inside a frame its exclusive time
/// is booked on the frame and `None` is returned; on an idle thread the
/// exclusive time is handed back for the caller to charge to the
/// background row directly.
pub(crate) fn pop_span(phase: Phase, end: u64) -> Option<u64> {
    FRAME.with(|fr| {
        let mut fr = fr.borrow_mut();
        let excl = fr.pop_span(end);
        if fr.depth == 0 {
            return Some(excl);
        }
        fr.charge(phase, excl);
        None
    })
}

/// Runs `f` with span attribution detached from the caller's context:
/// span time books into the background row and does not fold into the
/// caller's open spans. For background work executed inline on a
/// foreground thread under a detached clock (HiNFS's virtual-mode
/// writeback actor runs on its own timeline via `SimEnv::with_now`, so
/// its time must not inflate the op that happened to trigger it).
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool, usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FRAME.with(|fr| {
                let mut fr = fr.borrow_mut();
                fr.detached = self.0;
                fr.span_base = self.1;
            });
        }
    }
    let _restore = FRAME.with(|fr| {
        let mut fr = fr.borrow_mut();
        let saved = Restore(fr.detached, fr.span_base);
        fr.detached = true;
        fr.span_base = fr.span_depth;
        saved
    });
    f()
}

/// RAII guard of a background scope; see [`FsObs::bg_scope`].
pub struct BgScope<'a>(Option<&'a FsObs>);

impl Drop for BgScope<'_> {
    fn drop(&mut self) {
        if let Some(obs) = self.0 {
            obs.exit(None, false);
        }
    }
}

impl FsObs {
    /// Runs `f` as operation `op` — the only per-syscall entry point.
    /// Below [`Level::Full`] this is one relaxed load. At `Full` the
    /// outermost call on the thread opens the op frame, reads the clock
    /// at both ends, and folds the finished [`OpRecord`]; a nested call
    /// (HiNFS forwarding to PMFS) deepens the frame and books its own
    /// un-phased remainder under [`Phase::Other`] on the same row.
    #[inline]
    pub fn op<R>(&self, op: OpKind, f: impl FnOnce() -> R) -> R {
        if self.level() != Level::Full {
            return f();
        }
        struct Guard<'a> {
            obs: &'a FsObs,
            pushed: bool,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.obs.exit(Some(self.obs.now_and_seq()), self.pushed);
            }
        }
        let start = self.now_and_seq();
        let pushed = FRAME.with(|fr| fr.borrow_mut().enter(op as usize, Some(start)));
        let _g = Guard { obs: self, pushed };
        f()
    }

    /// The clock and the trace ring's seq ticket: a scope's two ends.
    fn now_and_seq(&self) -> (u64, u64) {
        (self.spans().clock().now(), self.trace.emitted())
    }

    /// Opens a background scope (writeback passes, periodic ticks,
    /// sync/unmount drains): hook traffic on this thread lands in the
    /// background row until the guard drops. Inert below
    /// [`Level::Full`]; nested inside an op it only deepens the op's
    /// frame (an op's own inline reclaim stays the op's).
    pub fn bg_scope(&self) -> BgScope<'_> {
        if self.level() != Level::Full {
            return BgScope(None);
        }
        FRAME.with(|fr| fr.borrow_mut().enter(BG_ROW, None));
        BgScope(Some(self))
    }

    fn exit(&self, end: Option<(u64, u64)>, pushed: bool) {
        FRAME.with(|fr| {
            let mut fr = fr.borrow_mut();
            if fr.exit(end, pushed) {
                self.fold(&fr);
            }
        });
    }

    /// Folds a finished frame into the aggregations — the one place the
    /// per-op record meets the accumulators.
    fn fold(&self, fr: &Frame) {
        self.spans().fold(BG_ROW, &fr.bg.ns, &fr.bg.calls);
        self.lineage()
            .fold(fr.row, &fr.rec.bytes, fr.rec.fences as u64);
        if fr.row == BG_ROW {
            return;
        }
        let rec = &fr.rec;
        self.op_histo(rec.op).record(rec.total_ns);
        self.spans().fold(fr.row, &rec.phase_ns, &rec.phase_calls);
        self.flight().retire(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, DrainKind, SpanTable};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A manually-advanced clock.
    #[derive(Clone)]
    struct FakeClock(Arc<AtomicU64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// A bundle at `Full` folding into its own enabled span table, both
    /// on a fake clock.
    fn rig() -> (FakeClock, Arc<SpanTable>, FsObs) {
        let c = FakeClock(Arc::new(AtomicU64::new(0)));
        let c2 = c.clone();
        let t = Arc::new(SpanTable::new(Clock::new(move || {
            c2.0.load(Ordering::Relaxed)
        })));
        t.set_enabled(true);
        let obs = FsObs::new(t.clone());
        obs.set_level(Level::Full);
        (c, t, obs)
    }

    fn idle() -> bool {
        FRAME.with(|fr| fr.borrow().depth == 0)
    }

    #[test]
    fn below_full_the_wrapper_is_inert() {
        let (_c, t, obs) = rig();
        for level in [Level::Off, Level::Counts] {
            obs.set_level(level);
            let r = obs.op(OpKind::Write, || {
                assert!(idle(), "no frame below Full");
                note_logical(4096);
                note_fence(1);
                7
            });
            assert_eq!(r, 7);
            let _bg = obs.bg_scope();
            assert!(idle());
        }
        assert_eq!(obs.op_histo(OpKind::Write).snapshot().count(), 0);
        assert_eq!(obs.flight().recorded(), 0);
        assert!(obs.lineage().snap().is_empty());
        assert_eq!(obs.stamp(100), crate::Stamp::default());
        assert_eq!(obs.record_drain(&obs.stamp(1), DrainKind::Lazy, 900, 64), 0);
        obs.record_inline_drain(64);
        assert!(obs.lineage().snap().is_empty());
        assert_eq!(t.snapshot().grand_total(), 0);
    }

    #[test]
    fn one_record_composes_every_hook_and_folds_everywhere() {
        let (c, t, obs) = rig();
        c.advance(1000);
        obs.op(OpKind::Write, || {
            c.advance(10);
            t.scope(Phase::DramCopy, || c.advance(120));
            t.scope(Phase::Persist, || c.advance(300));
            note_wait(Site::PmfsJournal, 40);
            note_wait(Site::StallWriteback, 60);
            note_fence(1);
            note_fence(4); // one fence covering a 4-tx group commit
            note_logical(100);
            note_buffered(4096);
            note_journaled(128);
            note_persisted(256);
            note_shard(3);
            note_batch(4);
            note_batch(2);
            c.advance(570);
        });
        assert!(idle(), "frame closes with the outermost scope");
        // The tail reservoir keeps the whole anatomy...
        let snap = obs.flight().snapshot();
        let r = snap.records(OpKind::Write)[0];
        assert_eq!((r.at_ns, r.total_ns), (1000, 1000));
        assert_eq!(r.phase_ns[Phase::DramCopy as usize], 120);
        assert_eq!(r.phase_ns[Phase::Persist as usize], 300);
        // ...whose remainder lands in Other, so the phases sum to the total.
        assert_eq!(r.phase_ns[Phase::Other as usize], 580);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), r.total_ns);
        assert_eq!(r.wait_ns[Site::PmfsJournal as usize], 40);
        assert_eq!(r.wait_ns[Site::StallWriteback as usize], 60);
        assert_eq!(r.stall_events, 1);
        assert_eq!((r.fences, r.fences_coalesced), (2, 3));
        assert_eq!(r.persisted_bytes(), 256);
        assert_eq!((r.shard, r.batch), (3, 4));
        assert_eq!(
            r.top_phases(2),
            vec![(Phase::Other, 580), (Phase::Persist, 300)]
        );
        assert_eq!(r.top_waits(1), vec![(Site::StallWriteback, 60)]);
        // ...the histogram the latency...
        assert_eq!(obs.op_histo(OpKind::Write).snapshot().sum(), 1000);
        // ...the span matrix the phases, on the op's row...
        let s = t.snapshot();
        assert_eq!(s.ns_of(OpKind::Write, Phase::Persist), 300);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Other), 580);
        assert_eq!(s.row_total(OpKind::Write as usize), 1000);
        assert_eq!(s.calls[OpKind::Write as usize][Phase::Other as usize], 1);
        // ...and the lineage ledger the bytes and fences.
        let l = obs.lineage().snap();
        let w = &l.row_bytes[OpKind::Write as usize];
        assert_eq!(w[Layer::Logical as usize], 100);
        assert_eq!(w[Layer::DramBuffered as usize], 4096);
        assert_eq!(w[Layer::JournalLogged as usize], 128);
        assert_eq!(w[Layer::NvmmPersisted as usize], 256);
        assert_eq!(l.row_fences[OpKind::Write as usize], 2);
    }

    #[test]
    fn nested_spans_account_exclusive_time() {
        let (c, t, obs) = rig();
        obs.op(OpKind::Write, || {
            c.advance(10); // op overhead before any phase
            t.scope(Phase::DramCopy, || {
                c.advance(100);
                t.scope(Phase::Persist, || c.advance(40));
                c.advance(5);
            });
            c.advance(3); // op overhead after
        });
        let s = t.snapshot();
        assert_eq!(s.ns_of(OpKind::Write, Phase::DramCopy), 105);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Persist), 40);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Other), 13);
        // The row sums to the op's total elapsed time — nothing lost,
        // nothing double-counted.
        assert_eq!(s.row_total(OpKind::Write as usize), 158);
        assert_eq!(s.grand_total(), 158);
    }

    #[test]
    fn nested_ops_deepen_the_frame_and_keep_the_outer_row() {
        // HiNFS open delegating to PMFS open — through a second bundle,
        // which neither steals the frame nor receives any fold.
        let (c, t, outer) = rig();
        let inner = FsObs::default();
        inner.set_level(Level::Full);
        outer.op(OpKind::Open, || {
            c.advance(5);
            inner.op(OpKind::Fsync, || {
                c.advance(20);
                t.scope(Phase::Index, || c.advance(30));
                note_logical(7);
                assert_eq!(stamp_row(), OpKind::Open as usize);
            });
            assert!(!idle(), "outer frame survives the inner scope");
            c.advance(2);
        });
        assert_eq!(inner.flight().recorded(), 0);
        assert!(
            inner.lineage().snap().is_empty(),
            "interloper books nothing"
        );
        assert_eq!(
            outer.flight().recorded(),
            1,
            "retired once, at the outer close"
        );
        let snap = outer.flight().snapshot();
        assert!(snap.records(OpKind::Fsync).is_empty());
        assert_eq!(snap.records(OpKind::Open)[0].total_ns, 57);
        assert_eq!(outer.lineage().snap().layer(Layer::Logical), 7);
        // Both wrappers book their remainder on the one row.
        let s = t.snapshot();
        assert_eq!(s.ns_of(OpKind::Open, Phase::Index), 30);
        assert_eq!(s.ns_of(OpKind::Open, Phase::Other), 27);
        assert_eq!(s.calls[OpKind::Open as usize][Phase::Other as usize], 2);
        assert_eq!(s.row_total(OpKind::Open as usize), 57);
        assert_eq!(s.row_total(OpKind::Fsync as usize), 0);
    }

    #[test]
    fn detached_work_books_spans_to_bg_and_bytes_to_the_op() {
        let (c, t, obs) = rig();
        obs.op(OpKind::Write, || {
            c.advance(10);
            // Background work on a detached timeline (e.g. the virtual
            // writeback actor): the clock may be far from the op's, and
            // none of its time belongs to the op.
            detached(|| {
                let _bg = obs.bg_scope(); // nested: only deepens
                assert_eq!(current_row(), BG_ROW);
                assert_eq!(stamp_row(), OpKind::Write as usize);
                c.advance(500);
                t.scope(Phase::Persist, || c.advance(1000));
                note_persisted(4096);
            });
            assert_eq!(current_row(), OpKind::Write as usize);
            c.advance(7);
        });
        let s = t.snapshot();
        // The detached persist landed in the background row...
        assert_eq!(s.ns[BG_ROW][Phase::Persist as usize], 1000);
        assert_eq!(s.calls[BG_ROW][Phase::Persist as usize], 1);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Persist), 0);
        // ...the op row carries the full elapsed window (the detached
        // interval passed on the same clock here, so it shows up in the
        // op's Other remainder rather than vanishing — with a truly
        // separate clock it simply would not advance the op's window)...
        assert_eq!(s.ns_of(OpKind::Write, Phase::Other), 1517);
        // ...and the op that triggered the pass owns what it persisted.
        let l = obs.lineage().snap();
        assert_eq!(
            l.row_bytes[OpKind::Write as usize][Layer::NvmmPersisted as usize],
            4096
        );
        assert_eq!(obs.flight().snapshot().all()[0].persisted_bytes(), 4096);
    }

    #[test]
    fn background_scope_is_the_same_frame_on_the_bg_row() {
        let (c, t, obs) = rig();
        {
            let _bg = obs.bg_scope();
            assert_eq!(stamp_row(), BG_ROW);
            t.scope(Phase::Persist, || c.advance(64));
            note_persisted(4096);
            note_fence(1);
        }
        assert!(idle());
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Persist as usize], 64);
        let l = obs.lineage().snap();
        assert_eq!(l.row_bytes[BG_ROW][Layer::NvmmPersisted as usize], 4096);
        assert_eq!(l.row_fences[BG_ROW], 1);
        // No latency, no anatomy: a pass is not an op.
        assert_eq!(obs.flight().recorded(), 0);
    }

    #[test]
    fn idle_thread_spans_charge_the_background_row_directly() {
        let (c, t, _obs) = rig();
        t.scope(Phase::Persist, || c.advance(64));
        note_persisted(64); // no frame: dropped
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Persist as usize], 64);
        assert_eq!(current_row(), BG_ROW);
    }

    #[test]
    fn overflowing_the_span_stack_is_safe() {
        let (c, t, _obs) = rig();
        fn nest(t: &SpanTable, c: &FakeClock, depth: usize) {
            if depth == 0 {
                c.advance(1);
                return;
            }
            t.scope(Phase::Journal, || nest(t, c, depth - 1));
        }
        nest(&t, &c, MAX_DEPTH + 8);
        // Deep spans went unmeasured but nothing panicked and the stack
        // unwound cleanly: a fresh span still records.
        t.scope(Phase::Fence, || c.advance(9));
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Fence as usize], 9);
    }

    #[test]
    fn a_panicking_op_still_closes_the_frame() {
        let (_c, _t, obs) = rig();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.op(OpKind::Write, || panic!("injected crash"))
        }));
        assert!(r.is_err());
        assert!(idle(), "unwinding must not leave the thread's frame open");
    }
}
