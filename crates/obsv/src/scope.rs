//! The per-op scope: one thread-local frame, one in-flight record, folded
//! once.
//!
//! Every instrumented syscall runs inside [`FsObs::op`]; background work
//! (writeback passes, periodic commits) inside [`FsObs::bg_scope`]. The
//! outermost scope on a thread opens the frame and owns it; nested scopes
//! — HiNFS delegating a syscall to PMFS, a writeback pass kicked inline
//! by a write — only deepen it. While the frame is open every hook
//! (`note_*`, [`SpanTable::scope`](crate::SpanTable::scope)) writes the
//! frame's one record.
//! When the outermost scope closes, the record is folded once into the
//! aggregations: the op latency histogram, the span matrix and the
//! lineage ledger.
//!
//! Rules, stated once:
//!
//! - **Off costs one load.** [`FsObs::op`] checks one relaxed level load;
//!   every `note_*` hook checks the frame's depth (one thread-local read).
//! - **The outermost scope names the row.** A nested op never re-labels
//!   the frame: an `open` that HiNFS forwards to PMFS is one `open`.
//! - **Background is a row, not a mechanism.** A background scope is the
//!   same frame with `row = BG_ROW`; it has no latency, so only its span
//!   charges and ledger bytes fold. [`detached`] marks work running
//!   inline on another actor's timeline (the virtual-mode writeback
//!   pass): its span time lands in the background row, while the bytes
//!   it persists fold with the op that paid for them.
//! - **Time is booked, not timed.** The simulation's charge funnel
//!   reports every modelled nanosecond through [`note_charge`]; a phase
//!   span, a nested op and a [`detached`] block each own what is charged
//!   while they are innermost. Only the outermost op scope reads the
//!   clock, once at each end, for its latency and its `Other`
//!   remainder. Clocks are never advanced here, so the record changes
//!   no result bit.

use crate::span::{Phase, BG_ROW, NPHASES};
use crate::{FsObs, Layer, Level, OpKind, NLAYERS};
use std::cell::{Cell, RefCell};

/// What the hooks write while an op (or a background pass) is in flight:
/// the bytes it moved, the fences it issued and its phase split.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    /// Bytes per [`Layer`] the op moved: logical bytes handed in, bytes
    /// staged in DRAM, bytes journaled, bytes persisted to NVMM
    /// (cacheline granularity). `WritebackDrained` is booked by stamp
    /// retirement, not per op, and stays 0 here.
    bytes: [u64; NLAYERS],
    /// Store fences issued while the op was in flight.
    fences: u64,
    /// Exclusive simulated ns per [`Phase`]; an op's phases sum to its
    /// latency (the remainder outside named phases is folded into
    /// [`Phase::Other`]).
    phase_ns: [u64; NPHASES],
    /// Scope completions per [`Phase`].
    phase_calls: [u32; NPHASES],
}

impl OpRecord {
    const EMPTY: OpRecord = OpRecord {
        bytes: [0; NLAYERS],
        fences: 0,
        phase_ns: [0; NPHASES],
        phase_calls: [0; NPHASES],
    };
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
    /// When the outermost op scope opened, simulated ns.
    start_ns: u64,
    /// The in-flight record (the op's own).
    rec: OpRecord,
    /// Span charges owed to the background row (only its phases are
    /// used): everything in a background frame, detached work in an op
    /// frame.
    bg: OpRecord,
}

thread_local! {
    static FRAME: RefCell<Frame> = const {
        RefCell::new(Frame {
            depth: 0,
            row: BG_ROW,
            detached: false,
            start_ns: 0,
            rec: OpRecord::EMPTY,
            bg: OpRecord::EMPTY,
        })
    };

    /// Modelled ns charged on this thread since the innermost open span,
    /// nested op or [`detached`] block began.
    static CHARGED: Cell<u64> = const { Cell::new(0) };
}

/// Books `ns` of modelled time charged on the calling thread. The
/// simulation's one charge funnel calls this for every nanosecond it
/// books; the innermost open span (or nested op) owns it.
#[inline]
pub fn note_charge(ns: u64) {
    CHARGED.with(|c| c.set(c.get().wrapping_add(ns)));
}

/// Sets the thread's charge counter to `v` and returns what it held: a
/// scope swaps in 0 when it opens and the outer count back when it
/// closes, so what it swaps out then is its own exclusive time.
pub(crate) fn swap_charged(v: u64) -> u64 {
    CHARGED.with(|c| c.replace(v))
}

impl Frame {
    /// Opens a scope. The outermost one claims the frame for `row` and
    /// starts a fresh record (an op's at its start time); a nested one
    /// only deepens it.
    fn enter(&mut self, row: usize, start_ns: u64) {
        self.depth += 1;
        if self.depth > 1 {
            return;
        }
        self.row = row;
        self.start_ns = start_ns;
        self.bg = OpRecord::EMPTY;
        self.rec = OpRecord::EMPTY;
    }

    /// Books exclusive span time: on the op's own anatomy, or on the
    /// background row for background frames and detached work.
    fn charge(&mut self, phase: Phase, excl_ns: u64) {
        let rec = if self.detached || self.row == BG_ROW {
            &mut self.bg
        } else {
            &mut self.rec
        };
        rec.phase_ns[phase as usize] += excl_ns;
        rec.phase_calls[phase as usize] += 1;
    }

    /// Closes a scope at `end_ns` (the outermost op scope's clock read;
    /// other scopes have none). Returns the op's latency once the frame
    /// is finished and must be folded (0 for a background frame), `None`
    /// while it stays open.
    fn exit(&mut self, end_ns: Option<u64>) -> Option<u64> {
        self.depth -= 1;
        if self.depth > 0 {
            return None;
        }
        let Some(end_ns) = end_ns.filter(|_| self.row != BG_ROW) else {
            return Some(0);
        };
        // The op's time in no named phase is its `Other` remainder, so
        // the record's phases (and its span-matrix row) sum to the op's
        // latency.
        let total_ns = end_ns.saturating_sub(self.start_ns);
        let rec = &mut self.rec;
        let phased: u64 = rec.phase_ns.iter().sum();
        rec.phase_ns[Phase::Other as usize] += total_ns.saturating_sub(phased);
        rec.phase_calls[Phase::Other as usize] += 1;
        Some(total_ns)
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

/// Books `bytes` the op moved through `layer`: handed in by the
/// application, staged in DRAM, written to a journal, or persisted to
/// NVMM (cacheline granularity).
#[inline]
pub fn note_bytes(layer: Layer, bytes: u64) {
    note(|r| r.bytes[layer as usize] += bytes);
}

/// Books one store fence.
#[inline]
pub fn note_fence() {
    note(|r| r.fences += 1);
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

/// Closes a phase span opened when the counter held `outer`. Inside a
/// frame its exclusive charges are booked on the frame and `None` is
/// returned; on an idle thread they are handed back for the caller to
/// charge to the background row directly.
pub(crate) fn close_span(phase: Phase, outer: u64) -> Option<u64> {
    let excl = swap_charged(outer);
    FRAME.with(|fr| {
        let mut fr = fr.borrow_mut();
        if fr.depth == 0 {
            return Some(excl);
        }
        fr.charge(phase, excl);
        None
    })
}

/// Runs `f` with span attribution detached from the caller's context:
/// span time books into the background row, and nothing charged inside
/// counts toward the caller's open spans. For background work executed
/// inline on a foreground thread under a detached clock (HiNFS's
/// virtual-mode writeback actor runs on its own timeline via
/// `SimEnv::with_now`, so its time must not inflate the op that happened
/// to trigger it).
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore {
        detached: bool,
        outer: u64,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            swap_charged(self.outer);
            FRAME.with(|fr| fr.borrow_mut().detached = self.detached);
        }
    }
    let _restore = Restore {
        detached: FRAME.with(|fr| std::mem::replace(&mut fr.borrow_mut().detached, true)),
        outer: swap_charged(0),
    };
    f()
}

/// How an open [`Scope`] closes.
enum Close {
    /// The outermost op scope: reads the clock and folds the frame.
    Op,
    /// A nested op: books its own charges to [`Phase::Other`] and hands
    /// the counter back to the enclosing scope.
    Nested { outer: u64 },
    /// A background scope: no clock, no charges of its own.
    Bg,
}

/// RAII guard of an open scope, an op's ([`FsObs::op`]) or a background
/// one ([`FsObs::bg_scope`]). Dropping it closes the scope; unwinding
/// (a crash signal) drops it too, so the frame and the charge counter
/// are always restored.
pub struct Scope<'a> {
    obs: Option<&'a FsObs>,
    close: Close,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let Some(obs) = self.obs else {
            return;
        };
        let end = match self.close {
            Close::Op => Some(obs.spans().clock().now()),
            Close::Nested { outer } => {
                let excl = swap_charged(outer);
                FRAME.with(|fr| fr.borrow_mut().charge(Phase::Other, excl));
                None
            }
            Close::Bg => None,
        };
        FRAME.with(|fr| {
            let mut fr = fr.borrow_mut();
            if let Some(total_ns) = fr.exit(end) {
                obs.fold(&fr, total_ns);
            }
        });
    }
}

impl FsObs {
    /// Runs `f` as operation `op` — the only per-syscall entry point.
    /// Below [`Level::Full`] this is one relaxed load. At `Full` the
    /// outermost call on the thread opens the op frame, reads the clock
    /// at both ends, and folds the finished record; a nested call
    /// (HiNFS forwarding to PMFS) deepens the frame and books what it
    /// charged outside named phases under [`Phase::Other`] on the same
    /// row, reading no clock.
    #[inline]
    pub fn op<R>(&self, op: OpKind, f: impl FnOnce() -> R) -> R {
        if self.level() != Level::Full {
            return f();
        }
        let nested = FRAME.with(|fr| fr.borrow().depth > 0);
        let start_ns = if nested {
            0
        } else {
            self.spans().clock().now()
        };
        FRAME.with(|fr| fr.borrow_mut().enter(op as usize, start_ns));
        let close = if nested {
            Close::Nested {
                outer: swap_charged(0),
            }
        } else {
            Close::Op
        };
        let _scope = Scope {
            obs: Some(self),
            close,
        };
        f()
    }

    /// Opens a background scope (writeback passes, periodic ticks,
    /// sync/unmount drains): hook traffic on this thread lands in the
    /// background row until the guard drops. Inert below
    /// [`Level::Full`]; nested inside an op it only deepens the op's
    /// frame (an op's own inline reclaim stays the op's).
    pub fn bg_scope(&self) -> Scope<'_> {
        let open = self.level() == Level::Full;
        if open {
            FRAME.with(|fr| fr.borrow_mut().enter(BG_ROW, 0));
        }
        Scope {
            obs: open.then_some(self),
            close: Close::Bg,
        }
    }

    /// Folds a finished frame into the aggregations — the one place the
    /// per-op record meets the accumulators.
    fn fold(&self, fr: &Frame, total_ns: u64) {
        self.spans()
            .fold(BG_ROW, &fr.bg.phase_ns, &fr.bg.phase_calls);
        self.lineage().fold(&fr.rec.bytes, fr.rec.fences);
        if let Some(&op) = crate::ALL_OPS.get(fr.row) {
            self.op_histo(op).record(total_ns);
            self.spans()
                .fold(fr.row, &fr.rec.phase_ns, &fr.rec.phase_calls);
        }
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
        /// Charges `ns` the way the simulation does in virtual time:
        /// books it to the open scope and advances the clock.
        fn charge(&self, ns: u64) {
            note_charge(ns);
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
                note_bytes(Layer::Logical, 4096);
                note_fence();
                7
            });
            assert_eq!(r, 7);
            let _bg = obs.bg_scope();
            assert!(idle());
        }
        assert_eq!(obs.op_histo(OpKind::Write).snapshot().count(), 0);
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
        c.charge(1000);
        obs.op(OpKind::Write, || {
            c.charge(10);
            t.scope(Phase::DramCopy, || c.charge(120));
            t.scope(Phase::Persist, || c.charge(300));
            note_fence();
            note_fence();
            note_bytes(Layer::Logical, 100);
            note_bytes(Layer::DramBuffered, 4096);
            note_bytes(Layer::JournalLogged, 128);
            note_bytes(Layer::NvmmPersisted, 256);
            c.charge(570);
        });
        assert!(idle(), "frame closes with the outermost scope");
        // The histogram gets the latency...
        let h = obs.op_histo(OpKind::Write).snapshot();
        assert_eq!((h.count(), h.sum()), (1, 1000));
        // ...the span matrix the phases, on the op's row, with the
        // remainder in Other, so the row sums to the latency...
        let s = t.snapshot();
        assert_eq!(s.ns_of(OpKind::Write, Phase::DramCopy), 120);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Persist), 300);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Other), 580);
        assert_eq!(s.row_total(OpKind::Write as usize), 1000);
        assert_eq!(s.calls[OpKind::Write as usize][Phase::Other as usize], 1);
        // ...and the lineage ledger the bytes and fences.
        let l = obs.lineage().snap();
        assert_eq!(l.bytes, [100, 4096, 128, 256, 0]);
        assert_eq!(l.fences, 2);
    }

    #[test]
    fn nested_spans_account_exclusive_time() {
        let (c, t, obs) = rig();
        obs.op(OpKind::Write, || {
            c.charge(10); // op overhead before any phase
            t.scope(Phase::DramCopy, || {
                c.charge(100);
                t.scope(Phase::Persist, || c.charge(40));
                c.charge(5);
            });
            c.charge(3); // op overhead after
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
            c.charge(5);
            inner.op(OpKind::Fsync, || {
                c.charge(20);
                t.scope(Phase::Index, || c.charge(30));
                note_bytes(Layer::Logical, 7);
                assert_eq!(stamp_row(), OpKind::Open as usize);
            });
            assert!(!idle(), "outer frame survives the inner scope");
            c.charge(2);
        });
        assert_eq!(inner.op_histo(OpKind::Fsync).snapshot().count(), 0);
        assert!(
            inner.lineage().snap().is_empty(),
            "interloper books nothing"
        );
        let open = outer.op_histo(OpKind::Open).snapshot();
        assert_eq!(
            (open.count(), open.sum()),
            (1, 57),
            "folded once, at the outer close"
        );
        assert_eq!(outer.op_histo(OpKind::Fsync).snapshot().count(), 0);
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
            c.charge(10);
            // Background work on a detached timeline (e.g. the virtual
            // writeback actor): the clock may be far from the op's, and
            // none of its time belongs to the op.
            detached(|| {
                let _bg = obs.bg_scope(); // nested: only deepens
                assert_eq!(current_row(), BG_ROW);
                assert_eq!(stamp_row(), OpKind::Write as usize);
                c.charge(500);
                t.scope(Phase::Persist, || c.charge(1000));
                note_bytes(Layer::NvmmPersisted, 4096);
            });
            assert_eq!(current_row(), OpKind::Write as usize);
            c.charge(7);
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
        // ...and the op that triggered the pass folds what it persisted.
        assert_eq!(obs.lineage().snap().layer(Layer::NvmmPersisted), 4096);
    }

    #[test]
    fn background_scope_is_the_same_frame_on_the_bg_row() {
        let (c, t, obs) = rig();
        {
            let _bg = obs.bg_scope();
            assert_eq!(stamp_row(), BG_ROW);
            t.scope(Phase::Persist, || c.charge(64));
            note_bytes(Layer::NvmmPersisted, 4096);
            note_fence();
        }
        assert!(idle());
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Persist as usize], 64);
        let l = obs.lineage().snap();
        assert_eq!(l.layer(Layer::NvmmPersisted), 4096);
        assert_eq!(l.fences, 1);
        // No latency: a pass is not an op.
        let ops = crate::ALL_OPS.map(|op| obs.op_histo(op).snapshot().count());
        assert_eq!(ops, [0; crate::NOPS]);
    }

    #[test]
    fn idle_thread_spans_charge_the_background_row_directly() {
        let (c, t, _obs) = rig();
        t.scope(Phase::Persist, || c.charge(64));
        note_bytes(Layer::NvmmPersisted, 64); // no frame: dropped
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Persist as usize], 64);
        assert_eq!(current_row(), BG_ROW);
    }

    #[test]
    fn forty_nested_spans_each_book_their_own_charge() {
        let (_c, t, _obs) = rig();
        fn nest(t: &SpanTable, depth: usize) {
            t.scope(Phase::Journal, || {
                note_charge(1);
                if depth > 1 {
                    nest(t, depth - 1);
                }
            });
        }
        nest(&t, 40);
        let s = t.snapshot();
        assert_eq!(s.calls[BG_ROW][Phase::Journal as usize], 40);
        assert_eq!(s.ns[BG_ROW][Phase::Journal as usize], 40);
    }

    #[test]
    fn a_panicking_op_still_closes_the_frame() {
        let (c, t, obs) = rig();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.op(OpKind::Write, || panic!("injected crash"))
        }));
        assert!(r.is_err());
        assert!(idle(), "unwinding must not leave the thread's frame open");
        // A span unwound mid-charge hands the counter back to its parent.
        t.scope(Phase::Persist, || {
            c.charge(5);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.scope(Phase::Fence, || {
                    c.charge(7);
                    panic!("injected crash")
                })
            }));
            assert!(r.is_err());
            c.charge(1);
        });
        let s = t.snapshot();
        assert_eq!(s.ns[BG_ROW][Phase::Fence as usize], 7);
        assert_eq!(s.ns[BG_ROW][Phase::Persist as usize], 6);
    }
}
