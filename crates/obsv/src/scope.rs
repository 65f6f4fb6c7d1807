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
//! - **Time is booked, not timed.** The simulation's charge funnel
//!   reports every modelled nanosecond through [`note_charge`]; a phase
//!   span, a nested op and a [`detached`] block each own what is charged
//!   while they are innermost. Only the outermost op scope reads the
//!   clock, once at each end, for its latency and its `Other`
//!   remainder. Clocks are never advanced here, so the record changes
//!   no result bit.

use crate::histo::bucket_of;
use crate::span::{Phase, ALL_PHASES, BG_ROW, NPHASES};
use crate::{thread_ordinal, COLLECTION_SHARDS, NOPS};
use crate::{FsObs, Layer, Level, OpKind, Site, ALL_SITES, NLAYERS, NSITES};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

    /// Adds `r` into this record: times, bytes, fences, stalls, phases
    /// and waits sum, `batch` keeps the larger, and `seq_start..seq_end`
    /// widens to cover both; `op`, `at_ns` and `shard` stay this
    /// record's.
    pub fn absorb(&mut self, r: &OpRecord) {
        self.total_ns += r.total_ns;
        self.batch = self.batch.max(r.batch);
        self.fences += r.fences;
        self.fences_coalesced += r.fences_coalesced;
        self.stall_events += r.stall_events;
        self.seq_start = self.seq_start.min(r.seq_start);
        self.seq_end = self.seq_end.max(r.seq_end);
        let add = |a: &mut [u64], b: &[u64]| a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
        add(&mut self.bytes, &r.bytes);
        add(&mut self.phase_ns, &r.phase_ns);
        add(&mut self.wait_ns, &r.wait_ns);
        for (a, b) in self.phase_calls.iter_mut().zip(r.phase_calls) {
            *a += b;
        }
    }
}

/// The `k` largest nonzero `values`, largest first, ties in label order
/// (the sort is stable).
fn top_k<L: Copy>(labels: &[L], values: &[u64], k: usize) -> Vec<(L, u64)> {
    let pairs = labels.iter().copied().zip(values.iter().copied());
    let mut v: Vec<(L, u64)> = pairs.filter(|&(_, ns)| ns > 0).collect();
    v.sort_by_key(|&(_, ns)| Reverse(ns));
    v.truncate(k);
    v
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
    /// The in-flight record (the op's own anatomy).
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
    /// starts a fresh record (an op's with its start time and seq); a
    /// nested one only deepens it.
    fn enter(&mut self, row: usize, start: Option<(u64, u64)>) {
        self.depth += 1;
        if self.depth > 1 {
            return;
        }
        self.row = row;
        self.bg = OpRecord::EMPTY;
        self.rec = OpRecord::EMPTY;
        if let (Some(&op), Some((at_ns, seq))) = (crate::ALL_OPS.get(row), start) {
            self.rec.op = op;
            self.rec.at_ns = at_ns;
            self.rec.seq_start = seq;
        }
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

    /// Closes a scope at `end` (the outermost op scope's clock read;
    /// other scopes have none). Returns whether the frame is now
    /// finished and must be folded.
    fn exit(&mut self, end: Option<(u64, u64)>) -> bool {
        self.depth -= 1;
        if self.depth > 0 {
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

/// Books `bytes` the op moved through `layer`: handed in by the
/// application, staged in DRAM, written to a journal, or persisted to
/// NVMM (cacheline granularity).
#[inline]
pub fn note_bytes(layer: Layer, bytes: u64) {
    note(|r| r.bytes[layer as usize] += bytes);
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
        r.wait_ns[site.index()] += wait_ns;
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
            Close::Op => Some(obs.now_and_seq()),
            Close::Nested { outer } => {
                let excl = swap_charged(outer);
                FRAME.with(|fr| fr.borrow_mut().charge(Phase::Other, excl));
                None
            }
            Close::Bg => None,
        };
        FRAME.with(|fr| {
            let mut fr = fr.borrow_mut();
            if fr.exit(end) {
                obs.fold(&fr);
            }
        });
    }
}

impl FsObs {
    /// Runs `f` as operation `op` — the only per-syscall entry point.
    /// Below [`Level::Full`] this is one relaxed load. At `Full` the
    /// outermost call on the thread opens the op frame, reads the clock
    /// at both ends, and folds the finished [`OpRecord`]; a nested call
    /// (HiNFS forwarding to PMFS) deepens the frame and books what it
    /// charged outside named phases under [`Phase::Other`] on the same
    /// row, reading no clock.
    #[inline]
    pub fn op<R>(&self, op: OpKind, f: impl FnOnce() -> R) -> R {
        if self.level() != Level::Full {
            return f();
        }
        let nested = FRAME.with(|fr| fr.borrow().depth > 0);
        let start = (!nested).then(|| self.now_and_seq());
        FRAME.with(|fr| fr.borrow_mut().enter(op as usize, start));
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

    /// The clock and the trace ring's seq ticket: an op's two ends.
    fn now_and_seq(&self) -> (u64, u64) {
        (self.spans().clock().now(), self.trace.emitted())
    }

    /// Opens a background scope (writeback passes, periodic ticks,
    /// sync/unmount drains): hook traffic on this thread lands in the
    /// background row until the guard drops. Inert below
    /// [`Level::Full`]; nested inside an op it only deepens the op's
    /// frame (an op's own inline reclaim stays the op's).
    pub fn bg_scope(&self) -> Scope<'_> {
        let open = self.level() == Level::Full;
        if open {
            FRAME.with(|fr| fr.borrow_mut().enter(BG_ROW, None));
        }
        Scope {
            obs: open.then_some(self),
            close: Close::Bg,
        }
    }

    /// Folds a finished frame into the aggregations — the one place the
    /// per-op record meets the accumulators.
    fn fold(&self, fr: &Frame) {
        self.spans()
            .fold(BG_ROW, &fr.bg.phase_ns, &fr.bg.phase_calls);
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

/// Records kept per op kind per collection shard. The merged snapshot
/// keeps [`FLIGHT_MERGED_TOPK`]; any globally-top-K record necessarily
/// survives its own shard's top-K pruning, so the merge is exact up to
/// `FLIGHT_TOPK` records per shard.
pub const FLIGHT_TOPK: usize = 8;

/// Records kept per op kind after merging the collection shards.
pub const FLIGHT_MERGED_TOPK: usize = 16;

/// One collection shard's reservoirs: a top-K vector per op kind,
/// boxed and lazily allocated on the shard's first retirement.
type ShardReservoirs = Mutex<Option<Box<[Vec<OpRecord>; NOPS]>>>;

/// The tail reservoir: per file system, the [`FLIGHT_TOPK`] slowest
/// finished [`OpRecord`]s of each [`OpKind`] — one more fold of the
/// record, fed by the scope alone. The histograms say *what* the p99 is;
/// these say why one particular slow op was slow, and double as the
/// histograms' exemplars ([`FlightSnapshot::cohort`]). Sharded per
/// thread ordinal so concurrent retirements never serialize on one
/// mutex; retiring replaces the shard's fastest kept record in place, so
/// the only allocations are the lazy first-use reservoir boxes.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    recorded: AtomicU64,
    shards: [ShardReservoirs; COLLECTION_SHARDS],
}

/// Locks a reservoir shard. A panic mid-retire leaves whole records
/// behind, so a poisoned shard is still valid.
fn lock(shard: &ShardReservoirs) -> MutexGuard<'_, Option<Box<[Vec<OpRecord>; NOPS]>>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sort key putting the slowest record first, deterministically.
fn slowest_first(r: &OpRecord) -> (Reverse<u64>, u64, u64) {
    (Reverse(r.total_ns), r.at_ns, r.seq_start)
}

impl FlightRecorder {
    /// Operations retired into the reservoirs so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Inserts a finished record into the caller's reservoir shard,
    /// replacing that shard's fastest record once the op's K slots are
    /// full.
    pub(crate) fn retire(&self, rec: &OpRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock(&self.shards[thread_ordinal() % COLLECTION_SHARDS]);
        let slots = guard.get_or_insert_with(|| {
            Box::new(std::array::from_fn(|_| Vec::with_capacity(FLIGHT_TOPK)))
        });
        let v = &mut slots[rec.op as usize];
        if v.len() < FLIGHT_TOPK {
            v.push(*rec);
        } else if let Some(min) = v.iter_mut().min_by_key(|r| r.total_ns) {
            if rec.total_ns > min.total_ns {
                *min = *rec;
            }
        }
    }

    /// Drops every record and zeroes the retire counter (timeline
    /// rebasing, like `Histo::reset`).
    pub fn reset(&self) {
        for shard in &self.shards {
            *lock(shard) = None;
        }
        self.recorded.store(0, Ordering::Relaxed);
    }

    /// Merges the reservoir shards into a frozen snapshot: per op kind,
    /// the up-to-[`FLIGHT_MERGED_TOPK`] slowest records, slowest first,
    /// deterministically ordered.
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut snap = FlightSnapshot {
            recorded: self.recorded(),
            ..FlightSnapshot::default()
        };
        for shard in &self.shards {
            if let Some(slots) = lock(shard).as_ref() {
                for (op, v) in slots.iter().enumerate() {
                    snap.per_op[op].extend_from_slice(v);
                }
            }
        }
        for v in &mut snap.per_op {
            v.sort_by_key(slowest_first);
            v.truncate(FLIGHT_MERGED_TOPK);
        }
        snap
    }
}

/// A frozen copy of a [`FlightRecorder`]'s reservoirs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    per_op: [Vec<OpRecord>; NOPS],
    recorded: u64,
}

impl FlightSnapshot {
    /// Operations retired when the snapshot was taken.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The kept records of one op kind, slowest first.
    pub fn records(&self, op: OpKind) -> &[OpRecord] {
        &self.per_op[op as usize]
    }

    /// Every kept record across all op kinds, slowest first.
    pub fn all(&self) -> Vec<&OpRecord> {
        self.cohort(0)
    }

    /// The exemplar cohort of a quantile: every kept record whose
    /// latency bucket is at (or above) the bucket `quantile_ns` falls
    /// in, slowest first. With `quantile_ns` from the merged histogram's
    /// `quantile(q)`, these are the concrete anatomies behind the
    /// reported pXX.
    pub fn cohort(&self, quantile_ns: u64) -> Vec<&OpRecord> {
        let floor = bucket_of(quantile_ns);
        let mut v: Vec<&OpRecord> = self
            .per_op
            .iter()
            .flatten()
            .filter(|r| r.bucket() >= floor)
            .collect();
        v.sort_by_key(|r| slowest_first(r));
        v
    }
}

/// Aggregate anatomy of a set of records (an exemplar cohort): how many,
/// and their sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailAnatomy {
    /// Records aggregated.
    pub count: u64,
    /// The records [absorbed](OpRecord::absorb) into one: summed phase,
    /// wait and byte totals, the largest batch, and the covering
    /// trace-seq window `seq_start..seq_end` (`0..0` for no records).
    pub sum: OpRecord,
}

impl TailAnatomy {
    /// Sums `records` into one anatomy.
    pub fn aggregate<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> TailAnatomy {
        let mut a = TailAnatomy {
            count: 0,
            sum: OpRecord {
                seq_start: u64::MAX,
                ..OpRecord::EMPTY
            },
        };
        for r in records {
            a.count += 1;
            a.sum.absorb(r);
        }
        if a.count == 0 {
            a.sum.seq_start = 0;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::{bucket_lower, bucket_upper, Histo};
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
        c.charge(1000);
        obs.op(OpKind::Write, || {
            c.charge(10);
            t.scope(Phase::DramCopy, || c.charge(120));
            t.scope(Phase::Persist, || c.charge(300));
            note_wait(Site::PmfsJournal, 40);
            note_wait(Site::StallWriteback, 60);
            note_fence(1);
            note_fence(4); // one fence covering a 4-tx group commit
            note_bytes(Layer::Logical, 100);
            note_bytes(Layer::DramBuffered, 4096);
            note_bytes(Layer::JournalLogged, 128);
            note_bytes(Layer::NvmmPersisted, 256);
            note_shard(3);
            note_batch(4);
            note_batch(2);
            c.charge(570);
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
        assert_eq!(r.wait_ns[Site::PmfsJournal.index()], 40);
        assert_eq!(r.wait_ns[Site::StallWriteback.index()], 60);
        assert_eq!(r.stall_events, 1);
        assert_eq!((r.fences, r.fences_coalesced), (2, 3));
        assert_eq!(r.bytes[Layer::NvmmPersisted as usize], 256);
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
        // ...and the op that triggered the pass owns what it persisted.
        let l = obs.lineage().snap();
        assert_eq!(
            l.row_bytes[OpKind::Write as usize][Layer::NvmmPersisted as usize],
            4096
        );
        assert_eq!(
            obs.flight().snapshot().all()[0].bytes[Layer::NvmmPersisted as usize],
            4096
        );
    }

    #[test]
    fn background_scope_is_the_same_frame_on_the_bg_row() {
        let (c, t, obs) = rig();
        {
            let _bg = obs.bg_scope();
            assert_eq!(stamp_row(), BG_ROW);
            t.scope(Phase::Persist, || c.charge(64));
            note_bytes(Layer::NvmmPersisted, 4096);
            note_fence(1);
        }
        assert!(idle());
        assert_eq!(t.snapshot().ns[BG_ROW][Phase::Persist as usize], 64);
        let l = obs.lineage().snap();
        assert_eq!(l.row_bytes[BG_ROW][Layer::NvmmPersisted as usize], 4096);
        assert_eq!(l.fences, 1);
        // No latency, no anatomy: a pass is not an op.
        assert_eq!(obs.flight().recorded(), 0);
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

    // The tail reservoir itself; how records are assembled and when they
    // retire is tested above.

    fn record_one(fl: &FlightRecorder, op: OpKind, at_ns: u64, total_ns: u64) {
        let mut rec = OpRecord {
            op,
            at_ns,
            total_ns,
            ..OpRecord::EMPTY
        };
        rec.phase_ns[Phase::Other as usize] = total_ns;
        fl.retire(&rec);
    }

    #[test]
    fn reservoir_keeps_topk_slowest_per_op() {
        let fl = FlightRecorder::default();
        for i in 0..100u64 {
            record_one(&fl, OpKind::Read, i, i + 1);
        }
        assert_eq!(fl.recorded(), 100);
        let snap = fl.snapshot();
        let recs = snap.records(OpKind::Read);
        assert_eq!(recs.len(), FLIGHT_TOPK.min(FLIGHT_MERGED_TOPK));
        assert_eq!(recs[0].total_ns, 100);
        assert!(recs.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        assert_eq!(recs.last().unwrap().total_ns, 100 - FLIGHT_TOPK as u64 + 1);
        fl.reset();
        assert_eq!(fl.recorded(), 0);
        assert!(fl.snapshot().all().is_empty());
    }

    #[test]
    fn exemplars_agree_with_histogram_buckets() {
        // The exemplar ↔ bucket contract: a record keyed to bucket b has
        // bucket_lower(b) <= total_ns <= bucket_upper(b), and the cohort
        // of the histogram's pXX contains exactly the records at or above
        // the quantile's bucket.
        let fl = FlightRecorder::default();
        let h = Histo::new();
        let samples: Vec<u64> = (1..=200u64).map(|i| i * 97).collect();
        for (i, &ns) in samples.iter().enumerate() {
            h.record(ns);
            record_one(&fl, OpKind::Write, i as u64, ns);
        }
        let snap = fl.snapshot();
        for r in snap.all() {
            let b = r.bucket();
            assert!(bucket_lower(b) <= r.total_ns && r.total_ns <= bucket_upper(b));
        }
        let p99 = h.snapshot().quantile(0.99);
        let cohort = snap.cohort(p99);
        assert!(!cohort.is_empty(), "top-K exemplars must cover the p99");
        for r in &cohort {
            assert!(
                r.bucket() >= bucket_of(p99),
                "cohort record below the p99 bucket"
            );
        }
        let a = TailAnatomy::aggregate(cohort.iter().copied());
        assert_eq!(a.count, cohort.len() as u64);
        assert_eq!(
            a.sum.total_ns,
            cohort.iter().map(|r| r.total_ns).sum::<u64>()
        );
        assert_eq!(a.sum.phase_ns.iter().sum::<u64>(), a.sum.total_ns);
    }
}
