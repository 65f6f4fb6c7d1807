//! Fault injection and crash-point enumeration hooks.
//!
//! Every durable store on a [`crate::NvmmDevice`] passes a *persistence
//! boundary*: the instant at which the touched cachelines join the
//! persistence domain. A [`FaultPlan`] installed on the device's
//! [`FaultHook`] observes those boundaries and can
//!
//! - **record** them as a numbered crash schedule (one [`BoundaryRec`] per
//!   boundary), which is how the `faultfs` enumerator sizes a sweep;
//! - **crash** the run at boundary `N` by unwinding with a [`CrashSignal`]
//!   panic payload — the store that completed boundary `N` is durable, every
//!   later store never happens, exactly like pulling the power cord between
//!   two instructions;
//! - **inject** softer faults that file-system layers consult on their error
//!   paths: journal-full backpressure, allocation failure (ENOSPC), and
//!   writeback-thread stalls.
//!
//! With no plan installed the hook costs one relaxed atomic load per
//! boundary, so the instrumentation is free outside fault runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use obsv::{TraceEvent, TraceRing};

use crate::device::NvmmDevice;

/// Panic payload used to simulate power loss at a persistence boundary.
///
/// The crash enumerator wraps each scripted operation in
/// `std::panic::catch_unwind` and downcasts the payload: a `CrashSignal`
/// means the injected crash fired; anything else is a real bug and is
/// resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// The 1-based boundary number the crash fired at.
    pub boundary: u64,
}

/// What kind of durable event a boundary (or schedule entry) was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// A non-temporal store ([`NvmmDevice::write_persist`] /
    /// [`NvmmDevice::zero_persist`]): durable on completion.
    Persist,
    /// A [`NvmmDevice::clflush`] that persisted at least one pending line.
    Flush,
    /// A store fence. Fences order stores but add no new durable state, so
    /// they appear in the recorded schedule for readability without being
    /// numbered (crashing "at" a fence equals crashing after the previous
    /// persist).
    Fence,
}

impl BoundaryKind {
    /// Stable label for schedule dumps.
    pub fn label(self) -> &'static str {
        match self {
            BoundaryKind::Persist => "persist",
            BoundaryKind::Flush => "flush",
            BoundaryKind::Fence => "fence",
        }
    }
}

/// One entry of a recorded crash schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRec {
    /// 1-based crash-point number; `0` for fences (not crash-eligible).
    pub index: u64,
    /// What made this boundary.
    pub kind: BoundaryKind,
    /// Device offset of the store (0 for fences).
    pub off: u64,
    /// Cachelines persisted at this boundary.
    pub lines: usize,
    /// Simulated time of the boundary.
    pub at_ns: u64,
}

/// Injectable fault classes beyond power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Journal admission refused: `Journal::begin`/`log_range` return
    /// `FsError::JournalFull`.
    JournalFull,
    /// Block allocation refused: allocators return `NoSpace`.
    Enospc,
    /// Background writeback suppressed: periodic/watermark passes are
    /// skipped while the stall is active (foreground reclaim still runs).
    WritebackStall,
}

impl InjectedFault {
    /// Stable numeric code used in trace events.
    pub fn code(self) -> u64 {
        match self {
            InjectedFault::JournalFull => 1,
            InjectedFault::Enospc => 2,
            InjectedFault::WritebackStall => 3,
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InjectedFault::JournalFull => "journal_full",
            InjectedFault::Enospc => "enospc",
            InjectedFault::WritebackStall => "writeback_stall",
        }
    }
}

/// A fault-injection plan shared between the harness and the layers it
/// instruments. All switches are live: the harness flips them mid-run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Persistence boundaries seen since the last `reset_boundaries`.
    counter: AtomicU64,
    /// Crash when `counter` reaches this value; 0 = disabled.
    crash_at: AtomicU64,
    recording: AtomicBool,
    schedule: Mutex<Vec<BoundaryRec>>,
    journal_left: Countdown,
    allocs_left: Countdown,
    stall_writeback: AtomicBool,
    crashes_injected: AtomicU64,
    faults_injected: AtomicU64,
    trace: Mutex<Option<Arc<TraceRing>>>,
}

/// Requests still admitted before a soft fault sets in, plus one (1 = every
/// request is refused); 0 = injection off.
#[derive(Debug, Default)]
struct Countdown(AtomicU64);

impl Countdown {
    /// Whether the request asking now is refused: the countdown has run
    /// out (it takes one step otherwise).
    fn refuses(&self) -> bool {
        let step = |left| (left > 1).then(|| left - 1);
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, step)
            == Err(1)
    }
}

impl FaultPlan {
    /// A fresh plan with everything off.
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Attaches a trace ring; injected faults emit
    /// [`TraceEvent::FaultInjected`] into it.
    pub fn set_trace(&self, ring: Arc<TraceRing>) {
        *self.trace.lock() = Some(ring);
    }

    fn emit(&self, at_ns: u64, ev: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = self.trace.lock().as_ref() {
            ring.emit(at_ns, ev);
        }
    }

    /// Starts recording a crash schedule from boundary 1.
    pub fn start_recording(&self) {
        self.schedule.lock().clear();
        self.counter.store(0, Ordering::Relaxed);
        self.recording.store(true, Ordering::Relaxed);
    }

    /// Stops recording and returns the schedule.
    pub fn stop_recording(&self) -> Vec<BoundaryRec> {
        self.recording.store(false, Ordering::Relaxed);
        std::mem::take(&mut self.schedule.lock())
    }

    /// Arms a crash at 1-based boundary `n` (counting restarts from zero).
    pub fn arm_crash(&self, n: u64) {
        assert!(n > 0, "boundary numbers are 1-based");
        self.counter.store(0, Ordering::Relaxed);
        self.crash_at.store(n, Ordering::Relaxed);
    }

    /// Disarms a pending crash (keeps the boundary counter running).
    pub fn disarm_crash(&self) {
        self.crash_at.store(0, Ordering::Relaxed);
    }

    /// Boundaries observed since the counter was last reset.
    pub fn boundaries_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Switches journal-full backpressure injection.
    pub fn set_journal_unavailable(&self, on: bool) {
        self.journal_left.0.store(on as u64, Ordering::Relaxed);
    }

    /// Admits `n` more journal requests (a `begin`, a batch of undo
    /// records), then refuses every later one — the ring filling up in
    /// the middle of an operation.
    /// [`FaultPlan::set_journal_unavailable`]`(false)` lifts it again.
    pub fn fail_journal_after(&self, n: u64) {
        self.journal_left.0.store(n + 1, Ordering::Relaxed);
    }

    /// Switches allocation-failure (ENOSPC) injection.
    pub fn set_fail_alloc(&self, on: bool) {
        self.allocs_left.0.store(on as u64, Ordering::Relaxed);
    }

    /// Admits `n` more allocations, then fails every later one with
    /// ENOSPC — the allocator running dry in the middle of an operation.
    /// [`FaultPlan::set_fail_alloc`]`(false)` lifts it again.
    pub fn fail_alloc_after(&self, n: u64) {
        self.allocs_left.0.store(n + 1, Ordering::Relaxed);
    }

    /// Switches background-writeback stalling.
    pub fn set_stall_writeback(&self, on: bool) {
        self.stall_writeback.store(on, Ordering::Relaxed);
    }

    /// Crashes fired by this plan.
    pub fn crashes_injected(&self) -> u64 {
        self.crashes_injected.load(Ordering::Relaxed)
    }

    /// Soft faults (journal-full, ENOSPC, stalls) this plan injected.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    fn note_fault(&self, fault: InjectedFault, at_ns: u64) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.emit(at_ns, || TraceEvent::FaultInjected {
            kind: fault.code(),
            at_boundary: self.counter.load(Ordering::Relaxed),
        });
    }

    /// Called by the device at every persistence boundary. Panics with a
    /// [`CrashSignal`] when the armed crash point is reached.
    pub(crate) fn on_boundary(&self, kind: BoundaryKind, off: u64, lines: usize, at_ns: u64) {
        if matches!(kind, BoundaryKind::Fence) {
            if self.recording.load(Ordering::Relaxed) {
                self.schedule.lock().push(BoundaryRec {
                    index: 0,
                    kind,
                    off,
                    lines,
                    at_ns,
                });
            }
            return;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if self.recording.load(Ordering::Relaxed) {
            self.schedule.lock().push(BoundaryRec {
                index: n,
                kind,
                off,
                lines,
                at_ns,
            });
        }
        let at = self.crash_at.load(Ordering::Relaxed);
        if at != 0 && n == at {
            self.crash_at.store(0, Ordering::Relaxed);
            self.crashes_injected.fetch_add(1, Ordering::Relaxed);
            self.emit(at_ns, || TraceEvent::FaultInjected {
                kind: 0,
                at_boundary: n,
            });
            std::panic::panic_any(CrashSignal { boundary: n });
        }
    }
}

/// The per-device mount point for a [`FaultPlan`]. Shareable (cloned into
/// allocators and journals at mount) so every layer consults the *current*
/// plan even when plans are swapped between runs.
#[derive(Debug, Default)]
pub struct FaultHook {
    armed: AtomicBool,
    plan: Mutex<Option<Arc<FaultPlan>>>,
}

impl FaultHook {
    /// A hook with no plan installed.
    pub fn new() -> Arc<FaultHook> {
        Arc::new(FaultHook::default())
    }

    /// Installs `plan`; subsequent boundaries and consults go to it.
    pub fn install(&self, plan: Arc<FaultPlan>) {
        *self.plan.lock() = Some(plan);
        self.armed.store(true, Ordering::Release);
    }

    /// Removes the current plan; the hook goes back to costing one relaxed
    /// load per boundary.
    pub fn clear(&self) {
        self.armed.store(false, Ordering::Release);
        *self.plan.lock() = None;
    }

    /// The currently installed plan, if any.
    #[inline]
    pub fn plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.plan.lock().clone()
    }
}

/// Whether journal admission should fail right now on `dev` (journal-full
/// backpressure injection). Counts and traces the injection when it fires.
pub fn journal_blocked(dev: &NvmmDevice) -> bool {
    match dev.fault_hook().plan() {
        Some(plan) if plan.journal_left.refuses() => {
            plan.note_fault(InjectedFault::JournalFull, dev.env().now());
            true
        }
        _ => false,
    }
}

/// Whether block/inode allocation should fail right now on `dev` (ENOSPC
/// injection). Counts and traces the injection when it fires.
pub fn alloc_blocked(dev: &NvmmDevice) -> bool {
    match dev.fault_hook().plan() {
        Some(plan) if plan.allocs_left.refuses() => {
            plan.note_fault(InjectedFault::Enospc, dev.env().now());
            true
        }
        _ => false,
    }
}

/// Whether background writeback is stalled on `dev`. Counts and traces each
/// suppressed pass.
pub fn writeback_stalled(dev: &NvmmDevice) -> bool {
    match dev.fault_hook().plan() {
        Some(plan) if plan.stall_writeback.load(Ordering::Relaxed) => {
            plan.note_fault(InjectedFault::WritebackStall, dev.env().now());
            true
        }
        _ => false,
    }
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) used to pick
/// partial-pending line subsets for torn-state crashes.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(x.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::ledger::Cat;
    use crate::time::SimEnv;

    fn dev() -> Arc<NvmmDevice> {
        NvmmDevice::new_tracked(SimEnv::new_virtual(CostModel::default()), 1 << 16)
    }

    #[test]
    fn recording_numbers_persist_boundaries() {
        let d = dev();
        let plan = FaultPlan::new();
        d.fault_hook().install(plan.clone());
        plan.start_recording();
        d.write_persist(Cat::Meta, 0, &[1u8; 64]); // boundary 1
        d.write_cached(Cat::Journal, 4096, &[2u8; 64]); // not a boundary
        d.clflush(Cat::Journal, 4096, 64); // boundary 2
        d.sfence(); // recorded, not numbered
        d.clflush(Cat::Journal, 4096, 64); // nothing pending: no boundary
        d.zero_persist(Cat::Meta, 8192, 64); // boundary 3
        let sched = plan.stop_recording();
        assert_eq!(plan.boundaries_seen(), 3);
        let indices: Vec<u64> = sched.iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![1, 2, 0, 3]);
        assert_eq!(sched[2].kind, BoundaryKind::Fence);
        d.fault_hook().clear();
    }

    #[test]
    fn armed_crash_fires_at_boundary() {
        let d = dev();
        let plan = FaultPlan::new();
        d.fault_hook().install(plan.clone());
        plan.arm_crash(2);
        d.write_persist(Cat::Meta, 0, &[1u8; 64]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.write_persist(Cat::Meta, 64, &[2u8; 64]);
        }))
        .expect_err("crash must fire at boundary 2");
        let sig = err.downcast_ref::<CrashSignal>().expect("crash signal");
        assert_eq!(sig.boundary, 2);
        assert_eq!(plan.crashes_injected(), 1);
        // The store that completed boundary 2 is durable.
        d.crash();
        let mut b = [0u8; 64];
        d.peek(64, &mut b);
        assert_eq!(b, [2u8; 64]);
        // Disarmed after firing: later stores proceed.
        d.write_persist(Cat::Meta, 128, &[3u8; 64]);
    }

    #[test]
    fn soft_fault_consults() {
        let d = dev();
        assert!(!journal_blocked(&d), "no plan installed");
        let plan = FaultPlan::new();
        d.fault_hook().install(plan.clone());
        assert!(!journal_blocked(&d));
        assert!(!alloc_blocked(&d));
        assert!(!writeback_stalled(&d));
        plan.set_journal_unavailable(true);
        plan.set_fail_alloc(true);
        plan.set_stall_writeback(true);
        assert!(journal_blocked(&d));
        assert!(alloc_blocked(&d));
        assert!(writeback_stalled(&d));
        assert_eq!(plan.faults_injected(), 3);
        plan.set_journal_unavailable(false);
        assert!(!journal_blocked(&d));
    }

    #[test]
    fn alloc_countdown_admits_n_then_refuses_until_lifted() {
        let d = dev();
        let plan = FaultPlan::new();
        d.fault_hook().install(plan.clone());
        plan.fail_alloc_after(2);
        assert!(!alloc_blocked(&d));
        assert!(!alloc_blocked(&d));
        assert!(alloc_blocked(&d), "the third allocation is refused");
        assert!(alloc_blocked(&d), "and every later one");
        assert_eq!(plan.faults_injected(), 2);
        plan.set_fail_alloc(false);
        assert!(!alloc_blocked(&d));
        // The journal's countdown is the same mechanism.
        plan.fail_journal_after(1);
        assert!(!journal_blocked(&d));
        assert!(journal_blocked(&d), "the second request is refused");
        plan.set_journal_unavailable(false);
        assert!(!journal_blocked(&d));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 42), mix(7, 42));
        assert_ne!(mix(7, 42), mix(8, 42));
        let ones: u32 = (0..64).map(|i| (mix(1, i) & 1) as u32).sum();
        assert!((16..=48).contains(&ones), "bit-0 balance: {ones}");
    }
}
