//! The simulation environment: clocks, time modes, and cost charging.
//!
//! A [`SimEnv`] is shared (via `Arc`) by every device and file system in one
//! simulated machine. All simulated time flows through [`SimEnv::charge`]
//! and [`SimEnv::nvmm_persist`], which both attribute the time to a ledger
//! category and advance the caller's clock — either a per-thread logical
//! clock ([`TimeMode::Virtual`]) or the wall clock via a calibrated
//! busy-wait ([`TimeMode::Spin`]).
//!
//! In virtual mode a scheduler multiplexes many *logical actors* onto one
//! OS thread by saving/restoring the thread-local clock around each actor
//! step ([`SimEnv::set_now`] / [`SimEnv::with_now`]).
//!
//! NVMM writes pass the one [`BandwidthGate`] calendar in both modes: it
//! returns each persist's completion time, to which the virtual clock
//! jumps or until which the spin-mode caller busy-waits. Either way the
//! ledger gets the same service-plus-queueing time.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use obsv::{Clock, ContentionTable, Site};

use crate::cost::CostModel;
use crate::gate::BandwidthGate;
use crate::ledger::{self, Cat};

/// How simulated time is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeMode {
    /// Deterministic logical nanoseconds on a per-thread clock. Experiments
    /// use this mode; it is independent of the host CPU.
    Virtual,
    /// Real busy-wait delays, like the paper's RDTSCP spin-loop emulator.
    /// Criterion benchmarks use this mode.
    Spin,
}

thread_local! {
    static NOW: Cell<u64> = const { Cell::new(0) };
}

/// The shared simulation environment of one emulated machine.
#[derive(Debug)]
pub struct SimEnv {
    mode: TimeMode,
    cost: CostModel,
    epoch: Instant,
    gate: BandwidthGate,
    /// The machine's lock-contention and stall profiler. Every tracked
    /// lock on this machine attaches to it, so one bench cell (one
    /// `SimEnv`) owns exactly one contention timeline.
    contention: Arc<ContentionTable>,
}

impl SimEnv {
    /// Creates an environment in the given mode with the given cost model.
    pub fn new(mode: TimeMode, cost: CostModel) -> Arc<Self> {
        let epoch = Instant::now();
        // The profiler reads the same clock the environment serves:
        // per-thread logical ns in virtual mode, wall ns since the epoch
        // in spin mode. It only reads — profiling never advances time.
        let contention = Arc::new(match mode {
            TimeMode::Virtual => ContentionTable::new(Clock::new(|| NOW.with(|n| n.get()))),
            TimeMode::Spin => {
                ContentionTable::new(Clock::new(move || epoch.elapsed().as_nanos() as u64))
            }
        });
        let gate = BandwidthGate::new(&contention, cost.nvmm_write_bandwidth);
        Arc::new(SimEnv {
            mode,
            cost,
            epoch,
            gate,
            contention,
        })
    }

    /// Deterministic virtual-time environment (the default for experiments).
    pub fn new_virtual(cost: CostModel) -> Arc<Self> {
        Self::new(TimeMode::Virtual, cost)
    }

    /// Busy-wait environment, like the paper's emulator.
    pub fn new_spin(cost: CostModel) -> Arc<Self> {
        Self::new(TimeMode::Spin, cost)
    }

    /// The time mode of this environment.
    pub fn mode(&self) -> TimeMode {
        self.mode
    }

    /// The cost model of this environment.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The NVMM write-bandwidth gate.
    pub fn gate(&self) -> &BandwidthGate {
        &self.gate
    }

    /// The machine's lock-contention and stall profiler.
    pub fn contention(&self) -> &Arc<ContentionTable> {
        &self.contention
    }

    /// Current time in nanoseconds: the thread's logical clock in virtual
    /// mode, or wall time since environment creation in spin mode.
    pub fn now(&self) -> u64 {
        match self.mode {
            TimeMode::Virtual => NOW.with(|n| n.get()),
            TimeMode::Spin => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Sets the thread's logical clock. No-op in spin mode (wall time cannot
    /// be set). The virtual-time scheduler calls this when switching actors.
    pub fn set_now(&self, t: u64) {
        if self.mode == TimeMode::Virtual {
            NOW.with(|n| n.set(t));
        }
    }

    /// Runs `f` with the thread clock set to `t`, restoring the previous
    /// clock afterwards. Returns `f`'s result and the clock value reached
    /// inside `f` (in spin mode: wall time after `f`).
    ///
    /// This is how the background writeback *actor* runs on a foreground
    /// thread in virtual mode without charging its work to the foreground
    /// clock.
    pub fn with_now<R>(&self, t: u64, f: impl FnOnce() -> R) -> (R, u64) {
        match self.mode {
            TimeMode::Virtual => NOW.with(|n| {
                let prev = n.get();
                n.set(t);
                let r = f();
                let end = n.get();
                n.set(prev);
                (r, end)
            }),
            TimeMode::Spin => {
                let r = f();
                (r, self.now())
            }
        }
    }

    /// Charges `ns` nanoseconds to `cat`: advances the clock (virtual) or
    /// busy-waits (spin) and records the time in the thread ledger.
    pub fn charge(&self, cat: Cat, ns: u64) {
        if ns == 0 {
            return;
        }
        ledger::add(cat, ns);
        match self.mode {
            TimeMode::Virtual => NOW.with(|n| n.set(n.get() + ns)),
            TimeMode::Spin => spin_for(ns),
        }
    }

    /// Charges the DRAM cost of copying `bytes` (either direction) to `cat`.
    pub fn charge_dram_copy(&self, cat: Cat, bytes: usize) {
        self.charge(cat, self.cost.dram_copy_ns(bytes));
    }

    /// Charges the fixed per-call software overhead to [`Cat::Syscall`].
    pub fn charge_syscall(&self) {
        self.charge(Cat::Syscall, self.cost.syscall_ns);
    }

    /// Charges one store fence to [`Cat::Fence`].
    pub fn charge_fence(&self) {
        self.charge(Cat::Fence, self.cost.fence_ns);
    }

    /// Rebases the timeline: resets the bandwidth gate's servers to idle
    /// and the thread clock to zero (virtual mode). Harnesses call this
    /// after setup (mkfs, preallocation) so measurements start from a quiet
    /// device instead of queueing behind setup traffic.
    pub fn rebase(&self) {
        self.gate.reset();
        self.contention.reset();
        self.set_now(0);
    }

    /// Persists `lines` cachelines to NVMM through the bandwidth gate:
    /// charges the service time plus any queueing delay to `cat`, and
    /// moves the clock (virtual) or busy-waits (spin) to the completion
    /// time the gate returns.
    ///
    /// Admission is per cacheline — the unit real memory controllers
    /// schedule at — so concurrent writers interleave fairly instead of a
    /// small flush waiting behind another thread's whole-block write; the
    /// gate books the lines of one persist as one run.
    pub fn nvmm_persist(&self, cat: Cat, lines: usize) {
        if lines == 0 {
            return;
        }
        let line_ns = self.cost.nvmm_write_latency_ns;
        let start = self.now();
        let done = self.gate.admit(start, line_ns, lines);
        ledger::add(cat, done - start);
        // Queueing delay beyond pure service time is bandwidth
        // throttling: attribute it as an explicit stall site (this only
        // *records* — the clock moves the same with profiling on or off).
        let queued = (done - start).saturating_sub(line_ns * lines as u64);
        if queued > 0 {
            self.contention.stall(Site::StallThrottle, queued);
        }
        match self.mode {
            TimeMode::Virtual => NOW.with(|n| n.set(done)),
            TimeMode::Spin => spin_for(done.saturating_sub(self.now())),
        }
    }
}

/// Busy-waits for approximately `ns` nanoseconds.
fn spin_for(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn venv() -> Arc<SimEnv> {
        SimEnv::new_virtual(CostModel::default())
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_advances() {
        let env = venv();
        env.set_now(0);
        ledger::reset();
        assert_eq!(env.now(), 0);
        env.charge(Cat::Other, 100);
        assert_eq!(env.now(), 100);
        env.charge(Cat::Other, 0);
        assert_eq!(env.now(), 100);
    }

    #[test]
    fn with_now_restores_outer_clock() {
        let env = venv();
        env.set_now(500);
        let ((), inner_end) = env.with_now(2_000, || {
            env.charge(Cat::Writeback, 300);
        });
        assert_eq!(inner_end, 2_300);
        assert_eq!(env.now(), 500);
    }

    #[test]
    fn persist_sequential_writer_pays_pure_latency() {
        // A lone writer never queues behind itself: 64 lines cost exactly
        // 64 × L_nvmm.
        let env = venv();
        ledger::reset();
        env.set_now(0);
        env.nvmm_persist(Cat::UserWrite, 64);
        assert_eq!(env.now(), env.cost().nvmm_persist_ns(64));
    }

    #[test]
    fn persist_queues_when_bandwidth_saturated() {
        let env = venv();
        ledger::reset();
        // Many writers issuing lines at t=0 overwhelm the first
        // microsecond of device bandwidth; the next writer is pushed out.
        let per_bucket = env.gate().lines_per_bucket();
        for _ in 0..per_bucket {
            env.set_now(0);
            env.nvmm_persist(Cat::UserWrite, 1);
            assert!(env.now() <= 1_000 + 200, "early lines are unqueued");
        }
        env.set_now(0);
        env.nvmm_persist(Cat::UserWrite, 1);
        assert!(
            env.now() >= 1_000,
            "line issued into a saturated microsecond is pushed to the next bucket ({} ns)",
            env.now()
        );
    }

    #[test]
    fn ledger_records_charges() {
        let env = venv();
        ledger::reset();
        env.set_now(0);
        env.charge_dram_copy(Cat::UserRead, 4096);
        let snap = ledger::snapshot();
        assert_eq!(snap.get(Cat::UserRead), env.cost().dram_copy_ns(4096));
    }

    #[test]
    fn spin_mode_advances_wall_clock() {
        let env = SimEnv::new_spin(CostModel::default());
        let t0 = env.now();
        env.charge(Cat::Other, 200_000); // 200 us, measurable
        let t1 = env.now();
        assert!(t1 - t0 >= 200_000);
        // set_now is a no-op in spin mode.
        env.set_now(0);
        assert!(env.now() >= t1);
    }

    #[test]
    fn spin_persist_waits_for_the_calendar() {
        // 64 B per µs: the calendar holds one line per 1 µs bucket.
        let env = SimEnv::new_spin(CostModel::default().with_write_bandwidth(64_000_000));
        assert_eq!(env.gate().lines_per_bucket(), 1);
        env.contention().set_level(obsv::Level::Full);
        ledger::reset();
        let line_ns = env.cost().nvmm_write_latency_ns;
        let t0 = env.now();
        env.nvmm_persist(Cat::UserWrite, 4);
        let took = env.now() - t0;
        let booked = ledger::snapshot().get(Cat::UserWrite);
        // Four lines take four buckets: the last one starts at least two
        // full buckets after the first one's bucket, wherever in it the
        // persist began.
        assert!(booked > 2 * 1_000 + line_ns, "booked {booked} ns");
        assert!(took >= booked, "returned after {took} ns, booked {booked}");
        // What is not service time is throttling.
        let throttle = env.contention().snapshot();
        let throttle = throttle.site(Site::StallThrottle);
        assert_eq!(throttle.wait.sum(), booked - 4 * line_ns);
    }

    #[test]
    fn spin_mode_phases_book_exactly_their_charges() {
        use obsv::{FsObs, Level, OpKind, Phase, SpanTable};
        let env = SimEnv::new_spin(CostModel::default());
        let spans = Arc::new(SpanTable::new(env.contention().clock().clone()));
        spans.set_enabled(true);
        let obs = FsObs::new(spans.clone());
        obs.set_level(Level::Full);
        obs.op(OpKind::Write, || {
            env.charge_syscall();
            spans.scope(Phase::DramCopy, || env.charge(Cat::UserWrite, 20_000));
            spans.scope(Phase::Journal, || {
                env.charge(Cat::Journal, 30_000);
                spans.scope(Phase::Fence, || env.charge_fence());
            });
        });
        let s = spans.snapshot();
        assert_eq!(s.ns_of(OpKind::Write, Phase::DramCopy), 20_000);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Journal), 30_000);
        assert_eq!(s.ns_of(OpKind::Write, Phase::Fence), env.cost().fence_ns);
        // The rest of the op's wall-clock latency is its `Other`, which
        // holds at least the syscall charge.
        assert!(s.ns_of(OpKind::Write, Phase::Other) >= env.cost().syscall_ns);
    }

    #[test]
    fn syscall_and_fence_charges() {
        let env = venv();
        ledger::reset();
        env.set_now(0);
        env.charge_syscall();
        env.charge_fence();
        let snap = ledger::snapshot();
        assert_eq!(snap.get(Cat::Syscall), env.cost().syscall_ns);
        assert_eq!(snap.get(Cat::Fence), env.cost().fence_ns);
        assert_eq!(env.now(), env.cost().syscall_ns + env.cost().fence_ns);
    }
}
