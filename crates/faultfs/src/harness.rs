//! The crash-point enumeration harness.
//!
//! One [`Harness`] drives the full cycle for any [`SystemKind`], formatting
//! and remounting every image through [`setups::build`] and
//! [`setups::remount_with`] at one [`SystemConfig`]:
//!
//! 1. **Record** — replay a script on a fresh image with the device's
//!    [`FaultPlan`] recording, producing the numbered *crash schedule* of
//!    every persistence boundary (non-temporal store, cacheline flush)
//!    the run crossed.
//! 2. **Enumerate** — for each scheduled boundary `k`, rebuild the image,
//!    replay the same script with a crash armed at boundary `k`
//!    (optionally tearing the volatile store buffer with a seeded partial
//!    drop), catch the [`CrashSignal`], give every pending cacheline its
//!    durable bytes back, remount (running journal recovery), and run the
//!    [`Oracle`] over the recovered tree.
//! 3. **Inject** — replay with a soft fault (journal-full, ENOSPC,
//!    writeback stall) switched on for a window of operations, asserting
//!    clean errors (never panics), then crash + recover + oracle-check.
//!
//! Everything runs on the virtual clock, so a schedule recorded once is
//! bit-identical on every replay.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};

use fskit::{FileSystem, FsError, OpenFlags};
use nvmm::{BoundaryRec, CrashSignal, FaultPlan, InjectedFault, SimEnv};
use obsv::{AuditReport, Introspect, TraceEvent, TraceRing};
use workloads::setups::{self, System, SystemConfig, SystemKind};

use crate::oracle::Oracle;
use crate::script::{dir_path, file_path, Op, Script};
use crate::FaultStats;

/// How far one [`Op::Tick`] advances the background clock (comfortably
/// past the 5 s periodic writeback/commit interval).
const TICK_ADVANCE_NS: u64 = 6_000_000_000;

/// Outcome of one crash-recover-check cycle.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// The armed 1-based boundary (0 for fault-injection runs).
    pub boundary: u64,
    /// Whether the volatile store buffer was torn (partial drop).
    pub torn: bool,
    /// Whether the crash fired mid-operation (vs. power loss after the
    /// last operation because the armed boundary was never reached).
    pub crashed_mid_op: bool,
    /// Undo transactions rolled back (PMFS/HiNFS) at remount.
    pub txs_undone: u64,
    /// Journal entries undone (PMFS/HiNFS) or replayed (EXT4) at remount.
    pub entries_undone: u64,
    /// Oracle assertions evaluated.
    pub checks: u64,
    /// Clean errors observed while a fault was injected (`op index`,
    /// rendered error).
    pub clean_errors: Vec<(usize, String)>,
    /// Oracle violations (empty = pass).
    pub violations: Vec<String>,
}

impl RunOutcome {
    /// A run that could not start: its one violation says why.
    fn failed(why: String) -> RunOutcome {
        RunOutcome {
            violations: vec![why],
            ..RunOutcome::default()
        }
    }
}

/// Aggregate of a whole enumeration sweep over one file system.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Which file system was swept.
    pub kind: SystemKind,
    /// Total persistence boundaries the recording pass observed.
    pub boundaries: u64,
    /// Clean-crash runs executed.
    pub runs: u64,
    /// Torn-crash runs executed.
    pub torn_runs: u64,
    /// Oracle assertions evaluated across all runs.
    pub checks: u64,
    /// Undo transactions rolled back across all recoveries.
    pub txs_undone: u64,
    /// Journal entries undone/replayed across all recoveries.
    pub entries_undone: u64,
    /// All violations, prefixed with run context (empty = pass).
    pub violations: Vec<String>,
}

/// Knobs for [`Harness::sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Seed for torn-crash line selection.
    pub seed: u64,
    /// Cap on enumerated crash points (evenly strided when the schedule
    /// is longer; the first and last boundary are always included).
    pub max_points: usize,
    /// Run a torn-store variant on every n-th enumerated point
    /// (0 disables torn runs).
    pub torn_every: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xFA17,
            max_points: 64,
            torn_every: 4,
        }
    }
}

/// Suppress the default panic banner for [`CrashSignal`] unwinds: a sweep
/// fires hundreds of intentional crashes. Foreign panics still print.
fn install_quiet_crash_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The crash/fault harness. Clone-free: share it by reference.
#[derive(Debug)]
pub struct Harness {
    /// Counters exported through the obsv registry.
    pub stats: Arc<FaultStats>,
    /// Trace ring receiving recovery and fault-injection events.
    pub trace: Arc<TraceRing>,
    cfg: SystemConfig,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A fresh harness with tracing enabled.
    pub fn new() -> Harness {
        install_quiet_crash_hook();
        let trace = Arc::new(TraceRing::new(4096));
        trace.set_enabled(true);
        // A small format, so journal-pressure paths are reachable.
        let cfg = SystemConfig {
            device_bytes: 8 << 20,
            buffer_bytes: 1 << 20,
            cache_pages: 256,
            journal_blocks: 64,
            inode_count: 128,
            ..SystemConfig::default()
        };
        Harness {
            stats: Arc::new(FaultStats::new()),
            trace,
            cfg,
        }
    }

    /// Mounts HiNFS with a DRAM buffer of `bytes` (default 1 MiB, which
    /// no script fills: pressure and stall paths need a smaller one).
    pub fn with_hinfs_buffer(mut self, bytes: usize) -> Harness {
        self.cfg.buffer_bytes = bytes;
        self
    }

    /// The geometry every image of this harness is formatted and
    /// remounted with: an 8 MiB device, 64 journal blocks, 128 inodes,
    /// 256 cache pages and the HiNFS buffer (1 MiB by default).
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Formats a fresh image of `kind` on a new virtual-time device. A
    /// format that fails is reported as the violation it is.
    pub(crate) fn mkfs(&self, kind: SystemKind) -> Result<System, String> {
        setups::build(kind, &self.cfg)
            .map_err(|e| format!("{}: mkfs on a fresh device failed: {e:?}", kind.label()))
    }

    /// Mounts `crashed`'s device again after a power failure, running
    /// journal recovery.
    fn recover(&self, crashed: &System) -> fskit::Result<System> {
        let (dev, env) = (crashed.dev.clone(), crashed.env.clone());
        setups::remount_with(crashed.kind, dev, env, &self.cfg)
    }

    /// Checks a recovered file system: the oracle over its tree, then the
    /// invariant auditor — a crash must never leave the remounted system
    /// with inconsistent volatile structures, journal accounting, device
    /// counters, or name indexes (which the oracle's walk has just built
    /// from the recovered directory blocks).
    fn check_recovered(&self, out: &mut RunOutcome, oracle: &Oracle, sys: System, now: u64) {
        out.txs_undone = sys.txs_undone;
        out.entries_undone = sys.entries_undone;
        self.trace.emit(now, || TraceEvent::RecoveryEnd {
            txs_undone: sys.txs_undone,
            entries_undone: sys.entries_undone,
        });
        let rep = oracle.check(&*sys.fs);
        out.checks = rep.checks;
        out.violations.extend(rep.violations);
        match auditor(&sys) {
            Ok(intro) => self.absorb_audit(out, intro.audit(), now),
            Err(v) => out.violations.push(v),
        }
        if let Err(e) = sys.fs.unmount() {
            out.violations
                .push(format!("unmount after recovery failed: {e:?}"));
        }
        self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a post-recovery audit report into a run outcome: checks are
    /// counted, violations are surfaced (with their invariant label) and
    /// pushed onto the trace ring.
    fn absorb_audit(&self, out: &mut RunOutcome, rep: AuditReport, at_ns: u64) {
        out.checks += rep.checks;
        for v in &rep.violations {
            self.trace.emit(at_ns, || v.event());
            out.violations.push(format!("post-recovery audit: {v}"));
        }
    }

    /// Records the crash schedule of `script` on a fresh `kind` image:
    /// every persistence boundary the replay crosses, in order.
    /// Empty when the image cannot be formatted ([`Self::crash_run`]
    /// reports that).
    pub fn record_schedule(&self, kind: SystemKind, script: &Script) -> Vec<BoundaryRec> {
        let Ok(b) = self.mkfs(kind) else {
            return Vec::new();
        };
        let plan = FaultPlan::new();
        b.dev.fault_hook().install(plan.clone());
        plan.start_recording();
        for op in &script.ops {
            // Expected clean errors (ops on missing files) are part of the
            // script's semantics; replay continues regardless.
            let _ = exec_op(&*b.fs, &b.env, op);
        }
        let schedule = plan.stop_recording();
        b.dev.fault_hook().clear();
        schedule
    }

    /// The 1-based boundaries the script's last operation crosses: the
    /// crash points of a drill aimed at that one operation.
    pub fn last_op_boundaries(&self, kind: SystemKind, script: &Script) -> Vec<u64> {
        let numbered = |ops: &[Op]| {
            let s = Script { ops: ops.to_vec() };
            let schedule = self.record_schedule(kind, &s);
            schedule.iter().filter(|b| b.index != 0).count() as u64
        };
        let prefix = &script.ops[..script.ops.len().saturating_sub(1)];
        (numbered(prefix) + 1..=numbered(&script.ops)).collect()
    }

    /// Replays `script` on a fresh `kind` image, crashes at 1-based
    /// boundary `k` (or after the last operation if the replay never
    /// reaches it), remounts, and oracle-checks the recovered tree.
    ///
    /// `torn_seed` additionally drops a seeded subset of the volatile
    /// store buffer's pending cachelines instead of all of them,
    /// simulating a torn flush in flight at the power failure.
    pub fn crash_run(
        &self,
        kind: SystemKind,
        script: &Script,
        k: u64,
        torn_seed: Option<u64>,
    ) -> RunOutcome {
        self.crash_run_then(kind, script, k, torn_seed, |_| Vec::new())
    }

    /// [`Self::crash_run`], with a drill's own check of the recovered
    /// system: `inspect` runs on it right after the remount, and what it
    /// returns joins the run's violations.
    pub fn crash_run_then(
        &self,
        kind: SystemKind,
        script: &Script,
        k: u64,
        torn_seed: Option<u64>,
        inspect: impl FnOnce(&System) -> Vec<String>,
    ) -> RunOutcome {
        let b = match self.mkfs(kind) {
            Ok(b) => b,
            Err(v) => return RunOutcome::failed(v),
        };
        let plan = FaultPlan::new();
        plan.set_trace(self.trace.clone());
        b.dev.fault_hook().install(plan.clone());
        plan.arm_crash(k);

        let mut oracle = Oracle::new(kind);
        let mut out = RunOutcome {
            boundary: k,
            torn: torn_seed.is_some(),
            ..RunOutcome::default()
        };
        for op in &script.ops {
            match panic::catch_unwind(AssertUnwindSafe(|| exec_op(&*b.fs, &b.env, op))) {
                Ok(res) => oracle.apply(op, &res),
                Err(payload) => {
                    if payload.downcast_ref::<CrashSignal>().is_some() {
                        oracle.apply_crashed(op);
                        out.crashed_mid_op = true;
                        break;
                    }
                    // A foreign panic is a harness bug or a real FS bug;
                    // surface it unchanged.
                    panic::resume_unwind(payload);
                }
            }
        }
        b.dev.fault_hook().clear();

        // Power loss: every pending (volatile) cacheline gets its durable
        // bytes back, except — on a torn crash — a seeded subset kept.
        match torn_seed {
            Some(seed) => {
                b.dev.crash_partial(seed);
            }
            None => b.dev.crash(),
        }
        self.stats.crashes_injected.fetch_add(1, Ordering::Relaxed);

        self.trace
            .emit(b.env.now(), || TraceEvent::RecoveryBegin { gen: k });
        match self.recover(&b) {
            Err(e) => {
                out.violations
                    .push(format!("remount after crash at boundary {k} failed: {e:?}"));
            }
            Ok(remounted) => {
                out.violations.extend(inspect(&remounted));
                self.check_recovered(&mut out, &oracle, remounted, b.env.now());
            }
        }
        self.record_run_stats(&out);
        out
    }

    /// Replays `script` with `fault` injected for the operations whose
    /// indices fall in `window`, asserting graceful degradation: clean
    /// errors only, no panics, and a clean crash-recover-check afterwards.
    pub fn fault_run(
        &self,
        kind: SystemKind,
        script: &Script,
        fault: InjectedFault,
        window: std::ops::Range<usize>,
    ) -> RunOutcome {
        let b = match self.mkfs(kind) {
            Ok(b) => b,
            Err(v) => return RunOutcome::failed(v),
        };
        let plan = FaultPlan::new();
        plan.set_trace(self.trace.clone());
        b.dev.fault_hook().install(plan.clone());

        let set = |on: bool| match fault {
            InjectedFault::JournalFull => plan.set_journal_unavailable(on),
            InjectedFault::Enospc => plan.set_fail_alloc(on),
            InjectedFault::WritebackStall => plan.set_stall_writeback(on),
        };

        let mut oracle = Oracle::new(kind);
        let mut out = RunOutcome::default();
        for (i, op) in script.ops.iter().enumerate() {
            set(window.contains(&i));
            match panic::catch_unwind(AssertUnwindSafe(|| exec_op(&*b.fs, &b.env, op))) {
                Ok(res) => {
                    if window.contains(&i) {
                        if let Err(e) = &res {
                            out.clean_errors.push((i, format!("{e:?}")));
                        }
                    }
                    oracle.apply(op, &res);
                }
                Err(_) => {
                    // Injected soft faults must never panic the FS.
                    out.violations.push(format!(
                        "panic during {op:?} with injected {}",
                        fault.label()
                    ));
                    break;
                }
            }
        }
        set(false);
        self.stats
            .faults_injected
            .fetch_add(plan.faults_injected(), Ordering::Relaxed);

        if out.violations.is_empty() {
            // With the fault lifted the FS must fully synchronize...
            let tick = Op::Tick;
            let _ = exec_op(&*b.fs, &b.env, &tick);
            oracle.apply(&tick, &Ok(()));
            let sync_res = b.fs.sync();
            oracle.apply(&Op::Sync, &sync_res);
            if let Err(e) = &sync_res {
                out.violations.push(format!(
                    "sync after lifting {} failed: {e:?}",
                    fault.label()
                ));
            }
            // ...and survive a crash on top of the degraded history.
            b.dev.fault_hook().clear();
            b.dev.crash();
            self.stats.crashes_injected.fetch_add(1, Ordering::Relaxed);
            self.trace
                .emit(b.env.now(), || TraceEvent::RecoveryBegin { gen: 0 });
            match self.recover(&b) {
                Err(e) => out
                    .violations
                    .push(format!("remount after {} run failed: {e:?}", fault.label())),
                Ok(remounted) => self.check_recovered(&mut out, &oracle, remounted, b.env.now()),
            }
        }
        self.record_run_stats(&out);
        out
    }

    /// Enumerates crash points of `script` on `kind`: records the
    /// schedule, then runs a crash-recover-check cycle at (up to
    /// `max_points`) boundaries, with periodic torn-store variants.
    pub fn sweep(&self, kind: SystemKind, script: &Script, cfg: SweepConfig) -> SweepOutcome {
        let schedule = self.record_schedule(kind, script);
        let total = schedule.len() as u64;
        let points = pick_points(total, cfg.max_points);
        let mut out = SweepOutcome {
            kind,
            boundaries: total,
            runs: 0,
            torn_runs: 0,
            checks: 0,
            txs_undone: 0,
            entries_undone: 0,
            violations: Vec::new(),
        };
        for (i, &k) in points.iter().enumerate() {
            let run = self.crash_run(kind, script, k, None);
            out.absorb(&run);
            out.runs += 1;
            if cfg.torn_every > 0 && i % cfg.torn_every == 0 {
                let torn = self.crash_run(kind, script, k, Some(cfg.seed ^ k));
                out.absorb(&torn);
                out.torn_runs += 1;
            }
        }
        out
    }

    fn record_run_stats(&self, out: &RunOutcome) {
        self.stats
            .txs_undone
            .fetch_add(out.txs_undone, Ordering::Relaxed);
        self.stats
            .entries_undone
            .fetch_add(out.entries_undone, Ordering::Relaxed);
        self.stats
            .oracle_checks
            .fetch_add(out.checks, Ordering::Relaxed);
        self.stats
            .oracle_violations
            .fetch_add(out.violations.len() as u64, Ordering::Relaxed);
    }
}

impl SweepOutcome {
    fn absorb(&mut self, run: &RunOutcome) {
        self.checks += run.checks;
        self.txs_undone += run.txs_undone;
        self.entries_undone += run.entries_undone;
        for v in &run.violations {
            self.violations.push(format!(
                "[{} k={}{}] {v}",
                self.kind.label(),
                run.boundary,
                if run.torn { " torn" } else { "" }
            ));
        }
    }
}

/// Evenly strided selection of 1-based crash points: all of them when the
/// schedule fits under `cap`, else `cap` points including both ends.
pub(crate) fn pick_points(total: u64, cap: usize) -> Vec<u64> {
    if total == 0 {
        // Fully volatile replay (possible on the buffered systems): a
        // single run whose armed boundary never fires still power-fails
        // after the last op and checks the oracle.
        return vec![1];
    }
    let cap = cap.max(2) as u64;
    if total <= cap {
        return (1..=total).collect();
    }
    let mut points: Vec<u64> = (0..cap)
        .map(|i| 1 + (i * (total - 1)) / (cap - 1))
        .collect();
    points.dedup();
    points
}

/// The state-introspection handle of a mounted system (every kind
/// provides one; a missing one is reported as a violation).
pub(crate) fn auditor(sys: &System) -> Result<Arc<dyn Introspect>, String> {
    sys.introspect
        .clone()
        .ok_or_else(|| format!("{}: no auditor", sys.kind.label()))
}

/// Executes one scripted operation against `fs`, opening and closing a
/// descriptor around data operations. Data ops open *without* `CREATE`,
/// so operating on a missing file yields the expected `NotFound`.
pub fn exec_op(fs: &dyn FileSystem, env: &SimEnv, op: &Op) -> Result<(), FsError> {
    match *op {
        Op::Create { file } => {
            let fd = fs.open(&file_path(file), OpenFlags::CREATE | OpenFlags::RDWR)?;
            fs.close(fd)
        }
        Op::Write {
            file,
            off,
            len,
            fill,
        } => with_fd(fs, file, |fs, fd| {
            fs.write(fd, off, &vec![fill; len]).map(|_| ())
        }),
        Op::Append { file, len, fill } => with_fd(fs, file, |fs, fd| {
            fs.append(fd, &vec![fill; len]).map(|_| ())
        }),
        Op::Fsync { file } => with_fd(fs, file, |fs, fd| fs.fsync(fd)),
        Op::Truncate { file, size } => with_fd(fs, file, |fs, fd| fs.truncate(fd, size)),
        Op::Unlink { file } => fs.unlink(&file_path(file)),
        Op::Rename { from, to } => fs.rename(&file_path(from), &file_path(to)),
        Op::Mkdir { dir } => fs.mkdir(&dir_path(dir)),
        Op::Rmdir { dir } => fs.rmdir(&dir_path(dir)),
        Op::Sync => fs.sync(),
        Op::Tick => {
            fs.tick(env.now().saturating_add(TICK_ADVANCE_NS));
            Ok(())
        }
    }
}

fn with_fd(
    fs: &dyn FileSystem,
    file: u8,
    f: impl FnOnce(&dyn FileSystem, fskit::Fd) -> Result<(), FsError>,
) -> Result<(), FsError> {
    let fd = fs.open(&file_path(file), OpenFlags::RDWR)?;
    let res = f(fs, fd);
    let closed = fs.close(fd);
    res.and(closed)
}
