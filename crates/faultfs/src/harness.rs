//! The crash-point enumeration harness.
//!
//! One [`Harness`] drives the full cycle for any [`FsKind`]:
//!
//! 1. **Record** — replay a script on a fresh image with the device's
//!    [`FaultPlan`] recording, producing the numbered *crash schedule* of
//!    every persistence boundary (non-temporal store, cacheline flush)
//!    the run crossed.
//! 2. **Enumerate** — for each scheduled boundary `k`, rebuild the image,
//!    replay the same script with a crash armed at boundary `k`
//!    (optionally tearing the volatile store buffer with a seeded partial
//!    drop), catch the [`CrashSignal`], revert the device to its
//!    persistent image, remount (running journal recovery), and run the
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

use extfs::{ExtMode, ExtOptions, Extfs};
use fskit::{FileSystem, FsError, OpenFlags};
use hinfs::{Hinfs, HinfsConfig};
use nvmm::{BoundaryRec, CostModel, CrashSignal, FaultPlan, InjectedFault, NvmmDevice, SimEnv};
use obsv::{AuditReport, FsObs, Introspect, TraceEvent, TraceRing};
use pmfs::{Pmfs, PmfsOptions};

use crate::oracle::Oracle;
use crate::script::{dir_path, file_path, FsKind, Op, Script};
use crate::FaultStats;

/// Backing device size for harness images.
pub(crate) const DEV_BYTES: usize = 8 << 20;

/// How far one [`Op::Tick`] advances the background clock (comfortably
/// past the 5 s periodic writeback/commit interval).
const TICK_ADVANCE_NS: u64 = 6_000_000_000;

/// Small-format options so journal-pressure paths are reachable.
pub(crate) fn pmfs_opts() -> PmfsOptions {
    PmfsOptions {
        journal_blocks: 64,
        inode_count: 128,
    }
}

fn ext_opts() -> ExtOptions {
    ExtOptions {
        journal_blocks: 64,
        inode_count: 128,
        cache_pages: 256,
        ..ExtOptions::default()
    }
}

/// A freshly formatted instance plus the handles the harness needs. The
/// concrete observability and introspection handles are captured before
/// the file system is erased to `dyn FileSystem`, so the fuzzer can read
/// trace/state coverage off any kind uniformly.
pub(crate) struct Built {
    pub(crate) fs: Arc<dyn FileSystem>,
    pub(crate) dev: Arc<NvmmDevice>,
    pub(crate) env: Arc<SimEnv>,
    pub(crate) obs: Arc<FsObs>,
    pub(crate) intro: Arc<dyn Introspect>,
}

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

/// Aggregate of a whole enumeration sweep over one file system.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Which file system was swept.
    pub kind: FsKind,
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
    hinfs_buffer_bytes: usize,
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
        Harness {
            stats: Arc::new(FaultStats::new()),
            trace,
            hinfs_buffer_bytes: 1 << 20,
        }
    }

    /// Mounts HiNFS with a DRAM buffer of `bytes` (default 1 MiB, which
    /// no script fills: pressure and stall paths need a smaller one).
    pub fn with_hinfs_buffer(mut self, bytes: usize) -> Harness {
        self.hinfs_buffer_bytes = bytes;
        self
    }

    pub(crate) fn hinfs_cfg(&self) -> HinfsConfig {
        HinfsConfig::default().with_buffer_bytes(self.hinfs_buffer_bytes)
    }

    /// Formats a fresh image of `kind` on a new virtual-time device.
    pub(crate) fn build(&self, kind: FsKind) -> Built {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new_tracked(env.clone(), DEV_BYTES);
        let (fs, obs, intro): (Arc<dyn FileSystem>, Arc<FsObs>, Arc<dyn Introspect>) = match kind {
            FsKind::Hinfs => {
                let fs = Hinfs::mkfs(dev.clone(), pmfs_opts(), self.hinfs_cfg())
                    .expect("hinfs mkfs on a fresh device");
                (fs.clone(), fs.obs().clone(), fs)
            }
            FsKind::Pmfs => {
                let fs = Pmfs::mkfs(dev.clone(), pmfs_opts()).expect("pmfs mkfs on a fresh device");
                (fs.clone(), fs.obs().clone(), fs)
            }
            FsKind::Ext4 => {
                let fs = Extfs::mkfs(dev.clone(), ExtMode::Ext4, ext_opts())
                    .expect("ext4 mkfs on a fresh device");
                (fs.clone(), fs.obs().clone(), fs)
            }
        };
        Built {
            fs,
            dev,
            env,
            obs,
            intro,
        }
    }

    /// Remounts `dev` after a crash, returning the file system, the
    /// `(txs_undone, entries_undone)` recovery counts, and the invariant
    /// auditor's report over the freshly recovered state — a crash must
    /// never leave the remounted system with inconsistent volatile
    /// structures, journal accounting, or device counters.
    fn remount(
        &self,
        kind: FsKind,
        dev: Arc<NvmmDevice>,
    ) -> Result<(Arc<dyn FileSystem>, u64, u64, AuditReport), FsError> {
        match kind {
            FsKind::Hinfs => {
                let fs = Hinfs::mount(dev, self.hinfs_cfg())?;
                let r = fs.pmfs().recovery_stats();
                let rep = Introspect::audit(fs.as_ref());
                Ok((fs, r.txs_undone, r.entries_undone, rep))
            }
            FsKind::Pmfs => {
                let fs = Pmfs::mount(dev)?;
                let r = fs.recovery_stats();
                let rep = Introspect::audit(fs.as_ref());
                Ok((fs, r.txs_undone, r.entries_undone, rep))
            }
            FsKind::Ext4 => {
                let fs = Extfs::mount(dev, ExtMode::Ext4, ext_opts())?;
                let replayed = fs.recovery_replayed();
                let rep = Introspect::audit(fs.as_ref());
                Ok((fs, 0, replayed, rep))
            }
        }
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
    pub fn record_schedule(&self, kind: FsKind, script: &Script) -> Vec<BoundaryRec> {
        let b = self.build(kind);
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

    /// Replays `script` on a fresh `kind` image, crashes at 1-based
    /// boundary `k` (or after the last operation if the replay never
    /// reaches it), remounts, and oracle-checks the recovered tree.
    ///
    /// `torn_seed` additionally drops a seeded subset of the volatile
    /// store buffer's pending cachelines instead of all of them,
    /// simulating a torn flush in flight at the power failure.
    pub fn crash_run(
        &self,
        kind: FsKind,
        script: &Script,
        k: u64,
        torn_seed: Option<u64>,
    ) -> RunOutcome {
        let b = self.build(kind);
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
        drop(b.fs);

        // Power loss: revert to the persistent image, optionally keeping a
        // seeded subset of pending (volatile) cachelines.
        match torn_seed {
            Some(seed) => {
                b.dev.crash_partial(seed);
            }
            None => b.dev.crash(),
        }
        self.stats.crashes_injected.fetch_add(1, Ordering::Relaxed);

        self.trace
            .emit(b.env.now(), || TraceEvent::RecoveryBegin { gen: k });
        match self.remount(kind, b.dev.clone()) {
            Err(e) => {
                out.violations
                    .push(format!("remount after crash at boundary {k} failed: {e:?}"));
            }
            Ok((fs2, txs, entries, audit)) => {
                out.txs_undone = txs;
                out.entries_undone = entries;
                self.trace.emit(b.env.now(), || TraceEvent::RecoveryEnd {
                    txs_undone: txs,
                    entries_undone: entries,
                });
                self.absorb_audit(&mut out, audit, b.env.now());
                let rep = oracle.check(&*fs2);
                out.checks = rep.checks;
                out.violations.extend(rep.violations);
                if let Err(e) = fs2.unmount() {
                    out.violations
                        .push(format!("unmount after recovery failed: {e:?}"));
                }
                self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
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
        kind: FsKind,
        script: &Script,
        fault: InjectedFault,
        window: std::ops::Range<usize>,
    ) -> RunOutcome {
        let b = self.build(kind);
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
            drop(b.fs);
            b.dev.crash();
            self.stats.crashes_injected.fetch_add(1, Ordering::Relaxed);
            self.trace
                .emit(b.env.now(), || TraceEvent::RecoveryBegin { gen: 0 });
            match self.remount(kind, b.dev.clone()) {
                Err(e) => out
                    .violations
                    .push(format!("remount after {} run failed: {e:?}", fault.label())),
                Ok((fs2, txs, entries, audit)) => {
                    out.txs_undone = txs;
                    out.entries_undone = entries;
                    self.trace.emit(b.env.now(), || TraceEvent::RecoveryEnd {
                        txs_undone: txs,
                        entries_undone: entries,
                    });
                    self.absorb_audit(&mut out, audit, b.env.now());
                    let rep = oracle.check(&*fs2);
                    out.checks = rep.checks;
                    out.violations.extend(rep.violations);
                    if let Err(e) = fs2.unmount() {
                        out.violations
                            .push(format!("unmount after recovery failed: {e:?}"));
                    }
                    self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.record_run_stats(&out);
        out
    }

    /// Enumerates crash points of `script` on `kind`: records the
    /// schedule, then runs a crash-recover-check cycle at (up to
    /// `max_points`) boundaries, with periodic torn-store variants.
    pub fn sweep(&self, kind: FsKind, script: &Script, cfg: SweepConfig) -> SweepOutcome {
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
