//! The experiment runner: executes logical actors (workload threads)
//! against a [`FileSystem`].
//!
//! In **virtual** mode the runner is a discrete-event scheduler: each actor
//! has its own logical clock; the actor with the smallest clock steps next,
//! with the thread-local clock switched to it around the step. Background
//! machinery (HiNFS writeback, ext journal commit) runs through
//! [`FileSystem::tick`] on its own actor clock inside the file system, so a
//! 10-thread scalability point is simulated faithfully on one host core.
//!
//! In **spin** mode actors run on real OS threads against the busy-wait
//! cost model, like the paper's emulator.

use std::collections::HashMap;
use std::sync::Arc;

use fskit::{Fd, FileSystem, OpenFlags, Result};
use nvmm::{ledger, NvmmDevice, SimEnv, TimeMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::metrics::{ActorMetrics, OpKind, RunReport};

/// When a run stops.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimit {
    /// Stop an actor once its clock passes this many simulated ns.
    pub duration_ns: Option<u64>,
    /// Stop an actor after this many steps.
    pub max_steps: Option<u64>,
}

impl RunLimit {
    /// Run for a fixed simulated duration (the paper runs filebench for
    /// 60 s; experiments scale this down).
    pub fn duration_ms(ms: u64) -> RunLimit {
        RunLimit {
            duration_ns: Some(ms * 1_000_000),
            max_steps: None,
        }
    }

    /// Run each actor for a fixed number of steps.
    pub fn steps(n: u64) -> RunLimit {
        RunLimit {
            duration_ns: None,
            max_steps: Some(n),
        }
    }
}

/// One workload thread.
pub trait Actor: Send {
    /// Performs one logical operation (possibly several syscalls). Returns
    /// `false` when the workload is exhausted.
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool>;
}

/// The syscall surface handed to actors: every call is timed into the
/// per-op metrics and byte counters.
pub struct Ctx<'a> {
    /// The file system under test.
    pub fs: &'a dyn FileSystem,
    /// The simulation environment (for `now`).
    pub env: &'a SimEnv,
    /// Deterministic per-actor RNG.
    pub rng: SmallRng,
    metrics: ActorMetrics,
    unsynced: HashMap<Fd, u64>,
}

impl<'a> Ctx<'a> {
    fn new(fs: &'a dyn FileSystem, env: &'a SimEnv, seed: u64) -> Ctx<'a> {
        Ctx {
            fs,
            env,
            rng: SmallRng::seed_from_u64(seed),
            metrics: ActorMetrics::default(),
            unsynced: HashMap::new(),
        }
    }

    fn timed<T>(
        &mut self,
        kind: OpKind,
        f: impl FnOnce(&dyn FileSystem) -> Result<T>,
    ) -> Result<T> {
        let t0 = self.env.now();
        let r = f(self.fs);
        self.metrics.record(kind, self.env.now().saturating_sub(t0));
        r
    }

    /// Opens a file.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd> {
        let fd = self.timed(OpKind::Open, |fs| fs.open(path, flags))?;
        self.unsynced.insert(fd, 0);
        Ok(fd)
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: Fd) -> Result<()> {
        self.unsynced.remove(&fd);
        self.timed(OpKind::Close, |fs| fs.close(fd))
    }

    /// Positional read.
    pub fn read(&mut self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        let n = self.timed(OpKind::Read, |fs| fs.read(fd, off, buf))?;
        self.metrics.bytes_read += n as u64;
        Ok(n)
    }

    /// Positional write.
    pub fn write(&mut self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        let n = self.timed(OpKind::Write, |fs| fs.write(fd, off, data))?;
        self.metrics.bytes_written += n as u64;
        *self.unsynced.entry(fd).or_insert(0) += n as u64;
        Ok(n)
    }

    /// Gather write (`pwritev`): one accounted write op covering every
    /// slice. On an `APPEND` descriptor the run lands at EOF.
    pub fn write_vectored(&mut self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        let n = self.timed(OpKind::Write, |fs| fs.write_vectored(fd, off, iovs))?;
        self.metrics.bytes_written += n as u64;
        *self.unsynced.entry(fd).or_insert(0) += n as u64;
        Ok(n)
    }

    /// Append.
    pub fn append(&mut self, fd: Fd, data: &[u8]) -> Result<u64> {
        let off = self.timed(OpKind::Write, |fs| fs.append(fd, data))?;
        self.metrics.bytes_written += data.len() as u64;
        *self.unsynced.entry(fd).or_insert(0) += data.len() as u64;
        Ok(off)
    }

    /// fsync; credits the descriptor's unsynced bytes to the Fig 2 metric.
    pub fn fsync(&mut self, fd: Fd) -> Result<()> {
        let r = self.timed(OpKind::Fsync, |fs| fs.fsync(fd));
        if r.is_ok() {
            if let Some(u) = self.unsynced.get_mut(&fd) {
                self.metrics.fsync_bytes += *u;
                *u = 0;
            }
        }
        r
    }

    /// Unlink.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        self.timed(OpKind::Unlink, |fs| fs.unlink(path))
    }

    /// Mkdir.
    pub fn mkdir(&mut self, path: &str) -> Result<()> {
        self.timed(OpKind::Mkdir, |fs| fs.mkdir(path))
    }

    /// Readdir.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<fskit::DirEntry>> {
        self.timed(OpKind::Readdir, |fs| fs.readdir(path))
    }

    /// Stat.
    pub fn stat(&mut self, path: &str) -> Result<fskit::Stat> {
        self.timed(OpKind::Stat, |fs| fs.stat(path))
    }

    /// fstat (accounted as stat).
    pub fn fstat(&mut self, fd: Fd) -> Result<fskit::Stat> {
        self.timed(OpKind::Stat, |fs| fs.fstat(fd))
    }

    /// Rename.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.timed(OpKind::Rename, |fs| fs.rename(from, to))
    }

    /// Truncate.
    pub fn truncate(&mut self, fd: Fd, size: u64) -> Result<()> {
        self.timed(OpKind::Truncate, |fs| fs.truncate(fd, size))
    }

    /// The metrics accumulated so far (for tests).
    pub fn metrics(&self) -> &ActorMetrics {
        &self.metrics
    }
}

/// Executes actor sets against one file system.
pub struct Runner {
    env: Arc<SimEnv>,
    fs: Arc<dyn FileSystem>,
    device: Option<Arc<NvmmDevice>>,
    registry: Option<Arc<obsv::MetricsRegistry>>,
}

impl Runner {
    /// Creates a runner.
    pub fn new(env: Arc<SimEnv>, fs: Arc<dyn FileSystem>) -> Runner {
        Runner {
            env,
            fs,
            device: None,
            registry: None,
        }
    }

    /// Also captures this device's counter delta into the report (Fig 9b).
    pub fn with_device(mut self, dev: Arc<NvmmDevice>) -> Runner {
        self.device = Some(dev);
        self
    }

    /// Also captures this registry's snapshot delta into the report.
    pub fn with_registry(mut self, registry: Arc<obsv::MetricsRegistry>) -> Runner {
        self.registry = Some(registry);
        self
    }

    /// Runs the actors to completion or to the limit. `seed` derives each
    /// actor's RNG, so runs are reproducible. A failed step stops only its
    /// actor; [`RunReport::error`] keeps the first.
    pub fn run(&self, actors: Vec<Box<dyn Actor>>, limit: RunLimit, seed: u64) -> RunReport {
        match self.env.mode() {
            TimeMode::Virtual => self.run_virtual(actors, limit, seed),
            TimeMode::Spin => self.run_spin(actors, limit, seed),
        }
    }

    fn run_virtual(&self, actors: Vec<Box<dyn Actor>>, limit: RunLimit, seed: u64) -> RunReport {
        let start = self.env.now();
        let ledger_before = ledger::snapshot();
        let dev_before = self.device.as_ref().map(|d| d.stats().snapshot());
        let reg_before = self.registry.as_ref().map(|r| r.snapshot());
        let n = actors.len();
        let mut actors = actors;
        let mut ctxs: Vec<Ctx<'_>> = (0..n)
            .map(|i| {
                Ctx::new(
                    &*self.fs,
                    &self.env,
                    seed.wrapping_add(i as u64 * 0x9e37_79b9),
                )
            })
            .collect();
        let mut clocks = vec![start; n];
        let mut alive = vec![true; n];
        let mut steps = vec![0u64; n];
        let mut error = None;
        // Smallest-clock live actor steps next, until none is live.
        while let Some(i) = (0..n).filter(|&i| alive[i]).min_by_key(|&i| clocks[i]) {
            self.env.set_now(clocks[i]);
            let step = actors[i].step(&mut ctxs[i]);
            ctxs[i].metrics.steps += u64::from(step.is_ok());
            error = error.or(step.err().map(|e| (i, e)));
            steps[i] += 1;
            clocks[i] = self.env.now();
            // Give background machinery its turn at the current time.
            self.fs.tick(clocks[i]);
            let done = step != Ok(true)
                || limit
                    .duration_ns
                    .is_some_and(|d| clocks[i].saturating_sub(start) >= d)
                || limit.max_steps.is_some_and(|m| steps[i] >= m);
            if done {
                alive[i] = false;
            }
        }
        let elapsed = clocks.iter().max().copied().unwrap_or(start) - start;
        // Leave the thread clock at the run's end.
        self.env.set_now(start + elapsed);
        let mut metrics = ActorMetrics::default();
        for ctx in &ctxs {
            metrics.merge(&ctx.metrics);
        }
        RunReport {
            metrics,
            elapsed_ns: elapsed,
            ledger: ledger::snapshot().since(&ledger_before),
            device: self
                .device
                .as_ref()
                .zip(dev_before)
                .map(|(d, before)| d.stats().snapshot().since(&before))
                .unwrap_or_default(),
            registry: self
                .registry
                .as_ref()
                .zip(reg_before)
                .map(|(r, before)| r.snapshot().since(&before)),
            actors: n,
            error,
        }
    }

    fn run_spin(&self, actors: Vec<Box<dyn Actor>>, limit: RunLimit, seed: u64) -> RunReport {
        let start = self.env.now();
        let dev_before = self.device.as_ref().map(|d| d.stats().snapshot());
        let reg_before = self.registry.as_ref().map(|r| r.snapshot());
        let n = actors.len();
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, mut actor) in actors.into_iter().enumerate() {
                let env = &self.env;
                let fs = &self.fs;
                handles.push(scope.spawn(move || {
                    let lb = ledger::snapshot();
                    let mut ctx = Ctx::new(&**fs, env, seed.wrapping_add(i as u64 * 0x9e37_79b9));
                    let t0 = env.now();
                    let mut steps = 0u64;
                    let error = loop {
                        let more = match actor.step(&mut ctx) {
                            Ok(more) => more,
                            Err(e) => break Some(e),
                        };
                        ctx.metrics.steps += 1;
                        steps += 1;
                        let done = !more
                            || limit
                                .duration_ns
                                .is_some_and(|d| env.now().saturating_sub(t0) >= d)
                            || limit.max_steps.is_some_and(|m| steps >= m);
                        if done {
                            break None;
                        }
                    };
                    (ctx.metrics, ledger::snapshot().since(&lb), error)
                }));
            }
            // A panicking actor panics the run, as it would in virtual
            // mode.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Vec<_>>()
        });
        let mut metrics = ActorMetrics::default();
        let mut ledger_total = nvmm::ledger::Ledger::new();
        let mut error = None;
        for (i, (m, l, e)) in results.iter().enumerate() {
            metrics.merge(m);
            ledger_total.merge(l);
            error = error.or(e.map(|e| (i, e)));
        }
        RunReport {
            metrics,
            elapsed_ns: self.env.now() - start,
            ledger: ledger_total,
            device: self
                .device
                .as_ref()
                .zip(dev_before)
                .map(|(d, before)| d.stats().snapshot().since(&before))
                .unwrap_or_default(),
            registry: self
                .registry
                .as_ref()
                .zip(reg_before)
                .map(|(r, before)| r.snapshot().since(&before)),
            actors: n,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fskit::FsError;
    use nvmm::{CostModel, NvmmDevice};
    use pmfs::{Pmfs, PmfsOptions};

    struct WriterActor {
        fd: Option<Fd>,
        count: u32,
    }

    impl Actor for WriterActor {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
            if self.fd.is_none() {
                let fd = ctx.open("/w", OpenFlags::RDWR | OpenFlags::CREATE)?;
                self.fd = Some(fd);
            }
            let fd = self.fd.unwrap();
            ctx.append(fd, &[1u8; 512])?;
            if self.count % 4 == 3 {
                ctx.fsync(fd)?;
            }
            self.count += 1;
            Ok(self.count < 20)
        }
    }

    fn setup() -> (Arc<SimEnv>, Arc<NvmmDevice>, Arc<Pmfs>) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 8192 * nvmm::BLOCK_SIZE);
        let fs = Pmfs::mkfs(
            dev.clone(),
            PmfsOptions {
                journal_blocks: 64,
                inode_count: 256,
            },
        )
        .unwrap();
        (env, dev, fs)
    }

    #[test]
    fn virtual_run_collects_metrics() {
        let (env, dev, fs) = setup();
        env.rebase();
        let runner = Runner::new(env, fs).with_device(dev);
        let report = runner.run(
            vec![Box::new(WriterActor { fd: None, count: 0 })],
            RunLimit::default(),
            7,
        );
        assert_eq!(report.metrics.steps, 20);
        assert_eq!(report.op_count(OpKind::Write), 20);
        assert_eq!(report.op_count(OpKind::Fsync), 5);
        assert_eq!(report.op_count(OpKind::Open), 1);
        assert_eq!(report.metrics.bytes_written, 20 * 512);
        // All writes before an fsync are synced: 5 fsyncs cover 4 appends
        // each.
        assert_eq!(report.metrics.fsync_bytes, 20 * 512);
        assert!(report.elapsed_ns > 0);
        assert!(report.device.nvmm_bytes_written > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn multiple_actors_interleave_deterministically() {
        let (env, _dev, fs) = setup();
        env.rebase();
        let runner = Runner::new(env.clone(), fs.clone());
        let mk = || -> Vec<Box<dyn Actor>> {
            (0..4)
                .map(|_| Box::new(WriterActor { fd: None, count: 0 }) as Box<dyn Actor>)
                .collect()
        };
        let r1 = runner.run(mk(), RunLimit::default(), 42);
        let e1 = r1.elapsed_ns;
        // A second identical run on a fresh fs gives identical timing.
        let (env2, _dev2, fs2) = setup();
        env2.rebase();
        let runner2 = Runner::new(env2, fs2);
        let r2 = runner2.run(mk(), RunLimit::default(), 42);
        assert_eq!(e1, r2.elapsed_ns, "virtual time is deterministic");
        assert_eq!(r1.metrics.bytes_written, r2.metrics.bytes_written);
    }

    #[test]
    fn duration_limit_stops_actors() {
        let (env, _dev, fs) = setup();
        env.rebase();
        struct Forever;
        impl Actor for Forever {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
                let fd = ctx.open("/x", OpenFlags::RDWR | OpenFlags::CREATE)?;
                ctx.write(fd, 0, &[0u8; 4096])?;
                ctx.close(fd)?;
                Ok(true)
            }
        }
        let runner = Runner::new(env, fs);
        let report = runner.run(vec![Box::new(Forever)], RunLimit::duration_ms(1), 1);
        assert!(report.elapsed_ns >= 1_000_000);
        assert!(report.metrics.steps > 2);
    }

    /// Fails its third step.
    struct FailsAtThree(u32);

    impl Actor for FailsAtThree {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
            self.0 += 1;
            if self.0 == 3 {
                ctx.open("/missing", OpenFlags::READ)?;
            }
            Ok(true)
        }
    }

    #[test]
    fn a_failed_step_stops_only_its_actor() {
        let spin = || {
            let env = SimEnv::new(TimeMode::Spin, CostModel::default());
            let dev = NvmmDevice::new(env.clone(), 8192 * nvmm::BLOCK_SIZE);
            let popts = PmfsOptions {
                journal_blocks: 64,
                inode_count: 256,
            };
            (env, Pmfs::mkfs(dev, popts).unwrap())
        };
        let (venv, _dev, vfs) = setup();
        for (env, fs) in [(venv, vfs), spin()] {
            env.rebase();
            let report = Runner::new(env, fs).run(
                vec![
                    Box::new(WriterActor { fd: None, count: 0 }),
                    Box::new(FailsAtThree(0)),
                ],
                RunLimit::default(),
                3,
            );
            assert_eq!(report.error, Some((1, FsError::NotFound)));
            // The writer's 20 steps and the two before the failure.
            assert_eq!(report.metrics.steps, 22);
            assert_eq!(report.op_count(OpKind::Write), 20);
        }
    }

    #[test]
    fn step_limit_counts_steps() {
        let (env, _dev, fs) = setup();
        env.rebase();
        let runner = Runner::new(env, fs);
        let report = runner.run(
            vec![Box::new(WriterActor { fd: None, count: 0 })],
            RunLimit::steps(5),
            1,
        );
        assert_eq!(report.metrics.steps, 5);
    }
}
