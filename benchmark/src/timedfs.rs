//! The bench-side VFS boundary: a [`FileSystem`] decorator that counts,
//! times and (optionally) traces every call crossing it.
//!
//! Untraced, it records per call only what the end-to-end metrics need:
//! the op's virtual latency (two thread-local clock reads) and whether it
//! returned `Err`. Traced, it additionally stamps both clocks on a span
//! per call, takes the ledger delta at the same boundary, and — with
//! [`TracedActor`] around each workload actor — groups the spans of one
//! workload step under a `workloads.step` parent. Nothing here charges
//! virtual time, so the model cannot see the decorator (pinned by the
//! pass-through test below and by the traced-vs-untraced equality check
//! on every benchmark run).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fskit::{DirEntry, Fd, FileSystem, MmapHandle, OpenFlags, Result, Stat};
use nvmm::ledger::{self, Ledger, ALL_CATS, NCATS};
use nvmm::SimEnv;
use workloads::{Actor, Ctx};

/// Syscall classes the benchmark reports under `fskit.<op>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    Open = 0,
    Close,
    Read,
    Write,
    Fsync,
    Unlink,
    Stat,
    Truncate,
    /// mkdir / rmdir / readdir / rename / sync / unmount / mmap: issued by
    /// set-up and checks, never by the five measured workloads.
    Other,
}

/// Number of [`Op`] classes.
pub const NOPS: usize = 9;

/// Every class, in discriminant order.
pub const ALL_OPS: [Op; NOPS] = [
    Op::Open,
    Op::Close,
    Op::Read,
    Op::Write,
    Op::Fsync,
    Op::Unlink,
    Op::Stat,
    Op::Truncate,
    Op::Other,
];

/// The classes with their own `fskit.<op>.*` metrics (all but `Other`).
pub fn reported_ops() -> &'static [Op] {
    &ALL_OPS[..NOPS - 1]
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Close => "close",
            Op::Read => "read",
            Op::Write => "write",
            Op::Fsync => "fsync",
            Op::Unlink => "unlink",
            Op::Stat => "stat",
            Op::Truncate => "truncate",
            Op::Other => "other",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `Actor::step` (layer `workloads`); parent of the step's calls.
    Step,
    /// One `FileSystem` call (layer `fskit`), child of the current step.
    Call(Op),
    /// One `FileSystem::tick` — background writeback running on its own
    /// virtual clock between steps. Host time only; no parent.
    Tick,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Step => "workloads.step",
            SpanKind::Tick => "fskit.tick",
            SpanKind::Call(Op::Open) => "fskit.open",
            SpanKind::Call(Op::Close) => "fskit.close",
            SpanKind::Call(Op::Read) => "fskit.read",
            SpanKind::Call(Op::Write) => "fskit.write",
            SpanKind::Call(Op::Fsync) => "fskit.fsync",
            SpanKind::Call(Op::Unlink) => "fskit.unlink",
            SpanKind::Call(Op::Stat) => "fskit.stat",
            SpanKind::Call(Op::Truncate) => "fskit.truncate",
            SpanKind::Call(Op::Other) => "fskit.other",
        }
    }
}

/// One recorded interval on both clocks. `step` is the identifier every
/// span of one workload step shares (0 = outside any step).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub step: u32,
    pub actor: u8,
    /// Virtual clock, ns (the stepping actor's clock).
    pub v0: u64,
    pub v1: u64,
    /// Host clock, ns since the trace began.
    pub h0: u64,
    pub h1: u64,
}

impl Span {
    pub fn vns(&self) -> u64 {
        self.v1 - self.v0
    }
    pub fn host_ns(&self) -> u64 {
        self.h1 - self.h0
    }
}

/// In-memory trace of one run: spans in completion order (a step's calls,
/// then the step, then the tick that followed it).
#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Ledger delta per op class, taken at the call boundary.
    pub ledger_by_op: [[u64; NCATS]; NOPS],
    /// Host ns inside `FileSystem` calls, per op class, and inside ticks.
    pub host_by_op: [u64; NOPS],
    pub tick_host_ns: u64,
    next_step: u32,
    /// (step id, actor, v0, h0) of the step in progress.
    open_step: Option<(u32, u8, u64, u64)>,
}

impl Trace {
    pub(crate) fn new() -> Trace {
        Trace {
            spans: Vec::new(),
            ledger_by_op: [[0; NCATS]; NOPS],
            host_by_op: [0; NOPS],
            tick_host_ns: 0,
            next_step: 1,
            open_step: None,
        }
    }
}

/// Everything the decorator accumulated.
#[derive(Debug, Default)]
pub struct Recorded {
    pub count: [u64; NOPS],
    pub failed: [u64; NOPS],
    pub vns: [u64; NOPS],
    /// Virtual latency of every read / write-class / fsync call, in call
    /// order (sorted by the caller for exact percentiles).
    pub read_vns: Vec<u64>,
    pub write_vns: Vec<u64>,
    pub fsync_vns: Vec<u64>,
    pub trace: Option<Trace>,
}

impl Recorded {
    /// `FileSystem` calls attempted.
    pub fn calls(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Calls that returned `Err`.
    pub fn errors(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// The latency samples of a data op class (read, write or fsync).
    pub fn samples_mut(&mut self, op: Op) -> &mut Vec<u64> {
        match op {
            Op::Read => &mut self.read_vns,
            Op::Write => &mut self.write_vns,
            Op::Fsync => &mut self.fsync_vns,
            other => panic!("no latency samples are kept for {}", other.label()),
        }
    }
}

/// The decorator. Wrap the mount, hand it to the runner, then
/// [`TimedFs::take`] the record.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    env: Arc<SimEnv>,
    /// Start of the host timeline; `Some` exactly when tracing.
    epoch: Option<Instant>,
    // The runner is single-threaded in virtual time; the lock only makes
    // the decorator `Sync` as the trait demands and is never contended.
    rec: Mutex<Recorded>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>, env: Arc<SimEnv>, traced: bool) -> Arc<TimedFs> {
        Arc::new(TimedFs {
            inner,
            env,
            epoch: traced.then(Instant::now),
            rec: Mutex::new(Recorded {
                trace: traced.then(Trace::new),
                ..Recorded::default()
            }),
        })
    }

    /// Host ns since the trace began (`None` when untraced).
    fn host_now(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_nanos() as u64)
    }

    fn rec(&self) -> MutexGuard<'_, Recorded> {
        self.rec.lock().expect("recorder lock poisoned by a panic")
    }

    /// Takes the accumulated record, leaving an empty untraced one.
    pub fn take(&self) -> Recorded {
        std::mem::take(&mut *self.rec())
    }

    fn call<T>(&self, op: Op, f: impl FnOnce(&dyn FileSystem) -> Result<T>) -> Result<T> {
        let traced = self.host_now().map(|h0| (h0, ledger::snapshot()));
        let v0 = self.env.now();
        let r = f(&*self.inner);
        let v1 = self.env.now();
        let h1 = self.host_now();
        let mut rec = self.rec();
        let i = op as usize;
        rec.count[i] += 1;
        rec.failed[i] += u64::from(r.is_err());
        rec.vns[i] += v1 - v0;
        if matches!(op, Op::Read | Op::Write | Op::Fsync) {
            rec.samples_mut(op).push(v1 - v0);
        }
        if let (Some(t), Some((h0, l0)), Some(h1)) = (rec.trace.as_mut(), traced, h1) {
            let delta: Ledger = ledger::snapshot().since(&l0);
            for c in ALL_CATS {
                t.ledger_by_op[i][c as usize] += delta.get(c);
            }
            t.host_by_op[i] += h1 - h0;
            let (step, actor) = t.open_step.map_or((0, 0), |s| (s.0, s.1));
            t.spans.push(Span {
                kind: SpanKind::Call(op),
                step,
                actor,
                v0,
                v1,
                h0,
                h1,
            });
        }
        r
    }

    fn begin_step(&self, actor: u8) {
        let v0 = self.env.now();
        if let (Some(t), Some(h0)) = (self.rec().trace.as_mut(), self.host_now()) {
            let id = t.next_step;
            t.next_step += 1;
            t.open_step = Some((id, actor, v0, h0));
        }
    }

    fn end_step(&self) {
        let v1 = self.env.now();
        if let (Some(t), Some(h1)) = (self.rec().trace.as_mut(), self.host_now()) {
            if let Some((step, actor, v0, h0)) = t.open_step.take() {
                t.spans.push(Span {
                    kind: SpanKind::Step,
                    step,
                    actor,
                    v0,
                    v1,
                    h0,
                    h1,
                });
            }
        }
    }
}

impl FileSystem for TimedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.call(Op::Open, |fs| fs.open(path, flags))
    }
    fn close(&self, fd: Fd) -> Result<()> {
        self.call(Op::Close, |fs| fs.close(fd))
    }
    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.call(Op::Read, |fs| fs.read(fd, off, buf))
    }
    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        self.call(Op::Write, |fs| fs.write(fd, off, data))
    }
    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        self.call(Op::Write, |fs| fs.write_vectored(fd, off, iovs))
    }
    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        self.call(Op::Write, |fs| fs.append(fd, data))
    }
    fn fsync(&self, fd: Fd) -> Result<()> {
        self.call(Op::Fsync, |fs| fs.fsync(fd))
    }
    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        self.call(Op::Truncate, |fs| fs.truncate(fd, size))
    }
    fn unlink(&self, path: &str) -> Result<()> {
        self.call(Op::Unlink, |fs| fs.unlink(path))
    }
    fn mkdir(&self, path: &str) -> Result<()> {
        self.call(Op::Other, |fs| fs.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> Result<()> {
        self.call(Op::Other, |fs| fs.rmdir(path))
    }
    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.call(Op::Other, |fs| fs.readdir(path))
    }
    fn stat(&self, path: &str) -> Result<Stat> {
        self.call(Op::Stat, |fs| fs.stat(path))
    }
    fn fstat(&self, fd: Fd) -> Result<Stat> {
        self.call(Op::Stat, |fs| fs.fstat(fd))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.call(Op::Other, |fs| fs.rename(from, to))
    }
    fn sync(&self) -> Result<()> {
        self.call(Op::Other, |fs| fs.sync())
    }
    fn unmount(&self) -> Result<()> {
        self.call(Op::Other, |fs| fs.unmount())
    }
    fn mmap(&self, fd: Fd, off: u64, len: usize) -> Result<Arc<dyn MmapHandle>> {
        self.call(Op::Other, |fs| fs.mmap(fd, off, len))
    }
    fn tick(&self, now_ns: u64) {
        let h0 = self.host_now();
        self.inner.tick(now_ns);
        if let (Some(t), Some(h0), Some(h1)) = (self.rec().trace.as_mut(), h0, self.host_now()) {
            t.tick_host_ns += h1 - h0;
            t.spans.push(Span {
                kind: SpanKind::Tick,
                step: 0,
                actor: 0,
                v0: now_ns,
                v1: now_ns,
                h0,
                h1,
            });
        }
    }
}

/// Wraps a workload actor so each `step` becomes a `workloads.step` span
/// and the calls it issues become that span's children.
pub struct TracedActor {
    inner: Box<dyn Actor>,
    fs: Arc<TimedFs>,
    actor: u8,
}

impl TracedActor {
    pub fn wrap(inner: Box<dyn Actor>, fs: &Arc<TimedFs>, actor: usize) -> Box<dyn Actor> {
        Box::new(TracedActor {
            inner,
            fs: fs.clone(),
            actor: actor as u8,
        })
    }
}

impl Actor for TracedActor {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        self.fs.begin_step(self.actor);
        let r = self.inner.step(ctx);
        self.fs.end_step();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fskit::FsError;
    use nvmm::{CostModel, NvmmDevice, BLOCK_SIZE};
    use pmfs::PmfsOptions;

    fn mount() -> (Arc<SimEnv>, Arc<dyn FileSystem>) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 4096 * BLOCK_SIZE);
        let opts = PmfsOptions {
            journal_blocks: 64,
            inode_count: 256,
        };
        let cfg = hinfs::HinfsConfig::default().with_buffer_bytes(64 * BLOCK_SIZE);
        let fs = hinfs::Hinfs::mkfs(dev, opts, cfg).unwrap();
        env.rebase();
        (env, fs)
    }

    /// A fixed 200-op script touching every reported op class, including
    /// calls that must fail. Returns every result rendered, every byte
    /// read, and the virtual clock at the end.
    fn script(env: &SimEnv, fs: &dyn FileSystem) -> (Vec<String>, Vec<u8>, u64) {
        let mut results = Vec::new();
        let mut bytes = Vec::new();
        let mut log = |r: std::result::Result<String, FsError>| results.push(format!("{r:?}"));
        let mut n = 0;
        let mut i = 0u64;
        while n < 200 {
            let path = format!("/f{}", i % 5);
            let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE);
            log(fd.map(|fd| fd.to_string()));
            let fd = fd.unwrap();
            let data = vec![(i % 251) as u8; 100 + (i as usize * 37) % 9000];
            log(fs.write(fd, i * 13 % 5000, &data).map(|n| n.to_string()));
            log(fs.append(fd, &data[..50]).map(|o| o.to_string()));
            let mut buf = vec![0u8; 6000];
            let got = fs.read(fd, i * 7 % 3000, &mut buf);
            bytes.extend_from_slice(&buf[..got.unwrap_or(0)]);
            log(got.map(|n| n.to_string()));
            if i.is_multiple_of(3) {
                log(fs.fsync(fd).map(|()| String::new()));
                n += 1;
            }
            log(fs.fstat(fd).map(|s| s.size.to_string()));
            log(fs.close(fd).map(|()| String::new()));
            // Errors must pass through unchanged.
            log(fs.close(fd).map(|()| String::new()));
            log(fs.stat("/missing").map(|s| s.size.to_string()));
            log(fs.unlink("/missing").map(|()| String::new()));
            n += 9;
            if i % 4 == 3 {
                log(fs.unlink(&path).map(|()| String::new()));
                n += 1;
            }
            fs.tick(env.now());
            i += 1;
        }
        (results, bytes, env.now())
    }

    #[test]
    fn pass_through_same_bytes_errors_and_virtual_clock() {
        let (env, bare) = mount();
        let want = script(&env, &*bare);
        for traced in [false, true] {
            let (env, inner) = mount();
            let fs = TimedFs::new(inner, env.clone(), traced);
            let got = script(&env, &*fs);
            assert_eq!(got.0, want.0, "results (traced={traced})");
            assert_eq!(got.1, want.1, "bytes read (traced={traced})");
            assert_eq!(got.2, want.2, "virtual clock (traced={traced})");
            let rec = fs.take();
            assert!(rec.calls() >= 200);
            assert_eq!(rec.calls() as usize, want.0.len());
            // close-twice, stat-missing and unlink-missing fail once per round.
            let rounds = rec.count[Op::Open as usize];
            assert_eq!(rec.errors(), 3 * rounds);
            assert_eq!(rec.failed[Op::Close as usize], rounds);
            assert_eq!(rec.write_vns.len() as u64, rec.count[Op::Write as usize]);
            assert_eq!(rec.read_vns.iter().sum::<u64>(), rec.vns[Op::Read as usize]);
            assert_eq!(rec.trace.is_some(), traced);
            if let Some(t) = &rec.trace {
                let calls = t
                    .spans
                    .iter()
                    .filter(|s| matches!(s.kind, SpanKind::Call(_)));
                assert_eq!(calls.count() as u64, rec.calls());
                // Every virtual ns the script spent is inside some call.
                let vns: u64 = t.spans.iter().map(Span::vns).sum();
                assert_eq!(vns, want.2);
                let ledger: u64 = t.ledger_by_op.iter().flatten().sum();
                assert_eq!(ledger, want.2, "ledger deltas cover the same time");
            }
        }
    }
}
