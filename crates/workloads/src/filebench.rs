//! The four Filebench personalities of Table 1, reimplemented as actors:
//!
//! - **Fileserver** — creates, deletes, appends, whole-file reads and
//!   writes (no fsync: almost all writes are lazy-persistent).
//! - **Webserver** — whole-file reads (×10) plus a log append
//!   (read-intensive).
//! - **Webproxy** — delete, create-write-close, open-read-close ×5, log
//!   append (strong locality, many short-lived files).
//! - **Varmail** — delete, create-append-fsync, read-append-fsync, read
//!   (append-heavy with frequent fsync: eager-persistent writes).
//!
//! Defaults follow the personalities' documented op mixes; sizes are
//! parameters so experiments can scale the dataset (the paper used 5 GB
//! sets, a 2 GB buffer and 1 MB mean I/O size).

use std::sync::Arc;

use fskit::{Fd, OpenFlags, Result};

use crate::fileset::Fileset;
use crate::runner::{Actor, Ctx};

/// Shared knobs of the personalities.
#[derive(Debug, Clone, Copy)]
pub struct FilebenchParams {
    /// Mean I/O (transfer chunk) size; the paper's default is 1 MiB.
    pub iosize: usize,
    /// Mean append size (filebench default 16 KiB).
    pub append_size: usize,
}

impl Default for FilebenchParams {
    fn default() -> Self {
        FilebenchParams {
            iosize: 1 << 20,
            append_size: 16 << 10,
        }
    }
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

/// One actor's I/O memory, sized once: every write sends a prefix of the
/// same constant-filled payload, every read lands in the same scratch, so
/// a step costs the host no megabyte-sized fill of its own.
struct IoBufs {
    payload: Vec<u8>,
    scratch: Vec<u8>,
}

impl IoBufs {
    fn new(params: &FilebenchParams) -> IoBufs {
        let iosize = params.iosize.max(1);
        // `fileset::draw_size` asks for up to 1.5 × the mean append.
        let largest_write = iosize.max(params.append_size * 3 / 2 + 1);
        IoBufs {
            payload: vec![0x5a; largest_write],
            scratch: vec![0; iosize],
        }
    }

    /// Reads the whole file, one scratch-full at a time.
    fn read_whole(&mut self, ctx: &mut Ctx<'_>, fd: Fd) -> Result<()> {
        let size = ctx.fstat(fd)?.size;
        let mut off = 0;
        while off < size {
            let n = ctx.read(fd, off, &mut self.scratch)?;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        Ok(())
    }

    /// Writes `total` bytes at offset 0 in `iosize` chunks.
    fn write_whole(&self, ctx: &mut Ctx<'_>, fd: Fd, total: usize) -> Result<()> {
        // The scratch is one I/O long.
        let iosize = self.scratch.len();
        let mut off = 0usize;
        while off < total {
            let n = (total - off).min(iosize);
            ctx.write(fd, off as u64, &self.payload[..n])?;
            off += n;
        }
        Ok(())
    }
}

/// Issues a log-append burst as one gather (`pwritev`) call: the data is
/// sliced block-wise and lands at EOF in a single vectored write, so the
/// NVMM-aware systems pay their per-call costs (syscall, per-file locks,
/// journal transaction) once for the whole burst. The descriptor must be
/// `APPEND`-flagged — the offset argument is ignored by every backend.
fn append_burst(ctx: &mut Ctx<'_>, fd: Fd, data: &[u8]) -> Result<()> {
    let iovs: Vec<&[u8]> = data.chunks(nvmm::BLOCK_SIZE).collect();
    ctx.write_vectored(fd, 0, &iovs)?;
    Ok(())
}

/// The fileserver personality.
pub struct Fileserver {
    set: Arc<Fileset>,
    params: FilebenchParams,
    io: IoBufs,
}

impl Fileserver {
    /// Creates one fileserver thread over a shared set.
    pub fn new(set: Arc<Fileset>, params: FilebenchParams) -> Fileserver {
        Fileserver {
            set,
            io: IoBufs::new(&params),
            params,
        }
    }
}

impl Actor for Fileserver {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        // createfile + writewholefile + close
        let path = self.set.fresh(&mut ctx.rng);
        let size = self.set.draw_size(&mut ctx.rng);
        let fd = ctx.open(&path, rw_create())?;
        self.io.write_whole(ctx, fd, size)?;
        ctx.close(fd)?;
        // open + append + close
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            if let Ok(fd) = ctx.open(&p, OpenFlags::RDWR | OpenFlags::APPEND) {
                let n = crate::fileset::draw_size(&mut ctx.rng, self.params.append_size);
                ctx.append(fd, &self.io.payload[..n])?;
                ctx.close(fd)?;
            }
        }
        // open + readwholefile + close
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            if let Ok(fd) = ctx.open(&p, OpenFlags::READ) {
                self.io.read_whole(ctx, fd)?;
                ctx.close(fd)?;
            }
        }
        // deletefile
        if self.set.len() > 2 {
            if let Some(p) = self.set.take(&mut ctx.rng) {
                let _ = ctx.unlink(&p);
            }
        }
        // statfile
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            let _ = ctx.stat(&p);
        }
        Ok(true)
    }
}

/// The webserver personality.
pub struct Webserver {
    set: Arc<Fileset>,
    params: FilebenchParams,
    log: String,
    log_fd: Option<Fd>,
    io: IoBufs,
}

impl Webserver {
    /// Creates one webserver thread; `id` selects its log file.
    pub fn new(set: Arc<Fileset>, params: FilebenchParams, id: usize) -> Webserver {
        Webserver {
            set,
            params,
            log: format!("/weblog-{id}"),
            log_fd: None,
            io: IoBufs::new(&params),
        }
    }
}

impl Actor for Webserver {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        for _ in 0..10 {
            if let Some(p) = self.set.pick(&mut ctx.rng) {
                if let Ok(fd) = ctx.open(&p, OpenFlags::READ) {
                    self.io.read_whole(ctx, fd)?;
                    ctx.close(fd)?;
                }
            }
        }
        if self.log_fd.is_none() {
            self.log_fd = Some(ctx.open(&self.log, rw_create() | OpenFlags::APPEND)?);
        }
        let n = self.params.append_size;
        append_burst(ctx, self.log_fd.unwrap(), &self.io.payload[..n])?;
        rotate_log(ctx, self.log_fd.unwrap())?;
        Ok(true)
    }
}

/// Rotates (truncates) a log descriptor once it exceeds 4 MiB, bounding
/// device growth over long runs.
fn rotate_log(ctx: &mut Ctx<'_>, fd: Fd) -> Result<()> {
    if ctx.fstat(fd)?.size > 4 << 20 {
        ctx.truncate(fd, 0)?;
    }
    Ok(())
}

/// The webproxy personality.
pub struct Webproxy {
    set: Arc<Fileset>,
    params: FilebenchParams,
    log: String,
    log_fd: Option<Fd>,
    io: IoBufs,
}

impl Webproxy {
    /// Creates one webproxy thread.
    pub fn new(set: Arc<Fileset>, params: FilebenchParams, id: usize) -> Webproxy {
        Webproxy {
            set,
            params,
            log: format!("/proxylog-{id}"),
            log_fd: None,
            io: IoBufs::new(&params),
        }
    }
}

impl Actor for Webproxy {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        // delete + create-write-close: webproxy's files are short-lived, so
        // deletion targets the recently created tail of the set.
        if self.set.len() > 2 {
            if let Some(p) = self.set.take_recent(&mut ctx.rng, 0.2) {
                let _ = ctx.unlink(&p);
            }
        }
        let path = self.set.fresh(&mut ctx.rng);
        let size = self.set.draw_size(&mut ctx.rng);
        let fd = ctx.open(&path, rw_create())?;
        self.io.write_whole(ctx, fd, size)?;
        ctx.close(fd)?;
        // open-read-close ×5, over the hot (recently created) tail of the
        // set: the paper attributes webproxy's behaviour to its "strong
        // access locality".
        for _ in 0..5 {
            if let Some(p) = self.set.pick_recent(&mut ctx.rng, 0.2) {
                if let Ok(fd) = ctx.open(&p, OpenFlags::READ) {
                    self.io.read_whole(ctx, fd)?;
                    ctx.close(fd)?;
                }
            }
        }
        // log append
        if self.log_fd.is_none() {
            self.log_fd = Some(ctx.open(&self.log, rw_create() | OpenFlags::APPEND)?);
        }
        let n = self.params.append_size;
        append_burst(ctx, self.log_fd.unwrap(), &self.io.payload[..n])?;
        rotate_log(ctx, self.log_fd.unwrap())?;
        Ok(true)
    }
}

/// The varmail personality.
pub struct Varmail {
    set: Arc<Fileset>,
    params: FilebenchParams,
    io: IoBufs,
}

impl Varmail {
    /// Creates one varmail thread.
    pub fn new(set: Arc<Fileset>, params: FilebenchParams) -> Varmail {
        Varmail {
            set,
            io: IoBufs::new(&params),
            params,
        }
    }

    fn draw_append(&mut self, ctx: &mut Ctx<'_>) -> usize {
        crate::fileset::draw_size(&mut ctx.rng, self.params.append_size).max(1)
    }
}

impl Actor for Varmail {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        // deletefile
        if self.set.len() > 2 {
            if let Some(p) = self.set.take(&mut ctx.rng) {
                let _ = ctx.unlink(&p);
            }
        }
        // createfile + appendfilerand + fsync + close
        let path = self.set.fresh(&mut ctx.rng);
        let fd = ctx.open(&path, rw_create())?;
        let n = self.draw_append(ctx);
        ctx.append(fd, &self.io.payload[..n])?;
        ctx.fsync(fd)?;
        ctx.close(fd)?;
        // openfile + readwholefile + appendfilerand + fsync + close
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            if let Ok(fd) = ctx.open(&p, OpenFlags::RDWR) {
                self.io.read_whole(ctx, fd)?;
                let n = self.draw_append(ctx);
                ctx.append(fd, &self.io.payload[..n])?;
                ctx.fsync(fd)?;
                ctx.close(fd)?;
            }
        }
        // openfile + readwholefile + close
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            if let Ok(fd) = ctx.open(&p, OpenFlags::READ) {
                self.io.read_whole(ctx, fd)?;
                ctx.close(fd)?;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileset::FilesetSpec;
    use crate::runner::{RunLimit, Runner};
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};
    use std::sync::Arc;

    fn setup() -> (Arc<SimEnv>, Arc<Pmfs>, Arc<Fileset>) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 32768 * BLOCK_SIZE);
        let fs = Pmfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 128,
                inode_count: 4096,
            },
        )
        .unwrap();
        let set = Fileset::populate(&*fs, FilesetSpec::new("/data", 60, 10, 16 << 10), 11).unwrap();
        env.rebase();
        (env, fs, set)
    }

    fn params() -> FilebenchParams {
        FilebenchParams {
            iosize: 64 << 10,
            append_size: 4 << 10,
        }
    }

    #[test]
    fn fileserver_runs_and_writes_without_fsync() {
        let (env, fs, set) = setup();
        let runner = Runner::new(env, fs);
        let actor = Fileserver::new(set, params());
        let r = runner.run(vec![Box::new(actor)], RunLimit::steps(30), 5);
        assert_eq!(r.metrics.steps, 30);
        assert!(r.metrics.bytes_written > 0);
        assert!(r.metrics.bytes_read > 0);
        assert_eq!(r.metrics.fsync_bytes, 0, "fileserver never fsyncs");
        assert!(r.op_count(crate::OpKind::Unlink) > 0);
    }

    #[test]
    fn webserver_is_read_dominated() {
        let (env, fs, set) = setup();
        let runner = Runner::new(env, fs);
        let actor = Webserver::new(set, params(), 0);
        let r = runner.run(vec![Box::new(actor)], RunLimit::steps(20), 5);
        assert!(
            r.metrics.bytes_read > 5 * r.metrics.bytes_written,
            "10 whole-file reads per 16 KiB log append (read {} written {})",
            r.metrics.bytes_read,
            r.metrics.bytes_written
        );
    }

    #[test]
    fn webproxy_creates_short_lived_files() {
        let (env, fs, set) = setup();
        let before = set.len();
        let runner = Runner::new(env, fs);
        let actor = Webproxy::new(set.clone(), params(), 0);
        let r = runner.run(vec![Box::new(actor)], RunLimit::steps(25), 5);
        assert!(r.op_count(crate::OpKind::Unlink) >= 20);
        // Population stays roughly stable: one delete + one create per loop.
        assert!((set.len() as i64 - before as i64).abs() <= 2);
    }

    #[test]
    fn varmail_syncs_every_append() {
        let (env, fs, set) = setup();
        let runner = Runner::new(env, fs);
        let actor = Varmail::new(set, params());
        let r = runner.run(vec![Box::new(actor)], RunLimit::steps(25), 5);
        assert!(
            r.op_count(crate::OpKind::Fsync) >= 40,
            "two fsyncs per loop"
        );
        assert!(
            r.fsync_byte_fraction() > 0.9,
            "almost all written bytes are synced ({:.2})",
            r.fsync_byte_fraction()
        );
    }

    #[test]
    fn personalities_work_on_hinfs_too() {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 32768 * BLOCK_SIZE);
        let fs = hinfs::Hinfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 128,
                inode_count: 4096,
            },
            hinfs::HinfsConfig::default().with_buffer_bytes(256 * BLOCK_SIZE),
        )
        .unwrap();
        let set = Fileset::populate(&**fs.pmfs(), FilesetSpec::new("/data", 40, 10, 16 << 10), 3)
            .unwrap();
        env.rebase();
        let runner = Runner::new(env, fs.clone());
        let r = runner.run(
            vec![
                Box::new(Fileserver::new(set.clone(), params())) as Box<dyn crate::Actor>,
                Box::new(Varmail::new(set, params())),
            ],
            RunLimit::steps(15),
            9,
        );
        assert_eq!(r.metrics.steps, 30);
        fskit::FileSystem::unmount(&*fs).unwrap();
    }
}
