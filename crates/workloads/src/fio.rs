//! A fio-like microbenchmark actor (the paper's Fig 1 workload): random
//! reads and writes over a preallocated file at a configurable I/O size,
//! with a 1:2 read:write ratio by default.

use fskit::{Fd, OpenFlags, Result};
use rand::Rng;

use crate::runner::{Actor, Ctx};

/// fio job parameters.
#[derive(Debug, Clone)]
pub struct FioParams {
    /// Target file path.
    pub path: String,
    /// File size in bytes (preallocated on first step).
    pub file_size: u64,
    /// I/O transfer size in bytes.
    pub iosize: usize,
    /// Reads per `read_ratio + write_ratio` operations (paper: 1:2).
    pub read_ratio: u32,
    pub write_ratio: u32,
}

impl FioParams {
    /// The paper's default mix at the given I/O size.
    pub fn new(path: &str, file_size: u64, iosize: usize) -> FioParams {
        FioParams {
            path: path.to_string(),
            file_size,
            iosize,
            read_ratio: 1,
            write_ratio: 2,
        }
    }
}

/// The fio actor.
pub struct Fio {
    params: FioParams,
    fd: Option<Fd>,
    buf: Vec<u8>,
}

impl Fio {
    /// Creates a fio job.
    pub fn new(params: FioParams) -> Fio {
        Fio {
            fd: None,
            buf: Vec::new(),
            params,
        }
    }

    /// Preallocates the target file outside the measured run so the
    /// steady-state breakdown (Fig 1) is not polluted by setup writes.
    pub fn setup(fs: &dyn fskit::FileSystem, params: &FioParams) -> Result<()> {
        let fd = fs.open(&params.path, OpenFlags::RDWR | OpenFlags::CREATE)?;
        let chunk = vec![0u8; 1 << 20];
        let mut off = fs.fstat(fd)?.size;
        while off < params.file_size {
            let n = ((params.file_size - off) as usize).min(chunk.len());
            fs.write(fd, off, &chunk[..n])?;
            off += n as u64;
        }
        fs.close(fd)
    }
}

impl Actor for Fio {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        let fd = if let Some(fd) = self.fd {
            fd
        } else {
            let fd = ctx.open(&self.params.path, OpenFlags::RDWR | OpenFlags::CREATE)?;
            // Preallocate whatever `setup` has not already materialized.
            let preallocated = ctx.fstat(fd)?.size;
            let chunk = vec![0u8; 1 << 20];
            let mut off = preallocated;
            while off < self.params.file_size {
                let n = ((self.params.file_size - off) as usize).min(chunk.len());
                ctx.write(fd, off, &chunk[..n])?;
                off += n as u64;
            }
            *self.fd.insert(fd)
        };
        let span = self
            .params
            .file_size
            .saturating_sub(self.params.iosize as u64);
        let off = if span == 0 {
            0
        } else {
            ctx.rng.gen_range(0..=span)
        };
        self.buf.resize(self.params.iosize, 0x77);
        let total = self.params.read_ratio + self.params.write_ratio;
        if ctx.rng.gen_range(0..total) < self.params.read_ratio {
            ctx.read(fd, off, &mut self.buf.clone())?;
        } else {
            ctx.write(fd, off, &self.buf)?;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunLimit, Runner};
    use crate::OpKind;
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};

    #[test]
    fn mix_is_one_to_two() {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 16384 * BLOCK_SIZE);
        let fs = Pmfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 64,
                inode_count: 64,
            },
        )
        .unwrap();
        env.rebase();
        let runner = Runner::new(env, fs);
        let fio = Fio::new(FioParams::new("/job", 4 << 20, 4096));
        let r = runner.run(vec![Box::new(fio)], RunLimit::steps(601), 13);
        assert_eq!(r.error, None);
        // 601 I/O steps plus the 4 MiB preallocation (4 chunked writes).
        let reads = r.op_count(OpKind::Read);
        let writes = r.op_count(OpKind::Write);
        assert_eq!(reads + writes, 601 + (4 << 20) / (1 << 20));
        let ratio = writes as f64 / reads as f64;
        assert!((1.5..=2.8).contains(&ratio), "write/read ratio {ratio}");
    }
}
