//! Postmark (Katcher '97): small-file transactions of an e-mail/web
//! service — a pool of small files churned by read/append and
//! create/delete transactions. Like the paper observes, many files are
//! short-lived, which is exactly what HiNFS's drop-on-delete buffering
//! exploits (Fig 13).

use std::sync::Arc;

use fskit::{OpenFlags, Result};
use rand::Rng;

use crate::fileset::{draw_size, Fileset};
use crate::runner::{Actor, Ctx};

/// Postmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct PostmarkParams {
    /// Smallest file/append size.
    pub min_size: usize,
    /// Largest file/append size.
    pub max_size: usize,
    /// Read transfer size.
    pub read_size: usize,
}

impl Default for PostmarkParams {
    fn default() -> Self {
        PostmarkParams {
            min_size: 512,
            max_size: 10 << 10,
            read_size: 4096,
        }
    }
}

/// One postmark worker over a shared pool.
pub struct Postmark {
    set: Arc<Fileset>,
    params: PostmarkParams,
    buf: Vec<u8>,
}

impl Postmark {
    /// Creates a worker.
    pub fn new(set: Arc<Fileset>, params: PostmarkParams) -> Postmark {
        Postmark {
            set,
            params,
            buf: Vec::new(),
        }
    }

    fn draw(&self, ctx: &mut Ctx<'_>) -> usize {
        ctx.rng
            .gen_range(self.params.min_size..=self.params.max_size)
    }
}

impl Actor for Postmark {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        // Transaction pair 1: read or append a random file.
        if let Some(p) = self.set.pick(&mut ctx.rng) {
            if ctx.rng.gen_bool(0.5) {
                if let Ok(fd) = ctx.open(&p, OpenFlags::READ) {
                    self.buf.resize(self.params.read_size, 0);
                    let size = ctx.fstat(fd)?.size;
                    let off = if size > self.params.read_size as u64 {
                        ctx.rng.gen_range(0..=size - self.params.read_size as u64)
                    } else {
                        0
                    };
                    ctx.read(fd, off, &mut self.buf.clone())?;
                    ctx.close(fd)?;
                }
            } else if let Ok(fd) = ctx.open(&p, OpenFlags::RDWR | OpenFlags::APPEND) {
                let n = self.draw(ctx);
                self.buf.resize(n, 0x66);
                ctx.append(fd, &self.buf[..n])?;
                ctx.close(fd)?;
            }
        }
        // Transaction pair 2: create or delete.
        if ctx.rng.gen_bool(0.5) || self.set.len() < 3 {
            let path = self.set.fresh(&mut ctx.rng);
            let fd = ctx.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
            let n = draw_size(
                &mut ctx.rng,
                (self.params.min_size + self.params.max_size) / 2,
            );
            self.buf.resize(n.max(1), 0x67);
            ctx.write(fd, 0, &self.buf[..n.max(1)])?;
            ctx.close(fd)?;
        } else if let Some(p) = self.set.take(&mut ctx.rng) {
            let _ = ctx.unlink(&p);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileset::FilesetSpec;
    use crate::runner::{RunLimit, Runner};
    use crate::OpKind;
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};

    #[test]
    fn churns_files_without_fsync() {
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
        let set = Fileset::populate(&*fs, FilesetSpec::new("/mail", 100, 20, 2048), 4).unwrap();
        env.rebase();
        let runner = Runner::new(env, fs);
        let pm = Postmark::new(set, PostmarkParams::default());
        let r = runner.run(vec![Box::new(pm)], RunLimit::steps(200), 21);
        assert_eq!(r.error, None);
        assert_eq!(r.metrics.steps, 200);
        assert!(r.op_count(OpKind::Unlink) > 20, "deletes happen");
        assert!(r.op_count(OpKind::Open) > 200);
        assert_eq!(r.op_count(OpKind::Fsync), 0);
        assert!(r.metrics.bytes_written > 0 && r.metrics.bytes_read > 0);
    }
}
