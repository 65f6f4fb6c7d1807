//! Kernel-tree macrobenchmarks: `grep` over the source tree (read-only
//! scan) and `make` (read sources, write objects; no fsync — the compile
//! writes are all lazy-persistent, which is why HiNFS wins Kernel-Make by
//! ~64 % in Fig 13).

use std::sync::Arc;

use fskit::{FileSystem, OpenFlags, Result};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runner::{Actor, Ctx};

/// A synthetic source tree.
#[derive(Debug)]
pub struct SourceTree {
    /// All source file paths.
    pub files: Vec<String>,
    /// Cursor shared by the workers.
    next: Mutex<usize>,
}

/// Parameters of the synthetic kernel tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Number of directories.
    pub dirs: usize,
    /// Source files per directory.
    pub files_per_dir: usize,
    /// Mean source file size.
    pub mean_size: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            dirs: 24,
            files_per_dir: 16,
            mean_size: 12 << 10,
        }
    }
}

impl SourceTree {
    /// Builds the tree under `root` and fills the files with content.
    pub fn build(
        fs: &dyn FileSystem,
        root: &str,
        p: TreeParams,
        seed: u64,
    ) -> Result<Arc<SourceTree>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        if fs.stat(root).is_err() {
            fs.mkdir(root)?;
        }
        let mut files = Vec::new();
        let payload = vec![0x2au8; p.mean_size * 2];
        for d in 0..p.dirs {
            let dir = format!("{root}/src{d:03}");
            fs.mkdir(&dir)?;
            for f in 0..p.files_per_dir {
                let path = format!("{dir}/file{f:03}.c");
                let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
                let size = crate::fileset::draw_size(&mut rng, p.mean_size).max(64);
                fs.write(fd, 0, &payload[..size])?;
                fs.close(fd)?;
                files.push(path);
            }
        }
        Ok(Arc::new(SourceTree {
            files,
            next: Mutex::new(0),
        }))
    }

    fn take_next(&self) -> Option<usize> {
        let mut n = self.next.lock();
        if *n >= self.files.len() {
            return None;
        }
        let i = *n;
        *n += 1;
        Some(i)
    }

    /// Resets the work cursor (to run the pass again).
    pub fn reset(&self) {
        *self.next.lock() = 0;
    }
}

/// Kernel-Grep: reads every file of the tree, searching for a pattern that
/// never matches.
pub struct KernelGrep {
    tree: Arc<SourceTree>,
    buf: Vec<u8>,
}

impl KernelGrep {
    /// Creates a grep worker.
    pub fn new(tree: Arc<SourceTree>) -> KernelGrep {
        KernelGrep {
            tree,
            buf: Vec::new(),
        }
    }
}

impl Actor for KernelGrep {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        let Some(i) = self.tree.take_next() else {
            return Ok(false);
        };
        let path = self.tree.files[i].clone();
        let fd = ctx.open(&path, OpenFlags::READ)?;
        let size = ctx.fstat(fd)?.size;
        self.buf.resize(64 << 10, 0);
        let mut off = 0u64;
        while off < size {
            let n = {
                let buf = &mut self.buf;
                ctx.read(fd, off, buf)?
            };
            if n == 0 {
                break;
            }
            // "Search" the buffer for an absent pattern.
            debug_assert!(!self.buf[..n].windows(7).any(|w| w == b"@@MISS@"));
            off += n as u64;
        }
        ctx.close(fd)?;
        Ok(true)
    }
}

/// Kernel-Make: per source file, read it (and a couple of "headers"),
/// then write a `.o` object of comparable size. No synchronization.
pub struct KernelMake {
    tree: Arc<SourceTree>,
    buf: Vec<u8>,
}

impl KernelMake {
    /// Creates a compile worker.
    pub fn new(tree: Arc<SourceTree>) -> KernelMake {
        KernelMake {
            tree,
            buf: Vec::new(),
        }
    }
}

impl Actor for KernelMake {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        let Some(i) = self.tree.take_next() else {
            return Ok(false);
        };
        let src = self.tree.files[i].clone();
        let fd = ctx.open(&src, OpenFlags::READ)?;
        let size = ctx.fstat(fd)?.size;
        self.buf.resize(64 << 10, 0);
        let mut off = 0u64;
        while off < size {
            let n = ctx.read(fd, off, &mut self.buf.clone())?;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        ctx.close(fd)?;
        // Include two random "headers".
        for _ in 0..2 {
            let j = ctx.rng.gen_range(0..self.tree.files.len());
            let hdr = self.tree.files[j].clone();
            if let Ok(fd) = ctx.open(&hdr, OpenFlags::READ) {
                ctx.read(fd, 0, &mut self.buf.clone())?;
                ctx.close(fd)?;
            }
        }
        // Emit the object file (~80 % of the source size).
        let obj = format!("{src}.o");
        let out = ctx.open(&obj, OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::TRUNC)?;
        let osize = (size as usize * 4 / 5).max(64);
        self.buf.resize(osize, 0x4f);
        ctx.write(out, 0, &self.buf[..osize])?;
        ctx.close(out)?;
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

    fn setup() -> (Arc<SimEnv>, Arc<Pmfs>, Arc<SourceTree>) {
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
        let tree = SourceTree::build(
            &*fs,
            "/linux",
            TreeParams {
                dirs: 4,
                files_per_dir: 8,
                mean_size: 8 << 10,
            },
            5,
        )
        .unwrap();
        env.rebase();
        (env, fs, tree)
    }

    #[test]
    fn grep_reads_everything_and_finishes() {
        let (env, fs, tree) = setup();
        let runner = Runner::new(env, fs);
        let r = runner.run(
            vec![Box::new(KernelGrep::new(tree.clone()))],
            RunLimit::default(),
            2,
        );
        assert_eq!(r.error, None);
        assert_eq!(r.metrics.steps, 32 + 1, "one step per file + final empty");
        assert_eq!(r.metrics.bytes_written, 0, "grep is read-only");
        assert!(r.metrics.bytes_read > 32 * 4096);
    }

    #[test]
    fn make_emits_objects_without_fsync() {
        let (env, fs, tree) = setup();
        let runner = Runner::new(env, fs.clone());
        let r = runner.run(
            vec![Box::new(KernelMake::new(tree.clone()))],
            RunLimit::default(),
            2,
        );
        assert_eq!(r.error, None);
        assert_eq!(r.op_count(OpKind::Fsync), 0);
        assert!(r.metrics.bytes_written > 0);
        // Objects exist.
        let obj = format!("{}.o", tree.files[0]);
        assert!(fs.stat(&obj).is_ok());
    }

    #[test]
    fn two_workers_split_the_tree() {
        let (env, fs, tree) = setup();
        let runner = Runner::new(env, fs);
        let r = runner.run(
            vec![
                Box::new(KernelGrep::new(tree.clone())) as Box<dyn crate::Actor>,
                Box::new(KernelGrep::new(tree)),
            ],
            RunLimit::default(),
            2,
        );
        assert_eq!(r.error, None);
        // 32 files + 2 final empty steps.
        assert_eq!(r.metrics.steps, 34);
    }
}
