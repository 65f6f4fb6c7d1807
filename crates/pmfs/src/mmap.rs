//! Direct memory-mapped I/O (PMFS-style).
//!
//! A mapping translates loads and stores straight to the NVMM blocks of the
//! file — one copy, no page cache. Stores go through the volatile (cached)
//! path and are *not* durable until `msync`, which flushes the synced
//! range — the device persists (and charges) exactly the cachelines left
//! pending there, mirroring how CPU caches treat mapped NVMM.

use std::sync::Arc;

use fskit::vfs::OpenFile;
use fskit::{FsError, MmapHandle, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::file::{self, FreshRun};
use crate::fs::Pmfs;
use crate::inode::InodeMem;
use crate::layout::Layout;
use crate::tree;

/// A live mapping of a file region.
pub struct PmfsMmap {
    dev: Arc<NvmmDevice>,
    /// Physical block of each file block covering the mapping.
    blocks: Vec<u64>,
    /// Offset of the mapping start within the first block.
    first_off: usize,
    len: usize,
}

impl PmfsMmap {
    /// Builds a mapping of `[off, off+len)` of the open file, allocating
    /// (zeroed) blocks for any holes in the range. The range must lie
    /// within the file.
    pub fn new(fs: &Pmfs, of: &OpenFile<InodeMem>, off: u64, len: usize) -> Result<PmfsMmap> {
        if len == 0 {
            return Err(FsError::InvalidArgument("empty mapping"));
        }
        let dev = fs.device().clone();
        let mut state = of.handle.state.write();
        if off + len as u64 > state.size {
            return Err(FsError::InvalidArgument("mapping beyond end of file"));
        }
        // Every block of the range is taken for a hole: the reservation
        // then covers whatever the tree lacks.
        let iblks = off / BLOCK_SIZE as u64..(off + len as u64).div_ceil(BLOCK_SIZE as u64);
        let credits = fs.reserve_core()?;
        let mut held = match fs
            .allocator()
            .reserve(file::blocks_for(&state, iblks.clone()))
        {
            Ok(held) => held,
            Err(e) => {
                fs.journal().unreserve(credits);
                return Err(e);
            }
        };
        let tx = fs.journal().begin_reserved(credits);
        let mut blocks = Vec::with_capacity(iblks.clone().count());
        let mapped = state.blocks;
        let mut fresh = FreshRun::new(&dev, fs.allocator(), &mut held);
        for iblk in iblks {
            let pblk = match tree::lookup(&dev, &state, iblk) {
                Some(p) => p,
                None => {
                    let p = fresh.alloc(&mut state, iblk);
                    dev.zero_persist(Cat::Meta, Layout::block_off(p), BLOCK_SIZE);
                    p
                }
            };
            blocks.push(pblk);
        }
        fresh.link(&mut state);
        if state.blocks != mapped {
            fs.log_core(&tx, &of.handle, &state);
        }
        drop(state);
        fs.journal().commit(tx);
        fs.allocator().unreserve(held);
        Ok(PmfsMmap {
            dev,
            blocks,
            first_off: (off % BLOCK_SIZE as u64) as usize,
            len,
        })
    }

    fn check(&self, off: usize, len: usize) -> Result<()> {
        if off.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(FsError::InvalidArgument("mmap access out of range"));
        }
        Ok(())
    }

    /// Iterates `(device_offset, start, len)` segments covering the range.
    fn segments(&self, off: usize, len: usize) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        let mut done = 0;
        while done < len {
            let pos = self.first_off + off + done;
            let bidx = pos / BLOCK_SIZE;
            let in_blk = pos % BLOCK_SIZE;
            let chunk = (BLOCK_SIZE - in_blk).min(len - done);
            let dev_off = Layout::block_off(self.blocks[bidx]) + in_blk as u64;
            out.push((dev_off, done, chunk));
            done += chunk;
        }
        out
    }
}

impl MmapHandle for PmfsMmap {
    fn len(&self) -> usize {
        self.len
    }

    fn load(&self, off: usize, buf: &mut [u8]) -> Result<()> {
        self.check(off, buf.len())?;
        for (dev_off, start, len) in self.segments(off, buf.len()) {
            self.dev
                .read(Cat::UserRead, dev_off, &mut buf[start..start + len]);
        }
        Ok(())
    }

    fn store(&self, off: usize, data: &[u8]) -> Result<()> {
        self.check(off, data.len())?;
        for (dev_off, start, len) in self.segments(off, data.len()) {
            self.dev
                .write_cached(Cat::UserWrite, dev_off, &data[start..start + len]);
        }
        Ok(())
    }

    fn msync(&self, off: usize, len: usize) -> Result<()> {
        self.check(off, len)?;
        for (dev_off, _, seg_len) in self.segments(off, len) {
            self.dev.clflush(Cat::UserWrite, dev_off, seg_len);
        }
        self.dev.sfence();
        Ok(())
    }
}
