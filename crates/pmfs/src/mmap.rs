//! Direct memory-mapped I/O (PMFS-style).
//!
//! A mapping translates loads and stores straight to the NVMM blocks of the
//! file — one copy, no page cache. Stores go through the volatile (cached)
//! path and are *not* durable until `msync`, which flushes exactly the
//! dirtied cachelines, mirroring how CPU caches treat mapped NVMM.

use std::collections::BTreeSet;
use std::sync::Arc;

use fskit::{FsError, MmapHandle, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE, CACHELINE};
use parking_lot::Mutex;

use crate::file::FreshRun;
use crate::fs::{OpenFile, Pmfs};
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
    /// Absolute device cacheline indices dirtied since the last msync.
    dirty: Mutex<BTreeSet<u64>>,
}

impl PmfsMmap {
    /// Builds a mapping of `[off, off+len)` of the open file, allocating
    /// (zeroed) blocks for any holes in the range. The range must lie
    /// within the file.
    pub fn new(fs: &Pmfs, of: &OpenFile, off: u64, len: usize) -> Result<PmfsMmap> {
        if len == 0 {
            return Err(FsError::InvalidArgument("empty mapping"));
        }
        let dev = fs.device().clone();
        let mut state = of.handle.state.write();
        if off + len as u64 > state.size {
            return Err(FsError::InvalidArgument("mapping beyond end of file"));
        }
        let first_iblk = off / BLOCK_SIZE as u64;
        let last_iblk = (off + len as u64 - 1) / BLOCK_SIZE as u64;
        let tx = fs.journal().begin()?;
        let mapped = (|| -> Result<Vec<u64>> {
            let mut blocks = Vec::with_capacity((last_iblk - first_iblk + 1) as usize);
            let mut meta_changed = false;
            let mut fresh = FreshRun::new(&dev, fs.allocator());
            for iblk in first_iblk..=last_iblk {
                let pblk = match tree::lookup(&dev, &state, iblk) {
                    Some(p) => p,
                    None => {
                        let p = fresh.alloc(&mut state, iblk)?;
                        dev.zero_persist(Cat::Meta, Layout::block_off(p), BLOCK_SIZE);
                        meta_changed = true;
                        p
                    }
                };
                blocks.push(pblk);
            }
            fresh.link(&mut state)?;
            drop(fresh);
            if meta_changed {
                let snap = *state;
                drop(state);
                fs.log_write_inode(&tx, of.ino, &snap)?;
            }
            Ok(blocks)
        })();
        let blocks = match mapped {
            Ok(blocks) => {
                fs.journal().commit(tx);
                blocks
            }
            Err(e) => {
                // An open record would pin the journal ring forever.
                fs.journal().abort(tx);
                return Err(e);
            }
        };
        Ok(PmfsMmap {
            dev,
            blocks,
            first_off: (off % BLOCK_SIZE as u64) as usize,
            len,
            dirty: Mutex::new(BTreeSet::new()),
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
        let mut dirty = self.dirty.lock();
        for (dev_off, start, len) in self.segments(off, data.len()) {
            self.dev
                .write_cached(Cat::UserWrite, dev_off, &data[start..start + len]);
            let first = dev_off / CACHELINE as u64;
            let last = (dev_off + len as u64 - 1) / CACHELINE as u64;
            for line in first..=last {
                dirty.insert(line);
            }
        }
        Ok(())
    }

    fn msync(&self, off: usize, len: usize) -> Result<()> {
        self.check(off, len)?;
        let mut dirty = self.dirty.lock();
        // Collect the dirty lines that fall inside the synced range.
        let mut in_range: Vec<u64> = Vec::new();
        for (dev_off, _, seg_len) in self.segments(off, len) {
            let first = dev_off / CACHELINE as u64;
            let last = (dev_off + seg_len as u64 - 1) / CACHELINE as u64;
            for line in dirty.range(first..=last) {
                in_range.push(*line);
            }
        }
        // Flush coalesced runs of consecutive lines.
        let mut i = 0;
        while i < in_range.len() {
            let start = in_range[i];
            let mut end = start;
            while i + 1 < in_range.len() && in_range[i + 1] == end + 1 {
                i += 1;
                end = in_range[i];
            }
            self.dev.clflush(
                Cat::UserWrite,
                start * CACHELINE as u64,
                ((end - start + 1) as usize) * CACHELINE,
            );
            i += 1;
        }
        for line in &in_range {
            dirty.remove(line);
        }
        self.dev.sfence();
        Ok(())
    }
}
