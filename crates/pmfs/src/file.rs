//! PMFS direct-access data path.
//!
//! Reads copy straight from NVMM to the user buffer; writes copy straight
//! from the user buffer to NVMM with non-temporal stores, so data is
//! durable when the write returns. This is the single-copy behaviour of
//! Fig 3(b) — and the reason every write pays NVMM's long write latency on
//! the critical path, which Fig 1 quantifies.
//!
//! All functions operate on an inode's in-memory state; the caller holds
//! the inode lock and persists inode-core changes through its journal
//! transaction afterwards.

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::alloc::Allocator;
use crate::inode::InodeMem;
use crate::layout::Layout;
use crate::tree;

/// Maximum file size (1 TiB; well within a height-3 tree).
pub const MAX_FILE_SIZE: u64 = 1 << 40;

/// Reads up to `buf.len()` bytes at `off`. Returns bytes read (short at
/// EOF). Holes read as zeroes.
pub fn read_at(dev: &NvmmDevice, mem: &InodeMem, off: u64, buf: &mut [u8]) -> usize {
    if off >= mem.size {
        return 0;
    }
    let n = buf.len().min((mem.size - off) as usize);
    let mut done = 0;
    while done < n {
        let pos = off + done as u64;
        let iblk = pos / BLOCK_SIZE as u64;
        let in_blk = (pos % BLOCK_SIZE as u64) as usize;
        let chunk = (BLOCK_SIZE - in_blk).min(n - done);
        match tree::lookup(dev, mem, iblk) {
            Some(pblk) => {
                dev.read(
                    Cat::UserRead,
                    Layout::block_off(pblk) + in_blk as u64,
                    &mut buf[done..done + chunk],
                );
            }
            None => {
                // Hole: zero-fill at DRAM copy cost.
                buf[done..done + chunk].fill(0);
                dev.env().charge_dram_copy(Cat::UserRead, chunk);
            }
        }
        done += chunk;
    }
    n
}

/// Fresh blocks for one run of consecutive file blocks: allocated, being
/// filled by the caller, not yet reachable. [`FreshRun::link`] fences the
/// fill and makes the run reachable with one [`tree::insert_run`] — fill
/// before link, so a crash never exposes what a recycled block held
/// before. Blocks still unlinked when the run is dropped (an error cut
/// the operation short) return to the allocator.
pub(crate) struct FreshRun<'a> {
    dev: &'a NvmmDevice,
    alloc: &'a Allocator,
    start: u64,
    blocks: Vec<u64>,
}

impl<'a> FreshRun<'a> {
    pub(crate) fn new(dev: &'a NvmmDevice, alloc: &'a Allocator) -> Self {
        FreshRun {
            dev,
            alloc,
            start: 0,
            blocks: Vec::new(),
        }
    }

    /// Allocates the block that will back file block `iblk` (a hole). A
    /// pending run that `iblk` does not extend is linked first.
    pub(crate) fn alloc(&mut self, mem: &mut InodeMem, iblk: u64) -> Result<u64> {
        if self.start + self.blocks.len() as u64 != iblk {
            self.link(mem)?;
            self.start = iblk;
        }
        let p = self.alloc.alloc()?;
        self.blocks.push(p);
        Ok(p)
    }

    /// Links the pending run, if any, and counts it in `mem.blocks`.
    pub(crate) fn link(&mut self, mem: &mut InodeMem) -> Result<()> {
        if self.blocks.is_empty() {
            return Ok(());
        }
        self.dev.sfence();
        let linked = tree::insert_run(self.dev, self.alloc, mem, self.start, &self.blocks)?;
        mem.blocks += linked as u64;
        // What the tree had no node for stays ours to free.
        self.blocks.drain(..linked);
        if self.blocks.is_empty() {
            Ok(())
        } else {
            Err(FsError::NoSpace)
        }
    }
}

impl Drop for FreshRun<'_> {
    fn drop(&mut self) {
        for &p in &self.blocks {
            self.alloc.free(p);
        }
    }
}

/// Writes `data` at `off` with direct, durable stores. Allocates blocks as
/// needed (zeroing the uncovered parts of fresh blocks), links each run of
/// consecutive fresh blocks once it is filled, and updates
/// `mem.size`/`mem.blocks`/`mem.mtime` in memory. Always returns `true`:
/// `mtime` advances, so the caller must journal the inode core.
pub fn write_at(
    dev: &NvmmDevice,
    alloc: &Allocator,
    mem: &mut InodeMem,
    off: u64,
    data: &[u8],
    now: u64,
) -> Result<bool> {
    if data.is_empty() {
        return Ok(false);
    }
    let end = off
        .checked_add(data.len() as u64)
        .filter(|&e| e <= MAX_FILE_SIZE)
        .ok_or(FsError::FileTooLarge)?;
    let mut fresh = FreshRun::new(dev, alloc);
    let mut done = 0;
    while done < data.len() {
        let pos = off + done as u64;
        let iblk = pos / BLOCK_SIZE as u64;
        let in_blk = (pos % BLOCK_SIZE as u64) as usize;
        let chunk = (BLOCK_SIZE - in_blk).min(data.len() - done);
        let pblk = match tree::lookup(dev, mem, iblk) {
            Some(p) => p,
            None => {
                let p = fresh.alloc(mem, iblk)?;
                let base = Layout::block_off(p);
                // Zero the parts of the fresh block the write leaves
                // uncovered so holes and later extensions read as zeroes.
                if in_blk > 0 {
                    dev.zero_persist(Cat::UserWrite, base, in_blk);
                }
                let tail = in_blk + chunk;
                if tail < BLOCK_SIZE {
                    dev.zero_persist(Cat::UserWrite, base + tail as u64, BLOCK_SIZE - tail);
                }
                p
            }
        };
        dev.write_persist(
            Cat::UserWrite,
            Layout::block_off(pblk) + in_blk as u64,
            &data[done..done + chunk],
        );
        done += chunk;
    }
    if fresh.blocks.is_empty() {
        dev.sfence();
    } else {
        // Its fence orders the in-place writes above as well.
        fresh.link(mem)?;
    }
    if end > mem.size {
        mem.size = end;
    }
    mem.mtime = now;
    Ok(true)
}

/// Truncates (or extends with a hole) to `size`. Updates `mem` in memory;
/// returns `None` when the inode core did not change, else the tree nodes
/// the cut emptied, for the caller to recycle once its transaction has
/// committed.
pub fn truncate<'a>(
    dev: &NvmmDevice,
    alloc: &'a Allocator,
    mem: &mut InodeMem,
    size: u64,
    now: u64,
) -> Result<Option<tree::Emptied<'a>>> {
    if size > MAX_FILE_SIZE {
        return Err(FsError::FileTooLarge);
    }
    if size == mem.size {
        return Ok(None);
    }
    let emptied = if size < mem.size {
        let keep_blocks = size.div_ceil(BLOCK_SIZE as u64);
        let (freed, emptied) = tree::remove_from(dev, alloc, mem, keep_blocks);
        uncount_blocks(mem, freed);
        // Zero the tail of the new last block so a later extension reads
        // zeroes, not stale bytes.
        let in_blk = (size % BLOCK_SIZE as u64) as usize;
        if in_blk != 0 {
            if let Some(pblk) = tree::lookup(dev, mem, size / BLOCK_SIZE as u64) {
                dev.zero_persist(
                    Cat::UserWrite,
                    Layout::block_off(pblk) + in_blk as u64,
                    BLOCK_SIZE - in_blk,
                );
            }
        }
        dev.sfence();
        emptied
    } else {
        tree::Emptied::none(alloc)
    };
    mem.size = size;
    mem.mtime = now;
    Ok(Some(emptied))
}

/// Takes `freed` data blocks off `mem.blocks`. The tree can hold more
/// blocks than the core counts: a run is linked (unjournaled pointer
/// persists) before the core that counts it is persisted, so a crash in
/// between leaves the blocks reachable and the count behind. Freeing them
/// later is correct — the allocator rebuild marked them used — and brings
/// the count back in line instead of wrapping it.
fn uncount_blocks(mem: &mut InodeMem, freed: u64) {
    mem.blocks = mem.blocks.saturating_sub(freed);
}

/// Frees every data block of the file (unlink path) and returns its tree
/// nodes, for the caller to recycle once its transaction has committed.
pub fn free_all<'a>(
    dev: &NvmmDevice,
    alloc: &'a Allocator,
    mem: &mut InodeMem,
) -> tree::Emptied<'a> {
    let (freed, emptied) = tree::remove_from(dev, alloc, mem, 0);
    uncount_blocks(mem, freed);
    debug_assert_eq!(mem.blocks, 0, "core counts blocks the tree does not hold");
    mem.size = 0;
    emptied
}

#[cfg(test)]
mod tests {
    use super::*;
    use fskit::FileType;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    fn setup() -> (Arc<NvmmDevice>, Allocator, InodeMem) {
        let blocks = 8192u64;
        let dev = NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 16, 128).unwrap();
        (
            dev,
            Allocator::new_empty(&layout),
            InodeMem::new(FileType::File, 0),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let (dev, alloc, mut mem) = setup();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write_at(&dev, &alloc, &mut mem, 0, &data, 1).unwrap();
        assert_eq!(mem.size, 10_000);
        assert_eq!(mem.blocks, 3);
        let mut buf = vec![0u8; 10_000];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 10_000);
        assert_eq!(buf, data);
    }

    #[test]
    fn unaligned_overwrite() {
        let (dev, alloc, mut mem) = setup();
        write_at(&dev, &alloc, &mut mem, 0, &[1u8; 8192], 1).unwrap();
        write_at(&dev, &alloc, &mut mem, 1000, &[2u8; 3000], 2).unwrap();
        let mut buf = vec![0u8; 8192];
        read_at(&dev, &mem, 0, &mut buf);
        assert!(buf[..1000].iter().all(|&b| b == 1));
        assert!(buf[1000..4000].iter().all(|&b| b == 2));
        assert!(buf[4000..].iter().all(|&b| b == 1));
        assert_eq!(mem.size, 8192, "overwrite does not grow");
    }

    #[test]
    fn sparse_write_reads_zero_holes() {
        let (dev, alloc, mut mem) = setup();
        write_at(&dev, &alloc, &mut mem, 3 * 4096 + 100, b"tail", 1).unwrap();
        assert_eq!(mem.size, 3 * 4096 + 104);
        assert_eq!(mem.blocks, 1, "only the written block is allocated");
        let mut buf = vec![0xffu8; 4096];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 0), "hole reads zero");
        let mut tail = [0u8; 4];
        read_at(&dev, &mem, 3 * 4096 + 100, &mut tail);
        assert_eq!(&tail, b"tail");
    }

    #[test]
    fn fresh_partial_block_is_zero_padded() {
        let (dev, alloc, mut mem) = setup();
        write_at(&dev, &alloc, &mut mem, 100, b"mid", 1).unwrap();
        // Bytes 0..100 of the block were never written but are allocated.
        let mut head = [0xffu8; 100];
        read_at(&dev, &mem, 0, &mut head);
        assert!(head.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_past_eof_is_short() {
        let (dev, alloc, mut mem) = setup();
        write_at(&dev, &alloc, &mut mem, 0, &[7u8; 100], 1).unwrap();
        let mut buf = [0u8; 200];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 100);
        assert_eq!(read_at(&dev, &mem, 100, &mut buf), 0);
        assert_eq!(read_at(&dev, &mem, 5000, &mut buf), 0);
    }

    #[test]
    fn truncate_shrink_frees_and_zeroes() {
        let (dev, alloc, mut mem) = setup();
        let free0 = alloc.free_blocks();
        write_at(&dev, &alloc, &mut mem, 0, &[9u8; 3 * 4096], 1).unwrap();
        truncate(&dev, &alloc, &mut mem, 4096 + 50, 2).unwrap();
        assert_eq!(mem.size, 4096 + 50);
        assert_eq!(mem.blocks, 2);
        // Extend again: the region beyond the old cut must read zero.
        truncate(&dev, &alloc, &mut mem, 3 * 4096, 3).unwrap();
        let mut buf = vec![0xffu8; 4096];
        read_at(&dev, &mem, 4096, &mut buf);
        assert!(buf[..50].iter().all(|&b| b == 9));
        assert!(buf[50..].iter().all(|&b| b == 0), "stale tail zeroed");
        // Full free returns all blocks.
        drop(free_all(&dev, &alloc, &mut mem));
        assert_eq!(mem.size, 0);
        assert_eq!(alloc.free_blocks(), free0);
    }

    #[test]
    fn write_too_large_rejected() {
        let (dev, alloc, mut mem) = setup();
        assert_eq!(
            write_at(&dev, &alloc, &mut mem, MAX_FILE_SIZE, b"x", 1),
            Err(FsError::FileTooLarge)
        );
    }

    #[test]
    fn writes_are_durable_without_fsync() {
        let blocks = 4096u64;
        let dev = NvmmDevice::new_tracked(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 16, 128).unwrap();
        let alloc = Allocator::new_empty(&layout);
        let mut mem = InodeMem::new(FileType::File, 0);
        write_at(&dev, &alloc, &mut mem, 0, &[3u8; 5000], 1).unwrap();
        dev.crash();
        let mut buf = vec![0u8; 5000];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 5000);
        assert!(buf.iter().all(|&b| b == 3), "direct writes survive a crash");
    }
}
