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

use std::ops::Range;

use fskit::vfs::chunks;
use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::alloc::{Allocator, Reserved};
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
    for (iblk, in_blk, r) in chunks(off, n) {
        match tree::lookup(dev, mem, iblk) {
            Some(pblk) => {
                dev.read(
                    Cat::UserRead,
                    Layout::block_off(pblk) + in_blk as u64,
                    &mut buf[r],
                );
            }
            None => {
                // Hole: zero-fill at DRAM copy cost.
                dev.env().charge_dram_copy(Cat::UserRead, r.len());
                buf[r].fill(0);
            }
        }
    }
    n
}

/// Fresh blocks for one run of consecutive file blocks: drawn from the
/// operation's reservation, being filled by the caller, not yet
/// reachable. [`FreshRun::link`] fences the fill and makes the run
/// reachable with one [`tree::insert_run`] — fill before link, so a
/// crash never exposes what a recycled block held before.
pub(crate) struct FreshRun<'a> {
    dev: &'a NvmmDevice,
    alloc: &'a Allocator,
    held: &'a mut Reserved,
    start: u64,
    blocks: Vec<u64>,
}

impl<'a> FreshRun<'a> {
    pub(crate) fn new(dev: &'a NvmmDevice, alloc: &'a Allocator, held: &'a mut Reserved) -> Self {
        FreshRun {
            dev,
            alloc,
            held,
            start: 0,
            blocks: Vec::new(),
        }
    }

    /// Allocates the block that will back file block `iblk` (a hole). A
    /// pending run that `iblk` does not extend is linked first.
    pub(crate) fn alloc(&mut self, mem: &mut InodeMem, iblk: u64) -> u64 {
        if self.start + self.blocks.len() as u64 != iblk {
            self.link(mem);
            self.start = iblk;
        }
        let (p, _) = self.alloc.alloc_reserved(self.held, false);
        self.blocks.push(p);
        p
    }

    /// Links the pending run, if any, and counts it in `mem.blocks`.
    pub(crate) fn link(&mut self, mem: &mut InodeMem) {
        if self.blocks.is_empty() {
            return;
        }
        self.dev.sfence();
        let linked = tree::insert_run(
            self.dev,
            self.alloc,
            self.held,
            mem,
            self.start,
            &self.blocks,
        );
        debug_assert_eq!(linked, Ok(()), "a fresh run over mapped slots");
        mem.blocks += self.blocks.len() as u64;
        self.blocks.clear();
    }
}

/// The end of a write of `len` bytes at `off`, or `FileTooLarge`.
pub fn end_of(off: u64, len: u64) -> Result<u64> {
    off.checked_add(len)
        .filter(|&e| e <= MAX_FILE_SIZE)
        .ok_or(FsError::FileTooLarge)
}

/// Blocks to reserve for writing the file blocks `iblks` of `mem`, which
/// may all be holes: one each, and the tree nodes that can map them.
pub fn blocks_for(mem: &InodeMem, iblks: Range<u64>) -> u64 {
    iblks.end - iblks.start + tree::nodes_bound(mem, &iblks)
}

/// Writes `data` at `off` with direct, durable stores, drawing the blocks
/// it allocates from `held` ([`blocks_for`] sized it). Zeroes the
/// uncovered parts of fresh blocks, links each run of consecutive fresh
/// blocks once it is filled, and updates `mem.size`/`mem.blocks`/
/// `mem.mtime` in memory; the caller journals the inode core. The gap a
/// start past EOF leaves in the tail block is the caller's
/// ([`zero_gap`]). `data` is not empty and ends at or below
/// [`MAX_FILE_SIZE`].
pub fn write_at(
    dev: &NvmmDevice,
    alloc: &Allocator,
    held: &mut Reserved,
    mem: &mut InodeMem,
    off: u64,
    data: &[u8],
    now: u64,
) {
    let mut fresh = FreshRun::new(dev, alloc, held);
    for (iblk, in_blk, r) in chunks(off, data.len()) {
        let pblk = match tree::lookup(dev, mem, iblk) {
            Some(p) => p,
            None => {
                let p = fresh.alloc(mem, iblk);
                let base = Layout::block_off(p);
                // Zero the parts of the fresh block the write leaves
                // uncovered so holes and later extensions read as zeroes.
                if in_blk > 0 {
                    dev.zero_persist(Cat::UserWrite, base, in_blk);
                }
                let tail = in_blk + r.len();
                if tail < BLOCK_SIZE {
                    dev.zero_persist(Cat::UserWrite, base + tail as u64, BLOCK_SIZE - tail);
                }
                p
            }
        };
        dev.write_persist(
            Cat::UserWrite,
            Layout::block_off(pblk) + in_blk as u64,
            &data[r],
        );
    }
    if fresh.blocks.is_empty() {
        dev.sfence();
    } else {
        // Its fence orders the in-place writes above as well.
        fresh.link(mem);
    }
    mem.size = mem.size.max(off + data.len() as u64);
    mem.mtime = now;
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
        // No fence of its own: the caller's journaling of the grown core
        // fences these zeroes before the size that exposes them lands.
        zero_gap(dev, mem, size);
        tree::Emptied::none(alloc)
    };
    mem.size = size;
    mem.mtime = now;
    Ok(Some(emptied))
}

/// Zeroes `[mem.size, end)` where it lies in the file's mapped tail
/// block, before an extend or a write past EOF exposes it: bytes past
/// EOF there may be stale — a crash between an in-place write and its
/// size store leaves them behind. Unfenced.
pub(crate) fn zero_gap(dev: &NvmmDevice, mem: &InodeMem, end: u64) {
    let (size, block) = (mem.size, BLOCK_SIZE as u64);
    if end <= size || size.is_multiple_of(block) {
        return;
    }
    if let Some(pblk) = tree::lookup(dev, mem, size / block) {
        let len = end.min(size.next_multiple_of(block)) - size;
        let at = Layout::block_off(pblk) + size % block;
        dev.zero_persist(Cat::UserWrite, at, len as usize);
    }
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
        let alloc = Allocator::new_empty(&layout, dev.contention());
        (dev, alloc, InodeMem::new(FileType::File, 0))
    }

    /// [`write_at`] under a reservation of every block the run can take.
    fn write(dev: &NvmmDevice, alloc: &Allocator, mem: &mut InodeMem, off: u64, data: &[u8]) {
        let iblks = off / BLOCK_SIZE as u64..(off + data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        let mut held = alloc.reserve(blocks_for(mem, iblks)).unwrap();
        write_at(dev, alloc, &mut held, mem, off, data, 1);
        alloc.unreserve(held);
    }

    #[test]
    fn write_read_roundtrip() {
        let (dev, alloc, mut mem) = setup();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write(&dev, &alloc, &mut mem, 0, &data);
        assert_eq!(mem.size, 10_000);
        assert_eq!(mem.blocks, 3);
        let mut buf = vec![0u8; 10_000];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 10_000);
        assert_eq!(buf, data);
    }

    #[test]
    fn unaligned_overwrite() {
        let (dev, alloc, mut mem) = setup();
        write(&dev, &alloc, &mut mem, 0, &[1u8; 8192]);
        write(&dev, &alloc, &mut mem, 1000, &[2u8; 3000]);
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
        write(&dev, &alloc, &mut mem, 3 * 4096 + 100, b"tail");
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
        write(&dev, &alloc, &mut mem, 100, b"mid");
        // Bytes 0..100 of the block were never written but are allocated.
        let mut head = [0xffu8; 100];
        read_at(&dev, &mem, 0, &mut head);
        assert!(head.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_past_eof_is_short() {
        let (dev, alloc, mut mem) = setup();
        write(&dev, &alloc, &mut mem, 0, &[7u8; 100]);
        let mut buf = [0u8; 200];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 100);
        assert_eq!(read_at(&dev, &mem, 100, &mut buf), 0);
        assert_eq!(read_at(&dev, &mem, 5000, &mut buf), 0);
    }

    #[test]
    fn truncate_shrink_frees_and_zeroes() {
        let (dev, alloc, mut mem) = setup();
        let free0 = alloc.free_blocks();
        write(&dev, &alloc, &mut mem, 0, &[9u8; 3 * 4096]);
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
        assert_eq!(end_of(MAX_FILE_SIZE, 1), Err(FsError::FileTooLarge));
        assert_eq!(end_of(MAX_FILE_SIZE - 1, 1), Ok(MAX_FILE_SIZE));
    }

    #[test]
    fn writes_are_durable_without_fsync() {
        let blocks = 4096u64;
        let dev = NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 16, 128).unwrap();
        let alloc = Allocator::new_empty(&layout, dev.contention());
        let mut mem = InodeMem::new(FileType::File, 0);
        write(&dev, &alloc, &mut mem, 0, &[3u8; 5000]);
        dev.crash();
        let mut buf = vec![0u8; 5000];
        assert_eq!(read_at(&dev, &mem, 0, &mut buf), 5000);
        assert!(buf.iter().all(|&b| b == 3), "direct writes survive a crash");
    }
}
