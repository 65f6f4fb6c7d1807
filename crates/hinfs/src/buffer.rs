//! The DRAM write buffer: block pool, Cacheline Bitmaps, and per-file
//! buffered state.
//!
//! The pool is a flat arena of 4 KiB DRAM blocks. Each block carries two
//! 64-bit *Cacheline Bitmaps* (paper §3.2.1):
//!
//! - `valid` — which 64 B lines hold data (fetched from NVMM or written);
//! - `dirty` — which lines differ from NVMM and must be written back.
//!
//! CLFW (Cacheline Level Fetch/Writeback) operates on these masks: an
//! unaligned write only fetches the lines it partially overwrites, and
//! writeback only persists the dirty lines.

use std::collections::{HashMap, HashSet, VecDeque};

use nvmm::{BLOCK_SIZE, CACHELINE, LINES_PER_BLOCK};

use crate::index::BTreeIndex;
use crate::lrw::LrwList;

/// A full cacheline mask (all 64 lines of a block).
pub const FULL_MASK: u64 = u64::MAX;

/// Returns the mask of cachelines touched by `[off, off+len)` within a
/// block.
///
/// # Examples
///
/// ```
/// // Bytes 0..112 touch lines 0 and 1.
/// assert_eq!(hinfs::buffer::range_mask(0, 112), 0b11);
/// assert_eq!(hinfs::buffer::range_mask(64, 64), 0b10);
/// assert_eq!(hinfs::buffer::range_mask(0, 4096), u64::MAX);
/// ```
pub fn range_mask(off: usize, len: usize) -> u64 {
    debug_assert!(off + len <= BLOCK_SIZE);
    if len == 0 {
        return 0;
    }
    let first = off / CACHELINE;
    let last = (off + len - 1) / CACHELINE;
    let n = last - first + 1;
    if n >= 64 {
        FULL_MASK
    } else {
        ((1u64 << n) - 1) << first
    }
}

/// Returns the mask of cachelines *fully covered* by `[off, off+len)` —
/// these lines can be overwritten without a fetch.
pub fn covered_mask(off: usize, len: usize) -> u64 {
    debug_assert!(off + len <= BLOCK_SIZE);
    if len < CACHELINE {
        return 0;
    }
    let first = off.div_ceil(CACHELINE);
    let last = (off + len) / CACHELINE; // exclusive
    if last <= first {
        return 0;
    }
    let n = last - first;
    if n >= 64 {
        FULL_MASK
    } else {
        ((1u64 << n) - 1) << first
    }
}

/// Iterates the maximal runs of consecutive set bits as
/// `(first_line, line_count)` pairs — the paper's trick of using one
/// `memcpy` per run of consecutive cachelines with equal bitmap state.
pub fn runs(mask: u64) -> RunIter {
    RunIter { mask, base: 0 }
}

/// Iterator over consecutive-bit runs of a mask.
pub struct RunIter {
    mask: u64,
    base: u32,
}

impl Iterator for RunIter {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.mask == 0 {
            return None;
        }
        let skip = self.mask.trailing_zeros();
        self.mask >>= skip;
        let run = self.mask.trailing_ones();
        let start = self.base + skip;
        self.base += skip + run;
        self.mask = if run == 64 { 0 } else { self.mask >> run };
        Some((start, run))
    }
}

/// Metadata of one pooled DRAM block.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// Owning inode.
    pub ino: u64,
    /// File block number.
    pub iblk: u64,
    /// Lines holding data.
    pub valid: u64,
    /// Lines that must be written back.
    pub dirty: u64,
    /// Last write timestamp (drives the LRW order and the 30 s rule).
    pub last_write_ns: u64,
    /// The NVMM block this buffer block writes back to, if already known
    /// (the paper's Index Node stores both the DRAM and the NVMM block
    /// numbers, Fig 5). Zero = not yet mapped (allocate on flush).
    pub nvmm_block: u64,
    /// Lineage ack stamp of the clean→dirty transition (provenance of
    /// the data a later flush drains; default when lineage is off).
    pub stamp: obsv::Stamp,
}

impl BlockMeta {
    fn empty() -> BlockMeta {
        BlockMeta {
            ino: 0,
            iblk: 0,
            valid: 0,
            dirty: 0,
            last_write_ns: 0,
            nvmm_block: 0,
            stamp: obsv::Stamp::default(),
        }
    }
}

/// The DRAM block pool with its LRW list.
#[derive(Debug)]
pub struct Pool {
    data: Vec<u8>,
    meta: Vec<BlockMeta>,
    free: Vec<u32>,
    /// The global LRW list over occupied slots.
    pub lrw: LrwList,
    capacity: usize,
}

impl Pool {
    /// Creates a pool of `nblocks` DRAM blocks.
    pub fn new(nblocks: usize) -> Pool {
        assert!(nblocks >= 2, "pool needs at least two blocks");
        Pool {
            data: vec![0u8; nblocks * BLOCK_SIZE],
            meta: vec![BlockMeta::empty(); nblocks],
            free: (0..nblocks as u32).rev().collect(),
            lrw: LrwList::new(nblocks),
            capacity: nblocks,
        }
    }

    /// Total blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently free blocks.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Takes a free slot, if any, binding it to `(ino, iblk)` and linking
    /// it at the MRW end.
    pub fn alloc_slot(&mut self, ino: u64, iblk: u64, now: u64) -> Option<u32> {
        let slot = self.free.pop()?;
        self.meta[slot as usize] = BlockMeta {
            ino,
            iblk,
            valid: 0,
            dirty: 0,
            last_write_ns: now,
            nvmm_block: 0,
            stamp: obsv::Stamp::default(),
        };
        self.lrw.push_head(slot);
        Some(slot)
    }

    /// Unlinks and releases a slot.
    pub fn release_slot(&mut self, slot: u32) {
        self.lrw.unlink(slot);
        self.meta[slot as usize] = BlockMeta::empty();
        self.free.push(slot);
    }

    /// The metadata of a slot.
    pub fn meta(&self, slot: u32) -> &BlockMeta {
        &self.meta[slot as usize]
    }

    /// Mutable metadata of a slot.
    pub fn meta_mut(&mut self, slot: u32) -> &mut BlockMeta {
        &mut self.meta[slot as usize]
    }

    /// The 4 KiB payload of a slot.
    pub fn block(&self, slot: u32) -> &[u8] {
        let b = slot as usize * BLOCK_SIZE;
        &self.data[b..b + BLOCK_SIZE]
    }

    /// Mutable payload of a slot.
    pub fn block_mut(&mut self, slot: u32) -> &mut [u8] {
        let b = slot as usize * BLOCK_SIZE;
        &mut self.data[b..b + BLOCK_SIZE]
    }

    /// Number of dirty lines across a mask (helper for sizing flushes).
    pub fn dirty_lines(&self, slot: u32) -> u32 {
        self.meta[slot as usize].dirty.count_ones()
    }
}

/// One open lazy-persistent transaction of a file (paper §4.1): its journal
/// handle plus the file blocks whose DRAM data must reach NVMM before the
/// commit record may be written.
#[derive(Debug)]
pub struct LocalTx {
    /// The PMFS journal transaction, committed by the tracker.
    pub tx: pmfs::TxHandle,
    /// Witness that `tx` journaled this file's inode core.
    pub logged: pmfs::InodeLogged,
    /// File blocks still awaiting flush.
    pub pending: HashSet<u64>,
    /// Lineage ack stamp of the journaling op (the deferred commit's
    /// durability lag is measured against this).
    pub stamp: obsv::Stamp,
}

/// Buffer Benefit Model counters for one data block (paper §3.3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockStats {
    /// `N_cw`: cacheline writes since the previous synchronization.
    pub n_cw: u64,
    /// Ghost-buffer dirty mask: the lines that *would* be dirty had the
    /// block been buffered (maintained for eager blocks; index metadata
    /// only, no data — "less than 1 % of the total DRAM buffer space").
    pub ghost_dirty: u64,
    /// The previous synchronization's decision (`true` = lazy beneficial),
    /// for the Fig 6 accuracy measurement.
    pub prev_lazy: Option<bool>,
}

/// Per-file buffered state: the DRAM Block Index plus policy bookkeeping.
#[derive(Debug, Default)]
pub struct FileBuf {
    /// DRAM Block Index: file block -> pool slot.
    pub index: BTreeIndex<u32>,
    /// Blocks currently in the Eager-Persistent state, with the time the
    /// state was set.
    pub eager: HashMap<u64, u64>,
    /// Buffer Benefit Model state per block.
    pub bbm: HashMap<u64, BlockStats>,
    /// Open lazy transactions in begin order (commit must follow this
    /// order; see `tracker`).
    pub txs: VecDeque<LocalTx>,
    /// Last synchronization time of the file (drives Eager→Lazy decay).
    pub last_sync_ns: u64,
    /// While a direct mapping is live every write is eager (paper §4.2).
    pub mmap_pinned: bool,
}

impl FileBuf {
    /// Creates empty per-file state.
    pub fn new() -> FileBuf {
        FileBuf::default()
    }
}

/// The buffer half of HiNFS behind one lock: pool plus per-file state.
#[derive(Debug, Default)]
pub struct Shared {
    /// The DRAM block pool. `None` until `Shared::init`.
    pool: Option<Pool>,
    /// Per-inode buffered state.
    pub files: HashMap<u64, FileBuf>,
    /// Number of occupied slots with at least one dirty line.
    pub dirty_blocks: usize,
}

impl Shared {
    /// Initializes the pool.
    pub fn init(nblocks: usize) -> Shared {
        Shared {
            pool: Some(Pool::new(nblocks)),
            files: HashMap::new(),
            dirty_blocks: 0,
        }
    }

    /// The pool (panics if uninitialized — construction always inits).
    pub fn pool(&self) -> &Pool {
        self.pool.as_ref().expect("pool initialized")
    }

    /// Mutable pool access.
    pub fn pool_mut(&mut self) -> &mut Pool {
        self.pool.as_mut().expect("pool initialized")
    }

    /// Per-file state, created on first touch.
    pub fn file_mut(&mut self, ino: u64) -> &mut FileBuf {
        self.files.entry(ino).or_default()
    }

    /// Looks up the pool slot buffering `(ino, iblk)`.
    pub fn slot_of(&self, ino: u64, iblk: u64) -> Option<u32> {
        self.files.get(&ino)?.index.get(iblk).copied()
    }

    /// `(capacity, free, dirty)` block counts under one lock hold — the
    /// registry gauges.
    pub fn gauges(&self) -> (usize, usize, usize) {
        (
            self.pool().capacity(),
            self.pool().free_count(),
            self.dirty_blocks,
        )
    }

    /// Lines of `LINES_PER_BLOCK` sanity (compile-time shape check).
    pub const LINES: usize = LINES_PER_BLOCK;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_mask_edges() {
        assert_eq!(range_mask(0, 0), 0);
        assert_eq!(range_mask(0, 1), 1);
        assert_eq!(range_mask(63, 1), 1);
        assert_eq!(range_mask(63, 2), 0b11);
        assert_eq!(range_mask(4032, 64), 1 << 63);
        assert_eq!(range_mask(0, 4096), FULL_MASK);
        // The paper's example: writing 0..112 B touches two lines.
        assert_eq!(range_mask(0, 112).count_ones(), 2);
    }

    #[test]
    fn covered_mask_requires_full_lines() {
        assert_eq!(covered_mask(0, 64), 1);
        assert_eq!(covered_mask(1, 64), 0, "straddles two lines, covers none");
        assert_eq!(covered_mask(0, 112), 1, "only line 0 fully covered");
        assert_eq!(covered_mask(0, 4096), FULL_MASK);
        assert_eq!(covered_mask(32, 96), 0b10, "line 1 covered");
        assert_eq!(covered_mask(100, 20), 0);
    }

    #[test]
    fn partial_lines_need_fetch() {
        // The fetch set is "touched but not fully covered".
        let touched = range_mask(0, 112);
        let covered = covered_mask(0, 112);
        assert_eq!(touched & !covered, 0b10, "second line needs fetching");
    }

    #[test]
    fn runs_iterates_consecutive_groups() {
        assert_eq!(runs(0).collect::<Vec<_>>(), vec![]);
        assert_eq!(runs(1).collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(
            runs(0b0110_1101).collect::<Vec<_>>(),
            vec![(0, 1), (2, 2), (5, 2)]
        );
        assert_eq!(runs(FULL_MASK).collect::<Vec<_>>(), vec![(0, 64)]);
        assert_eq!(runs(1 << 63).collect::<Vec<_>>(), vec![(63, 1)]);
    }

    #[test]
    fn pool_alloc_release_cycle() {
        let mut p = Pool::new(4);
        assert_eq!(p.free_count(), 4);
        let a = p.alloc_slot(1, 0, 100).unwrap();
        let b = p.alloc_slot(1, 1, 101).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free_count(), 2);
        assert_eq!(p.lrw.tail(), Some(a), "first written is LRW victim");
        assert_eq!(p.meta(b).iblk, 1);
        p.release_slot(a);
        assert_eq!(p.free_count(), 3);
        assert_eq!(p.lrw.tail(), Some(b));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut p = Pool::new(2);
        p.alloc_slot(1, 0, 0).unwrap();
        p.alloc_slot(1, 1, 0).unwrap();
        assert!(p.alloc_slot(1, 2, 0).is_none());
    }

    #[test]
    fn block_data_is_per_slot() {
        let mut p = Pool::new(3);
        let a = p.alloc_slot(1, 0, 0).unwrap();
        let b = p.alloc_slot(1, 1, 0).unwrap();
        p.block_mut(a)[0..4].copy_from_slice(&[1, 2, 3, 4]);
        p.block_mut(b)[0..4].copy_from_slice(&[5, 6, 7, 8]);
        assert_eq!(&p.block(a)[0..4], &[1, 2, 3, 4]);
        assert_eq!(&p.block(b)[0..4], &[5, 6, 7, 8]);
    }

    #[test]
    fn shared_file_state_on_demand() {
        let mut sh = Shared::init(4);
        assert!(sh.slot_of(7, 0).is_none());
        let now = 5;
        let slot = sh.pool_mut().alloc_slot(7, 3, now).unwrap();
        sh.file_mut(7).index.insert(3, slot);
        assert_eq!(sh.slot_of(7, 3), Some(slot));
        assert_eq!(sh.slot_of(7, 4), None);
    }
}
