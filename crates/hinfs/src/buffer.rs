//! The DRAM write buffer: block budget, per-shard pools, Cacheline
//! Bitmaps, and per-file buffered state.
//!
//! The mount has *one* budget of 4 KiB DRAM blocks — the paper's one
//! buffer, with one `Low_f`/`High_f` over it — kept as an atomic count of
//! the free ones. Each shard's [`Pool`] is an arena of slots with its own
//! LRW list behind the shard's lock; a slot is only occupied while it
//! holds a block of the budget ([`Pool::alloc_slot`] takes one,
//! [`Pool::release_slot`] returns it — the only two places), and an arena
//! grows to what its shard has actually held. So any one file may fill
//! the whole buffer, and which shard gives blocks back is a policy
//! ([`crate::writeback::reclaim_plan`]), not a partition. Each block
//! carries two 64-bit *Cacheline Bitmaps* (paper §3.2.1):
//!
//! - `valid` — which 64 B lines hold data (fetched from NVMM or written);
//! - `dirty` — which lines differ from NVMM and must be written back.
//!
//! CLFW (Cacheline Level Fetch/Writeback) operates on these masks: an
//! unaligned write only fetches the lines it partially overwrites, and
//! writeback only persists the dirty lines.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nvmm::{BLOCK_SIZE, CACHELINE};

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

/// Slots per arena growth step (256 KiB of payload: the allocator hands
/// such a chunk out as untouched zero pages).
const CHUNK_SLOTS: usize = 64;

/// One shard's slot arena with its LRW list.
#[derive(Debug)]
pub struct Pool {
    /// The mount's free blocks, shared by every shard's pool.
    budget: Arc<AtomicUsize>,
    chunks: Vec<Box<[u8]>>,
    meta: Vec<BlockMeta>,
    free: Vec<u32>,
    /// The shard's LRW list over occupied slots.
    pub lrw: LrwList,
}

impl Pool {
    /// Creates an empty pool drawing on `budget`.
    pub fn new(budget: Arc<AtomicUsize>) -> Pool {
        Pool {
            budget,
            chunks: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            lrw: LrwList::new(0),
        }
    }

    /// Slots this arena has grown to (occupied or locally free).
    pub fn slots(&self) -> usize {
        self.meta.len()
    }

    /// Arena slots holding no block.
    pub fn idle_slots(&self) -> usize {
        self.free.len()
    }

    /// Takes a block of the budget, if any is free, binding a slot to
    /// `(ino, iblk)` and linking it at the MRW end.
    pub fn alloc_slot(&mut self, ino: u64, iblk: u64, now: u64) -> Option<u32> {
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1))
            .ok()?;
        if self.free.is_empty() {
            let base = self.meta.len();
            self.chunks
                .push(vec![0u8; CHUNK_SLOTS * BLOCK_SIZE].into_boxed_slice());
            self.meta.resize(base + CHUNK_SLOTS, BlockMeta::empty());
            self.lrw.grow(base + CHUNK_SLOTS);
            self.free
                .extend((base as u32..(base + CHUNK_SLOTS) as u32).rev());
        }
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

    /// Unlinks a slot and returns its block to the budget.
    pub fn release_slot(&mut self, slot: u32) {
        self.lrw.unlink(slot);
        self.meta[slot as usize] = BlockMeta::empty();
        self.free.push(slot);
        self.budget.fetch_add(1, Ordering::Relaxed);
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
        let b = slot as usize % CHUNK_SLOTS * BLOCK_SIZE;
        &self.chunks[slot as usize / CHUNK_SLOTS][b..b + BLOCK_SIZE]
    }

    /// Mutable payload of a slot.
    pub fn block_mut(&mut self, slot: u32) -> &mut [u8] {
        let b = slot as usize % CHUNK_SLOTS * BLOCK_SIZE;
        &mut self.chunks[slot as usize / CHUNK_SLOTS][b..b + BLOCK_SIZE]
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
    /// Whether the block is in the Eager-Persistent state (set by the last
    /// evaluation; decays with the file's `last_sync_ns`).
    pub eager: bool,
}

/// Per-file buffered state: the DRAM Block Index plus policy bookkeeping.
#[derive(Debug, Default)]
pub struct FileBuf {
    /// DRAM Block Index: file block -> pool slot, std's B-tree in DRAM
    /// (paper §3.2, Fig 5); iteration is in ascending block order.
    pub index: BTreeMap<u64, u32>,
    /// Buffer Benefit Model state per block, the Eager-Persistent flag
    /// included.
    pub bbm: HashMap<u64, BlockStats>,
    /// Open lazy transactions in begin order (commit must follow this
    /// order; see `tracker`).
    pub txs: VecDeque<LocalTx>,
    /// Last synchronization time of the file (drives Eager→Lazy decay).
    pub last_sync_ns: u64,
    /// While a direct mapping is live every write is eager (paper §4.2).
    pub mmap_pinned: bool,
    /// Buffered blocks with dirty lines over a hole: the *carriers* whose
    /// flush persists the file's in-DRAM core (see `tracker`). Counted
    /// where a slot turns dirty and where it is retired.
    pub dirty_holes: usize,
}

impl FileBuf {
    /// Creates empty per-file state.
    pub fn new() -> FileBuf {
        FileBuf::default()
    }
}

/// One shard of the buffer behind one lock: pool plus per-file state.
#[derive(Debug)]
pub struct Shared {
    pool: Pool,
    /// Per-inode buffered state.
    pub files: HashMap<u64, FileBuf>,
    /// Number of occupied slots with at least one dirty line.
    pub dirty_blocks: usize,
}

impl Shared {
    /// An empty shard drawing on `budget`.
    pub fn init(budget: Arc<AtomicUsize>) -> Shared {
        Shared {
            pool: Pool::new(budget),
            files: HashMap::new(),
            dirty_blocks: 0,
        }
    }

    /// The pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Mutable pool access.
    pub fn pool_mut(&mut self) -> &mut Pool {
        &mut self.pool
    }

    /// Per-file state, created on first touch.
    pub fn file_mut(&mut self, ino: u64) -> &mut FileBuf {
        self.files.entry(ino).or_default()
    }

    /// Looks up the pool slot buffering `(ino, iblk)`.
    pub fn slot_of(&self, ino: u64, iblk: u64) -> Option<u32> {
        self.files.get(&ino)?.index.get(&iblk).copied()
    }

    /// The carriers of `ino` buffered now ([`FileBuf::dirty_holes`]).
    pub fn carriers(&self, ino: u64) -> usize {
        self.files.get(&ino).map_or(0, |f| f.dirty_holes)
    }

    /// The buffered blocks of `ino` with dirty lines that start below
    /// `size`: what must reach NVMM before a core of that size commits.
    pub fn dirty_below(&self, ino: u64, size: u64) -> Vec<u64> {
        let end = size.div_ceil(BLOCK_SIZE as u64);
        self.files.get(&ino).map_or_else(Vec::new, |f| {
            f.index
                .range(..end)
                .filter(|&(_, &slot)| self.pool.meta(slot).dirty != 0)
                .map(|(&iblk, _)| iblk)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(nblocks: usize) -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(nblocks))
    }

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
        let budget = budget(4);
        let mut p = Pool::new(budget.clone());
        let free = || budget.load(Ordering::Relaxed);
        assert_eq!((free(), p.slots()), (4, 0), "no arena before use");
        let a = p.alloc_slot(1, 0, 100).unwrap();
        let b = p.alloc_slot(1, 1, 101).unwrap();
        assert_ne!(a, b);
        assert_eq!(free(), 2);
        assert_eq!(p.lrw.tail(), Some(a), "first written is LRW victim");
        assert_eq!(p.meta(b).iblk, 1);
        p.release_slot(a);
        assert_eq!(free(), 3);
        assert_eq!(p.lrw.tail(), Some(b));
        assert_eq!(p.lrw.len() + p.idle_slots(), p.slots());
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let budget = budget(2);
        let (mut p, mut q) = (Pool::new(budget.clone()), Pool::new(budget.clone()));
        let a = p.alloc_slot(1, 0, 0).unwrap();
        q.alloc_slot(2, 0, 0).unwrap();
        assert!(
            p.alloc_slot(1, 1, 0).is_none(),
            "the budget, not the arena, is out"
        );
        assert!(q.alloc_slot(2, 1, 0).is_none());
        p.release_slot(a);
        assert!(
            q.alloc_slot(2, 1, 0).is_some(),
            "a block p gave back serves q"
        );
        assert_eq!(budget.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn block_data_is_per_slot() {
        let mut p = Pool::new(budget(3));
        let a = p.alloc_slot(1, 0, 0).unwrap();
        let b = p.alloc_slot(1, 1, 0).unwrap();
        p.block_mut(a)[0..4].copy_from_slice(&[1, 2, 3, 4]);
        p.block_mut(b)[0..4].copy_from_slice(&[5, 6, 7, 8]);
        assert_eq!(&p.block(a)[0..4], &[1, 2, 3, 4]);
        assert_eq!(&p.block(b)[0..4], &[5, 6, 7, 8]);
    }

    #[test]
    fn shared_file_state_on_demand() {
        let mut sh = Shared::init(budget(4));
        assert!(sh.slot_of(7, 0).is_none());
        let now = 5;
        let slot = sh.pool_mut().alloc_slot(7, 3, now).unwrap();
        sh.file_mut(7).index.insert(3, slot);
        assert_eq!(sh.slot_of(7, 3), Some(slot));
        assert_eq!(sh.slot_of(7, 4), None);
    }
}
