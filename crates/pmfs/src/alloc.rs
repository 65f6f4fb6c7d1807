//! Block allocator.
//!
//! Like PMFS, the allocator's bitmap lives in DRAM and is only *persisted*
//! on clean unmount (into the layout's bitmap region). After a crash the
//! bitmap is rebuilt at mount by walking the inode table and every file's
//! block tree, so block allocation never needs journaling — an allocated
//! but unreachable block simply returns to the free pool on recovery.
//!
//! Since PR 7 the data area is split into [`NSHARDS`] contiguous segments,
//! each guarded by its own lock (in the style of llfree-rs per-CPU trees):
//! `alloc` round-robins a preferred shard and *steals* from the next shard
//! in index order when the preferred one is empty, so concurrent writers
//! rarely collide on one lock while exhaustion still drains every segment.
//! `free`/`mark_used` route by block number to the owning segment. The
//! persisted image is still one global bitmap, bit-compatible with the
//! pre-sharding format.
//!
//! Each shard also keeps a small **zeroed pool**: free blocks known to hold
//! nothing but (fenced) zeroes — tree nodes [`crate::tree`] emptied, wiped
//! and parked here after the freeing transaction committed — which
//! [`Allocator::alloc_zeroed`] hands to the next new tree node so that it
//! need not persist 4 KiB of zeroes. The pool is as volatile as the bitmap:
//! a parked block is marked used in its shard (so `alloc_one` skips it) but
//! counts as free, is the last resort of [`Allocator::alloc`], is written
//! as free by [`Allocator::persist`], and after a crash is simply
//! unreachable, so the rebuild walk frees it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};
use obsv::{Site, TrackedMutex, NSHARDS};

use crate::layout::Layout;

#[derive(Debug)]
struct Shard {
    /// One bit per block of this shard's segment; set = in use.
    bitmap: Vec<u64>,
    free: u64,
    /// Next absolute block to try (min-reset on free).
    hint: u64,
    /// Absolute segment bounds `[start, end)`.
    start: u64,
    end: u64,
    /// The zeroed pool: blocks of this segment marked used above, owned by
    /// nobody and all-zero on the media. At most [`ZEROED_PER_SHARD`].
    zeroed: Vec<u64>,
}

/// Bound of each shard's zeroed pool. Wiping a node nobody takes back is
/// wasted work (a mount that unlinks but never maps), so the pool only has
/// to bridge the distance between an unlink and the next first flush.
const ZEROED_PER_SHARD: usize = 8;

impl Shard {
    fn new_segment(start: u64, end: u64) -> Shard {
        let nblocks = (end - start) as usize;
        Shard {
            bitmap: vec![0u64; nblocks.div_ceil(64)],
            free: end - start,
            hint: start,
            start,
            end,
            zeroed: Vec::new(),
        }
    }

    fn get(&self, b: u64) -> bool {
        let i = (b - self.start) as usize;
        self.bitmap[i / 64] & (1 << (i % 64)) != 0
    }

    fn set(&mut self, b: u64) {
        let i = (b - self.start) as usize;
        self.bitmap[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, b: u64) {
        let i = (b - self.start) as usize;
        self.bitmap[i / 64] &= !(1 << (i % 64));
    }

    /// Blocks nobody owns: clear in the bitmap, or parked.
    fn free_blocks(&self) -> u64 {
        self.free + self.zeroed.len() as u64
    }

    /// Returns the allocated block `b` to the bitmap.
    fn release(&mut self, b: u64) {
        self.clear(b);
        self.free += 1;
        self.hint = self.hint.min(b);
    }

    /// Allocates one block from this segment, or `None` when empty.
    fn alloc_one(&mut self) -> Option<u64> {
        if self.free == 0 {
            return None;
        }
        let start = self.hint.clamp(self.start, self.end - 1);
        let mut b = start;
        loop {
            if !self.get(b) {
                self.set(b);
                self.free -= 1;
                self.hint = if b + 1 < self.end { b + 1 } else { self.start };
                return Some(b);
            }
            b += 1;
            if b >= self.end {
                b = self.start;
            }
            if b == start {
                // `free` said there was space; the bitmap disagrees.
                return None;
            }
        }
    }
}

/// DRAM-resident block allocator over the data area, sharded into
/// [`NSHARDS`] independently locked segments.
#[derive(Debug)]
pub struct Allocator {
    shards: Vec<TrackedMutex<Shard>>,
    /// Round-robin cursor picking the preferred shard of the next `alloc`.
    next: AtomicUsize,
    data_start: u64,
    total_blocks: u64,
    /// Device whose fault-injection hook is consulted on `alloc` (attached
    /// at mount; absent in unit tests that build the allocator bare).
    fault_dev: std::sync::OnceLock<std::sync::Arc<NvmmDevice>>,
    /// [`Allocator::alloc_zeroed`] calls by whether a zeroed pool served
    /// them: `[the caller had to zero the block, recycled]`.
    nodes: [AtomicU64; 2],
}

/// Absolute bounds `[start, end)` of shard `i` over the data area.
fn segment(layout_data_start: u64, total_blocks: u64, i: usize) -> (u64, u64) {
    let data_blocks = total_blocks - layout_data_start;
    let per = data_blocks.div_ceil(NSHARDS as u64);
    let start = layout_data_start + per * i as u64;
    let end = (start + per).min(total_blocks);
    (start.min(total_blocks), end)
}

impl Allocator {
    /// Creates an allocator with every data block free. Metadata blocks
    /// (superblock, journal, inode table, bitmap image) sit below
    /// `data_start`, outside every shard, and are implicitly in use.
    pub fn new_empty(layout: &Layout) -> Allocator {
        Allocator::from_bits(layout.data_start, layout.total_blocks, |_| false)
    }

    /// Builds the shard array, marking block `b` used when `used(b)`.
    fn from_bits(data_start: u64, total_blocks: u64, used: impl Fn(u64) -> bool) -> Allocator {
        let shards = (0..NSHARDS)
            .map(|i| {
                let (start, end) = segment(data_start, total_blocks, i);
                let mut s = Shard::new_segment(start, end);
                for b in start..end {
                    if used(b) {
                        s.set(b);
                        s.free -= 1;
                    }
                }
                TrackedMutex::new(Site::pmfs_alloc_shard(i), s)
            })
            .collect();
        Allocator {
            shards,
            next: AtomicUsize::new(0),
            data_start,
            total_blocks,
            fault_dev: std::sync::OnceLock::new(),
            nodes: Default::default(),
        }
    }

    /// Attaches the device whose fault-injection plan `alloc` consults
    /// (ENOSPC injection), and wires every shard lock to the device's
    /// contention profiler. Later calls are ignored.
    pub fn attach_fault_device(&self, dev: std::sync::Arc<NvmmDevice>) {
        for shard in &self.shards {
            shard.attach(dev.contention());
        }
        let _ = self.fault_dev.set(dev);
    }

    /// Index of the shard owning block `blk`.
    fn shard_of(&self, blk: u64) -> usize {
        debug_assert!(blk >= self.data_start && blk < self.total_blocks);
        let per = (self.total_blocks - self.data_start).div_ceil(NSHARDS as u64);
        (((blk - self.data_start) / per) as usize).min(NSHARDS - 1)
    }

    /// Allocates one block, returning its absolute block number.
    ///
    /// Round-robins a preferred shard, then steals from the following
    /// shards in index order when the preferred segment is empty; the
    /// zeroed pools go last, so exhaustion still yields every block.
    pub fn alloc(&self) -> Result<u64> {
        self.take(false).map(|(b, _)| b)
    }

    /// Allocates the block of a new tree node: a parked block when any
    /// shard has one (`true`: it is all-zero and fenced), else as
    /// [`Allocator::alloc`] (`false`: the caller zeroes it).
    pub(crate) fn alloc_zeroed(&self) -> Result<(u64, bool)> {
        let got = self.take(true)?;
        self.nodes[got.1 as usize].fetch_add(1, Ordering::Relaxed);
        Ok(got)
    }

    /// One allocation — one consult of the ENOSPC fault hook — from the
    /// zeroed pools and the bitmaps, in the order `zeroed_first` says.
    /// Returns the block and whether it came out of a pool.
    fn take(&self, zeroed_first: bool) -> Result<(u64, bool)> {
        if let Some(dev) = self.fault_dev.get() {
            if nvmm::fault::alloc_blocked(dev) {
                return Err(FsError::NoSpace);
            }
        }
        let preferred = self.next.fetch_add(1, Ordering::Relaxed) % NSHARDS;
        let shards = || (0..NSHARDS).map(|k| self.shards[(preferred + k) % NSHARDS].lock());
        let parked = || Some((shards().find_map(|mut s| s.zeroed.pop())?, true));
        let fresh = || Some((shards().find_map(|mut s| s.alloc_one())?, false));
        let got = if zeroed_first {
            parked().or_else(fresh)
        } else {
            fresh().or_else(parked)
        };
        got.ok_or(FsError::NoSpace)
    }

    /// Whether the zeroed pool of `blk`'s shard has room: ask before
    /// paying for the wipe.
    pub(crate) fn zeroed_has_room(&self, blk: u64) -> bool {
        self.shards[self.shard_of(blk)].lock().zeroed.len() < ZEROED_PER_SHARD
    }

    /// Parks the allocated block `blk`, which the caller has wiped to
    /// zeroes and fenced, in its shard's zeroed pool — or frees it if the
    /// pool filled up since [`Allocator::zeroed_has_room`].
    pub(crate) fn park_zeroed(&self, blk: u64) {
        let mut shard = self.shards[self.shard_of(blk)].lock();
        assert!(shard.get(blk), "parking free block {blk}");
        debug_assert!(!shard.zeroed.contains(&blk), "block {blk} parked twice");
        if shard.zeroed.len() < ZEROED_PER_SHARD {
            shard.zeroed.push(blk);
        } else {
            shard.release(blk);
        }
    }

    /// Returns a block to the free pool of its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently allocated or is a metadata
    /// block (double free / corruption bugs should fail loudly in tests).
    pub fn free(&self, blk: u64) {
        assert!(
            blk >= self.data_start && blk < self.total_blocks,
            "freeing non-data block {blk}"
        );
        let mut shard = self.shards[self.shard_of(blk)].lock();
        assert!(shard.get(blk), "double free of block {blk}");
        shard.release(blk);
    }

    /// Marks a block as in use during the recovery walk. Metadata blocks
    /// (below the data area) are always in use and are ignored.
    pub fn mark_used(&self, blk: u64) {
        assert!(blk < self.total_blocks, "mark_used out of range: {blk}");
        if blk < self.data_start {
            return;
        }
        let mut shard = self.shards[self.shard_of(blk)].lock();
        if !shard.get(blk) {
            shard.set(blk);
            shard.free -= 1;
        }
    }

    /// Number of free data blocks across all shards, parked ones included.
    pub fn free_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().free_blocks()).sum()
    }

    /// Free data blocks per shard, in shard order (diagnostics).
    pub fn free_blocks_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().free_blocks()).collect()
    }

    /// The blocks parked in the zeroed pools, in shard order (diagnostics).
    pub fn zeroed_pool(&self) -> Vec<u64> {
        let parked = |s: &TrackedMutex<Shard>| s.lock().zeroed.clone();
        self.shards.iter().flat_map(parked).collect()
    }

    /// New tree nodes served pre-zeroed from the pool since mount.
    pub fn nodes_recycled(&self) -> u64 {
        self.nodes[1].load(Ordering::Relaxed)
    }

    /// Audit code 16 (`alloc.zeroed_pool`): every parked block is marked
    /// used in the shard that parks it, is parked once, and reads all-zero
    /// (through [`NvmmDevice::peek`]: no charge, no counter moves).
    pub(crate) fn audit_zeroed_pool(&self, dev: &NvmmDevice, rep: &mut obsv::AuditReport) {
        let mut buf = [0u8; BLOCK_SIZE];
        for shard in &self.shards {
            let shard = shard.lock();
            rep.check_le(16, 0, 0, shard.zeroed.len() as u64, ZEROED_PER_SHARD as u64);
            for &b in &shard.zeroed {
                dev.peek(Layout::block_off(b), &mut buf);
                let sound = (shard.start..shard.end).contains(&b)
                    && shard.get(b)
                    && shard.zeroed.iter().filter(|&&p| p == b).count() == 1
                    && buf.iter().all(|&x| x == 0);
                rep.check_eq(16, 0, b, sound as u64, 1);
            }
        }
    }

    /// Persists the bitmap image into the layout's bitmap region (clean
    /// unmount). The image is one global bitmap — bit-compatible with the
    /// pre-sharding on-device format.
    pub fn persist(&self, dev: &NvmmDevice, layout: &Layout) {
        let words = (self.total_blocks as usize).div_ceil(64);
        let mut bitmap = vec![0u64; words];
        let mut set = |b: u64| bitmap[(b / 64) as usize] |= 1 << (b % 64);
        for b in 0..self.data_start {
            set(b);
        }
        for shard in &self.shards {
            let shard = shard.lock();
            for b in shard.start..shard.end {
                if shard.get(b) && !shard.zeroed.contains(&b) {
                    set(b);
                }
            }
        }
        let mut bytes: Vec<u8> = Vec::with_capacity(words * 8);
        for w in &bitmap {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.resize(layout.bitmap_blocks as usize * BLOCK_SIZE, 0);
        dev.write_persist(Cat::Meta, Layout::block_off(layout.bitmap_start), &bytes);
        dev.sfence();
    }

    /// Loads the persisted bitmap image (mount after clean unmount),
    /// partitioning it back into shard segments.
    pub fn load(dev: &NvmmDevice, layout: &Layout) -> Allocator {
        let words = (layout.total_blocks as usize).div_ceil(64);
        let mut bytes = vec![0u8; words * 8];
        dev.read(
            Cat::Meta,
            Layout::block_off(layout.bitmap_start),
            &mut bytes,
        );
        let bitmap: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Allocator::from_bits(layout.data_start, layout.total_blocks, |b| {
            bitmap[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }
}

impl obsv::MetricSource for Allocator {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        out.counter("pmfs_tree_nodes_recycled", self.nodes_recycled());
        let zeroed = self.nodes[0].load(Ordering::Relaxed);
        out.counter("pmfs_tree_nodes_zeroed", zeroed);
        out.gauge("pmfs_alloc_zeroed_pool", self.zeroed_pool().len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    fn setup() -> (Arc<NvmmDevice>, Layout) {
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1024 * BLOCK_SIZE);
        let layout = Layout::compute(1024, 16, 256).unwrap();
        (dev, layout)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let initial = a.free_blocks();
        assert_eq!(initial, layout.data_blocks());
        let b1 = a.alloc().unwrap();
        let b2 = a.alloc().unwrap();
        assert!(b1 >= layout.data_start);
        assert_ne!(b1, b2);
        assert_eq!(a.free_blocks(), initial - 2);
        a.free(b1);
        assert_eq!(a.free_blocks(), initial - 1);
        // The freed block becomes allocatable again once the round-robin
        // cursor comes back to its shard.
        let mut seen = Vec::new();
        for _ in 0..NSHARDS {
            seen.push(a.alloc().unwrap());
        }
        assert!(seen.contains(&b1), "freed block not reallocated: {seen:?}");
    }

    #[test]
    fn round_robin_spreads_across_segments() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let picks: Vec<u64> = (0..NSHARDS).map(|_| a.alloc().unwrap()).collect();
        let shards: std::collections::HashSet<usize> =
            picks.iter().map(|&b| a.shard_of(b)).collect();
        assert_eq!(shards.len(), NSHARDS, "picks should hit every shard");
    }

    #[test]
    fn exhaustion_steals_then_returns_nospace() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..layout.data_blocks() {
            // Every allocation must be unique: the tail of the run drains
            // non-preferred shards through the steal path.
            assert!(seen.insert(a.alloc().unwrap()), "duplicate block");
        }
        assert_eq!(a.alloc(), Err(FsError::NoSpace));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let b = a.alloc().unwrap();
        a.free(b);
        a.free(b);
    }

    #[test]
    #[should_panic(expected = "non-data block")]
    fn freeing_metadata_block_panics() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        a.free(0);
    }

    #[test]
    fn persist_load_roundtrip() {
        let (dev, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let b1 = a.alloc().unwrap();
        let _b2 = a.alloc().unwrap();
        let b3 = a.alloc().unwrap();
        a.free(b3);
        a.persist(&dev, &layout);
        let loaded = Allocator::load(&dev, &layout);
        assert_eq!(loaded.free_blocks(), a.free_blocks());
        // b1 still allocated in the loaded map: freeing works, re-freeing
        // would panic (checked indirectly by alloc not returning b1 first).
        loaded.free(b1);
        assert_eq!(loaded.free_blocks(), a.free_blocks() + 1);
    }

    /// An allocator on `dev` with `n` blocks parked (distinct shards).
    fn with_parked(dev: &Arc<NvmmDevice>, layout: &Layout, n: usize) -> (Allocator, Vec<u64>) {
        let a = Allocator::new_empty(layout);
        a.attach_fault_device(dev.clone());
        let parked: Vec<u64> = (0..n).map(|_| a.alloc().unwrap()).collect();
        for &b in &parked {
            assert!(a.zeroed_has_room(b));
            a.park_zeroed(b);
        }
        (a, parked)
    }

    #[test]
    fn parked_blocks_are_free_and_go_to_new_nodes_first() {
        let (dev, layout) = setup();
        let (a, parked) = with_parked(&dev, &layout, 3);
        assert_eq!(a.free_blocks(), layout.data_blocks());
        let mut pool = a.zeroed_pool();
        pool.sort_unstable();
        assert_eq!(pool, parked);
        for _ in 0..3 {
            let (b, zeroed) = a.alloc_zeroed().unwrap();
            assert!(zeroed && parked.contains(&b));
        }
        let (b, zeroed) = a.alloc_zeroed().unwrap();
        assert!(!zeroed && !parked.contains(&b), "pool empty: a fresh block");
        assert_eq!(a.nodes_recycled(), 3);
        assert_eq!(a.free_blocks(), layout.data_blocks() - 4);
    }

    /// `fail_alloc_after` counts consults: with blocks parked or not, every
    /// allocation of either kind asks the hook exactly once.
    #[test]
    fn one_fault_consult_per_allocation_whatever_the_pool_holds() {
        for parked in [0, 3] {
            let (dev, layout) = setup();
            let (a, _) = with_parked(&dev, &layout, parked);
            let plan = nvmm::FaultPlan::new();
            dev.fault_hook().install(plan.clone());
            plan.fail_alloc_after(3);
            a.alloc_zeroed().unwrap();
            a.alloc().unwrap();
            a.alloc_zeroed().unwrap();
            assert_eq!(a.alloc_zeroed(), Err(FsError::NoSpace), "parked {parked}");
            assert_eq!(a.alloc(), Err(FsError::NoSpace));
            assert_eq!(plan.faults_injected(), 2);
        }
    }

    #[test]
    fn exhaustion_hands_out_the_parked_blocks_last_and_once() {
        let (dev, layout) = setup();
        let (a, parked) = with_parked(&dev, &layout, 5);
        let drained: Vec<u64> = std::iter::from_fn(|| a.alloc().ok()).collect();
        assert_eq!(drained.len() as u64, layout.data_blocks());
        let unique: std::collections::HashSet<u64> = drained.iter().copied().collect();
        assert_eq!(unique.len(), drained.len(), "duplicate block");
        let mut last = drained[drained.len() - 5..].to_vec();
        last.sort_unstable();
        assert_eq!(last, parked, "the pools are the last resort");
        assert_eq!(a.free_blocks(), 0);
        assert!(a.zeroed_pool().is_empty());
    }

    #[test]
    fn a_clean_unmount_writes_parked_blocks_as_free() {
        let (dev, layout) = setup();
        let (a, parked) = with_parked(&dev, &layout, 4);
        let held = a.alloc().unwrap();
        a.persist(&dev, &layout);
        let loaded = Allocator::load(&dev, &layout);
        assert_eq!(loaded.free_blocks(), a.free_blocks());
        assert!(
            loaded.zeroed_pool().is_empty(),
            "the pool does not outlive the mount"
        );
        // Clear in the image: marking one used takes a free block away...
        for &b in &parked {
            loaded.mark_used(b);
        }
        assert_eq!(loaded.free_blocks(), a.free_blocks() - 4);
        // ...whereas an allocated block is set in it already.
        loaded.mark_used(held);
        assert_eq!(loaded.free_blocks(), a.free_blocks() - 4);
    }

    #[test]
    fn mark_used_is_idempotent() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let before = a.free_blocks();
        a.mark_used(layout.data_start + 5);
        a.mark_used(layout.data_start + 5);
        assert_eq!(a.free_blocks(), before - 1);
    }
}
