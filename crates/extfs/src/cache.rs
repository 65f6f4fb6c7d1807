//! The OS page cache model: an LRU buffer cache keyed by device block.
//!
//! This is what produces the *double-copy overheads* the paper measures for
//! the NVMMBD systems (§2, Fig 3(a)):
//!
//! - a read miss fetches the block from the device into the cache (copy 1 +
//!   block layer) and then copies it to the user buffer (copy 2);
//! - a partial-write miss performs *fetch-before-write* (copy 1) before the
//!   user data is copied into the page (copy 2); a later writeback adds the
//!   third device copy;
//! - `fsync` writes the file's dirty pages through the block layer.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use blockdev::Nvmmbd;
use fskit::lrulist::RecencyList;
use nvmm::{Cat, BLOCK_SIZE};
use obsv::{DrainKind, FsObs, Site, TraceEvent, TrackedMutex};

#[derive(Debug, Clone, Copy)]
struct PageMeta {
    blk: u64,
    dirty: bool,
    /// When the page was first dirtied (for age-based writeback).
    dirtied_ns: u64,
    /// Pinned pages belong to a running journal transaction and must not
    /// reach the device in place before the transaction commits.
    pinned: bool,
    /// Lineage ack stamp taken at the clean→dirty transition.
    stamp: obsv::Stamp,
    /// Whether `stamp` still awaits its durability drain. Cleared by the
    /// drain that retires it (in-place writeback or journal commit), so a
    /// post-commit checkpoint never double-counts the lag.
    stamped: bool,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<u64, u32>,
    data: Vec<u8>,
    meta: Vec<PageMeta>,
    free: Vec<u32>,
    lru: RecencyList,
    dirty_count: usize,
    hits: u64,
    misses: u64,
}

/// An LRU page/buffer cache over a block device.
#[derive(Debug)]
pub struct BufferCache {
    bd: Arc<Nvmmbd>,
    inner: TrackedMutex<Inner>,
    capacity: usize,
    /// Attached at mount for lineage stamps and drain provenance; absent
    /// during mkfs, where the cache is torn down before the real mount.
    obs: OnceLock<Arc<FsObs>>,
}

impl BufferCache {
    /// Creates a cache of `pages` 4 KiB pages over `bd`.
    pub fn new(bd: Arc<Nvmmbd>, pages: usize) -> BufferCache {
        let pages = pages.max(8);
        let contention = bd.byte_device().contention().clone();
        BufferCache {
            bd,
            inner: TrackedMutex::attached(
                &contention,
                Site::ExtfsCache,
                Inner {
                    map: HashMap::new(),
                    data: vec![0u8; pages * BLOCK_SIZE],
                    meta: vec![
                        PageMeta {
                            blk: 0,
                            dirty: false,
                            dirtied_ns: 0,
                            pinned: false,
                            stamp: obsv::Stamp::default(),
                            stamped: false,
                        };
                        pages
                    ],
                    free: (0..pages as u32).rev().collect(),
                    lru: RecencyList::new(pages),
                    dirty_count: 0,
                    hits: 0,
                    misses: 0,
                },
            ),
            capacity: pages,
            obs: OnceLock::new(),
        }
    }

    /// Attaches the observability hub; page writes stamp lineage and
    /// writebacks record drains from here on. Idempotent.
    pub fn attach_obs(&self, obs: Arc<FsObs>) {
        let _ = self.obs.set(obs);
    }

    /// Cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` since creation.
    pub fn hit_miss(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Pages currently holding a cached block.
    pub fn cached_pages(&self) -> usize {
        self.capacity - self.inner.lock().free.len()
    }

    /// `(cached_pages, dirty_pages, hits, misses)` read under one lock hold,
    /// so the four values are mutually consistent for snapshots and audits.
    pub fn usage(&self) -> (usize, usize, u64, u64) {
        let inner = self.inner.lock();
        (
            self.capacity - inner.free.len(),
            inner.dirty_count,
            inner.hits,
            inner.misses,
        )
    }

    /// Number of dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.inner.lock().dirty_count
    }

    /// The underlying block device.
    pub fn device(&self) -> &Arc<Nvmmbd> {
        &self.bd
    }

    fn page(inner: &Inner, slot: u32) -> &[u8] {
        let b = slot as usize * BLOCK_SIZE;
        &inner.data[b..b + BLOCK_SIZE]
    }

    fn page_mut(inner: &mut Inner, slot: u32) -> &mut [u8] {
        let b = slot as usize * BLOCK_SIZE;
        &mut inner.data[b..b + BLOCK_SIZE]
    }

    /// Writes a dirty slot back to the device, retiring its lineage stamp
    /// (if still pending) as a drain of the given kind.
    fn writeback_slot(&self, inner: &mut Inner, slot: u32, kind: DrainKind) {
        let meta = inner.meta[slot as usize];
        if !meta.dirty || meta.pinned {
            return;
        }
        let b = slot as usize * BLOCK_SIZE;
        // Borrow the page out of `inner.data` for the device call.
        let page: Vec<u8> = inner.data[b..b + BLOCK_SIZE].to_vec();
        self.bd.write_block(Cat::Writeback, meta.blk, &page);
        inner.meta[slot as usize].dirty = false;
        inner.dirty_count -= 1;
        if meta.stamped {
            inner.meta[slot as usize].stamped = false;
            self.record_drain(&meta.stamp, kind);
        }
    }

    /// Records a stamp retirement: the lag sample, the drained bytes on
    /// the stamp's origin row, and a causal trace event.
    fn record_drain(&self, stamp: &obsv::Stamp, kind: DrainKind) {
        let Some(obs) = self.obs.get() else { return };
        if !obs.full() {
            return;
        }
        let now = self.bd.byte_device().env().now();
        let lag = obs.record_drain(stamp, kind, now, BLOCK_SIZE as u64);
        let seq_hi = obs.trace.emitted();
        let (row, seq_lo) = (stamp.row, stamp.seq);
        obs.trace.emit(now, || TraceEvent::LineageDrained {
            row: row as u64,
            lazy: kind == DrainKind::Lazy,
            bytes: BLOCK_SIZE as u64,
            lag_ns: lag,
            seq_lo,
            seq_hi,
        });
    }

    /// Retires the stamps of `blks` whose durability was just met by a
    /// journal commit: the journal copy makes the page content
    /// recoverable, so the lag drains *here* — the later checkpoint
    /// writeback moves bytes but retires nothing.
    pub fn note_committed(&self, blks: &[u64], kind: DrainKind) {
        let Some(obs) = self.obs.get() else { return };
        if !obs.full() {
            return;
        }
        let mut stamps = Vec::new();
        {
            let mut inner = self.inner.lock();
            for &blk in blks {
                if let Some(&slot) = inner.map.get(&blk) {
                    let meta = &mut inner.meta[slot as usize];
                    if meta.stamped {
                        meta.stamped = false;
                        stamps.push(meta.stamp);
                    }
                }
            }
        }
        for stamp in stamps {
            self.record_drain(&stamp, kind);
        }
    }

    /// Gets (or fetches) the slot caching `blk`. `fill` controls whether a
    /// miss reads the block from the device (reads and partial writes) or
    /// may leave the page uninitialized (full-block overwrite).
    fn get_slot(&self, inner: &mut Inner, blk: u64, fill: bool) -> u32 {
        if let Some(&slot) = inner.map.get(&blk) {
            inner.hits += 1;
            inner.lru.touch(slot);
            return slot;
        }
        inner.misses += 1;
        let slot = match inner.free.pop() {
            Some(s) => s,
            None => {
                // Evict the least-recent unpinned page, writing it back
                // first if dirty.
                let victim = inner
                    .lru
                    .iter_from_tail()
                    .find(|&s| !inner.meta[s as usize].pinned)
                    .expect("page cache exhausted by pinned journal pages");
                // Eviction drains behind the owner's back: lazy.
                self.writeback_slot(inner, victim, DrainKind::Lazy);
                let old = inner.meta[victim as usize].blk;
                inner.map.remove(&old);
                inner.lru.unlink(victim);
                victim
            }
        };
        inner.meta[slot as usize] = PageMeta {
            blk,
            dirty: false,
            dirtied_ns: 0,
            pinned: false,
            stamp: obsv::Stamp::default(),
            stamped: false,
        };
        inner.map.insert(blk, slot);
        inner.lru.push_head(slot);
        if fill {
            let b = slot as usize * BLOCK_SIZE;
            let mut page = vec![0u8; BLOCK_SIZE];
            self.bd.read_block(Cat::Fetch, blk, &mut page);
            inner.data[b..b + BLOCK_SIZE].copy_from_slice(&page);
        }
        slot
    }

    /// Reads `buf.len()` bytes from byte `off` of block `blk` through the
    /// cache; the page→user copy is charged to `cat`.
    pub fn read(&self, cat: Cat, blk: u64, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= BLOCK_SIZE);
        let mut inner = self.inner.lock();
        let slot = self.get_slot(&mut inner, blk, true);
        let page = Self::page(&inner, slot);
        buf.copy_from_slice(&page[off..off + buf.len()]);
        let env = self.bd.byte_device().env();
        env.charge(Cat::Other, env.cost().page_cache_ns);
        env.charge_dram_copy(cat, buf.len());
    }

    /// Writes `data` at byte `off` of block `blk` through the cache
    /// (fetch-before-write on a partial miss); the user→page copy is
    /// charged to `cat`.
    pub fn write(&self, cat: Cat, blk: u64, off: usize, data: &[u8], now: u64) {
        assert!(off + data.len() <= BLOCK_SIZE);
        let mut inner = self.inner.lock();
        let full = off == 0 && data.len() == BLOCK_SIZE;
        let slot = self.get_slot(&mut inner, blk, !full);
        Self::page_mut(&mut inner, slot)[off..off + data.len()].copy_from_slice(data);
        let env = self.bd.byte_device().env();
        env.charge(Cat::Other, env.cost().page_cache_ns);
        env.charge_dram_copy(cat, data.len());
        obsv::note_buffered(data.len() as u64);
        if !inner.meta[slot as usize].dirty {
            let meta = &mut inner.meta[slot as usize];
            meta.dirty = true;
            meta.dirtied_ns = now;
            if let Some(obs) = self.obs.get() {
                meta.stamp = obs.stamp(now);
                meta.stamped = obs.full();
            }
            inner.dirty_count += 1;
        }
        inner.lru.touch(slot);
    }

    /// Flushes `blk` if it is cached and dirty, draining it as `kind`.
    pub fn flush_block(&self, blk: u64, kind: DrainKind) {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&blk) {
            self.writeback_slot(&mut inner, slot, kind);
        }
    }

    /// Flushes every unpinned dirty page, then issues a device barrier.
    /// Pinned pages belong to an uncommitted journal transaction and stay
    /// behind (the journal commits them first).
    pub fn flush_all(&self, kind: DrainKind) {
        let mut inner = self.inner.lock();
        let slots: Vec<u32> = inner
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.dirty && !m.pinned)
            .map(|(i, _)| i as u32)
            .collect();
        for slot in slots {
            self.writeback_slot(&mut inner, slot, kind);
        }
        drop(inner);
        self.bd.flush();
    }

    /// Flushes dirty pages older than `age_ns` (background writeback).
    pub fn flush_older_than(&self, now: u64, age_ns: u64) {
        let mut inner = self.inner.lock();
        let slots: Vec<u32> = inner
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.dirty && !m.pinned && m.dirtied_ns + age_ns <= now)
            .map(|(i, _)| i as u32)
            .collect();
        for slot in slots {
            self.writeback_slot(&mut inner, slot, DrainKind::Lazy);
        }
    }

    /// Pins `blk`: it will not be evicted or written back in place until
    /// unpinned. The page must be cached (writing it dirty first pins the
    /// actual content).
    pub fn pin(&self, blk: u64) {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&blk) {
            inner.meta[slot as usize].pinned = true;
        }
    }

    /// Unpins `blk` (after its journal transaction committed).
    pub fn unpin(&self, blk: u64) {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&blk) {
            inner.meta[slot as usize].pinned = false;
        }
    }

    /// Drops `blk` from the cache without writeback (block freed).
    pub fn invalidate(&self, blk: u64) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.map.remove(&blk) {
            if inner.meta[slot as usize].dirty {
                inner.meta[slot as usize].dirty = false;
                inner.dirty_count -= 1;
            }
            // The block was freed before its data ever became durable;
            // the stamp is abandoned, not drained.
            inner.meta[slot as usize].stamped = false;
            inner.lru.unlink(slot);
            inner.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, NvmmDevice, SimEnv};

    fn cache(pages: usize) -> BufferCache {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new_tracked(env, 512 * BLOCK_SIZE);
        BufferCache::new(Arc::new(Nvmmbd::new(dev)), pages)
    }

    #[test]
    fn read_write_roundtrip_through_cache() {
        let c = cache(16);
        c.write(Cat::UserWrite, 3, 100, b"hello", 0);
        let mut buf = [0u8; 5];
        c.read(Cat::UserRead, 3, 100, &mut buf);
        assert_eq!(&buf, b"hello");
        let (hits, misses) = c.hit_miss();
        assert_eq!(misses, 1, "one fetch-before-write miss");
        assert_eq!(hits, 1, "the read hit");
    }

    #[test]
    fn dirty_pages_reach_device_only_on_flush() {
        let c = cache(16);
        c.write(Cat::UserWrite, 7, 0, &[9u8; BLOCK_SIZE], 0);
        assert_eq!(c.dirty_pages(), 1);
        let mut direct = vec![0u8; BLOCK_SIZE];
        c.device()
            .byte_device()
            .peek(7 * BLOCK_SIZE as u64, &mut direct);
        assert!(direct.iter().all(|&b| b == 0), "not on device yet");
        c.flush_all(DrainKind::Sync);
        assert_eq!(c.dirty_pages(), 0);
        c.device()
            .byte_device()
            .peek(7 * BLOCK_SIZE as u64, &mut direct);
        assert!(direct.iter().all(|&b| b == 9));
    }

    #[test]
    fn eviction_writes_back_and_refetches() {
        let c = cache(8);
        for blk in 0..8u64 {
            c.write(Cat::UserWrite, blk, 0, &[blk as u8; BLOCK_SIZE], 0);
        }
        // Touch one more block: the LRU (block 0) is evicted with writeback.
        c.write(Cat::UserWrite, 100, 0, &[0xff; BLOCK_SIZE], 0);
        let mut buf = [0u8; 4];
        c.read(Cat::UserRead, 0, 0, &mut buf);
        assert_eq!(buf, [0u8; 4], "evicted block refetched with its data");
        let (_, misses) = c.hit_miss();
        assert!(misses >= 2);
    }

    #[test]
    fn full_block_overwrite_skips_fetch() {
        let c = cache(8);
        let (r0, _, _) = c.device().request_counts();
        c.write(Cat::UserWrite, 5, 0, &[1u8; BLOCK_SIZE], 0);
        let (r1, _, _) = c.device().request_counts();
        assert_eq!(r1, r0, "no fetch for a full-block overwrite");
        // A partial write does fetch.
        c.write(Cat::UserWrite, 6, 10, &[1u8; 100], 0);
        let (r2, _, _) = c.device().request_counts();
        assert_eq!(r2, r1 + 1, "fetch-before-write for a partial miss");
    }

    #[test]
    fn age_based_flush() {
        let c = cache(8);
        c.write(Cat::UserWrite, 1, 0, &[1u8; 64], 100);
        c.write(Cat::UserWrite, 2, 0, &[2u8; 64], 5_000);
        c.flush_older_than(6_000, 3_000);
        assert_eq!(c.dirty_pages(), 1, "only the old page flushed");
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let c = cache(8);
        c.write(Cat::UserWrite, 4, 0, &[3u8; BLOCK_SIZE], 0);
        let (_, w0, _) = c.device().request_counts();
        c.invalidate(4);
        assert_eq!(c.dirty_pages(), 0);
        let (_, w1, _) = c.device().request_counts();
        assert_eq!(w1, w0, "invalidate never writes");
    }

    #[test]
    fn lineage_stamps_retire_once_with_the_drain_kind() {
        let c = cache(8);
        let obs = Arc::new(FsObs::default());
        obs.set_level(obsv::Level::Full);
        c.attach_obs(obs.clone());
        let env = c.device().byte_device().env().clone();
        // Dirty at t=1000, sync flush: lag asserted 0.
        env.set_now(1_000);
        c.write(Cat::UserWrite, 3, 0, &[1u8; 64], 1_000);
        c.flush_block(3, DrainKind::Sync);
        assert_eq!(obs.lineage().max_lag_ns(), 0);
        // Dirty again (acked at t=2000), lazy age flush much later: the
        // drain records the real age against the wall clock, which the
        // device charges keep advancing.
        env.set_now(9_000);
        c.write(Cat::UserWrite, 3, 0, &[2u8; 64], 2_000);
        c.flush_older_than(env.now(), 1_000);
        let lag = obs.lineage().max_lag_ns();
        assert_eq!(lag, env.now() - 2_000);
        assert!(lag >= 7_000, "{lag}");
        let snap = obs.lineage().snap();
        assert_eq!(snap.stamps, 2);
        assert_eq!(snap.drains_sync, 1);
        assert_eq!(snap.drains_lazy, 1);
        // A re-flush without a re-dirty drains nothing more.
        c.flush_all(DrainKind::Sync);
        assert_eq!(obs.lineage().snap().drains_sync, 1);
    }

    #[test]
    fn double_copy_costs_are_charged() {
        let c = cache(8);
        let env = c.device().byte_device().env().clone();
        nvmm::ledger::reset();
        env.set_now(0);
        let mut buf = vec![0u8; BLOCK_SIZE];
        c.read(Cat::UserRead, 9, 0, &mut buf); // miss
        let snap = nvmm::ledger::snapshot();
        // Copy 1: device -> page (Fetch); copy 2: page -> user (UserRead);
        // plus one block-layer request.
        assert_eq!(snap.get(Cat::UserRead), env.cost().dram_copy_ns(BLOCK_SIZE));
        assert_eq!(snap.get(Cat::Fetch), env.cost().dram_copy_ns(BLOCK_SIZE));
        assert_eq!(snap.get(Cat::BlockLayer), env.cost().block_layer_ns);
    }
}
