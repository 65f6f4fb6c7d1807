//! On-disk bitmap allocators (block and inode bitmaps).
//!
//! Unlike PMFS (whose allocator lives in DRAM and is rebuilt at recovery),
//! ext keeps its bitmaps on disk: every allocation dirties a bitmap page in
//! the buffer cache and, in the journaled modes, adds it to the running
//! transaction. A full in-memory mirror avoids rescanning pages on every
//! allocation; the cache write keeps the on-disk image in sync.

use fskit::{FsError, Result};
use nvmm::{Cat, BLOCK_SIZE};
use obsv::{Site, TrackedMutex};

use crate::cache::BufferCache;
use crate::jbd::Jbd;

#[derive(Debug)]
struct State {
    bits: Vec<u64>,
    free: u64,
    hint: u64,
}

/// A bitmap allocator stored in device blocks `[start_blk, ...)`.
#[derive(Debug)]
pub struct DiskBitmap {
    start_blk: u64,
    nbits: u64,
    state: TrackedMutex<State>,
}

impl DiskBitmap {
    /// Loads the bitmap from disk (through the cache); its lock records
    /// into the cache's machine's contention table.
    pub fn load(cache: &BufferCache, start_blk: u64, nbits: u64) -> Result<DiskBitmap> {
        let words = (nbits as usize).div_ceil(64);
        let mut bits = vec![0u64; words];
        let mut buf = vec![0u8; BLOCK_SIZE];
        let nblocks = (words * 8).div_ceil(BLOCK_SIZE);
        for b in 0..nblocks {
            cache.read(Cat::Meta, start_blk + b as u64, 0, &mut buf)?;
            for (i, chunk) in buf.chunks_exact(8).enumerate() {
                let w = b * (BLOCK_SIZE / 8) + i;
                if w < words {
                    bits[w] = fskit::le::u64_at(chunk, 0);
                }
            }
        }
        let mut used = 0u64;
        for (w, word) in bits.iter().enumerate() {
            for bit in 0..64 {
                let idx = (w * 64 + bit) as u64;
                if idx < nbits && word & (1 << bit) != 0 {
                    used += 1;
                }
            }
        }
        Ok(DiskBitmap {
            start_blk,
            nbits,
            state: TrackedMutex::new(
                cache.device().byte_device().contention(),
                Site::ExtfsAlloc,
                State {
                    bits,
                    free: nbits - used,
                    hint: 0,
                },
            ),
        })
    }

    /// Number of free bits.
    pub fn free_count(&self) -> u64 {
        self.state.lock().free
    }

    /// Persists the word holding `idx` through the cache and journals the
    /// bitmap block.
    fn write_word(
        &self,
        cache: &BufferCache,
        jbd: &Jbd,
        idx: u64,
        word: u64,
        now: u64,
    ) -> Result<()> {
        let byte = (idx / 64) * 8;
        let blk = self.start_blk + byte / BLOCK_SIZE as u64;
        let off = (byte % BLOCK_SIZE as u64) as usize;
        cache.write(Cat::Meta, blk, off, &word.to_le_bytes(), now)?;
        jbd.add(cache, blk);
        Ok(())
    }

    /// jbd-style credits for the `n` bits an operation may allocate,
    /// asked for before it changes anything: refused when fewer are free,
    /// and the one place the ENOSPC fault hook is consulted.
    pub fn reserve(&self, cache: &BufferCache, n: u64) -> Result<()> {
        if n > 0
            && (nvmm::fault::alloc_blocked(cache.device().byte_device()) || self.free_count() < n)
        {
            return Err(FsError::NoSpace);
        }
        Ok(())
    }

    /// Allocates one bit, returning its index.
    pub fn alloc(&self, cache: &BufferCache, jbd: &Jbd, now: u64) -> Result<u64> {
        let mut s = self.state.lock();
        if s.free == 0 {
            return Err(FsError::NoSpace);
        }
        let start = s.hint.min(self.nbits - 1);
        let mut idx = start;
        loop {
            let w = (idx / 64) as usize;
            let bit = idx % 64;
            if s.bits[w] & (1 << bit) == 0 {
                s.bits[w] |= 1 << bit;
                s.free -= 1;
                s.hint = if idx + 1 < self.nbits { idx + 1 } else { 0 };
                let word = s.bits[w];
                drop(s);
                self.write_word(cache, jbd, idx, word, now)?;
                return Ok(idx);
            }
            idx += 1;
            if idx >= self.nbits {
                idx = 0;
            }
            if idx == start {
                return Err(FsError::Corrupted("bitmap free count"));
            }
        }
    }

    /// Marks `idx` used (mkfs pre-marking of metadata blocks).
    pub fn set(&self, cache: &BufferCache, jbd: &Jbd, idx: u64, now: u64) -> Result<()> {
        let mut s = self.state.lock();
        let w = (idx / 64) as usize;
        let bit = idx % 64;
        if s.bits[w] & (1 << bit) == 0 {
            s.bits[w] |= 1 << bit;
            s.free -= 1;
            let word = s.bits[w];
            drop(s);
            self.write_word(cache, jbd, idx, word, now)?;
        }
        Ok(())
    }

    /// Frees `idx`. A bit that is already clear is a double free: the
    /// image is corrupt, and nothing changes. The bit clears only once its
    /// word is written, so a release that fails leaves `idx` allocated
    /// and no later `alloc` can hand it out while its owner still maps it.
    pub fn release(&self, cache: &BufferCache, jbd: &Jbd, idx: u64, now: u64) -> Result<()> {
        let mut s = self.state.lock();
        let w = (idx / 64) as usize;
        let bit = idx % 64;
        if s.bits[w] & (1 << bit) == 0 {
            return Err(FsError::Corrupted("ext bitmap double free"));
        }
        let word = s.bits[w] & !(1 << bit);
        self.write_word(cache, jbd, idx, word, now)?;
        s.bits[w] = word;
        s.free += 1;
        s.hint = s.hint.min(idx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use nvmm::{CostModel, NvmmDevice, SimEnv};
    use std::sync::Arc;

    impl DiskBitmap {
        fn is_set(&self, idx: u64) -> bool {
            let s = self.state.lock();
            s.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
        }
    }

    fn setup() -> (BufferCache, Jbd) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 512 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 32);
        (cache, Jbd::open(bd, 1, 16, false))
    }

    #[test]
    fn alloc_release_roundtrip() {
        let (cache, jbd) = setup();
        let bm = DiskBitmap::load(&cache, 20, 1000).unwrap();
        assert_eq!(bm.free_count(), 1000);
        let a = bm.alloc(&cache, &jbd, 0).unwrap();
        let b = bm.alloc(&cache, &jbd, 0).unwrap();
        assert_ne!(a, b);
        assert!(bm.is_set(a));
        bm.release(&cache, &jbd, a, 0).unwrap();
        assert!(!bm.is_set(a));
        assert_eq!(bm.free_count(), 999);
    }

    #[test]
    fn persists_through_cache_reload() {
        let (cache, jbd) = setup();
        let bm = DiskBitmap::load(&cache, 20, 500).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(bm.alloc(&cache, &jbd, 0).unwrap());
        }
        bm.release(&cache, &jbd, got[3], 0).unwrap();
        cache.flush_all(obsv::DrainKind::Sync);
        // Reload from the (cached/fetched) on-disk image.
        let bm2 = DiskBitmap::load(&cache, 20, 500).unwrap();
        assert_eq!(bm2.free_count(), 500 - 9);
        for (i, idx) in got.iter().enumerate() {
            assert_eq!(bm2.is_set(*idx), i != 3);
        }
    }

    #[test]
    fn a_release_that_cannot_write_its_word_frees_nothing() {
        let (cache, jbd) = setup();
        let bm = DiskBitmap::load(&cache, 20, 1000).unwrap();
        let a = bm.alloc(&cache, &jbd, 0).unwrap();
        cache.flush_all(obsv::DrainKind::Sync);
        cache.invalidate(20);
        // Every page pinned: the bitmap block cannot come back in.
        for b in 100..132 {
            cache.write(Cat::Meta, b, 0, &[1], 0).unwrap();
            cache.pin(b);
        }
        assert_eq!(bm.release(&cache, &jbd, a, 0), Err(FsError::JournalFull));
        assert!(bm.is_set(a));
        assert_eq!(bm.free_count(), 999);
    }

    #[test]
    fn exhaustion() {
        let (cache, jbd) = setup();
        let bm = DiskBitmap::load(&cache, 20, 64).unwrap();
        for _ in 0..64 {
            bm.alloc(&cache, &jbd, 0).unwrap();
        }
        assert_eq!(bm.alloc(&cache, &jbd, 0), Err(FsError::NoSpace));
    }

    #[test]
    fn double_free_is_corruption_and_changes_nothing() {
        let (cache, jbd) = setup();
        let bm = DiskBitmap::load(&cache, 20, 64).unwrap();
        let a = bm.alloc(&cache, &jbd, 0).unwrap();
        bm.release(&cache, &jbd, a, 0).unwrap();
        assert_eq!(
            bm.release(&cache, &jbd, a, 0),
            Err(FsError::Corrupted("ext bitmap double free"))
        );
        assert_eq!(bm.free_count(), 64);
        assert!(!bm.is_set(a));
    }

    #[test]
    fn spans_multiple_blocks() {
        let (cache, jbd) = setup();
        // 40000 bits ≈ 1.2 bitmap blocks.
        let bm = DiskBitmap::load(&cache, 20, 40_000).unwrap();
        bm.set(&cache, &jbd, 39_999, 0).unwrap();
        cache.flush_all(obsv::DrainKind::Sync);
        let bm2 = DiskBitmap::load(&cache, 20, 40_000).unwrap();
        assert!(bm2.is_set(39_999));
        assert_eq!(bm2.free_count(), 39_999);
    }
}
