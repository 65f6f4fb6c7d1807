//! Inodes: on-NVMM format, in-memory handles, and the inode cache.
//!
//! Each inode occupies a 256 B slot in the inode table; the fields live in
//! the slot's first cacheline so an inode update journals and persists a
//! single 64 B line. In-memory state is an [`InodeHandle`] with a `RwLock`,
//! shared by every open descriptor of the file. A slot is free iff its
//! byte 0 (the valid flag) is 0; the rest of a free slot is a don't-care
//! dead tail, which the next create overwrites.

use std::collections::HashMap;
use std::sync::Arc;

use fskit::le::{u32_at, u64_at};
use fskit::vfs::{Inode, InodeState};
use fskit::{FileType, FsError, Result, Stat};
use nvmm::{Cat, NvmmDevice};
use obsv::{Site, TrackedMutex};

use crate::layout::Layout;

/// Size of the journaled/persisted inode core, one cacheline.
pub const INODE_CORE: usize = 64;

/// Word 0 of the core (valid flag, type, `nlink`): all that a namespace op
/// journals of the inode it allocates, frees or relinks.
pub const LIVENESS: usize = 8;

/// Offset of `size` in the core: 8-byte aligned, so a write that grows a
/// file inside a mapped block stores it with one atomic store.
pub const SIZE_OFF: usize = 8;

/// Offset of `mtime` in the core: 8-byte aligned, so a directory whose
/// entry edit changes nothing else, or a write inside a mapped block,
/// stamps it with one atomic store.
pub const MTIME_OFF: usize = 40;

/// In-memory mirror of an inode's persistent core plus volatile state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeMem {
    /// File type.
    pub ftype: FileType,
    /// Hard link count.
    pub nlink: u32,
    /// File size in bytes.
    pub size: u64,
    /// Allocated data blocks (excluding tree nodes).
    pub blocks: u64,
    /// Root block of the block tree (0 = none).
    pub tree_root: u64,
    /// Height of the block tree (0 = no blocks).
    pub tree_height: u32,
    /// Last modification, simulated ns.
    pub mtime: u64,
    /// Last synchronization (fsync) time, simulated ns. Used by HiNFS's
    /// Buffer Benefit Model decay rule (paper §3.3.2).
    pub last_sync: u64,
}

impl InodeMem {
    /// A fresh inode of the given type.
    pub fn new(ftype: FileType, now: u64) -> InodeMem {
        InodeMem {
            ftype,
            nlink: 1,
            size: 0,
            blocks: 0,
            tree_root: 0,
            tree_height: 0,
            mtime: now,
            last_sync: 0,
        }
    }

    /// Encodes the persistent core (valid flag set).
    pub fn encode(&self) -> [u8; INODE_CORE] {
        let mut b = [0u8; INODE_CORE];
        b[..LIVENESS].copy_from_slice(&self.liveness_word().to_le_bytes());
        b[SIZE_OFF..SIZE_OFF + 8].copy_from_slice(&self.size.to_le_bytes());
        b[16..24].copy_from_slice(&self.blocks.to_le_bytes());
        b[24..32].copy_from_slice(&self.tree_root.to_le_bytes());
        b[32..36].copy_from_slice(&self.tree_height.to_le_bytes());
        b[MTIME_OFF..MTIME_OFF + 8].copy_from_slice(&self.mtime.to_le_bytes());
        b[48..56].copy_from_slice(&self.last_sync.to_le_bytes());
        b
    }

    /// The core's word 0 ([`LIVENESS`]).
    pub fn liveness_word(&self) -> u64 {
        1 | (self.ftype.as_u8() as u64) << 8 | (self.nlink as u64) << 32
    }

    /// Decodes a persistent core. Returns `Ok(None)` for a free slot.
    pub fn decode(b: &[u8; INODE_CORE]) -> Result<Option<InodeMem>> {
        if b[0] == 0 {
            return Ok(None);
        }
        if b[0] != 1 {
            return Err(FsError::Corrupted("inode valid flag"));
        }
        let ftype = FileType::from_u8(b[1]).ok_or(FsError::Corrupted("inode type"))?;
        Ok(Some(InodeMem {
            ftype,
            nlink: u32_at(b, 4),
            size: u64_at(b, SIZE_OFF),
            blocks: u64_at(b, 16),
            tree_root: u64_at(b, 24),
            tree_height: u32_at(b, 32),
            mtime: u64_at(b, MTIME_OFF),
            last_sync: u64_at(b, 48),
        }))
    }
}

impl InodeState for InodeMem {
    fn stat(&self, ino: u64) -> Stat {
        Stat {
            ino,
            ftype: self.ftype,
            size: self.size,
            blocks: self.blocks,
            nlink: self.nlink,
            mtime_ns: self.mtime,
        }
    }
}

/// A held write lock on an inode's state ([`InodeHandle::state`]).
pub type InodeGuard<'a> = parking_lot::RwLockWriteGuard<'a, InodeMem>;

/// Shared in-memory inode state ([`fskit::vfs::Inode`]); its lock order
/// is documented in [`crate::fs`].
pub type InodeHandle = Inode<InodeMem>;

/// Cache of in-memory inode handles plus the free-slot list.
///
/// The handle map is sharded by `ino % NSHARDS` so concurrent lookups of
/// different inodes don't collide on one lock; the free-slot list stays a
/// single stack (allocation order matters for low-numbers-first tests and
/// deterministic replays) under the legacy `pmfs.inode_map` site.
#[derive(Debug)]
pub struct InodeCache {
    shards: Vec<TrackedMutex<HashMap<u64, Arc<InodeHandle>>>>,
    free_slots: TrackedMutex<Vec<u64>>,
}

impl InodeCache {
    /// Builds the cache by scanning the inode table: free slots become
    /// allocatable, used slots are decodable on demand.
    pub fn scan(dev: &NvmmDevice, layout: &Layout) -> Result<InodeCache> {
        let mut free = Vec::new();
        let mut buf = [0u8; INODE_CORE];
        // Descending so that allocation (pop) hands out low numbers first.
        for ino in (1..layout.inode_count).rev() {
            dev.read(Cat::Meta, layout.inode_off(ino), &mut buf);
            if InodeMem::decode(&buf)?.is_none() {
                free.push(ino);
            }
        }
        let contention = dev.contention();
        let shards = (0..obsv::NSHARDS)
            .map(|i| TrackedMutex::new(contention, Site::pmfs_inode_shard(i), HashMap::new()))
            .collect();
        Ok(InodeCache {
            shards,
            free_slots: TrackedMutex::new(contention, Site::PmfsInodeMap, free),
        })
    }

    fn shard(&self, ino: u64) -> &TrackedMutex<HashMap<u64, Arc<InodeHandle>>> {
        &self.shards[(ino % obsv::NSHARDS as u64) as usize]
    }

    /// Loads (or returns the cached) handle for a used inode.
    pub fn get(&self, dev: &NvmmDevice, layout: &Layout, ino: u64) -> Result<Arc<InodeHandle>> {
        if ino == 0 || ino >= layout.inode_count {
            return Err(FsError::Corrupted("inode number out of range"));
        }
        let mut map = self.shard(ino).lock();
        if let Some(h) = map.get(&ino) {
            return Ok(h.clone());
        }
        let mut buf = [0u8; INODE_CORE];
        dev.read(Cat::Meta, layout.inode_off(ino), &mut buf);
        let mem = InodeMem::decode(&buf)?.ok_or(FsError::Corrupted("reference to free inode"))?;
        let h = Inode::new(ino, mem);
        map.insert(ino, h.clone());
        Ok(h)
    }

    /// Installs a handle for a just-created inode.
    pub fn install(&self, ino: u64, mem: InodeMem) -> Arc<InodeHandle> {
        let h = Inode::new(ino, mem);
        self.shard(ino).lock().insert(ino, h.clone());
        h
    }

    /// Allocates a free inode slot number.
    pub fn alloc_slot(&self) -> Result<u64> {
        self.free_slots.lock().pop().ok_or(FsError::NoInodes)
    }

    /// Returns a slot to the free list and drops the cached handle.
    pub fn free_slot(&self, ino: u64) {
        self.shard(ino).lock().remove(&ino);
        self.free_slots.lock().push(ino);
    }

    /// Number of free inode slots.
    pub fn free_count(&self) -> usize {
        self.free_slots.lock().len()
    }

    /// Every cached handle, in ascending inode order (shards are walked
    /// in index order, then sorted so callers see a shard-count-independent
    /// listing). No shard lock is held on return.
    pub fn cached(&self) -> Vec<Arc<InodeHandle>> {
        let mut handles: Vec<Arc<InodeHandle>> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().values().cloned().collect::<Vec<_>>())
            .collect();
        handles.sort_unstable_by_key(|h| h.ino);
        handles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, SimEnv, BLOCK_SIZE};

    fn setup() -> (Arc<NvmmDevice>, Layout) {
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1024 * BLOCK_SIZE);
        let layout = Layout::compute(1024, 16, 128).unwrap();
        (dev, layout)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = InodeMem {
            ftype: FileType::File,
            nlink: 2,
            size: 123_456,
            blocks: 31,
            tree_root: 777,
            tree_height: 2,
            mtime: 42,
            last_sync: 41,
        };
        let decoded = InodeMem::decode(&m.encode()).unwrap().unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn free_slot_decodes_as_none() {
        let zero = [0u8; INODE_CORE];
        assert_eq!(InodeMem::decode(&zero).unwrap(), None);
    }

    #[test]
    fn a_free_slot_keeps_a_dead_tail() {
        let m = InodeMem::new(FileType::File, 9);
        let mut b = m.encode();
        assert_eq!(b[..LIVENESS], m.liveness_word().to_le_bytes());
        assert_eq!((b[0], b[1], b[4]), (1, FileType::File.as_u8(), 1));
        b[..LIVENESS].fill(0);
        assert_eq!(InodeMem::decode(&b).unwrap(), None);
    }

    #[test]
    fn bad_valid_flag_is_corruption() {
        let mut b = [0u8; INODE_CORE];
        b[0] = 7;
        assert!(InodeMem::decode(&b).is_err());
    }

    #[test]
    fn scan_finds_free_slots_low_first() {
        let (dev, layout) = setup();
        let cache = InodeCache::scan(&dev, &layout).unwrap();
        // All slots 1..inode_count free on a zeroed device.
        assert_eq!(cache.free_count(), layout.inode_count as usize - 1);
        assert_eq!(cache.alloc_slot().unwrap(), 1);
        assert_eq!(cache.alloc_slot().unwrap(), 2);
    }

    #[test]
    fn scan_skips_used_slots() {
        let (dev, layout) = setup();
        let mem = InodeMem::new(FileType::Dir, 0);
        dev.poke(layout.inode_off(1), &mem.encode());
        let cache = InodeCache::scan(&dev, &layout).unwrap();
        assert_eq!(cache.free_count(), layout.inode_count as usize - 2);
        assert_eq!(cache.alloc_slot().unwrap(), 2);
        let h = cache.get(&dev, &layout, 1).unwrap();
        assert_eq!(h.state.read().ftype, FileType::Dir);
    }

    #[test]
    fn get_caches_handles() {
        let (dev, layout) = setup();
        let mem = InodeMem::new(FileType::File, 9);
        dev.poke(layout.inode_off(3), &mem.encode());
        let cache = InodeCache::scan(&dev, &layout).unwrap();
        let a = cache.get(&dev, &layout, 3).unwrap();
        let b = cache.get(&dev, &layout, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn get_rejects_free_and_invalid() {
        let (dev, layout) = setup();
        let cache = InodeCache::scan(&dev, &layout).unwrap();
        assert!(cache.get(&dev, &layout, 5).is_err(), "free slot");
        assert!(cache.get(&dev, &layout, 0).is_err(), "ino 0 reserved");
        assert!(
            cache.get(&dev, &layout, layout.inode_count).is_err(),
            "out of range"
        );
    }

    #[test]
    fn free_slot_recycles() {
        let (dev, layout) = setup();
        let cache = InodeCache::scan(&dev, &layout).unwrap();
        let ino = cache.alloc_slot().unwrap();
        cache.install(ino, InodeMem::new(FileType::File, 0));
        cache.free_slot(ino);
        assert_eq!(cache.alloc_slot().unwrap(), ino);
    }
}
