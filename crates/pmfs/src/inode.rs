//! Inodes: on-NVMM format, in-memory handles, and the inode cache.
//!
//! Each inode occupies a 256 B slot in the inode table; the fields live in
//! the slot's first cacheline so an inode update journals and persists a
//! single 64 B line. In-memory state is an [`InodeHandle`] with a `RwLock`,
//! shared by every open descriptor of the file.

use std::collections::HashMap;
use std::sync::Arc;

use fskit::{FileType, FsError, Result};
use nvmm::{Cat, NvmmDevice};
use obsv::{Site, TrackedMutex};
use parking_lot::{Mutex, RwLock};

use crate::layout::Layout;

/// Size of the journaled/persisted inode core, one cacheline.
pub const INODE_CORE: usize = 64;

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
        b[0] = 1; // valid
        b[1] = self.ftype.as_u8();
        b[4..8].copy_from_slice(&self.nlink.to_le_bytes());
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        b[16..24].copy_from_slice(&self.blocks.to_le_bytes());
        b[24..32].copy_from_slice(&self.tree_root.to_le_bytes());
        b[32..36].copy_from_slice(&self.tree_height.to_le_bytes());
        b[40..48].copy_from_slice(&self.mtime.to_le_bytes());
        b[48..56].copy_from_slice(&self.last_sync.to_le_bytes());
        b
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
            nlink: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            size: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            blocks: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            tree_root: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            tree_height: u32::from_le_bytes(b[32..36].try_into().unwrap()),
            mtime: u64::from_le_bytes(b[40..48].try_into().unwrap()),
            last_sync: u64::from_le_bytes(b[48..56].try_into().unwrap()),
        }))
    }
}

/// A directory's DRAM name index: `name → (ino, ftype)` for every live
/// on-media entry (the first one, where a damaged image repeats a name).
pub type NameIndex = HashMap<String, (u64, FileType)>;

/// Shared in-memory inode state.
#[derive(Debug)]
pub struct InodeHandle {
    /// The inode number.
    pub ino: u64,
    /// The mutable inode state. Lock order: namespace lock before inode
    /// locks; never hold two inode locks except parent-then-child in
    /// rename, which the namespace lock serializes.
    pub state: RwLock<InodeMem>,
    /// Open descriptor count (volatile); freed inodes are reaped when it
    /// reaches zero. Lock order: `state` → `opens`, never the reverse —
    /// "is this the last reference?" reads `nlink` and the count
    /// together, and unlink asks it holding `state.write()`.
    pub opens: Mutex<u32>,
    /// Directories only: the authoritative name index path resolution
    /// answers from (what the VFS dentry cache is to the paper's systems).
    /// `None` until the first lookup in this directory after mount, which
    /// builds it from the media; exact from then on — every entry edit
    /// updates it under `state.write()`, and a journal abort that rolled
    /// entries back drops it. Lock order: `state` → `names`.
    pub names: Mutex<Option<NameIndex>>,
}

impl InodeHandle {
    fn new(ino: u64, mem: InodeMem) -> Arc<InodeHandle> {
        Arc::new(InodeHandle {
            ino,
            state: RwLock::new(mem),
            opens: Mutex::new(0),
            names: Mutex::new(None),
        })
    }
}

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
            .map(|i| TrackedMutex::attached(contention, Site::pmfs_inode_shard(i), HashMap::new()))
            .collect();
        Ok(InodeCache {
            shards,
            free_slots: TrackedMutex::attached(contention, Site::PmfsInodeMap, free),
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
        let h = InodeHandle::new(ino, mem);
        map.insert(ino, h.clone());
        Ok(h)
    }

    /// Installs a handle for a just-created inode.
    pub fn install(&self, ino: u64, mem: InodeMem) -> Arc<InodeHandle> {
        let h = InodeHandle::new(ino, mem);
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
