//! Ext inodes: on-disk format, in-memory handles, and the inode cache.
//!
//! Each inode is a 256 B slot in the inode table. The block map uses the
//! classic ext2 pointer scheme: 12 direct pointers, one single-indirect and
//! one double-indirect (each indirect block holds 512 eight-byte pointers).

use std::collections::HashMap;
use std::sync::Arc;

use fskit::le::{u32_at, u64_at};
use fskit::vfs::{Inode, InodeState};
use fskit::{FileType, FsError, Result, Stat};
use nvmm::Cat;
use obsv::{ContentionTable, Site, TrackedMutex};

use crate::cache::BufferCache;
use crate::jbd::Jbd;
use crate::layout::{ExtLayout, INODE_SLOT};

/// Direct pointers per inode.
pub const NDIRECT: usize = 12;
/// Total pointer slots: direct + single indirect + double indirect.
pub const NPTRS: usize = NDIRECT + 2;
/// Index of the single-indirect pointer.
pub const SINGLE: usize = NDIRECT;
/// Index of the double-indirect pointer.
pub const DOUBLE: usize = NDIRECT + 1;

/// In-memory mirror of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtInodeMem {
    pub ftype: FileType,
    pub nlink: u32,
    pub size: u64,
    /// Allocated data blocks (excluding indirect blocks).
    pub blocks: u64,
    pub mtime: u64,
    /// Block pointers (absolute device block numbers; 0 = absent).
    pub ptrs: [u64; NPTRS],
}

impl ExtInodeMem {
    /// A fresh inode.
    pub fn new(ftype: FileType, now: u64) -> ExtInodeMem {
        ExtInodeMem {
            ftype,
            nlink: 1,
            size: 0,
            blocks: 0,
            mtime: now,
            ptrs: [0; NPTRS],
        }
    }

    /// Encodes the 256 B slot (valid flag set).
    pub fn encode(&self) -> [u8; INODE_SLOT] {
        let mut b = [0u8; INODE_SLOT];
        b[0] = 1;
        b[1] = self.ftype.as_u8();
        b[4..8].copy_from_slice(&self.nlink.to_le_bytes());
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        b[16..24].copy_from_slice(&self.blocks.to_le_bytes());
        b[24..32].copy_from_slice(&self.mtime.to_le_bytes());
        for (i, p) in self.ptrs.iter().enumerate() {
            let o = 32 + i * 8;
            b[o..o + 8].copy_from_slice(&p.to_le_bytes());
        }
        b
    }

    /// Decodes a slot; `Ok(None)` for a free slot.
    pub fn decode(b: &[u8; INODE_SLOT]) -> Result<Option<ExtInodeMem>> {
        if b[0] == 0 {
            return Ok(None);
        }
        if b[0] != 1 {
            return Err(FsError::Corrupted("ext inode valid flag"));
        }
        let ftype = FileType::from_u8(b[1]).ok_or(FsError::Corrupted("ext inode type"))?;
        let mut ptrs = [0u64; NPTRS];
        for (i, p) in ptrs.iter_mut().enumerate() {
            let o = 32 + i * 8;
            *p = u64_at(b, o);
        }
        Ok(Some(ExtInodeMem {
            ftype,
            nlink: u32_at(b, 4),
            size: u64_at(b, 8),
            blocks: u64_at(b, 16),
            mtime: u64_at(b, 24),
            ptrs,
        }))
    }
}

impl InodeState for ExtInodeMem {
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

/// Shared in-memory inode state ([`fskit::vfs::Inode`]).
pub type ExtInodeHandle = Inode<ExtInodeMem>;

/// Cache of in-memory inode handles.
#[derive(Debug)]
pub struct ExtInodeCache {
    map: TrackedMutex<HashMap<u64, Arc<ExtInodeHandle>>>,
}

impl ExtInodeCache {
    /// An empty handle cache whose map lock records into `table`.
    pub fn new(table: &Arc<ContentionTable>) -> ExtInodeCache {
        ExtInodeCache {
            map: TrackedMutex::new(table, Site::ExtfsInodeMap, HashMap::new()),
        }
    }

    /// Loads (or returns the cached) handle for a used inode.
    pub fn get(
        &self,
        cache: &BufferCache,
        layout: &ExtLayout,
        ino: u64,
    ) -> Result<Arc<ExtInodeHandle>> {
        if ino == 0 || ino >= layout.inode_count {
            return Err(FsError::Corrupted("ext inode number out of range"));
        }
        let mut map = self.map.lock();
        if let Some(h) = map.get(&ino) {
            return Ok(h.clone());
        }
        let (blk, off) = layout.inode_loc(ino);
        let mut buf = [0u8; INODE_SLOT];
        cache.read(Cat::Meta, blk, off, &mut buf)?;
        let mem =
            ExtInodeMem::decode(&buf)?.ok_or(FsError::Corrupted("reference to free ext inode"))?;
        let h = Inode::new(ino, mem);
        map.insert(ino, h.clone());
        Ok(h)
    }

    /// Installs a handle for a just-created inode.
    pub fn install(&self, ino: u64, mem: ExtInodeMem) -> Arc<ExtInodeHandle> {
        let h = Inode::new(ino, mem);
        self.map.lock().insert(ino, h.clone());
        h
    }

    /// Drops the cached handle (inode freed).
    pub fn forget(&self, ino: u64) {
        self.map.lock().remove(&ino);
    }

    /// Every cached handle, in ascending inode order. The map lock is not
    /// held on return.
    pub fn cached(&self) -> Vec<Arc<ExtInodeHandle>> {
        let mut handles: Vec<_> = self.map.lock().values().cloned().collect();
        handles.sort_unstable_by_key(|h| h.ino);
        handles
    }
}

/// Writes an inode slot through the buffer cache and journals its table
/// block.
pub fn write_inode(
    cache: &BufferCache,
    jbd: &Jbd,
    layout: &ExtLayout,
    ino: u64,
    mem: &ExtInodeMem,
    now: u64,
) -> Result<()> {
    let (blk, off) = layout.inode_loc(ino);
    cache.write(Cat::Meta, blk, off, &mem.encode(), now)?;
    jbd.add(cache, blk);
    Ok(())
}

/// Clears an inode slot (free).
pub fn clear_inode(
    cache: &BufferCache,
    jbd: &Jbd,
    layout: &ExtLayout,
    ino: u64,
    now: u64,
) -> Result<()> {
    let (blk, off) = layout.inode_loc(ino);
    cache.write(Cat::Meta, blk, off, &[0u8; INODE_SLOT], now)?;
    jbd.add(cache, blk);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};

    fn setup() -> (BufferCache, Jbd, ExtLayout) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 2048 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 64);
        let jbd = Jbd::open(bd, 1, 16, false);
        let layout = ExtLayout::compute(2048, 16, 256).unwrap();
        (cache, jbd, layout)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut m = ExtInodeMem::new(FileType::File, 42);
        m.size = 123_456;
        m.blocks = 31;
        m.ptrs[0] = 99;
        m.ptrs[SINGLE] = 500;
        m.ptrs[DOUBLE] = 501;
        assert_eq!(ExtInodeMem::decode(&m.encode()).unwrap(), Some(m));
        assert_eq!(ExtInodeMem::decode(&[0u8; INODE_SLOT]).unwrap(), None);
    }

    #[test]
    fn write_read_through_table() {
        let (cache, jbd, layout) = setup();
        let m = ExtInodeMem::new(FileType::Dir, 7);
        write_inode(&cache, &jbd, &layout, 5, &m, 0).unwrap();
        let icache = ExtInodeCache::new(cache.device().byte_device().contention());
        let h = icache.get(&cache, &layout, 5).unwrap();
        assert_eq!(*h.state.read(), m);
        // Same handle on repeat.
        let h2 = icache.get(&cache, &layout, 5).unwrap();
        assert!(Arc::ptr_eq(&h, &h2));
    }

    #[test]
    fn clear_makes_slot_free() {
        let (cache, jbd, layout) = setup();
        write_inode(
            &cache,
            &jbd,
            &layout,
            9,
            &ExtInodeMem::new(FileType::File, 0),
            0,
        )
        .unwrap();
        clear_inode(&cache, &jbd, &layout, 9, 1).unwrap();
        let icache = ExtInodeCache::new(cache.device().byte_device().contention());
        assert!(icache.get(&cache, &layout, 9).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let (cache, _jbd, layout) = setup();
        let icache = ExtInodeCache::new(cache.device().byte_device().contention());
        assert!(icache.get(&cache, &layout, 0).is_err());
        assert!(icache.get(&cache, &layout, layout.inode_count).is_err());
    }
}
