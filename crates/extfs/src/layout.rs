//! On-disk layout of the ext-like baselines.
//!
//! ```text
//! block 0              superblock
//! blocks 1 .. 1+J      journal ring (reserved even in ext2 mode)
//! blocks .. +IB        inode bitmap
//! blocks .. +BB        block bitmap
//! blocks .. +IT        inode table (256 B slots)
//! blocks .. end        data area
//! ```

use fskit::{FsError, Result};
use nvmm::{Cat, BLOCK_SIZE};

use crate::cache::BufferCache;

/// Magic number identifying a formatted device ("EXTRS-16").
pub const MAGIC: u64 = 0x4558_5452_5331_3600;

/// Size of one inode slot in bytes.
pub const INODE_SLOT: usize = 256;

/// Inode slots per table block.
pub const INODES_PER_BLOCK: u64 = (BLOCK_SIZE / INODE_SLOT) as u64;

/// The root directory's inode number (inode 0 is reserved).
pub const ROOT_INO: u64 = 1;

/// Region map, all units 4 KiB blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtLayout {
    pub total_blocks: u64,
    pub journal_start: u64,
    pub journal_blocks: u64,
    pub ibitmap_start: u64,
    pub ibitmap_blocks: u64,
    pub bbitmap_start: u64,
    pub bbitmap_blocks: u64,
    pub itable_start: u64,
    pub itable_blocks: u64,
    pub inode_count: u64,
    pub data_start: u64,
}

impl ExtLayout {
    /// Computes the layout.
    pub fn compute(total_blocks: u64, journal_blocks: u64, inode_count: u64) -> Result<ExtLayout> {
        let ibitmap_blocks = inode_count.div_ceil(8 * BLOCK_SIZE as u64).max(1);
        let bbitmap_blocks = total_blocks.div_ceil(8 * BLOCK_SIZE as u64);
        let itable_blocks = inode_count.div_ceil(INODES_PER_BLOCK);
        let journal_start = 1;
        let ibitmap_start = journal_start + journal_blocks;
        let bbitmap_start = ibitmap_start + ibitmap_blocks;
        let itable_start = bbitmap_start + bbitmap_blocks;
        let data_start = itable_start + itable_blocks;
        if data_start + 8 > total_blocks {
            return Err(FsError::InvalidArgument("device too small for ext layout"));
        }
        Ok(ExtLayout {
            total_blocks,
            journal_start,
            journal_blocks,
            ibitmap_start,
            ibitmap_blocks,
            bbitmap_start,
            bbitmap_blocks,
            itable_start,
            itable_blocks,
            inode_count,
            data_start,
        })
    }

    /// `(table block, byte offset within it)` of inode slot `ino`.
    pub fn inode_loc(&self, ino: u64) -> (u64, usize) {
        debug_assert!(ino < self.inode_count);
        (
            self.itable_start + ino / INODES_PER_BLOCK,
            (ino % INODES_PER_BLOCK) as usize * INODE_SLOT,
        )
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }
}

/// Superblock byte offsets within block 0.
mod sbo {
    pub const MAGIC: usize = 0;
    pub const TOTAL_BLOCKS: usize = 8;
    pub const JOURNAL_START: usize = 16;
    pub const JOURNAL_BLOCKS: usize = 24;
    pub const IBITMAP_START: usize = 32;
    pub const IBITMAP_BLOCKS: usize = 40;
    pub const BBITMAP_START: usize = 48;
    pub const BBITMAP_BLOCKS: usize = 56;
    pub const ITABLE_START: usize = 64;
    pub const ITABLE_BLOCKS: usize = 72;
    pub const INODE_COUNT: usize = 80;
    pub const DATA_START: usize = 88;
    pub const CLEAN: usize = 96;
}

/// Writes a fresh superblock through the cache and flushes it.
pub fn write_superblock(cache: &BufferCache, l: &ExtLayout, now: u64) -> Result<()> {
    let mut block = vec![0u8; BLOCK_SIZE];
    let mut put = |off: usize, v: u64| {
        block[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    put(sbo::MAGIC, MAGIC);
    put(sbo::TOTAL_BLOCKS, l.total_blocks);
    put(sbo::JOURNAL_START, l.journal_start);
    put(sbo::JOURNAL_BLOCKS, l.journal_blocks);
    put(sbo::IBITMAP_START, l.ibitmap_start);
    put(sbo::IBITMAP_BLOCKS, l.ibitmap_blocks);
    put(sbo::BBITMAP_START, l.bbitmap_start);
    put(sbo::BBITMAP_BLOCKS, l.bbitmap_blocks);
    put(sbo::ITABLE_START, l.itable_start);
    put(sbo::ITABLE_BLOCKS, l.itable_blocks);
    put(sbo::INODE_COUNT, l.inode_count);
    put(sbo::DATA_START, l.data_start);
    put(sbo::CLEAN, 1);
    cache.write(Cat::Meta, 0, 0, &block, now)?;
    cache.flush_block(0, obsv::DrainKind::Sync);
    Ok(())
}

/// Reads and validates the superblock; returns the layout and clean flag.
pub fn read_superblock(cache: &BufferCache) -> Result<(ExtLayout, bool)> {
    let mut block = vec![0u8; BLOCK_SIZE];
    cache.read(Cat::Meta, 0, 0, &mut block)?;
    let get = |off: usize| fskit::le::u64_at(&block, off);
    if get(sbo::MAGIC) != MAGIC {
        return Err(FsError::Corrupted("ext superblock magic"));
    }
    let layout = ExtLayout {
        total_blocks: get(sbo::TOTAL_BLOCKS),
        journal_start: get(sbo::JOURNAL_START),
        journal_blocks: get(sbo::JOURNAL_BLOCKS),
        ibitmap_start: get(sbo::IBITMAP_START),
        ibitmap_blocks: get(sbo::IBITMAP_BLOCKS),
        bbitmap_start: get(sbo::BBITMAP_START),
        bbitmap_blocks: get(sbo::BBITMAP_BLOCKS),
        itable_start: get(sbo::ITABLE_START),
        itable_blocks: get(sbo::ITABLE_BLOCKS),
        inode_count: get(sbo::INODE_COUNT),
        data_start: get(sbo::DATA_START),
    };
    if layout.data_start >= layout.total_blocks {
        return Err(FsError::Corrupted("ext superblock layout"));
    }
    Ok((layout, get(sbo::CLEAN) == 1))
}

/// Sets the clean flag and flushes the superblock.
pub fn set_clean(cache: &BufferCache, clean: bool, now: u64) -> Result<()> {
    cache.write(Cat::Meta, 0, sbo::CLEAN, &(clean as u64).to_le_bytes(), now)?;
    cache.flush_block(0, obsv::DrainKind::Sync);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use nvmm::{CostModel, NvmmDevice, SimEnv};
    use std::sync::Arc;

    fn cache(blocks: u64) -> BufferCache {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, blocks as usize * BLOCK_SIZE);
        BufferCache::new(Arc::new(Nvmmbd::new(dev)), 64)
    }

    #[test]
    fn layout_regions_ordered() {
        let l = ExtLayout::compute(8192, 256, 2048).unwrap();
        assert!(l.journal_start < l.ibitmap_start);
        assert!(l.ibitmap_start < l.bbitmap_start);
        assert!(l.bbitmap_start < l.itable_start);
        assert!(l.itable_start < l.data_start);
        assert!(l.data_start < l.total_blocks);
    }

    #[test]
    fn inode_locations_do_not_overlap() {
        let l = ExtLayout::compute(8192, 64, 64).unwrap();
        let (b0, o0) = l.inode_loc(0);
        let (b1, o1) = l.inode_loc(1);
        let (b16, _) = l.inode_loc(16);
        assert_eq!(b0, b1);
        assert_eq!(o1 - o0, INODE_SLOT);
        assert_eq!(b16, b0 + 1);
    }

    #[test]
    fn superblock_roundtrip() {
        let c = cache(8192);
        let l = ExtLayout::compute(8192, 64, 512).unwrap();
        write_superblock(&c, &l, 0).unwrap();
        let (got, clean) = read_superblock(&c).unwrap();
        assert_eq!(got, l);
        assert!(clean);
        set_clean(&c, false, 1).unwrap();
        let (_, clean) = read_superblock(&c).unwrap();
        assert!(!clean);
    }

    #[test]
    fn unformatted_rejected() {
        let c = cache(64);
        assert!(read_superblock(&c).is_err());
    }

    #[test]
    fn too_small_rejected() {
        assert!(ExtLayout::compute(100, 64, 4096).is_err());
    }
}
