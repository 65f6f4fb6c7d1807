//! On-NVMM layout: region map and superblock.
//!
//! ```text
//! block 0                superblock
//! blocks 1 .. 1+J        journal (header block + 64 B log entries)
//! blocks 1+J .. +I       inode table (256 B slots)
//! blocks .. +B           allocator image (bitmap persisted on clean unmount)
//! blocks .. end          data area (file data, tree nodes, directories)
//! ```

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

/// Magic number identifying a formatted device ("PMFSRS16").
pub const MAGIC: u64 = 0x504d_4653_5253_3136;

/// On-media format version.
pub const VERSION: u64 = 1;

/// Size of one inode slot in bytes.
pub const INODE_SLOT: usize = 256;

/// Inode slots per table block.
pub const INODES_PER_BLOCK: u64 = (BLOCK_SIZE / INODE_SLOT) as u64;

/// The root directory's inode number. Inode 0 is never used so that a zero
/// pointer always means "absent".
pub const ROOT_INO: u64 = 1;

/// Region map of a formatted device. Derived from the superblock; all units
/// are 4 KiB blocks unless noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total device blocks.
    pub total_blocks: u64,
    /// First journal block (the journal header).
    pub journal_start: u64,
    /// Journal length in blocks, including the header block.
    pub journal_blocks: u64,
    /// First inode table block.
    pub itable_start: u64,
    /// Inode table length in blocks.
    pub itable_blocks: u64,
    /// Number of inode slots.
    pub inode_count: u64,
    /// First block of the persisted allocator image.
    pub bitmap_start: u64,
    /// Allocator image length in blocks.
    pub bitmap_blocks: u64,
    /// First data block.
    pub data_start: u64,
}

impl Layout {
    /// Computes a layout for a device of `total_blocks` blocks with the
    /// given journal size and inode count.
    pub fn compute(total_blocks: u64, journal_blocks: u64, inode_count: u64) -> Result<Layout> {
        let itable_blocks = inode_count.div_ceil(INODES_PER_BLOCK);
        // One bit per device block.
        let bitmap_blocks = total_blocks.div_ceil(8 * BLOCK_SIZE as u64);
        let journal_start = 1;
        let itable_start = journal_start + journal_blocks;
        let bitmap_start = itable_start + itable_blocks;
        let data_start = bitmap_start + bitmap_blocks;
        if data_start + 8 > total_blocks {
            return Err(FsError::InvalidArgument("device too small for layout"));
        }
        Ok(Layout {
            total_blocks,
            journal_start,
            journal_blocks,
            itable_start,
            itable_blocks,
            inode_count,
            bitmap_start,
            bitmap_blocks,
            data_start,
        })
    }

    /// Byte offset of the start of block `b`.
    pub fn block_off(b: u64) -> u64 {
        b * BLOCK_SIZE as u64
    }

    /// Byte offset of inode slot `ino`.
    pub fn inode_off(&self, ino: u64) -> u64 {
        debug_assert!(ino < self.inode_count, "inode {ino} out of range");
        Self::block_off(self.itable_start) + ino * INODE_SLOT as u64
    }

    /// Number of data-area blocks.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }
}

/// Superblock field offsets within block 0 (all little-endian `u64`s).
mod sbo {
    pub const MAGIC: u64 = 0;
    pub const VERSION: u64 = 8;
    pub const TOTAL_BLOCKS: u64 = 16;
    pub const JOURNAL_START: u64 = 24;
    pub const JOURNAL_BLOCKS: u64 = 32;
    pub const ITABLE_START: u64 = 40;
    pub const ITABLE_BLOCKS: u64 = 48;
    pub const INODE_COUNT: u64 = 56;
    pub const BITMAP_START: u64 = 64;
    pub const BITMAP_BLOCKS: u64 = 72;
    pub const DATA_START: u64 = 80;
    /// 1 if the file system was unmounted cleanly (allocator image valid).
    pub const CLEAN: u64 = 88;
}

/// Writes a freshly formatted superblock.
pub fn write_superblock(dev: &NvmmDevice, l: &Layout) {
    let mut block = [0u8; BLOCK_SIZE];
    let mut put = |off: u64, v: u64| {
        block[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
    };
    put(sbo::MAGIC, MAGIC);
    put(sbo::VERSION, VERSION);
    put(sbo::TOTAL_BLOCKS, l.total_blocks);
    put(sbo::JOURNAL_START, l.journal_start);
    put(sbo::JOURNAL_BLOCKS, l.journal_blocks);
    put(sbo::ITABLE_START, l.itable_start);
    put(sbo::ITABLE_BLOCKS, l.itable_blocks);
    put(sbo::INODE_COUNT, l.inode_count);
    put(sbo::BITMAP_START, l.bitmap_start);
    put(sbo::BITMAP_BLOCKS, l.bitmap_blocks);
    put(sbo::DATA_START, l.data_start);
    put(sbo::CLEAN, 1);
    dev.write_persist(Cat::Meta, 0, &block);
    dev.sfence();
}

/// Reads and validates the superblock, returning the layout and the clean
/// flag.
pub fn read_superblock(dev: &NvmmDevice) -> Result<(Layout, bool)> {
    let get = |off: u64| dev.read_u64(Cat::Meta, off);
    if get(sbo::MAGIC) != MAGIC {
        return Err(FsError::Corrupted("superblock magic"));
    }
    if get(sbo::VERSION) != VERSION {
        return Err(FsError::Corrupted("superblock version"));
    }
    let layout = Layout {
        total_blocks: get(sbo::TOTAL_BLOCKS),
        journal_start: get(sbo::JOURNAL_START),
        journal_blocks: get(sbo::JOURNAL_BLOCKS),
        itable_start: get(sbo::ITABLE_START),
        itable_blocks: get(sbo::ITABLE_BLOCKS),
        inode_count: get(sbo::INODE_COUNT),
        bitmap_start: get(sbo::BITMAP_START),
        bitmap_blocks: get(sbo::BITMAP_BLOCKS),
        data_start: get(sbo::DATA_START),
    };
    if Layout::block_off(layout.total_blocks) != dev.len() as u64 {
        return Err(FsError::Corrupted("superblock size mismatch"));
    }
    if layout.data_start >= layout.total_blocks {
        return Err(FsError::Corrupted("superblock layout"));
    }
    let clean = get(sbo::CLEAN) == 1;
    Ok((layout, clean))
}

/// Persists the clean-unmount flag (8-byte atomic update).
pub fn set_clean(dev: &NvmmDevice, clean: bool) {
    dev.write_u64_persist(Cat::Meta, sbo::CLEAN, clean as u64);
    dev.sfence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    fn dev(blocks: u64) -> Arc<NvmmDevice> {
        NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            (blocks as usize) * BLOCK_SIZE,
        )
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let l = Layout::compute(4096, 256, 1024).unwrap();
        assert_eq!(l.journal_start, 1);
        assert!(l.itable_start >= l.journal_start + l.journal_blocks);
        assert!(l.bitmap_start >= l.itable_start + l.itable_blocks);
        assert!(l.data_start >= l.bitmap_start + l.bitmap_blocks);
        assert!(l.data_start < l.total_blocks);
        assert_eq!(l.data_blocks(), l.total_blocks - l.data_start);
    }

    #[test]
    fn layout_rejects_tiny_devices() {
        assert!(Layout::compute(10, 8, 1024).is_err());
    }

    #[test]
    fn superblock_roundtrip() {
        let d = dev(4096);
        let l = Layout::compute(4096, 256, 1024).unwrap();
        write_superblock(&d, &l);
        let (got, clean) = read_superblock(&d).unwrap();
        assert_eq!(got, l);
        assert!(clean);
    }

    #[test]
    fn superblock_survives_crash() {
        let d = dev(4096);
        let l = Layout::compute(4096, 256, 1024).unwrap();
        write_superblock(&d, &l);
        d.crash();
        let (got, _) = read_superblock(&d).unwrap();
        assert_eq!(got, l);
    }

    #[test]
    fn clean_flag_toggles() {
        let d = dev(4096);
        let l = Layout::compute(4096, 256, 1024).unwrap();
        write_superblock(&d, &l);
        set_clean(&d, false);
        let (_, clean) = read_superblock(&d).unwrap();
        assert!(!clean);
        set_clean(&d, true);
        let (_, clean) = read_superblock(&d).unwrap();
        assert!(clean);
    }

    #[test]
    fn unformatted_device_is_rejected() {
        let d = dev(4096);
        assert_eq!(
            read_superblock(&d),
            Err(FsError::Corrupted("superblock magic"))
        );
    }

    #[test]
    fn inode_offsets_within_table() {
        let l = Layout::compute(4096, 256, 1024).unwrap();
        let first = l.inode_off(0);
        let last = l.inode_off(l.inode_count - 1);
        assert_eq!(first, Layout::block_off(l.itable_start));
        assert!(last + INODE_SLOT as u64 <= Layout::block_off(l.itable_start + l.itable_blocks));
    }
}
