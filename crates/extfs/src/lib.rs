//! Block-based baseline file systems for the NVMMBD comparison.
//!
//! The paper evaluates HiNFS against traditional file systems running on a
//! RAMDISK-like NVMM block device (Fig 3(a)) and against EXT4-DAX. This
//! crate provides all three as one [`Extfs`] type with an [`ExtMode`]:
//!
//! - [`ExtMode::Ext2`] — no journal; metadata and data through the OS page
//!   cache (modeled by [`cache::BufferCache`]) and the generic block layer.
//!   Every file I/O takes two copies: device ↔ page cache ↔ user buffer.
//! - [`ExtMode::Ext4`] — adds a jbd2-style physical redo journal in
//!   ordered-data mode: data pages are flushed before the journal commit.
//! - [`ExtMode::Ext4Dax`] — the DAX patch: file data bypasses the page
//!   cache and the block layer (single copy straight to the NVMM bytes),
//!   while metadata keeps the cache-oriented ext4 path — exactly the split
//!   the paper blames for DAX's weak metadata performance (Varmail).
//!
//! The on-media format is an ext2-like layout: superblock, block/inode
//! bitmaps, inode table, and per-inode 12+1+1 (direct / indirect /
//! double-indirect) block pointers.

pub mod alloc;
pub mod blkmap;
pub mod cache;
pub mod dir;
pub mod fs;
pub mod inode;
pub mod jbd;
pub mod layout;

pub use fs::{ExtOptions, Extfs};

/// Journal commit / writeback period (5 s, like jbd2).
pub const COMMIT_PERIOD_NS: u64 = 5_000_000_000;

/// Age after which dirty pages are written back (30 s, like the kernel's
/// `dirty_expire_centisecs`).
pub const DIRTY_AGE_NS: u64 = 30_000_000_000;

/// Which baseline personality an [`Extfs`] instance runs as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtMode {
    /// Traditional file system without journaling (EXT2+NVMMBD).
    Ext2,
    /// Traditional journaling file system, ordered data mode (EXT4+NVMMBD).
    Ext4,
    /// DAX: direct data access, cache-oriented metadata (EXT4-DAX).
    Ext4Dax,
}

impl ExtMode {
    /// Whether metadata changes are journaled.
    pub fn journaled(self) -> bool {
        !matches!(self, ExtMode::Ext2)
    }

    /// Whether file data bypasses the page cache.
    pub fn dax_data(self) -> bool {
        matches!(self, ExtMode::Ext4Dax)
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            ExtMode::Ext2 => "ext2-nvmmbd",
            ExtMode::Ext4 => "ext4-nvmmbd",
            ExtMode::Ext4Dax => "ext4-dax",
        }
    }
}
