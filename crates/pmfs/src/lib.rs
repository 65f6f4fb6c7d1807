//! A PMFS-like NVMM-aware file system.
//!
//! This crate reproduces the baseline system of the paper (Dulloor et al.,
//! *System Software for Persistent Memory*, EuroSys 2014) to the level of
//! detail the HiNFS evaluation depends on:
//!
//! - **Direct access**: file reads and writes copy once, between the user
//!   buffer and NVMM, bypassing any page cache. Writes use the non-temporal
//!   path ([`nvmm::NvmmDevice::write_persist`]) so data is durable when the
//!   call returns, paying the NVMM write latency on the critical path —
//!   which is exactly the overhead HiNFS attacks.
//! - **Cacheline-granular metadata undo journal** with a valid flag written
//!   last in each 64 B log entry, 8-byte atomic in-place updates where
//!   possible, and `clflush`/`mfence` ordering.
//! - **Per-file block index**: a 512-ary radix B-tree of 4 KiB nodes, as in
//!   PMFS.
//! - **DRAM allocator state** rebuilt by walking the file system at
//!   recovery, persisted on clean unmount.
//! - **Direct mmap** of file data (PMFS's pivotal feature), where stores
//!   are volatile until `msync`.
//!
//! HiNFS (the `hinfs` crate) is implemented *on top of* this crate's
//! [`Pmfs`] type, mirroring how the paper built HiNFS inside PMFS: the
//! namespace, journal, allocator, and block trees are shared, while the
//! data path is replaced by the DRAM write buffer.

pub mod alloc;
pub mod dir;
pub mod file;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod layout;
pub mod mmap;
pub mod tree;

pub use fs::{Held, InodeLogged, Pmfs, PmfsOptions, VolatileLayer};
pub use journal::{Credits, Journal, JournalUsage, TxHandle};
pub use layout::Layout;
