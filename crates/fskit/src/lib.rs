//! Shared file system kit for the HiNFS reproduction workspace.
//!
//! Every file system in the workspace (PMFS, EXT2/EXT4 on NVMMBD, EXT4-DAX
//! and HiNFS itself) implements the same [`FileSystem`] trait, so workloads
//! and experiments are written once and run against any of them. The crate
//! also provides the building blocks those implementations share: the error
//! type, open flags, path handling, a file descriptor table and the
//! directory name index ([`namei`]).

pub mod dirent;
pub mod error;
pub mod fdtable;
pub mod flags;
pub mod le;
pub mod lrulist;
pub mod namei;
pub mod path;
pub mod types;
pub mod vfs;

pub use error::{FsError, Result};
pub use fdtable::FdTable;
pub use flags::OpenFlags;
pub use types::{DirEntry, Fd, FileType, Ino, Stat};
pub use vfs::{FileSystem, MmapHandle};
