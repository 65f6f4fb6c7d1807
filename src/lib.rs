//! # hinfs-suite — a reproduction of HiNFS (EuroSys 2016)
//!
//! *A High Performance File System for Non-Volatile Main Memory* —
//! Jiaxin Ou, Jiwu Shu, Youyou Lu.
//!
//! This crate re-exports the whole workspace as one convenient façade:
//!
//! - [`hinfs`] — the paper's contribution: the NVMM-aware write buffer
//!   file system (plus its NCLFW / WB ablation variants);
//! - [`pmfs`] — the PMFS-like substrate and baseline (direct access,
//!   cacheline-granular metadata undo journal);
//! - [`extfs`] / [`blockdev`] — the block-based baselines (ext2/ext4 on an
//!   NVMMBD RAM-disk emulator, and EXT4-DAX);
//! - [`nvmm`] — the NVMM device model: write latency/bandwidth emulation,
//!   virtual or busy-wait time, persistence domain with crash simulation;
//! - [`fskit`] — the shared `FileSystem` trait every system implements;
//! - [`workloads`] — filebench/fio/postmark/TPC-C/kernel/trace generators
//!   and the deterministic experiment runner.
//!
//! ## Quickstart
//!
//! ```
//! use hinfs_suite::prelude::*;
//!
//! // An emulated machine: 200 ns NVMM writes, 1 GB/s write bandwidth.
//! let env = SimEnv::new_virtual(CostModel::default());
//! let dev = NvmmDevice::new(env.clone(), 64 << 20);
//!
//! // Format and mount HiNFS with an 8 MiB DRAM write buffer.
//! let fs = Hinfs::mkfs(
//!     dev,
//!     PmfsOptions::default(),
//!     HinfsConfig::default().with_buffer_bytes(8 << 20),
//! )
//! .unwrap();
//!
//! let fd = fs.open("/hello", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
//! fs.write(fd, 0, b"buffered in DRAM, durable after fsync").unwrap();
//! fs.fsync(fd).unwrap();
//! fs.close(fd).unwrap();
//! fs.unmount().unwrap();
//! ```

pub use blockdev;
pub use extfs;
pub use faultfs;
pub use fskit;
pub use hinfs;
pub use nvmm;
pub use pmfs;
pub use workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use extfs::{ExtMode, ExtOptions, Extfs};
    pub use faultfs::{Harness, InjectedFault, Script, SweepConfig};
    pub use fskit::{DirEntry, Fd, FileSystem, FileType, FsError, OpenFlags, Stat};
    pub use hinfs::{Hinfs, HinfsConfig};
    pub use nvmm::{Cat, CostModel, NvmmDevice, SimEnv, TimeMode, BLOCK_SIZE, CACHELINE};
    pub use pmfs::{Pmfs, PmfsOptions};
    pub use workloads::runner::{Actor, Ctx, RunLimit, Runner};
    pub use workloads::setups::{build, SystemConfig, SystemKind};
}
