//! NVMM device emulation for the HiNFS reproduction.
//!
//! This crate is the substrate every file system in the workspace is built
//! on. It models the environment of the paper's evaluation (EuroSys 2016,
//! §5.1):
//!
//! - A byte-addressable **NVMM device** backed by host DRAM, where every
//!   persisted cacheline pays a configurable extra write latency (200 ns by
//!   default) and the sustained write bandwidth is capped (1 GB/s by
//!   default) by one calendar of 1 µs buckets on both clocks
//!   ([`gate::BandwidthGate`]), the queueing the paper's `N_w` writer
//!   cap produces.
//! - Reads run at DRAM speed (the paper assumes symmetric read latency).
//! - A **volatile store buffer** stands in for the CPU cache: stores issued
//!   with [`NvmmDevice::write_cached`] are not durable until an explicit
//!   [`NvmmDevice::clflush`], while [`NvmmDevice::write_persist`] models the
//!   non-temporal (`*_nocache`) copy path used by PMFS. Every device keeps
//!   the durable bytes of each line a cached store left unflushed, and a
//!   crash-simulation API writes them back — O(pending lines), one image —
//!   so recovery logic can be tested for real.
//!
//! Two [`TimeMode`]s are supported:
//!
//! - [`TimeMode::Virtual`] advances a per-thread logical clock. It is
//!   deterministic and independent of the host CPU, which makes every
//!   experiment reproducible on a single-core container.
//! - [`TimeMode::Spin`] realizes each model cost as a calibrated busy-wait,
//!   which is the same technique the paper's emulator used (an RDTSCP spin
//!   loop after each `clflush`).
//!
//! Time spent is attributed to a [`Cat`] category in a thread-local
//! [`Ledger`], which is how the breakdown figures (Fig 1 and Fig 12) are
//! regenerated.

pub mod cost;
pub mod crash;
pub mod device;
pub mod fault;
pub mod gate;
pub mod ledger;
pub mod stats;
pub mod time;

pub use cost::CostModel;
pub use device::NvmmDevice;
pub use fault::{BoundaryKind, BoundaryRec, CrashSignal, FaultHook, FaultPlan, InjectedFault};
pub use ledger::{Cat, Ledger};
pub use stats::DeviceStats;
pub use time::{SimEnv, TimeMode};

/// Size of a processor cacheline in bytes; the granularity of persistence.
pub const CACHELINE: usize = 64;

/// Size of a file system block in bytes (the paper's default).
pub const BLOCK_SIZE: usize = 4096;

/// Number of cachelines in one block.
pub const LINES_PER_BLOCK: usize = BLOCK_SIZE / CACHELINE;

/// Returns the number of cachelines touched by the byte range `[off, off + len)`.
///
/// Zero-length ranges touch zero lines.
///
/// # Examples
///
/// ```
/// // A write of 112 bytes starting at byte 0 touches two cachelines.
/// assert_eq!(nvmm::lines_touched(0, 112), 2);
/// // An unaligned 1-byte write still dirties a whole line.
/// assert_eq!(nvmm::lines_touched(63, 1), 1);
/// assert_eq!(nvmm::lines_touched(63, 2), 2);
/// assert_eq!(nvmm::lines_touched(0, 0), 0);
/// ```
pub fn lines_touched(off: u64, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = off / CACHELINE as u64;
    let last = (off + len as u64 - 1) / CACHELINE as u64;
    (last - first + 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_touched_aligned() {
        assert_eq!(lines_touched(0, 64), 1);
        assert_eq!(lines_touched(0, 4096), 64);
        assert_eq!(lines_touched(64, 64), 1);
    }

    #[test]
    fn lines_touched_unaligned() {
        assert_eq!(lines_touched(1, 64), 2);
        assert_eq!(lines_touched(60, 8), 2);
        assert_eq!(lines_touched(127, 1), 1);
        assert_eq!(lines_touched(128, 1), 1);
    }

    #[test]
    fn block_constants_consistent() {
        assert_eq!(LINES_PER_BLOCK * CACHELINE, BLOCK_SIZE);
    }
}
