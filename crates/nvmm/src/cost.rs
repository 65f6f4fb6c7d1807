//! The cost model: every latency constant of the simulated machine.
//!
//! Defaults correspond to Table 2 of the paper (Intel Xeon E5-2620 with an
//! emulated NVMM whose write latency is 200 ns and whose sustained write
//! bandwidth is 1 GB/s, roughly 1/8 of the host DRAM bandwidth). The two
//! software-overhead constants (`syscall_ns` and `block_layer_ns`) are
//! calibration constants chosen so the Fig 1 time-breakdown proportions
//! match the paper; see `DESIGN.md`.

/// Latency and bandwidth constants of the simulated machine.
///
/// All file systems in the workspace charge their work through one shared
/// `CostModel`, so a parameter sweep (e.g. the Fig 11 NVMM write-latency
/// sweep) only has to change this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Extra delay per persisted cacheline, in nanoseconds (paper: 200 ns,
    /// swept 50–800 ns in Fig 11). Applied after each `clflush` and for
    /// every non-temporal store line, exactly like the paper's emulator.
    pub nvmm_write_latency_ns: u64,
    /// Sustained NVMM write bandwidth in bytes per second (paper: 1 GB/s).
    /// Enforced on both clocks by the [`BandwidthGate`](crate::gate::BandwidthGate)
    /// calendar: at most `bandwidth × 1 µs` of cachelines complete in any
    /// 1 µs bucket.
    pub nvmm_write_bandwidth: u64,
    /// Extra latency per NVMM read, in nanoseconds. The paper assumes NVMM
    /// reads run at DRAM speed, so this defaults to zero.
    pub nvmm_read_extra_ns: u64,
    /// DRAM copy cost in nanoseconds per KiB moved (both directions).
    /// Default 128 ns/KiB ≈ 8 GB/s, 8× the default NVMM write bandwidth,
    /// matching the paper's "about 1/8 of the available DRAM bandwidth".
    pub dram_ns_per_kib: u64,
    /// Fixed software cost per file system call: user/kernel mode switch,
    /// fd lookup, file abstraction. Appears as "Others" in the Fig 1
    /// breakdown. Calibrated to 600 ns.
    pub syscall_ns: u64,
    /// Generic block layer + request queue + driver cost per 4 KiB block
    /// request (bio allocation, request queue, brd entry, completion). Only
    /// the NVMMBD-based file systems pay it. Calibrated to 6000 ns, in the
    /// range reported for the full 3.11-era single-queue block I/O path.
    pub block_layer_ns: u64,
    /// Page cache software cost per 4 KiB page access (radix-tree lookup,
    /// page locking, LRU bookkeeping). Paid by the cache-based file systems
    /// on hits and misses alike. Calibrated to 400 ns.
    pub page_cache_ns: u64,
    /// Cost of a store fence (`mfence`/`sfence`), in nanoseconds.
    pub fence_ns: u64,
    /// DRAM write latency used by the Buffer Benefit Model's inequality
    /// (`L_dram` in the paper), in nanoseconds per cacheline. 40 ns is a
    /// typical DDR random-write latency; it puts the lazy/eager boundary at
    /// `N_cf/N_cw < (L_nvmm − L_dram)/L_nvmm` (0.8 at the 200 ns default).
    pub dram_write_latency_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            nvmm_write_latency_ns: 200,
            nvmm_write_bandwidth: 1 << 30,
            nvmm_read_extra_ns: 0,
            dram_ns_per_kib: 128,
            syscall_ns: 600,
            block_layer_ns: 6000,
            page_cache_ns: 400,
            fence_ns: 15,
            dram_write_latency_ns: 40,
        }
    }
}

impl CostModel {
    /// Returns a cost model with a different NVMM write latency, keeping
    /// everything else at its current value. Convenience for the Fig 11
    /// latency sweep.
    pub fn with_write_latency(mut self, ns: u64) -> Self {
        self.nvmm_write_latency_ns = ns;
        self
    }

    /// Returns a cost model with a different NVMM write bandwidth.
    pub fn with_write_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.nvmm_write_bandwidth = bytes_per_sec;
        self
    }

    /// Cost of copying `bytes` through DRAM (either direction), in ns.
    pub fn dram_copy_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.dram_ns_per_kib) / 1024
    }

    /// Cost of persisting `lines` cachelines to NVMM, in ns, excluding any
    /// queueing delay imposed by the bandwidth gate.
    pub fn nvmm_persist_ns(&self, lines: usize) -> u64 {
        lines as u64 * self.nvmm_write_latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let m = CostModel::default();
        assert_eq!(m.nvmm_write_latency_ns, 200);
        assert_eq!(m.nvmm_write_bandwidth, 1 << 30);
        assert_eq!(m.nvmm_read_extra_ns, 0);
    }

    #[test]
    fn dram_copy_cost_linear() {
        let m = CostModel::default();
        assert_eq!(m.dram_copy_ns(1024), 128);
        assert_eq!(m.dram_copy_ns(4096), 512);
        assert_eq!(m.dram_copy_ns(0), 0);
    }

    #[test]
    fn persist_cost_linear_in_lines() {
        let m = CostModel::default();
        assert_eq!(m.nvmm_persist_ns(1), 200);
        assert_eq!(m.nvmm_persist_ns(64), 12_800);
    }
}
