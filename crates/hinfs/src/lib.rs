//! HiNFS — a high performance file system for non-volatile main memory.
//!
//! Reproduction of Ou, Shu & Lu, *HiNFS: A High Performance File System for
//! Non-Volatile Main Memory* (EuroSys 2016), built — like the original — on
//! top of PMFS's persistent structures (the [`pmfs`] crate).
//!
//! The paper's mechanisms map to this crate's modules as follows:
//!
//! | Paper concept | Module |
//! |---|---|
//! | NVMM-aware Write Buffer (one block budget, `Low_f`/`High_f` over it, per-shard LRW lists, 5 s / 30 s flushes) | [`buffer`], [`writeback`] |
//! | DRAM Block Index (per-file B-tree in DRAM) | [`index`] |
//! | Cacheline Bitmap + CLFW (fine-grained fetch/writeback) | [`buffer`] |
//! | Eager-Persistent Write Checker + Buffer Benefit Model + ghost buffer | [`checker`] |
//! | Ordered-mode journaling with deferred commits | [`tracker`] (FIFO per-file transactions over the PMFS undo journal) |
//! | Direct reads stitched from DRAM and NVMM | [`fs`] read path |
//! | Direct mmap with eager pinning | [`fs`] |
//!
//! Ablation variants from the evaluation are configuration switches:
//! [`HinfsConfig::clfw`] `= false` gives **HiNFS-NCLFW** (block-granular
//! fetch/writeback, Fig 9) and [`HinfsConfig::checker`] `= false` gives
//! **HiNFS-WB** (every write buffered, Fig 12/13).

pub mod buffer;
pub mod checker;
pub mod fs;
pub mod index;
pub mod introspect;
pub mod lrw;
pub mod stats;
pub mod tracker;
pub mod writeback;

pub use fs::Hinfs;
pub use stats::HinfsStats;

/// Configuration of a HiNFS mount.
#[derive(Debug, Clone)]
pub struct HinfsConfig {
    /// DRAM write buffer capacity in bytes (paper default: 2 GiB for the
    /// filebench runs; experiments scale it relative to the working set).
    pub buffer_bytes: usize,
    /// `Low_f`: background reclaim starts when the free fraction of DRAM
    /// blocks drops below this (paper: 5 %).
    pub low_watermark: f64,
    /// `High_f`: reclaim stops once the free fraction exceeds this
    /// (paper: 20 %).
    pub high_watermark: f64,
    /// Period of the background writeback wake-up (paper: 5 s).
    pub periodic_wb_ns: u64,
    /// Dirty blocks older than this are flushed by the periodic pass
    /// (paper: 30 s).
    pub dirty_age_ns: u64,
    /// Eager→Lazy decay: a block drops its Eager-Persistent state if its
    /// file saw no synchronization for this long (paper: 5 s).
    pub eager_decay_ns: u64,
    /// Cacheline Level Fetch/Writeback. `false` reproduces HiNFS-NCLFW:
    /// whole-block fetch-before-write and whole-block writeback.
    pub clfw: bool,
    /// The Eager-Persistent Write Checker. `false` reproduces HiNFS-WB:
    /// every write is buffered in DRAM first.
    pub checker: bool,
    /// Mount-wide sync option: every write is eager-persistent (case 1).
    pub sync_mount: bool,
    /// Number of background writeback threads in spin mode (paper mounts
    /// "multiple independent kernel threads"; virtual mode uses one
    /// deterministic writeback actor regardless).
    pub wb_threads: usize,
    /// Online invariant auditor: when set, every fsync and every periodic
    /// writeback pass runs [`obsv::Introspect::audit`] and records
    /// violations on the trace ring and the `obsv_audit_violations`
    /// counter. Off by default (the audit walks the whole buffer pool).
    pub audit: bool,
    /// Number of buffer shards. The per-file index, the LRW list and the
    /// slot arena are split into this many instances keyed by
    /// `ino % shards`, each behind its own lock, so writers to different
    /// files do not serialize on one buffer mutex. The *capacity* is not
    /// split: every shard draws on the one budget of
    /// [`Self::buffer_blocks`].
    pub shards: usize,
}

impl Default for HinfsConfig {
    fn default() -> Self {
        HinfsConfig {
            buffer_bytes: 64 << 20,
            low_watermark: 0.05,
            high_watermark: 0.20,
            periodic_wb_ns: 5_000_000_000,
            dirty_age_ns: 30_000_000_000,
            eager_decay_ns: 5_000_000_000,
            clfw: true,
            checker: true,
            sync_mount: false,
            wb_threads: 2,
            audit: false,
            shards: obsv::NSHARDS,
        }
    }
}

impl HinfsConfig {
    /// Variant without CLFW (HiNFS-NCLFW in Fig 9).
    pub fn nclfw(mut self) -> Self {
        self.clfw = false;
        self
    }

    /// Variant without the Eager-Persistent Write Checker (HiNFS-WB in
    /// Fig 12/13).
    pub fn wb_only(mut self) -> Self {
        self.checker = false;
        self
    }

    /// Sets the buffer size.
    pub fn with_buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Enables the online invariant auditor.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Sets the buffer-pool shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Number of buffer blocks this configuration provides — the mount's
    /// one budget, whatever the shard count.
    pub fn buffer_blocks(&self) -> usize {
        (self.buffer_bytes / nvmm::BLOCK_SIZE).max(8)
    }

    /// Reclaim trigger threshold in blocks (`Low_f`).
    pub fn low_blocks(&self) -> usize {
        ((self.buffer_blocks() as f64 * self.low_watermark) as usize).max(1)
    }

    /// Reclaim stop threshold in blocks (`High_f`).
    pub fn high_blocks(&self) -> usize {
        ((self.buffer_blocks() as f64 * self.high_watermark) as usize).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = HinfsConfig::default();
        assert_eq!(c.low_watermark, 0.05);
        assert_eq!(c.high_watermark, 0.20);
        assert_eq!(c.periodic_wb_ns, 5_000_000_000);
        assert_eq!(c.dirty_age_ns, 30_000_000_000);
        assert_eq!(c.eager_decay_ns, 5_000_000_000);
        assert!(c.clfw);
        assert!(c.checker);
    }

    #[test]
    fn variants_flip_switches() {
        assert!(!HinfsConfig::default().nclfw().clfw);
        assert!(!HinfsConfig::default().wb_only().checker);
    }

    #[test]
    fn watermarks_ordered() {
        let c = HinfsConfig::default().with_buffer_bytes(1 << 20);
        assert!(c.low_blocks() < c.high_blocks());
        assert!(c.high_blocks() < c.buffer_blocks());
    }

    #[test]
    fn single_shard_keeps_legacy_capacity() {
        // The budget does not depend on the shard count.
        for shards in [1, 8] {
            let c = HinfsConfig::default()
                .with_shards(shards)
                .with_buffer_bytes(64 * nvmm::BLOCK_SIZE);
            assert_eq!(c.shards, shards);
            assert_eq!(c.buffer_blocks(), 64);
            assert_eq!((c.low_blocks(), c.high_blocks()), (3, 12));
        }
    }
}
