//! NVMMBD: the RAMDISK-like NVMM block device of the paper's baseline
//! comparison (§5.1).
//!
//! The paper modifies Linux's `brd` RAM-disk driver so that traditional
//! block-based file systems (ext2/ext4) can run on emulated NVMM. Every
//! request through the block interface pays the *generic block layer* cost
//! (request setup, queueing, driver entry — `CostModel::block_layer_ns`),
//! and writes additionally pay the NVMM persist latency, because a brd
//! "disk write" is a memcpy into the NVMM region.
//!
//! EXT4-DAX bypasses this interface for file data and reaches the backing
//! byte-addressable device directly via [`Nvmmbd::byte_device`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

/// A block-device view over an emulated NVMM region.
#[derive(Debug)]
pub struct Nvmmbd {
    dev: Arc<NvmmDevice>,
    num_blocks: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
}

impl Nvmmbd {
    /// Wraps an NVMM device as a block device. The device length must be a
    /// whole number of 4 KiB blocks.
    pub fn new(dev: Arc<NvmmDevice>) -> Nvmmbd {
        assert_eq!(dev.len() % BLOCK_SIZE, 0, "device not block-aligned");
        let num_blocks = (dev.len() / BLOCK_SIZE) as u64;
        Nvmmbd {
            dev,
            num_blocks,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    /// Number of 4 KiB blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// The backing byte-addressable device (the DAX escape hatch).
    pub fn byte_device(&self) -> &Arc<NvmmDevice> {
        &self.dev
    }

    fn check(&self, blk: u64) {
        assert!(blk < self.num_blocks, "block {blk} out of range");
    }

    /// Reads one block through the block layer into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `blk` is out of range or `buf` is not one block long.
    pub fn read_block(&self, cat: Cat, blk: u64, buf: &mut [u8]) {
        self.check(blk);
        assert_eq!(buf.len(), BLOCK_SIZE);
        self.reads.fetch_add(1, Ordering::Relaxed);
        let env = self.dev.env();
        env.charge(Cat::BlockLayer, env.cost().block_layer_ns);
        self.dev.read(cat, blk * BLOCK_SIZE as u64, buf);
    }

    /// Writes one block through the block layer. A brd write lands in NVMM,
    /// so it is durable when the request completes (the driver's memcpy
    /// plus the NVMM persist latency).
    ///
    /// # Panics
    ///
    /// Panics if `blk` is out of range or `data` is not one block long.
    pub fn write_block(&self, cat: Cat, blk: u64, data: &[u8]) {
        self.check(blk);
        assert_eq!(data.len(), BLOCK_SIZE);
        self.writes.fetch_add(1, Ordering::Relaxed);
        let env = self.dev.env();
        env.charge(Cat::BlockLayer, env.cost().block_layer_ns);
        self.dev.write_persist(cat, blk * BLOCK_SIZE as u64, data);
    }

    /// Issues a write barrier (REQ_FLUSH equivalent).
    pub fn flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.dev.sfence();
    }

    /// `(reads, writes, flushes)` request counters.
    pub fn request_counts(&self) -> (u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{ledger, CostModel, SimEnv};

    fn bd() -> Nvmmbd {
        let env = SimEnv::new_virtual(CostModel::default());
        Nvmmbd::new(NvmmDevice::new(env, 256 * BLOCK_SIZE))
    }

    #[test]
    fn block_roundtrip() {
        let bd = bd();
        let data = vec![7u8; BLOCK_SIZE];
        bd.write_block(Cat::UserWrite, 3, &data);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::UserRead, 3, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(bd.request_counts(), (1, 1, 0));
    }

    #[test]
    fn requests_pay_block_layer_cost() {
        let bd = bd();
        let env = bd.byte_device().env().clone();
        ledger::reset();
        env.set_now(0);
        let data = vec![0u8; BLOCK_SIZE];
        bd.write_block(Cat::Writeback, 0, &data);
        let snap = ledger::snapshot();
        assert_eq!(snap.get(Cat::BlockLayer), env.cost().block_layer_ns);
        // The write also pays the full NVMM persist latency for 64 lines.
        assert!(snap.get(Cat::Writeback) >= env.cost().nvmm_persist_ns(64));
        // A read pays the block layer but no NVMM write latency.
        ledger::reset();
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::Fetch, 0, &mut buf);
        let snap = ledger::snapshot();
        assert_eq!(snap.get(Cat::BlockLayer), env.cost().block_layer_ns);
        assert_eq!(
            snap.get(Cat::Fetch),
            env.cost().dram_copy_ns(BLOCK_SIZE),
            "reads run at DRAM speed"
        );
    }

    #[test]
    fn writes_are_durable() {
        let bd = bd();
        let data = vec![9u8; BLOCK_SIZE];
        bd.write_block(Cat::UserWrite, 5, &data);
        bd.byte_device().crash();
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::UserRead, 5, &mut buf);
        assert_eq!(buf, data, "block writes persist like brd-on-NVMM");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let bd = bd();
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::UserRead, 256, &mut buf);
    }
}
