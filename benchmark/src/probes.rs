//! Layer probes: one operation of one layer, repeated a fixed number of
//! times on a quiet fixture, on both clocks. Workload-independent — they
//! give every layer a price tag that a later change can be held against,
//! separate from how often a workload happens to call it.
//!
//! `vns` is exact (fixed op counts on the virtual clock). `host_ns` is
//! the median ns/call over [`BATCHES`] batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fskit::{Fd, FileSystem, OpenFlags};
use hinfs::{Hinfs, HinfsConfig};
use nvmm::{Cat, CostModel, NvmmDevice, SimEnv, BLOCK_SIZE, CACHELINE};
use pmfs::{Layout, Pmfs, PmfsOptions};

use crate::metrics::Values;
use crate::stats::median;

/// Timed batches per probe.
pub const BATCHES: usize = 5;
/// Calls per batch.
pub const CALLS: usize = 500;

const BLK: u64 = BLOCK_SIZE as u64;
const DEV_BYTES: usize = 256 << 20;
/// Large enough that no probe evicts: each probe file owns one buffer
/// shard slice (1/8 of this) and touches at most `CALLS` blocks of it.
const PROBE_BUFFER: usize = 128 << 20;

/// One layer probe.
pub struct Probe {
    pub name: &'static str,
    /// The timed call; `b` is the batch, `i` the call within it.
    call: fn(&Bed, usize, usize),
}

/// The probes, in execution order. Order matters for the `hinfs.*` data
/// probes: `write_4k_miss` buffers the blocks that `write_4k_hit` and
/// `read_4k_dram` then find in DRAM.
pub const PROBES: &[Probe] = &[
    Probe {
        name: "nvmm.persist_4k",
        call: |bed, b, i| {
            bed.raw
                .write_persist(Cat::UserWrite, slot(b, i) * BLK, &bed.block)
        },
    },
    Probe {
        name: "nvmm.flush_fence_64b",
        call: |bed, b, i| {
            let off = slot(b, i) * BLK;
            bed.raw
                .write_cached(Cat::Meta, off, &bed.block[..CACHELINE]);
            bed.raw.clflush(Cat::Meta, off, CACHELINE);
            bed.raw.sfence();
        },
    },
    Probe {
        name: "nvmm.read_4k",
        call: |bed, b, i| {
            let mut buf = [0u8; BLOCK_SIZE];
            bed.raw.read(Cat::UserRead, slot(b, i) * BLK, &mut buf);
            black_box(buf);
        },
    },
    Probe {
        name: "pmfs.journal_tx",
        call: |bed, _, i| {
            let j = bed.pmfs.journal();
            let addr = Layout::block_off(bed.scratch_blk) + (i as u64 % 16) * 128;
            let tx = j.begin().expect("journal has room");
            j.log_range(&tx, addr, 40).expect("journal has room");
            j.log_range(&tx, addr + 64, 40).expect("journal has room");
            j.commit(tx);
        },
    },
    Probe {
        name: "pmfs.alloc_free",
        call: |bed, _, _| {
            let a = bed.pmfs.allocator();
            let blk = a.alloc().expect("device has free blocks");
            a.free(black_box(blk));
        },
    },
    Probe {
        name: "pmfs.write_4k",
        call: |bed, b, i| {
            let n = bed.pmfs.write(bed.pmfs_fd, slot(b, i) * BLK, &bed.block);
            assert_eq!(n, Ok(BLOCK_SIZE));
        },
    },
    Probe {
        name: "pmfs.read_4k",
        call: |bed, b, i| {
            let mut buf = [0u8; BLOCK_SIZE];
            let n = bed.pmfs.read(bed.pmfs_fd, slot(b, i) * BLK, &mut buf);
            assert_eq!(n, Ok(BLOCK_SIZE));
            black_box(buf);
        },
    },
    Probe {
        name: "pmfs.create_unlink",
        call: |bed, _, _| create_unlink(&*bed.pmfs),
    },
    Probe {
        name: "hinfs.write_4k_miss",
        call: |bed, b, i| {
            let n = bed.hinfs.write(bed.warm[b], i as u64 * BLK, &bed.block);
            assert_eq!(n, Ok(BLOCK_SIZE));
        },
    },
    Probe {
        name: "hinfs.write_4k_hit",
        call: |bed, b, i| {
            let n = bed.hinfs.write(bed.warm[b], i as u64 * BLK, &bed.block);
            assert_eq!(n, Ok(BLOCK_SIZE));
        },
    },
    Probe {
        name: "hinfs.read_4k_dram",
        call: |bed, b, i| {
            let mut buf = [0u8; BLOCK_SIZE];
            let n = bed.hinfs.read(bed.warm[b], i as u64 * BLK, &mut buf);
            assert_eq!(n, Ok(BLOCK_SIZE));
            black_box(buf);
        },
    },
    Probe {
        name: "hinfs.read_4k_nvmm",
        call: |bed, b, i| {
            let mut buf = [0u8; BLOCK_SIZE];
            let n = bed.hinfs.read(bed.cold[b], i as u64 * BLK, &mut buf);
            assert_eq!(n, Ok(BLOCK_SIZE));
            black_box(buf);
        },
    },
    Probe {
        name: "hinfs.write_100b_unaligned",
        call: |bed, b, i| {
            let n = bed
                .hinfs
                .write(bed.partial[b], i as u64 * BLK + 1001, &bed.block[..100]);
            assert_eq!(n, Ok(100));
        },
    },
    Probe {
        name: "hinfs.fsync_4k",
        call: |bed, b, i| {
            let fd = bed.synced[b];
            let n = bed.hinfs.write(fd, i as u64 * BLK, &bed.block);
            assert_eq!(n, Ok(BLOCK_SIZE));
            bed.hinfs.fsync(fd).expect("fsync");
        },
    },
    Probe {
        name: "hinfs.create_unlink",
        call: |bed, _, _| create_unlink(&*bed.hinfs),
    },
    Probe {
        name: "fskit.open_close",
        call: |bed, _, _| {
            let fd = bed.hinfs.open("/dir/cold0", OpenFlags::READ).expect("open");
            bed.hinfs.close(fd).expect("close");
        },
    },
    Probe {
        name: "fskit.stat",
        call: |bed, _, _| {
            black_box(bed.hinfs.stat("/dir/cold0").expect("stat"));
        },
    },
];

/// Block index for batch `b`, call `i`: every call of a probe touches its
/// own block.
fn slot(b: usize, i: usize) -> u64 {
    (b * CALLS + i) as u64
}

fn create_unlink(fs: &dyn FileSystem) {
    let fd = fs
        .open("/dir/tmp", OpenFlags::RDWR | OpenFlags::CREATE)
        .expect("create");
    fs.close(fd).expect("close");
    fs.unlink("/dir/tmp").expect("unlink");
}

/// The fixtures: a raw device, a PMFS mount and a cold HiNFS mount, each
/// on its own device, all on one virtual clock.
struct Bed {
    env: Arc<SimEnv>,
    raw: Arc<NvmmDevice>,
    pmfs: Arc<Pmfs>,
    pmfs_fd: Fd,
    /// A data block owned by the probe, for journal undo ranges.
    scratch_blk: u64,
    hinfs: Arc<Hinfs>,
    /// Per batch: a preallocated file whose blocks `write_4k_miss` buffers.
    warm: Vec<Fd>,
    /// Per batch: preallocated, never touched after the cold mount.
    cold: Vec<Fd>,
    /// Per batch: preallocated, cold; target of sub-block writes.
    partial: Vec<Fd>,
    /// Per batch: preallocated, cold; target of write+fsync.
    synced: Vec<Fd>,
    block: Vec<u8>,
}

fn popts() -> PmfsOptions {
    PmfsOptions {
        journal_blocks: 2048,
        inode_count: 4096,
    }
}

/// Creates `/dir/<stem><b>` for each batch, `CALLS` blocks each.
fn prealloc(fs: &dyn FileSystem, stem: &str) -> fskit::Result<()> {
    let data = vec![0x5au8; CALLS * BLOCK_SIZE];
    for b in 0..BATCHES {
        let fd = fs.open(
            &format!("/dir/{stem}{b}"),
            OpenFlags::RDWR | OpenFlags::CREATE,
        )?;
        fs.write(fd, 0, &data)?;
        fs.close(fd)?;
    }
    Ok(())
}

fn open_all(fs: &dyn FileSystem, stem: &str) -> fskit::Result<Vec<Fd>> {
    (0..BATCHES)
        .map(|b| fs.open(&format!("/dir/{stem}{b}"), OpenFlags::RDWR))
        .collect()
}

impl Bed {
    fn new() -> fskit::Result<Bed> {
        let env = SimEnv::new_virtual(CostModel::default());
        let raw = NvmmDevice::new(env.clone(), DEV_BYTES);

        let pmfs = Pmfs::mkfs(NvmmDevice::new(env.clone(), DEV_BYTES), popts())?;
        pmfs.mkdir("/dir")?;
        let pmfs_fd = pmfs.open("/dir/data", OpenFlags::RDWR | OpenFlags::CREATE)?;
        let chunk = vec![0x5au8; CALLS * BLOCK_SIZE];
        for b in 0..BATCHES {
            pmfs.write(pmfs_fd, slot(b, 0) * BLK, &chunk)?;
        }
        let scratch_blk = pmfs.allocator().alloc()?;

        // Populate through one mount, then mount cold so that nothing is
        // buffered when the data probes start.
        let hdev = NvmmDevice::new(env.clone(), DEV_BYTES);
        let hcfg = HinfsConfig::default().with_buffer_bytes(PROBE_BUFFER);
        let first = Hinfs::mkfs(hdev.clone(), popts(), hcfg.clone())?;
        first.mkdir("/dir")?;
        for stem in ["warm", "cold", "partial", "synced"] {
            prealloc(&*first, stem)?;
        }
        first.unmount()?;
        drop(first);
        let hinfs = Hinfs::mount(hdev, hcfg)?;
        env.rebase();
        Ok(Bed {
            warm: open_all(&*hinfs, "warm")?,
            cold: open_all(&*hinfs, "cold")?,
            partial: open_all(&*hinfs, "partial")?,
            synced: open_all(&*hinfs, "synced")?,
            env,
            raw,
            pmfs,
            pmfs_fd,
            scratch_blk,
            hinfs,
            block: vec![0xc3u8; BLOCK_SIZE],
        })
    }
}

/// Runs every probe; returns `probe.<name>.host_ns` and `probe.<name>.vns`.
pub fn run_all() -> fskit::Result<Values> {
    let bed = Bed::new()?;
    let mut out = Values::new();
    for p in PROBES {
        let mut host = Vec::with_capacity(BATCHES);
        let v0 = bed.env.now();
        for b in 0..BATCHES {
            let t0 = Instant::now();
            for i in 0..CALLS {
                (p.call)(&bed, b, i);
            }
            host.push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
        }
        let vns = (bed.env.now() - v0) as f64 / (BATCHES * CALLS) as f64;
        out.insert(format!("probe.{}.host_ns", p.name), median(&host));
        out.insert(format!("probe.{}.vns", p.name), vns);
    }
    bed.hinfs.unmount()?;
    bed.pmfs.unmount()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_exact_on_the_virtual_clock_and_hit_their_paths() {
        let a = run_all().unwrap();
        let b = run_all().unwrap();
        assert_eq!(a.len(), 2 * PROBES.len());
        for p in PROBES {
            let key = format!("probe.{}.vns", p.name);
            assert_eq!(a[&key], b[&key], "{key} repeats exactly");
            assert!(a[&format!("probe.{}.host_ns", p.name)] > 0.0);
        }
        let v = |n: &str| a[&format!("probe.{n}.vns")];
        let cost = CostModel::default();
        // A 4 KiB persist is the copy plus 64 lines at the NVMM write
        // latency.
        let persist = cost.dram_copy_ns(BLOCK_SIZE) + cost.nvmm_persist_ns(64);
        assert_eq!(v("nvmm.persist_4k"), persist as f64);
        // The in-DRAM allocator charges the model nothing.
        assert_eq!(v("pmfs.alloc_free"), 0.0);
        // The buffered paths are what the paper says they are: a DRAM hit
        // is far cheaper than a direct NVMM write, a miss (allocate on
        // flush) costs no less than a hit, and an fsynced write pays the
        // NVMM latency after all.
        assert!(v("hinfs.write_4k_hit") < v("pmfs.write_4k") / 2.0);
        assert!(v("hinfs.write_4k_hit") <= v("hinfs.write_4k_miss"));
        assert!(v("hinfs.fsync_4k") > v("nvmm.persist_4k"));
        // Sub-block write on a cold block fetches the partial lines (CLFW)
        // and so costs more than the syscall + copy alone.
        assert!(v("hinfs.write_100b_unaligned") > cost.syscall_ns as f64);
    }
}
