//! The five workloads: what traffic each runs, at what sizes, and which
//! regime (the cause-side gauges) a run must be in for its numbers to
//! count.

use std::sync::Arc;

use fskit::FileSystem;
use workloads::filebench::{FilebenchParams, Fileserver, Varmail, Webserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::fio::{Fio, FioParams};
use workloads::setups::SystemConfig;
use workloads::Actor;

/// Seed of the populate phase. Fixed: the dataset is the same for every
/// `--seed`; the seed drives the measured op stream.
pub const POPULATE_SEED: u64 = 0xF11E;
/// Default run seed.
pub const DEFAULT_SEED: u64 = 0xBEEF;
/// Closed-loop clients (virtual-time actors multiplexed on one host thread).
pub const ACTORS: usize = 2;

const FIO_PATH: &str = "/hotfile";

/// Journal region, blocks. Large enough that no 800 ms run fills the undo
/// ring: at HEAD a flush that allocates while the ring is full skips the
/// (best-effort) inode persist, and the file's block-tree root — hence its
/// content — is gone after a clean unmount (README "Known defect"). The
/// paper-default 2048 blocks fills at ~700 ms of `fileserver-*`.
const JOURNAL_BLOCKS: u64 = 16384;

/// The traffic generator of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// filebench fileserver over `nfiles` × `mean_file`.
    Fileserver,
    /// filebench varmail (every written byte fsynced).
    Varmail,
    /// filebench webserver (10 whole-file reads per log append).
    Webserver,
    /// `workloads::fio` on one preallocated file of `nfiles * mean_file`
    /// bytes, `iosize`-byte I/O at uniformly random *byte* offsets.
    FioHot,
}

/// The regime a workload is pinned to: which mechanisms must fire (or stay
/// idle) for its numbers to mean what the README says they mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Working set inside the buffer: no stalls, no BBM evaluations, no
    /// writeback (so also no journal-pressure relief flushes).
    Fit,
    /// Working set larger than the buffer: writeback runs, pool ends low.
    Pressure,
    /// Every written byte fsynced: BBM evaluates, eager writes happen.
    Sync,
    /// Reads dominate writes at least 4:1 in bytes.
    ReadHeavy,
    /// Sub-block writes: CLFW fetches lines.
    SubBlock,
}

/// One workload at fixed sizes.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it loads and bypasses.
    pub why: &'static str,
    pub traffic: Traffic,
    pub regime: Regime,
    pub nfiles: usize,
    pub mean_file: usize,
    pub iosize: usize,
    pub append: usize,
    /// HiNFS DRAM buffer, bytes.
    pub buffer_bytes: usize,
    /// Measured run length in virtual ms.
    pub duration_ms: u64,
}

const FILES: usize = 384;
const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Buffer sized as a fraction of the dataset (the paper runs 2 GB / 5 GB
/// = 0.4).
fn frac(dataset: usize, f: f64) -> usize {
    (dataset as f64 * f) as usize
}

impl Spec {
    /// The five workloads, in report order.
    pub fn all() -> Vec<Spec> {
        let base = Spec {
            name: "",
            why: "",
            traffic: Traffic::Fileserver,
            regime: Regime::Fit,
            nfiles: FILES,
            mean_file: 64 * KIB,
            iosize: MIB,
            append: 16 * KIB,
            buffer_bytes: 0,
            duration_ms: 800,
        };
        let big = FILES * 64 * KIB;
        let mail = FILES * 16 * KIB;
        vec![
            Spec {
                name: "fileserver-fit",
                why: "working set fits the DRAM buffer (2.0x): DRAM copy, Block Index and pmfs metadata carry it; writeback, eviction and BBM idle",
                buffer_bytes: frac(big, 2.0),
                ..base.clone()
            },
            Spec {
                name: "fileserver-pressure",
                why: "same traffic, buffer 0.4x dataset (paper ratio): watermark writeback, LRW eviction, foreground stalls and NVMM bandwidth",
                regime: Regime::Pressure,
                buffer_bytes: frac(big, 0.4),
                ..base.clone()
            },
            Spec {
                name: "varmail-sync",
                why: "every written byte fsynced: Eager-Persistent checker, BBM, pmfs journal commits and nvmm fences; the buffer does little",
                traffic: Traffic::Varmail,
                regime: Regime::Sync,
                mean_file: 16 * KIB,
                buffer_bytes: frac(mail, 0.4),
                ..base.clone()
            },
            Spec {
                name: "webserver-read",
                why: "10 open/read-whole/close per log append: read stitching, path resolution, fd table; write buffer nearly bypassed",
                traffic: Traffic::Webserver,
                regime: Regime::ReadHeavy,
                buffer_bytes: frac(big, 0.4),
                ..base.clone()
            },
            Spec {
                name: "fio-hotfile",
                why: "one 32 MiB file, unaligned 1 KiB I/O r:w 1:2, buffer 0.4x: CLFW fetch/writeback and the one-shard-per-inode capacity cliff",
                traffic: Traffic::FioHot,
                regime: Regime::SubBlock,
                nfiles: 1,
                mean_file: 32 * MIB,
                iosize: KIB,
                buffer_bytes: 13 * MIB,
                ..base
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    /// System sizing: `SystemConfig::default()` except the buffer and the
    /// journal region.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            device_bytes: 512 << 20,
            buffer_bytes: self.buffer_bytes,
            journal_blocks: JOURNAL_BLOCKS,
            inode_count: 65536,
            ..SystemConfig::default()
        }
    }

    fn fio_params(&self) -> FioParams {
        FioParams::new(FIO_PATH, (self.nfiles * self.mean_file) as u64, self.iosize)
    }

    /// Creates the dataset through `fs` (before the cold remount).
    pub fn populate(&self, fs: &dyn FileSystem) -> fskit::Result<Dataset> {
        Ok(match self.traffic {
            Traffic::FioHot => {
                Fio::setup(fs, &self.fio_params())?;
                Dataset::HotFile
            }
            _ => Dataset::Set(Fileset::populate(
                fs,
                FilesetSpec::new("/data", self.nfiles, 20, self.mean_file),
                POPULATE_SEED,
            )?),
        })
    }

    /// The closed-loop clients of one measured run.
    pub fn actors(&self, data: &Dataset) -> Vec<Box<dyn Actor>> {
        let params = FilebenchParams {
            iosize: self.iosize,
            append_size: self.append,
        };
        (0..ACTORS)
            .map(|i| -> Box<dyn Actor> {
                match (self.traffic, data) {
                    (Traffic::Fileserver, Dataset::Set(s)) => {
                        Box::new(Fileserver::new(s.clone(), params))
                    }
                    (Traffic::Varmail, Dataset::Set(s)) => {
                        Box::new(Varmail::new(s.clone(), params))
                    }
                    (Traffic::Webserver, Dataset::Set(s)) => {
                        Box::new(Webserver::new(s.clone(), params, i))
                    }
                    (Traffic::FioHot, Dataset::HotFile) => Box::new(Fio::new(self.fio_params())),
                    _ => unreachable!("dataset built by populate() of the same spec"),
                }
            })
            .collect()
    }
}

/// What `populate` left on the device.
pub enum Dataset {
    Set(Arc<Fileset>),
    HotFile,
}

/// The cause-side facts of one HiNFS run that the regime gauges read.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegimeFacts {
    pub foreground_stalls: u64,
    pub bbm_evals: u64,
    pub eager_writes: u64,
    pub writeback_blocks: u64,
    pub fetch_lines: u64,
    pub free_blocks_end: u64,
    pub high_blocks: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub fsync_bytes: u64,
}

impl Spec {
    /// The gauges of this workload's regime as `(held, description)`. A
    /// number from an idle mechanism is not evidence, so a gauge that did
    /// not hold fails the benchmark.
    pub fn regime_gauges(&self, r: &RegimeFacts) -> Vec<(bool, String)> {
        match self.regime {
            Regime::Fit => vec![
                (
                    r.foreground_stalls == 0,
                    format!("foreground_stalls == 0 (got {})", r.foreground_stalls),
                ),
                (
                    r.bbm_evals == 0,
                    format!("bbm_evals == 0 (got {})", r.bbm_evals),
                ),
                (
                    r.writeback_blocks == 0,
                    format!("writeback_blocks == 0 (got {})", r.writeback_blocks),
                ),
            ],
            Regime::Pressure => vec![
                (
                    r.writeback_blocks > 0,
                    format!("writeback_blocks > 0 (got {})", r.writeback_blocks),
                ),
                (
                    r.free_blocks_end < r.high_blocks,
                    format!(
                        "buffer ends below High_f free (free {} vs High_f {})",
                        r.free_blocks_end, r.high_blocks
                    ),
                ),
            ],
            Regime::Sync => vec![
                (
                    r.bbm_evals > 0,
                    format!("bbm_evals > 0 (got {})", r.bbm_evals),
                ),
                (
                    r.eager_writes > 0,
                    format!("eager_writes > 0 (got {})", r.eager_writes),
                ),
                (
                    r.fsync_bytes == r.bytes_written,
                    format!(
                        "fsync-byte fraction 1.0 ({} of {} bytes)",
                        r.fsync_bytes, r.bytes_written
                    ),
                ),
            ],
            Regime::ReadHeavy => vec![(
                r.bytes_read >= 4 * r.bytes_written,
                format!(
                    "bytes read >= 4 x bytes written ({} vs {})",
                    r.bytes_read, r.bytes_written
                ),
            )],
            Regime::SubBlock => vec![(
                r.fetch_lines > 0,
                format!("fetch_lines > 0 (got {})", r.fetch_lines),
            )],
        }
    }
}
