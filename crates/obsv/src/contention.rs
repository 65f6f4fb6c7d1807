//! Lock-contention and stall profiler: tracked lock wrappers and the
//! per-site wait/hold accounting behind the bench's contention matrix.
//!
//! Every coarse lock in the storage crates (nvmm device/gate, pmfs
//! journal/allocator/namespace, hinfs buffer pool, extfs jbd/cache,
//! fskit fd table) is declared as a [`TrackedMutex`] / [`TrackedRwLock`]
//! carrying one static [`Site`] id. Acquisitions record into a shared
//! [`ContentionTable`]:
//!
//! - **wait time**: how long an acquirer blocked behind another holder
//!   (sampled only on the contended path — the wait histogram's count
//!   equals the contended count);
//! - **hold time**: how long each guard lived, minus any time parked in
//!   a [`TrackedCondvar`] wait (which is booked as wait, not hold);
//! - **site × op attribution**: waits and holds are also charged to the
//!   row of the op frame open on the calling thread (background row when
//!   idle or detached), yielding a site × op matrix alongside the span
//!   matrix; wait samples also land on the frame's in-flight record.
//!
//! Blocking that happens *without* a lock — a foreground write paying
//! for a writeback reclaim, a journal-full flush, bandwidth-gate
//! throttling — is attributed through [`ContentionTable::stall`] against
//! the dedicated `stall.*` sites, so "where do threads wait" has one
//! answer covering both lock and non-lock stalls.
//!
//! Cost rules, matching the rest of `obsv`:
//!
//! - **Unattached or [`Level::Off`]**: a tracked lock is a plain
//!   `std::sync` lock plus one `OnceLock` load and one relaxed load.
//! - **[`Level::Counts`]**: the uncontended fast path is exactly one
//!   relaxed increment (then a bare `try_lock`); no clock is read.
//! - **[`Level::Full`]**: adds clock reads and histogram records —
//!   three relaxed RMWs per sample, never a lock.
//!
//! The table's clock is injected (the simulation environment passes its
//! virtual or wall clock), is only *read*, and never advances simulated
//! time — profiling must not perturb the timeline it profiles. In
//! virtual time mode all logical actors share one host thread, so lock
//! waits are structurally zero there: hold-time occupancy and the
//! `stall.*` sites carry the story, and the wait histograms light up in
//! spin mode (stress tests, Criterion).

use crate::histo::{Histo, HistoSnapshot};
use crate::scope::{current_row, note_wait};
use crate::span::{row_label, SPAN_ROWS};
use crate::{Clock, Level, MetricSource, Visitor};
use std::sync;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A static lock or stall site. One id per lock *declaration*, named
/// `<crate>.<structure>`; `stall.*` sites are not locks but explicit
/// blocking points on the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// `nvmm::NvmmDevice::mem` — the device byte array.
    NvmmDevice = 0,
    /// `nvmm::NvmmDevice::shadow` — the crash-consistency shadow.
    NvmmShadow = 1,
    /// `nvmm::BandwidthGate` — calendar and writer-slot semaphore.
    NvmmGate = 2,
    /// `fskit::FdTable` — the descriptor table.
    FskitFdtable = 3,
    /// `pmfs::Journal` — the undo-journal ring.
    PmfsJournal = 4,
    /// `pmfs::Allocator` — the block/inode allocator.
    PmfsAlloc = 5,
    /// `pmfs::Pmfs::ns` — the namespace (directory tree) lock.
    PmfsNamespace = 6,
    /// `pmfs::InodeCache` — the in-memory inode map.
    PmfsInodeMap = 7,
    /// `hinfs::Hinfs::shared` — the DRAM buffer pool and block index.
    HinfsBufferPool = 8,
    /// `hinfs::WbCtl` — writeback kick flag and thread registry.
    HinfsWriteback = 9,
    /// `extfs::Jbd` — the JBD2-style journal.
    ExtfsJbd = 10,
    /// `extfs::Allocator` — the block/inode allocator.
    ExtfsAlloc = 11,
    /// `extfs::Extfs::ns` — the namespace lock.
    ExtfsNamespace = 12,
    /// `extfs::Extfs::dirty_data` — the ordered-mode dirty-data set.
    ExtfsDirtyData = 13,
    /// `extfs::Cache` — the page cache.
    ExtfsCache = 14,
    /// `extfs::InodeCache` — the in-memory inode map.
    ExtfsInodeMap = 15,
    /// A foreground write paying for a buffer-pool reclaim itself.
    StallWriteback = 16,
    /// Journal-pressure relief: flushing open transactions to free ring
    /// space before (or inside) `begin_tx`.
    StallJournalFull = 17,
    /// NVMM write-bandwidth throttling: queueing delay charged by the
    /// bandwidth gate beyond pure service time.
    StallThrottle = 18,
    /// `hinfs::Hinfs::shards[0]` — one shard of the DRAM buffer pool.
    HinfsShard0 = 19,
    /// `hinfs::Hinfs::shards[1]`.
    HinfsShard1 = 20,
    /// `hinfs::Hinfs::shards[2]`.
    HinfsShard2 = 21,
    /// `hinfs::Hinfs::shards[3]`.
    HinfsShard3 = 22,
    /// `hinfs::Hinfs::shards[4]`.
    HinfsShard4 = 23,
    /// `hinfs::Hinfs::shards[5]`.
    HinfsShard5 = 24,
    /// `hinfs::Hinfs::shards[6]`.
    HinfsShard6 = 25,
    /// `hinfs::Hinfs::shards[7]`.
    HinfsShard7 = 26,
    /// `pmfs::Allocator::shards[0]` — one shard of the block allocator.
    PmfsAllocShard0 = 27,
    /// `pmfs::Allocator::shards[1]`.
    PmfsAllocShard1 = 28,
    /// `pmfs::Allocator::shards[2]`.
    PmfsAllocShard2 = 29,
    /// `pmfs::Allocator::shards[3]`.
    PmfsAllocShard3 = 30,
    /// `pmfs::Allocator::shards[4]`.
    PmfsAllocShard4 = 31,
    /// `pmfs::Allocator::shards[5]`.
    PmfsAllocShard5 = 32,
    /// `pmfs::Allocator::shards[6]`.
    PmfsAllocShard6 = 33,
    /// `pmfs::Allocator::shards[7]`.
    PmfsAllocShard7 = 34,
    /// `pmfs::Pmfs::ns_shards[0]` — one shard of the namespace lock.
    PmfsNsShard0 = 35,
    /// `pmfs::Pmfs::ns_shards[1]`.
    PmfsNsShard1 = 36,
    /// `pmfs::Pmfs::ns_shards[2]`.
    PmfsNsShard2 = 37,
    /// `pmfs::Pmfs::ns_shards[3]`.
    PmfsNsShard3 = 38,
    /// `pmfs::Pmfs::ns_shards[4]`.
    PmfsNsShard4 = 39,
    /// `pmfs::Pmfs::ns_shards[5]`.
    PmfsNsShard5 = 40,
    /// `pmfs::Pmfs::ns_shards[6]`.
    PmfsNsShard6 = 41,
    /// `pmfs::Pmfs::ns_shards[7]`.
    PmfsNsShard7 = 42,
    /// `pmfs::InodeCache::shards[0]` — one shard of the inode map.
    PmfsInodeShard0 = 43,
    /// `pmfs::InodeCache::shards[1]`.
    PmfsInodeShard1 = 44,
    /// `pmfs::InodeCache::shards[2]`.
    PmfsInodeShard2 = 45,
    /// `pmfs::InodeCache::shards[3]`.
    PmfsInodeShard3 = 46,
    /// `pmfs::InodeCache::shards[4]`.
    PmfsInodeShard4 = 47,
    /// `pmfs::InodeCache::shards[5]`.
    PmfsInodeShard5 = 48,
    /// `pmfs::InodeCache::shards[6]`.
    PmfsInodeShard6 = 49,
    /// `pmfs::InodeCache::shards[7]`.
    PmfsInodeShard7 = 50,
}

/// Number of [`Site`] variants.
pub const NSITES: usize = 51;

/// Shard fan-out of the sharded subsystems. Every shard-indexed site
/// family below has exactly this many members, so `Site::hinfs_shard(i)`
/// and friends are total for any `i` (reduced mod `NSHARDS`).
pub const NSHARDS: usize = 8;

/// All sites in discriminant order.
pub const ALL_SITES: [Site; NSITES] = [
    Site::NvmmDevice,
    Site::NvmmShadow,
    Site::NvmmGate,
    Site::FskitFdtable,
    Site::PmfsJournal,
    Site::PmfsAlloc,
    Site::PmfsNamespace,
    Site::PmfsInodeMap,
    Site::HinfsBufferPool,
    Site::HinfsWriteback,
    Site::ExtfsJbd,
    Site::ExtfsAlloc,
    Site::ExtfsNamespace,
    Site::ExtfsDirtyData,
    Site::ExtfsCache,
    Site::ExtfsInodeMap,
    Site::StallWriteback,
    Site::StallJournalFull,
    Site::StallThrottle,
    Site::HinfsShard0,
    Site::HinfsShard1,
    Site::HinfsShard2,
    Site::HinfsShard3,
    Site::HinfsShard4,
    Site::HinfsShard5,
    Site::HinfsShard6,
    Site::HinfsShard7,
    Site::PmfsAllocShard0,
    Site::PmfsAllocShard1,
    Site::PmfsAllocShard2,
    Site::PmfsAllocShard3,
    Site::PmfsAllocShard4,
    Site::PmfsAllocShard5,
    Site::PmfsAllocShard6,
    Site::PmfsAllocShard7,
    Site::PmfsNsShard0,
    Site::PmfsNsShard1,
    Site::PmfsNsShard2,
    Site::PmfsNsShard3,
    Site::PmfsNsShard4,
    Site::PmfsNsShard5,
    Site::PmfsNsShard6,
    Site::PmfsNsShard7,
    Site::PmfsInodeShard0,
    Site::PmfsInodeShard1,
    Site::PmfsInodeShard2,
    Site::PmfsInodeShard3,
    Site::PmfsInodeShard4,
    Site::PmfsInodeShard5,
    Site::PmfsInodeShard6,
    Site::PmfsInodeShard7,
];

/// The hinfs buffer-pool shard sites, in shard order.
pub const HINFS_SHARD_SITES: [Site; NSHARDS] = [
    Site::HinfsShard0,
    Site::HinfsShard1,
    Site::HinfsShard2,
    Site::HinfsShard3,
    Site::HinfsShard4,
    Site::HinfsShard5,
    Site::HinfsShard6,
    Site::HinfsShard7,
];

/// The pmfs allocator shard sites, in shard order.
pub const PMFS_ALLOC_SHARD_SITES: [Site; NSHARDS] = [
    Site::PmfsAllocShard0,
    Site::PmfsAllocShard1,
    Site::PmfsAllocShard2,
    Site::PmfsAllocShard3,
    Site::PmfsAllocShard4,
    Site::PmfsAllocShard5,
    Site::PmfsAllocShard6,
    Site::PmfsAllocShard7,
];

/// The pmfs namespace shard sites, in shard order.
pub const PMFS_NS_SHARD_SITES: [Site; NSHARDS] = [
    Site::PmfsNsShard0,
    Site::PmfsNsShard1,
    Site::PmfsNsShard2,
    Site::PmfsNsShard3,
    Site::PmfsNsShard4,
    Site::PmfsNsShard5,
    Site::PmfsNsShard6,
    Site::PmfsNsShard7,
];

/// The pmfs inode-map shard sites, in shard order.
pub const PMFS_INODE_SHARD_SITES: [Site; NSHARDS] = [
    Site::PmfsInodeShard0,
    Site::PmfsInodeShard1,
    Site::PmfsInodeShard2,
    Site::PmfsInodeShard3,
    Site::PmfsInodeShard4,
    Site::PmfsInodeShard5,
    Site::PmfsInodeShard6,
    Site::PmfsInodeShard7,
];

impl Site {
    /// Stable dotted label for reports and the bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Site::NvmmDevice => "nvmm.device",
            Site::NvmmShadow => "nvmm.shadow",
            Site::NvmmGate => "nvmm.gate",
            Site::FskitFdtable => "fskit.fdtable",
            Site::PmfsJournal => "pmfs.journal",
            Site::PmfsAlloc => "pmfs.alloc",
            Site::PmfsNamespace => "pmfs.ns",
            Site::PmfsInodeMap => "pmfs.inode_map",
            Site::HinfsBufferPool => "hinfs.buffer_pool",
            Site::HinfsWriteback => "hinfs.writeback",
            Site::ExtfsJbd => "extfs.jbd",
            Site::ExtfsAlloc => "extfs.alloc",
            Site::ExtfsNamespace => "extfs.ns",
            Site::ExtfsDirtyData => "extfs.dirty_data",
            Site::ExtfsCache => "extfs.cache",
            Site::ExtfsInodeMap => "extfs.inode_map",
            Site::StallWriteback => "stall.writeback",
            Site::StallJournalFull => "stall.journal_full",
            Site::StallThrottle => "stall.throttle",
            Site::HinfsShard0 => "hinfs.shard0",
            Site::HinfsShard1 => "hinfs.shard1",
            Site::HinfsShard2 => "hinfs.shard2",
            Site::HinfsShard3 => "hinfs.shard3",
            Site::HinfsShard4 => "hinfs.shard4",
            Site::HinfsShard5 => "hinfs.shard5",
            Site::HinfsShard6 => "hinfs.shard6",
            Site::HinfsShard7 => "hinfs.shard7",
            Site::PmfsAllocShard0 => "pmfs.alloc_shard0",
            Site::PmfsAllocShard1 => "pmfs.alloc_shard1",
            Site::PmfsAllocShard2 => "pmfs.alloc_shard2",
            Site::PmfsAllocShard3 => "pmfs.alloc_shard3",
            Site::PmfsAllocShard4 => "pmfs.alloc_shard4",
            Site::PmfsAllocShard5 => "pmfs.alloc_shard5",
            Site::PmfsAllocShard6 => "pmfs.alloc_shard6",
            Site::PmfsAllocShard7 => "pmfs.alloc_shard7",
            Site::PmfsNsShard0 => "pmfs.ns_shard0",
            Site::PmfsNsShard1 => "pmfs.ns_shard1",
            Site::PmfsNsShard2 => "pmfs.ns_shard2",
            Site::PmfsNsShard3 => "pmfs.ns_shard3",
            Site::PmfsNsShard4 => "pmfs.ns_shard4",
            Site::PmfsNsShard5 => "pmfs.ns_shard5",
            Site::PmfsNsShard6 => "pmfs.ns_shard6",
            Site::PmfsNsShard7 => "pmfs.ns_shard7",
            Site::PmfsInodeShard0 => "pmfs.inode_shard0",
            Site::PmfsInodeShard1 => "pmfs.inode_shard1",
            Site::PmfsInodeShard2 => "pmfs.inode_shard2",
            Site::PmfsInodeShard3 => "pmfs.inode_shard3",
            Site::PmfsInodeShard4 => "pmfs.inode_shard4",
            Site::PmfsInodeShard5 => "pmfs.inode_shard5",
            Site::PmfsInodeShard6 => "pmfs.inode_shard6",
            Site::PmfsInodeShard7 => "pmfs.inode_shard7",
        }
    }

    /// The buffer-pool shard site for shard index `i` (mod [`NSHARDS`]).
    pub fn hinfs_shard(i: usize) -> Site {
        HINFS_SHARD_SITES[i % NSHARDS]
    }

    /// The allocator shard site for shard index `i` (mod [`NSHARDS`]).
    pub fn pmfs_alloc_shard(i: usize) -> Site {
        PMFS_ALLOC_SHARD_SITES[i % NSHARDS]
    }

    /// The namespace shard site for shard index `i` (mod [`NSHARDS`]).
    pub fn pmfs_ns_shard(i: usize) -> Site {
        PMFS_NS_SHARD_SITES[i % NSHARDS]
    }

    /// The inode-map shard site for shard index `i` (mod [`NSHARDS`]).
    pub fn pmfs_inode_shard(i: usize) -> Site {
        PMFS_INODE_SHARD_SITES[i % NSHARDS]
    }

    /// Snake-case form of [`Site::label`] for metric names.
    fn metric_suffix(self) -> String {
        self.label().replace('.', "_")
    }
}

/// Per-site accumulator. ~8 KiB each (two histograms plus the op rows).
struct SiteStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait: Histo,
    hold: Histo,
    wait_by_op: [AtomicU64; SPAN_ROWS],
    hold_by_op: [AtomicU64; SPAN_ROWS],
}

impl SiteStats {
    fn new() -> SiteStats {
        SiteStats {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait: Histo::new(),
            hold: Histo::new(),
            wait_by_op: std::array::from_fn(|_| AtomicU64::new(0)),
            hold_by_op: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.wait.reset();
        self.hold.reset();
        for c in &self.wait_by_op {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.hold_by_op {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// The shared contention accumulator of one simulated machine. One table
/// exists per `SimEnv`; every tracked lock on that machine attaches to
/// it. Disabled ([`Level::Off`]) by default.
pub struct ContentionTable {
    level: AtomicU8,
    clock: Clock,
    sites: [SiteStats; NSITES],
}

impl std::fmt::Debug for ContentionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentionTable")
            .field("level", &self.level())
            .finish_non_exhaustive()
    }
}

impl ContentionTable {
    /// A disabled table reading time from `clock` (simulated ns). The
    /// clock is only read, never advanced.
    pub fn new(clock: Clock) -> ContentionTable {
        ContentionTable {
            level: AtomicU8::new(Level::Off as u8),
            clock,
            sites: std::array::from_fn(|_| SiteStats::new()),
        }
    }

    /// The current recording level — one relaxed load.
    #[inline]
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Switches the recording level.
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether anything is being recorded. Gates caller-side work (e.g.
    /// reading a clock to time a stall).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level() != Level::Off
    }

    /// The machine's injected clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    #[inline]
    fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Records a non-lock blocking interval (`wait_ns` already measured
    /// by the caller on the simulation clock) against a `stall.*` site.
    /// At [`Level::Counts`] only the contended counter ticks.
    pub fn stall(&self, site: Site, wait_ns: u64) {
        match self.level() {
            Level::Off => {}
            Level::Counts => {
                self.sites[site as usize]
                    .contended
                    .fetch_add(1, Ordering::Relaxed);
                note_wait(site, wait_ns);
            }
            Level::Full => self.record_wait(site, wait_ns),
        }
    }

    /// Zeroes every site (used when re-basing a timeline, alongside the
    /// bandwidth-gate reset). Callers quiesce first; concurrent records
    /// during a reset are neither torn nor fatal, merely attributed to
    /// one side.
    pub fn reset(&self) {
        for s in &self.sites {
            s.reset();
        }
    }

    /// Point-in-time copy of every site.
    pub fn snapshot(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            sites: ALL_SITES
                .iter()
                .map(|&site| {
                    let s = &self.sites[site as usize];
                    SiteSnapshot {
                        site,
                        acquisitions: s.acquisitions.load(Ordering::Relaxed),
                        contended: s.contended.load(Ordering::Relaxed),
                        wait: s.wait.snapshot(),
                        hold: s.hold.snapshot(),
                        wait_by_op: std::array::from_fn(|r| {
                            s.wait_by_op[r].load(Ordering::Relaxed)
                        }),
                        hold_by_op: std::array::from_fn(|r| {
                            s.hold_by_op[r].load(Ordering::Relaxed)
                        }),
                    }
                })
                .collect(),
        }
    }

    #[inline]
    fn note_acquisition(&self, site: Site) {
        self.sites[site as usize]
            .acquisitions
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_contended(&self, site: Site) {
        self.sites[site as usize]
            .contended
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Books a contended acquisition: counter, wait histogram, and the
    /// current op's matrix cell.
    fn record_wait(&self, site: Site, wait_ns: u64) {
        self.note_contended(site);
        self.record_wait_sample(site, wait_ns);
    }

    /// Books a wait sample whose contended tick was already taken (the
    /// lock paths tick *before* blocking, so a stalled thread is visible
    /// while it waits).
    fn record_wait_sample(&self, site: Site, wait_ns: u64) {
        let s = &self.sites[site as usize];
        s.wait.record(wait_ns);
        s.wait_by_op[current_row()].fetch_add(wait_ns, Ordering::Relaxed);
        note_wait(site, wait_ns);
    }

    fn record_hold(&self, site: Site, hold_ns: u64) {
        let s = &self.sites[site as usize];
        s.hold.record(hold_ns);
        s.hold_by_op[current_row()].fetch_add(hold_ns, Ordering::Relaxed);
    }
}

impl MetricSource for ContentionTable {
    fn collect(&self, out: &mut dyn Visitor) {
        for snap in self.snapshot().sites {
            if snap.acquisitions == 0 && snap.contended == 0 {
                continue;
            }
            let base = format!("obsv_site_{}", snap.site.metric_suffix());
            out.counter(&format!("{base}_acquisitions"), snap.acquisitions);
            out.counter(&format!("{base}_contended"), snap.contended);
            if snap.wait.count() > 0 {
                out.histo(&format!("{base}_wait_ns"), snap.wait);
            }
            if snap.hold.count() > 0 {
                out.histo(&format!("{base}_hold_ns"), snap.hold);
            }
        }
    }
}

/// A frozen copy of one site's accumulators.
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// The site.
    pub site: Site,
    /// Total lock acquisitions (meaningless for `stall.*` sites).
    pub acquisitions: u64,
    /// Acquisitions that blocked, condvar waits, and stall events.
    pub contended: u64,
    /// Wait-time distribution; its count equals `contended` at
    /// [`Level::Full`] (waits are sampled only on the contended path).
    pub wait: HistoSnapshot,
    /// Guard-lifetime distribution, condvar wait time excluded.
    pub hold: HistoSnapshot,
    /// Wait ns per span-matrix row (op kinds plus the background row).
    pub wait_by_op: [u64; SPAN_ROWS],
    /// Hold ns per span-matrix row.
    pub hold_by_op: [u64; SPAN_ROWS],
}

impl SiteSnapshot {
    /// Whether the site saw any activity.
    pub fn touched(&self) -> bool {
        self.acquisitions > 0 || self.contended > 0
    }
}

/// A frozen copy of a [`ContentionTable`] — all sites, in [`ALL_SITES`]
/// order.
#[derive(Debug, Clone)]
pub struct ContentionSnapshot {
    /// One entry per [`Site`], in discriminant order.
    pub sites: Vec<SiteSnapshot>,
}

impl ContentionSnapshot {
    /// One site's snapshot.
    pub fn site(&self, site: Site) -> &SiteSnapshot {
        &self.sites[site as usize]
    }

    /// Sites that saw activity, in discriminant order.
    pub fn touched(&self) -> impl Iterator<Item = &SiteSnapshot> {
        self.sites.iter().filter(|s| s.touched())
    }

    /// The `n` most contended sites: by total wait time descending, then
    /// total hold time, then site order — a deterministic ranking.
    pub fn top_by_wait(&self, n: usize) -> Vec<&SiteSnapshot> {
        let mut v: Vec<&SiteSnapshot> = self.touched().collect();
        v.sort_by(|a, b| {
            b.wait
                .sum()
                .cmp(&a.wait.sum())
                .then(b.hold.sum().cmp(&a.hold.sum()))
                .then((a.site as usize).cmp(&(b.site as usize)))
        });
        v.truncate(n);
        v
    }

    /// Label of a site × op matrix row (re-exported span row labels).
    pub fn op_label(row: usize) -> &'static str {
        row_label(row)
    }
}

/// parking_lot-style poison stripping: a panic while holding a tracked
/// lock leaves the data as-is.
fn unpoison<G>(r: Result<G, sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(sync::PoisonError::into_inner)
}

/// Open hold-time measurement carried by a guard at [`Level::Full`].
/// Dropping it books the hold sample, so it is declared *before* the
/// inner guard in each tracked guard struct (fields drop in declaration
/// order: the sample is taken while the lock is still held).
struct Hold<'a> {
    table: &'a ContentionTable,
    site: Site,
    acquired_at: u64,
    /// Time parked in condvar waits while this guard was open; deducted
    /// from the hold (it is booked as wait instead).
    deduct: u64,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        let held = self
            .table
            .now()
            .saturating_sub(self.acquired_at)
            .saturating_sub(self.deduct);
        self.table.record_hold(self.site, held);
    }
}

/// A [`Site`]-tagged mutex recording into an attached
/// [`ContentionTable`]. Construction is `const`-friendly and detached —
/// a lock built before its simulation environment exists (allocators,
/// caches) behaves as a bare lock until [`TrackedMutex::attach`].
#[derive(Debug)]
pub struct TrackedMutex<T: ?Sized> {
    site: Site,
    table: OnceLock<Arc<ContentionTable>>,
    inner: sync::Mutex<T>,
}

/// Guard for [`TrackedMutex`]. The inner `Option` is only ever `None`
/// transiently inside [`TrackedCondvar::wait`].
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    hold: Option<Hold<'a>>,
    g: Option<sync::MutexGuard<'a, T>>,
}

impl<T> TrackedMutex<T> {
    /// An untracked-until-attached mutex.
    pub const fn new(site: Site, t: T) -> TrackedMutex<T> {
        TrackedMutex {
            site,
            table: OnceLock::new(),
            inner: sync::Mutex::new(t),
        }
    }

    /// A mutex born attached to `table`.
    pub fn attached(table: &Arc<ContentionTable>, site: Site, t: T) -> TrackedMutex<T> {
        let m = TrackedMutex::new(site, t);
        m.attach(table);
        m
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Connects this lock to a table. First caller wins; later calls are
    /// no-ops (mirrors `FsObs::set_spans`).
    pub fn attach(&self, table: &Arc<ContentionTable>) {
        let _ = self.table.set(table.clone());
    }

    /// This lock's site id.
    pub fn site(&self) -> Site {
        self.site
    }

    /// Acquires the lock, recording per the attached table's level.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let Some(table) = self.table.get() else {
            return TrackedMutexGuard {
                hold: None,
                g: Some(unpoison(self.inner.lock())),
            };
        };
        match table.level() {
            Level::Off => TrackedMutexGuard {
                hold: None,
                g: Some(unpoison(self.inner.lock())),
            },
            Level::Counts => {
                table.note_acquisition(self.site);
                let g = match self.inner.try_lock() {
                    Ok(g) => g,
                    Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        table.note_contended(self.site);
                        unpoison(self.inner.lock())
                    }
                };
                TrackedMutexGuard {
                    hold: None,
                    g: Some(g),
                }
            }
            Level::Full => {
                table.note_acquisition(self.site);
                let g = match self.inner.try_lock() {
                    Ok(g) => g,
                    Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        // Contended tick first: a thread is visibly
                        // stalled *while* it waits, not only after.
                        table.note_contended(self.site);
                        let t0 = table.now();
                        let g = unpoison(self.inner.lock());
                        table.record_wait_sample(self.site, table.now().saturating_sub(t0));
                        g
                    }
                };
                TrackedMutexGuard {
                    hold: Some(Hold {
                        table,
                        site: self.site,
                        acquired_at: table.now(),
                        deduct: 0,
                    }),
                    g: Some(g),
                }
            }
        }
    }

    /// Non-blocking acquire. Counts as an acquisition (never contended —
    /// a failed try is a caller decision, not a blocked thread).
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        let hold = self.table.get().and_then(|table| match table.level() {
            Level::Off => None,
            Level::Counts => {
                table.note_acquisition(self.site);
                None
            }
            Level::Full => {
                table.note_acquisition(self.site);
                Some(Hold {
                    table,
                    site: self.site,
                    acquired_at: table.now(),
                    deduct: 0,
                })
            }
        });
        Some(TrackedMutexGuard { hold, g: Some(g) })
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.g.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.g.as_deref_mut().expect("guard present outside wait")
    }
}

/// Result of [`TrackedCondvar::wait_for`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable operating on [`TrackedMutexGuard`] in place.
/// Time parked in a wait is booked as *wait* against the guard's site
/// (and counted as contended) and deducted from the guard's hold time.
#[derive(Debug, Default)]
pub struct TrackedCondvar(sync::Condvar);

impl TrackedCondvar {
    /// A fresh condvar.
    pub const fn new() -> TrackedCondvar {
        TrackedCondvar(sync::Condvar::new())
    }

    fn book_wait<T: ?Sized>(guard: &mut TrackedMutexGuard<'_, T>, t0: Option<u64>) {
        if let (Some(h), Some(t0)) = (guard.hold.as_mut(), t0) {
            let waited = h.table.now().saturating_sub(t0);
            h.table.record_wait(h.site, waited);
            h.deduct = h.deduct.saturating_add(waited);
        }
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        let t0 = guard.hold.as_ref().map(|h| h.table.now());
        let g = guard.g.take().expect("guard present");
        guard.g = Some(unpoison(self.0.wait(g)));
        Self::book_wait(guard, t0);
    }

    /// Blocks until notified or `timeout` elapses (wall time).
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let t0 = guard.hold.as_ref().map(|h| h.table.now());
        let g = guard.g.take().expect("guard present");
        let (g, res) = match self.0.wait_timeout(g, timeout) {
            Ok(pair) => pair,
            Err(p) => p.into_inner(),
        };
        guard.g = Some(g);
        Self::book_wait(guard, t0);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A [`Site`]-tagged reader-writer lock; same attachment and recording
/// rules as [`TrackedMutex`]. Reads and writes record into the same
/// site (each guard books its own hold).
#[derive(Debug)]
pub struct TrackedRwLock<T: ?Sized> {
    site: Site,
    table: OnceLock<Arc<ContentionTable>>,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    _hold: Option<Hold<'a>>,
    g: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    _hold: Option<Hold<'a>>,
    g: sync::RwLockWriteGuard<'a, T>,
}

impl<T> TrackedRwLock<T> {
    /// An untracked-until-attached rwlock.
    pub const fn new(site: Site, t: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            site,
            table: OnceLock::new(),
            inner: sync::RwLock::new(t),
        }
    }

    /// An rwlock born attached to `table`.
    pub fn attached(table: &Arc<ContentionTable>, site: Site, t: T) -> TrackedRwLock<T> {
        let l = TrackedRwLock::new(site, t);
        l.attach(table);
        l
    }

    /// Consumes the lock, returning the data.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Connects this lock to a table (first caller wins).
    pub fn attach(&self, table: &Arc<ContentionTable>) {
        let _ = self.table.set(table.clone());
    }

    /// This lock's site id.
    pub fn site(&self) -> Site {
        self.site
    }

    /// The table and an open hold, per the current level, for a guard
    /// acquired via `acquire` (which runs between the counter tick and
    /// the hold-open clock read).
    fn run<G>(
        &self,
        try_acquire: impl FnOnce() -> Option<G>,
        acquire: impl FnOnce() -> G,
    ) -> (Option<Hold<'_>>, G) {
        let Some(table) = self.table.get() else {
            return (None, acquire());
        };
        match table.level() {
            Level::Off => (None, acquire()),
            Level::Counts => {
                table.note_acquisition(self.site);
                let g = try_acquire().unwrap_or_else(|| {
                    table.note_contended(self.site);
                    acquire()
                });
                (None, g)
            }
            Level::Full => {
                table.note_acquisition(self.site);
                let g = try_acquire().unwrap_or_else(|| {
                    table.note_contended(self.site);
                    let t0 = table.now();
                    let g = acquire();
                    table.record_wait_sample(self.site, table.now().saturating_sub(t0));
                    g
                });
                (
                    Some(Hold {
                        table,
                        site: self.site,
                        acquired_at: table.now(),
                        deduct: 0,
                    }),
                    g,
                )
            }
        }
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let (hold, g) = self.run(
            || match self.inner.try_read() {
                Ok(g) => Some(g),
                Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(sync::TryLockError::WouldBlock) => None,
            },
            || unpoison(self.inner.read()),
        );
        TrackedReadGuard { _hold: hold, g }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let (hold, g) = self.run(
            || match self.inner.try_write() {
                Ok(g) => Some(g),
                Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(sync::TryLockError::WouldBlock) => None,
            },
            || unpoison(self.inner.write()),
        );
        TrackedWriteGuard { _hold: hold, g }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, BG_ROW};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Barrier};

    /// A manually-advanced shared clock.
    fn fake_clock() -> (Arc<AtomicU64>, Arc<ContentionTable>) {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = c.clone();
        let t = Arc::new(ContentionTable::new(Clock::new(move || {
            c2.load(Ordering::Relaxed)
        })));
        (c, t)
    }

    #[test]
    fn unattached_lock_is_a_plain_lock() {
        let m = TrackedMutex::new(Site::PmfsJournal, 1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        let l = TrackedRwLock::new(Site::NvmmDevice, 7);
        assert_eq!(*l.read(), 7);
        *l.write() = 8;
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn off_level_records_nothing() {
        let (_, t) = fake_clock();
        let m = TrackedMutex::attached(&t, Site::PmfsJournal, 0);
        *m.lock() += 1;
        let snap = t.snapshot();
        assert_eq!(snap.site(Site::PmfsJournal).acquisitions, 0);
        assert!(snap.touched().next().is_none());
    }

    #[test]
    fn counts_level_ticks_only_counters() {
        let (c, t) = fake_clock();
        t.set_level(Level::Counts);
        let m = TrackedMutex::attached(&t, Site::HinfsBufferPool, 0);
        for _ in 0..5 {
            c.fetch_add(100, Ordering::Relaxed);
            *m.lock() += 1;
        }
        let s = t.snapshot();
        let site = s.site(Site::HinfsBufferPool);
        assert_eq!(site.acquisitions, 5);
        assert_eq!(site.contended, 0);
        assert_eq!(site.wait.count(), 0, "counts level reads no clock");
        assert_eq!(site.hold.count(), 0);
    }

    #[test]
    fn full_level_books_hold_time_by_op_row() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let m = TrackedMutex::attached(&t, Site::PmfsNamespace, ());
        {
            let _g = m.lock();
            c.fetch_add(50, Ordering::Relaxed);
        }
        let s = t.snapshot();
        let site = s.site(Site::PmfsNamespace);
        assert_eq!(site.acquisitions, 1);
        assert_eq!(site.contended, 0);
        assert_eq!(
            site.wait.count(),
            0,
            "uncontended acquire takes no wait sample"
        );
        assert_eq!(site.hold.count(), 1);
        assert_eq!(site.hold.sum(), 50);
        assert_eq!(site.hold_by_op[BG_ROW], 50, "no op scope: background row");
        assert!(site.touched());
    }

    #[test]
    fn rwlock_read_and_write_hold_separately() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let l = TrackedRwLock::attached(&t, Site::NvmmDevice, 0u64);
        {
            let _r = l.read();
            c.fetch_add(10, Ordering::Relaxed);
        }
        {
            let mut w = l.write();
            *w += 1;
            c.fetch_add(30, Ordering::Relaxed);
        }
        let site = t.snapshot();
        let site = site.site(Site::NvmmDevice);
        assert_eq!(site.acquisitions, 2);
        assert_eq!(site.hold.count(), 2);
        assert_eq!(site.hold.sum(), 40);
    }

    #[test]
    fn stall_records_wait_without_a_lock() {
        let (_, t) = fake_clock();
        t.set_level(Level::Full);
        t.stall(Site::StallThrottle, 1234);
        t.stall(Site::StallThrottle, 766);
        let s = t.snapshot();
        let site = s.site(Site::StallThrottle);
        assert_eq!(site.contended, 2);
        assert_eq!(site.wait.count(), 2);
        assert_eq!(site.wait.sum(), 2000);
        assert_eq!(site.wait_by_op[BG_ROW], 2000);
        // Counts level ticks the counter only.
        t.reset();
        t.set_level(Level::Counts);
        t.stall(Site::StallWriteback, 999);
        let s = t.snapshot();
        assert_eq!(s.site(Site::StallWriteback).contended, 1);
        assert_eq!(s.site(Site::StallWriteback).wait.count(), 0);
    }

    #[test]
    fn contended_acquire_samples_wait() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let m = Arc::new(TrackedMutex::attached(&t, Site::PmfsJournal, ()));
        let gate = Arc::new(Barrier::new(2));
        let holder = {
            let (m, t, c, gate) = (m.clone(), t.clone(), c.clone(), gate.clone());
            std::thread::spawn(move || {
                let g = m.lock();
                gate.wait();
                // Wait until the main thread is provably blocked behind
                // us (it books contended *before* the blocking lock),
                // then advance the clock it will read on wake-up.
                while t.snapshot().site(Site::PmfsJournal).contended == 0 {
                    std::hint::spin_loop();
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                c.fetch_add(640, Ordering::Relaxed);
                drop(g);
            })
        };
        gate.wait();
        let g = m.lock();
        drop(g);
        holder.join().unwrap();
        let s = t.snapshot();
        let site = s.site(Site::PmfsJournal);
        assert_eq!(site.acquisitions, 2);
        assert_eq!(site.contended, 1);
        assert_eq!(site.wait.count(), site.contended);
        assert_eq!(site.wait.sum(), 640);
    }

    #[test]
    fn condvar_wait_books_wait_not_hold() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let pair = Arc::new((
            TrackedMutex::attached(&t, Site::HinfsWriteback, false),
            TrackedCondvar::new(),
        ));
        // Ordering: the waiter must be parked in cv.wait before the
        // notifier advances the clock. The waiter holds the mutex until
        // it waits, so once `ready` is up the notifier's lock() only
        // succeeds after the waiter has released it inside cv.wait.
        let ready = Arc::new(AtomicU64::new(0));
        let notifier = {
            let (pair, c, ready) = (pair.clone(), c.clone(), ready.clone());
            std::thread::spawn(move || {
                while ready.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                let (m, cv) = &*pair;
                let mut flag = m.lock();
                *flag = true;
                c.fetch_add(500, Ordering::Relaxed);
                drop(flag);
                cv.notify_all();
            })
        };
        {
            let (m, cv) = &*pair;
            let mut flag = m.lock();
            ready.store(1, Ordering::Release);
            while !*flag {
                cv.wait(&mut flag);
            }
            c.fetch_add(100, Ordering::Relaxed);
        }
        notifier.join().unwrap();
        let s = t.snapshot();
        let site = s.site(Site::HinfsWriteback);
        // The main thread's condvar waits sum to exactly the 500 ns the
        // notifier advanced while holding; that time is wait, not hold.
        assert_eq!(site.wait.sum(), 500);
        assert_eq!(site.hold.count(), 2);
        assert_eq!(site.hold.sum(), 600, "notifier held 500, waiter held 100");
    }

    #[test]
    fn reset_zeroes_everything() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let m = TrackedMutex::attached(&t, Site::ExtfsJbd, ());
        {
            let _g = m.lock();
            c.fetch_add(9, Ordering::Relaxed);
        }
        t.stall(Site::StallJournalFull, 77);
        assert!(t.snapshot().touched().count() == 2);
        t.reset();
        let s = t.snapshot();
        assert!(s.touched().next().is_none());
        assert_eq!(s.site(Site::ExtfsJbd).hold.count(), 0);
    }

    #[test]
    fn top_by_wait_ranks_deterministically() {
        let (_, t) = fake_clock();
        t.set_level(Level::Full);
        t.stall(Site::StallThrottle, 10);
        t.stall(Site::StallWriteback, 500);
        t.stall(Site::StallJournalFull, 100);
        let s = t.snapshot();
        let top: Vec<Site> = s.top_by_wait(2).iter().map(|x| x.site).collect();
        assert_eq!(top, vec![Site::StallWriteback, Site::StallJournalFull]);
        assert_eq!(s.top_by_wait(10).len(), 3);
    }

    #[test]
    fn metrics_expose_touched_sites_with_prefixed_names() {
        let (c, t) = fake_clock();
        t.set_level(Level::Full);
        let m = TrackedMutex::attached(&t, Site::HinfsBufferPool, ());
        {
            let _g = m.lock();
            c.fetch_add(25, Ordering::Relaxed);
        }
        let reg = MetricsRegistry::new();
        reg.register("", t.clone());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obsv_site_hinfs_buffer_pool_acquisitions"), 1);
        assert_eq!(snap.counter("obsv_site_hinfs_buffer_pool_contended"), 0);
        assert_eq!(
            snap.histo("obsv_site_hinfs_buffer_pool_hold_ns")
                .unwrap()
                .sum(),
            25
        );
        assert!(
            !snap.to_prometheus().contains("obsv_site_pmfs_journal"),
            "untouched sites stay out of the exposition"
        );
    }

    #[test]
    fn labels_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in ALL_SITES.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(seen.insert(s.label()));
            assert!(s.label().contains('.'), "{} is not dotted", s.label());
        }
        assert_eq!(ALL_SITES.len(), NSITES);
    }
}
