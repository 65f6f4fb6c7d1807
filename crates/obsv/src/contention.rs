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
//!   matrix.
//!
//! Blocking that happens *without* a lock — a foreground write paying
//! for a writeback reclaim, a journal-full flush, bandwidth-gate
//! throttling — is attributed through [`ContentionTable::stall`] against
//! the dedicated `stall.*` sites, so "where do threads wait" has one
//! answer covering both lock and non-lock stalls.
//!
//! Cost rules, matching the rest of `obsv`:
//!
//! - **[`Level::Off`]**: a tracked lock is a plain `std::sync` lock
//!   plus one relaxed load.
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
use crate::scope::current_row;
use crate::span::SPAN_ROWS;
use crate::{Clock, Level, MetricSource, Visitor};
use std::sync;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Shard fan-out of the sharded subsystems. Every shard-indexed site
/// family below has exactly this many members, so `Site::hinfs_shard(i)`
/// and friends are total for any `i` (reduced mod `NSHARDS`).
pub const NSHARDS: usize = 8;

/// A static lock or stall site. One id per lock *declaration*, named
/// `<crate>.<structure>`; `stall.*` sites are not locks but explicit
/// blocking points on the write path. A sharded lock is a family of
/// [`NSHARDS`] sites labelled `<family><i>`, numbered after the named
/// sites and reached only through the family's constructor.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site(usize);

/// Declares the named sites (one constant each) and the shard families
/// (one constructor each), in discriminant order.
macro_rules! sites {
    (
        named {
            $( $(#[$meta:meta])* $name:ident = $label:literal, )+
        }
        families {
            $( $(#[$fmeta:meta])* $family:ident = $prefix:literal, )+
        }
    ) => {
        enum Named {
            $( $name, )+
        }

        #[allow(non_camel_case_types)]
        enum Family {
            $( $family, )+
        }

        const NAMED_LABELS: &[&str] = &[$($label),+];
        const FAMILY_PREFIXES: &[&str] = &[$($prefix),+];

        #[allow(non_upper_case_globals)]
        impl Site {
            $( $(#[$meta])* pub const $name: Site = Site(Named::$name as usize); )+
            $(
                $(#[$fmeta])*
                pub fn $family(i: usize) -> Site {
                    Site::shard(Family::$family as usize, i)
                }
            )+
        }
    };
}

sites! {
    named {
        /// `nvmm::NvmmDevice::image` — the device bytes and their
        /// persistence domain.
        NvmmDevice = "nvmm.device",
        /// `nvmm::BandwidthGate` — the bandwidth calendar.
        NvmmGate = "nvmm.gate",
        /// `fskit::FdTable` — the descriptor table.
        FskitFdtable = "fskit.fdtable",
        /// `pmfs::Journal` — the undo-journal ring.
        PmfsJournal = "pmfs.journal",
        /// `pmfs::Allocator` — the block/inode allocator.
        PmfsAlloc = "pmfs.alloc",
        /// `pmfs::Pmfs::ns` — the namespace (directory tree) lock.
        PmfsNamespace = "pmfs.ns",
        /// `pmfs::InodeCache` — the in-memory inode map.
        PmfsInodeMap = "pmfs.inode_map",
        /// `hinfs::Hinfs::shared` — the DRAM buffer pool and block index.
        HinfsBufferPool = "hinfs.buffer_pool",
        /// `hinfs::WbCtl` — writeback kick flag and thread registry.
        HinfsWriteback = "hinfs.writeback",
        /// `extfs::Jbd` — the JBD2-style journal.
        ExtfsJbd = "extfs.jbd",
        /// `extfs::Allocator` — the block/inode allocator.
        ExtfsAlloc = "extfs.alloc",
        /// `extfs::Extfs::ns` — the namespace lock.
        ExtfsNamespace = "extfs.ns",
        /// `extfs::Extfs::dirty_data` — the ordered-mode dirty-data set.
        ExtfsDirtyData = "extfs.dirty_data",
        /// `extfs::Cache` — the page cache.
        ExtfsCache = "extfs.cache",
        /// `extfs::InodeCache` — the in-memory inode map.
        ExtfsInodeMap = "extfs.inode_map",
        /// A foreground write paying for a buffer-pool reclaim itself.
        StallWriteback = "stall.writeback",
        /// Journal-pressure relief: flushing open transactions to free ring
        /// space before (or inside) `reserve_tx`.
        StallJournalFull = "stall.journal_full",
        /// NVMM write-bandwidth throttling: queueing delay charged by the
        /// bandwidth gate beyond pure service time.
        StallThrottle = "stall.throttle",
    }
    families {
        /// `hinfs::Hinfs::shards[i]` — shard `i` (mod [`NSHARDS`]) of the
        /// DRAM buffer pool.
        hinfs_shard = "hinfs.shard",
        /// `pmfs::Allocator::shards[i]` — shard `i` of the block allocator.
        pmfs_alloc_shard = "pmfs.alloc_shard",
        /// `pmfs::Pmfs::ns_shards[i]` — shard `i` of the namespace lock.
        pmfs_ns_shard = "pmfs.ns_shard",
        /// `pmfs::InodeCache::shards[i]` — shard `i` of the inode map.
        pmfs_inode_shard = "pmfs.inode_shard",
    }
}

/// Number of sites: the named ones, then [`NSHARDS`] per family.
pub const NSITES: usize = NAMED_LABELS.len() + FAMILY_PREFIXES.len() * NSHARDS;

/// All sites in discriminant order.
pub const ALL_SITES: [Site; NSITES] = {
    let mut all = [Site(0); NSITES];
    let mut i = 0;
    while i < NSITES {
        all[i] = Site(i);
        i += 1;
    }
    all
};

impl Site {
    fn shard(family: usize, i: usize) -> Site {
        Site(NAMED_LABELS.len() + family * NSHARDS + i % NSHARDS)
    }

    /// The site's discriminant: its position in [`ALL_SITES`].
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Stable dotted label for reports and the bench JSON: a named
    /// site's own, `<family><i>` for shard `i` of a family.
    pub fn label(self) -> &'static str {
        static LABELS: OnceLock<Vec<String>> = OnceLock::new();
        let labels = LABELS.get_or_init(|| {
            let shards = FAMILY_PREFIXES
                .iter()
                .flat_map(|p| (0..NSHARDS).map(move |i| format!("{p}{i}")));
            NAMED_LABELS
                .iter()
                .map(|l| l.to_string())
                .chain(shards)
                .collect()
        });
        &labels[self.index()]
    }
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-site accumulator. ~8 KiB each (two histograms plus the op rows).
#[derive(Debug, Default)]
struct SiteStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait: Histo,
    hold: Histo,
    wait_by_op: [AtomicU64; SPAN_ROWS],
    hold_by_op: [AtomicU64; SPAN_ROWS],
}

impl SiteStats {
    fn reset(&self) {
        self.wait.reset();
        self.hold.reset();
        let counters = [&self.acquisitions, &self.contended].into_iter();
        for c in counters.chain(&self.wait_by_op).chain(&self.hold_by_op) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// The shared contention accumulator of one simulated machine. One table
/// exists per `SimEnv`; every tracked lock on that machine is built with
/// it. Disabled ([`Level::Off`]) by default.
#[derive(Debug)]
pub struct ContentionTable {
    level: AtomicU8,
    clock: Clock,
    sites: [SiteStats; NSITES],
}

impl ContentionTable {
    /// A disabled table reading time from `clock` (simulated ns). The
    /// clock is only read, never advanced.
    pub fn new(clock: Clock) -> ContentionTable {
        ContentionTable {
            level: AtomicU8::new(Level::Off as u8),
            clock,
            sites: std::array::from_fn(|_| SiteStats::default()),
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

    /// Records a non-lock blocking interval (`wait_ns` already measured
    /// by the caller on the simulation clock) against a `stall.*` site.
    /// At [`Level::Counts`] only the contended counter ticks.
    pub fn stall(&self, site: Site, wait_ns: u64) {
        match self.level() {
            Level::Off => {}
            Level::Counts => self.note_contended(site),
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
                    let s = &self.sites[site.index()];
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
        self.sites[site.index()]
            .acquisitions
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_contended(&self, site: Site) {
        self.sites[site.index()]
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
        let s = &self.sites[site.index()];
        s.wait.record(wait_ns);
        s.wait_by_op[current_row()].fetch_add(wait_ns, Ordering::Relaxed);
    }

    fn record_hold(&self, site: Site, hold_ns: u64) {
        let s = &self.sites[site.index()];
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
            let base = format!("obsv_site_{}", snap.site.label().replace('.', "_"));
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
        &self.sites[site.index()]
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
                .then(a.site.index().cmp(&b.site.index()))
        });
        v.truncate(n);
        v
    }
}

/// parking_lot-style poison stripping: a panic while holding a tracked
/// lock leaves the data as-is.
fn unpoison<G>(r: Result<G, sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(sync::PoisonError::into_inner)
}

/// [`unpoison`] for a non-blocking acquire: `None` only when it would
/// block.
fn try_unpoison<G>(r: Result<G, sync::TryLockError<G>>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(sync::TryLockError::WouldBlock) => None,
    }
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
            .clock
            .now()
            .saturating_sub(self.acquired_at)
            .saturating_sub(self.deduct);
        self.table.record_hold(self.site, held);
    }
}

/// A [`Site`]-tagged `std::sync` lock `L` recording into its machine's
/// [`ContentionTable`], which it is built with.
#[derive(Debug)]
pub struct Tracked<L> {
    site: Site,
    table: Arc<ContentionTable>,
    inner: L,
}

/// A tracked mutex.
pub type TrackedMutex<T> = Tracked<sync::Mutex<T>>;

/// A tracked reader-writer lock. Reads and writes record into the same
/// site (each guard books its own hold).
pub type TrackedRwLock<T> = Tracked<sync::RwLock<T>>;

/// Guard for [`TrackedMutex`]: the inner `std::sync` guard plus the open
/// hold.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    hold: Option<Hold<'a>>,
    g: sync::MutexGuard<'a, T>,
}

/// Guard for [`TrackedRwLock`]: the inner `std::sync` guard `G` plus the
/// open hold.
pub struct TrackedGuard<'a, G> {
    _hold: Option<Hold<'a>>,
    g: G,
}

/// Shared-read guard for [`TrackedRwLock`].
pub type TrackedReadGuard<'a, T> = TrackedGuard<'a, sync::RwLockReadGuard<'a, T>>;

/// Exclusive-write guard for [`TrackedRwLock`].
pub type TrackedWriteGuard<'a, T> = TrackedGuard<'a, sync::RwLockWriteGuard<'a, T>>;

impl<L> Tracked<L> {
    /// This lock's site id.
    pub fn site(&self) -> Site {
        self.site
    }

    /// The hold measurement a fresh guard carries at [`Level::Full`].
    fn hold(&self, full: bool) -> Option<Hold<'_>> {
        full.then(|| Hold {
            table: &self.table,
            site: self.site,
            acquired_at: self.table.clock.now(),
            deduct: 0,
        })
    }

    /// A blocking acquire, at the cost the module docs state. When
    /// `try_acquire` cannot satisfy it, the contended counter ticks
    /// *before* `block` blocks (a thread is visibly stalled while it
    /// waits).
    #[inline]
    fn acquire<G>(
        &self,
        try_acquire: impl FnOnce() -> Option<G>,
        block: impl FnOnce() -> G,
    ) -> (Option<Hold<'_>>, G) {
        let (table, site) = (&*self.table, self.site);
        let full = match table.level() {
            Level::Off => return (None, block()),
            Level::Counts => false,
            Level::Full => true,
        };
        table.note_acquisition(site);
        let g = match try_acquire() {
            Some(g) => g,
            None => {
                table.note_contended(site);
                let t0 = full.then(|| table.clock.now());
                let g = block();
                if let Some(t0) = t0 {
                    table.record_wait_sample(site, table.clock.now().saturating_sub(t0));
                }
                g
            }
        };
        (self.hold(full), g)
    }

    /// A non-blocking acquire: `None` when it would block, counting
    /// nothing — a failed try is a caller decision, not a blocked
    /// thread.
    #[inline]
    fn try_acquire<G>(
        &self,
        try_acquire: impl FnOnce() -> Option<G>,
    ) -> Option<(Option<Hold<'_>>, G)> {
        let level = self.table.level();
        let g = try_acquire()?;
        if level != Level::Off {
            self.table.note_acquisition(self.site);
        }
        Some((self.hold(level == Level::Full), g))
    }
}

impl<T> TrackedMutex<T> {
    /// A mutex at `site` recording into `table`.
    pub fn new(table: &Arc<ContentionTable>, site: Site, t: T) -> TrackedMutex<T> {
        Tracked {
            site,
            table: table.clone(),
            inner: sync::Mutex::new(t),
        }
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }

    /// Acquires the lock, recording per the table's level.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let (hold, g) = self.acquire(
            || try_unpoison(self.inner.try_lock()),
            || unpoison(self.inner.lock()),
        );
        TrackedMutexGuard { hold, g }
    }

    /// Non-blocking acquire. Counts as an acquisition (never contended —
    /// a failed try is a caller decision, not a blocked thread).
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let (hold, g) = self.try_acquire(|| try_unpoison(self.inner.try_lock()))?;
        Some(TrackedMutexGuard { hold, g })
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.g
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.g
    }
}

/// A condition variable operating on [`TrackedMutexGuard`]. Time parked
/// in a wait is booked as *wait* against the guard's site (and counted
/// as contended) and deducted from the guard's hold time.
#[derive(Debug, Default)]
pub struct TrackedCondvar(sync::Condvar);

impl TrackedCondvar {
    /// A fresh condvar.
    pub const fn new() -> TrackedCondvar {
        TrackedCondvar(sync::Condvar::new())
    }

    /// Parks `guard` until notified or `timeout` elapses (wall time),
    /// booking the parked time as wait and taking it off the guard's
    /// hold; returns the re-acquired guard.
    pub fn wait_for<'a, T>(
        &self,
        guard: TrackedMutexGuard<'a, T>,
        timeout: Duration,
    ) -> TrackedMutexGuard<'a, T> {
        let TrackedMutexGuard { mut hold, g } = guard;
        let t0 = hold.as_ref().map(|h| h.table.clock.now());
        let g = unpoison(self.0.wait_timeout(g, timeout)).0;
        if let (Some(h), Some(t0)) = (hold.as_mut(), t0) {
            let waited = h.table.clock.now().saturating_sub(t0);
            h.table.record_wait(h.site, waited);
            h.deduct = h.deduct.saturating_add(waited);
        }
        TrackedMutexGuard { hold, g }
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

impl<T> TrackedRwLock<T> {
    /// An rwlock at `site` recording into `table`.
    pub fn new(table: &Arc<ContentionTable>, site: Site, t: T) -> TrackedRwLock<T> {
        Tracked {
            site,
            table: table.clone(),
            inner: sync::RwLock::new(t),
        }
    }

    /// Consumes the lock, returning the data.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let (_hold, g) = self.acquire(
            || try_unpoison(self.inner.try_read()),
            || unpoison(self.inner.read()),
        );
        TrackedGuard { _hold, g }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let (_hold, g) = self.acquire(
            || try_unpoison(self.inner.try_write()),
            || unpoison(self.inner.write()),
        );
        TrackedGuard { _hold, g }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for TrackedGuard<'_, G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.g
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for TrackedGuard<'_, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
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
    fn off_level_lock_is_a_plain_lock() {
        let (_, t) = fake_clock();
        let m = TrackedMutex::new(&t, Site::PmfsJournal, 1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        let l = TrackedRwLock::new(&t, Site::NvmmDevice, 7);
        assert_eq!(*l.read(), 7);
        *l.write() = 8;
        assert_eq!(l.into_inner(), 8);
        assert!(t.snapshot().touched().next().is_none());
    }

    #[test]
    fn off_level_records_nothing() {
        let (_, t) = fake_clock();
        let m = TrackedMutex::new(&t, Site::PmfsJournal, 0);
        *m.lock() += 1;
        let snap = t.snapshot();
        assert_eq!(snap.site(Site::PmfsJournal).acquisitions, 0);
        assert!(snap.touched().next().is_none());
    }

    #[test]
    fn counts_level_ticks_only_counters() {
        let (c, t) = fake_clock();
        t.set_level(Level::Counts);
        let m = TrackedMutex::new(&t, Site::HinfsBufferPool, 0);
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
        let m = TrackedMutex::new(&t, Site::PmfsNamespace, ());
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
        let l = TrackedRwLock::new(&t, Site::NvmmDevice, 0u64);
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
        let m = Arc::new(TrackedMutex::new(&t, Site::PmfsJournal, ()));
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
            TrackedMutex::new(&t, Site::HinfsWriteback, false),
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
                flag = cv.wait_for(flag, std::time::Duration::from_secs(60));
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
        let m = TrackedMutex::new(&t, Site::ExtfsJbd, ());
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
        let m = TrackedMutex::new(&t, Site::HinfsBufferPool, ());
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
            assert_eq!(s.index(), i);
            assert!(seen.insert(s.label()));
            assert!(s.label().contains('.'), "{} is not dotted", s.label());
        }
        assert_eq!(ALL_SITES.len(), NSITES);
    }
}
