//! Background writeback: flushing, eviction and the reclaim policy
//! (paper §3.2).
//!
//! Dirty DRAM blocks are written back to NVMM at cacheline granularity
//! (CLFW) by:
//!
//! - the **reclaim path**, woken when free blocks drop below `Low_f`,
//!   evicting LRW victims until `High_f` is reached;
//! - the **periodic pass** (every 5 s), which also flushes any dirty block
//!   last written more than 30 s ago;
//! - **foreground stalls**: when the pool is exhausted before background
//!   writeback catches up, the writing thread flushes a victim itself and
//!   pays for it (the cost `Low_f` exists to avoid);
//! - **fsync**, which flushes the file's blocks on the caller's clock.
//!
//! In spin mode these run on real threads; in virtual mode they run as a
//! deterministic *writeback actor* whose own clock advances independently
//! of the foreground (see [`WbCtl`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fskit::{FsError, Result};
use nvmm::{Cat, TimeMode, BLOCK_SIZE, CACHELINE};
use obsv::{ContentionTable, DrainKind, Site, TraceEvent, TrackedCondvar, TrackedMutex};
use pmfs::inode::InodeMem;
use pmfs::Layout;

use crate::buffer::{range_mask, runs, BlockMeta, Shared};
use crate::fs::Hinfs;
use crate::stats::HinfsStats;
use crate::tracker;

/// Control state of the writeback machinery.
#[derive(Debug)]
pub struct WbCtl {
    /// Per-shard writeback-actor virtual clocks (virtual mode only): each
    /// shard's background pass advances on its own timeline, mirroring one
    /// writeback thread per shard.
    pub(crate) clocks: Vec<AtomicU64>,
    /// Last periodic pass, in simulated ns.
    pub(crate) last_periodic: AtomicU64,
    pub(crate) stop: AtomicBool,
    pub(crate) kick_flag: TrackedMutex<bool>,
    pub(crate) kick_cv: TrackedCondvar,
    pub(crate) threads: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl WbCtl {
    pub(crate) fn new(nshards: usize) -> WbCtl {
        WbCtl {
            clocks: (0..nshards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            last_periodic: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            kick_flag: TrackedMutex::new(Site::HinfsWriteback, false),
            kick_cv: TrackedCondvar::new(),
            threads: TrackedMutex::new(Site::HinfsWriteback, Vec::new()),
        }
    }

    /// Wires the control locks to the machine's contention profiler
    /// (first caller wins). `Hinfs::wrap` calls this at mount.
    pub(crate) fn attach_contention(&self, table: &Arc<ContentionTable>) {
        self.kick_flag.attach(table);
        self.threads.attach(table);
    }
}

/// Outcome of one flush attempt under the shared lock.
pub(crate) enum FlushTry {
    /// Flushed (or already clean).
    Done,
    /// The block maps to a hole; flushing needs the owner inode's lock.
    NeedsInode(u64),
}

impl Hinfs {
    /// Writes one buffered block's dirty lines to NVMM. Caller holds the
    /// shared lock; `state` supplies the owner inode when available. When
    /// the block covers a file hole and `state` is `None`, returns
    /// [`FlushTry::NeedsInode`] without side effects.
    ///
    /// `kind` classifies the drain for lineage: [`DrainKind::Sync`] when
    /// the flush runs inside a synchronization the caller asked for
    /// (fsync, O_SYNC eviction, sync/unmount), [`DrainKind::Lazy`] when
    /// the writeback machinery flushes behind the caller's back.
    pub(crate) fn flush_slot_locked(
        &self,
        sh: &mut Shared,
        slot: u32,
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> Result<FlushTry> {
        let meta = *sh.pool().meta(slot);
        if meta.dirty == 0 {
            return Ok(FlushTry::Done);
        }
        let dev = self.inner.device();
        let pblk = if meta.nvmm_block != 0 {
            meta.nvmm_block
        } else {
            // Resolve or allocate the NVMM block.
            let looked_up = state
                .as_deref()
                .and_then(|st| pmfs::tree::lookup(dev, st, meta.iblk));
            match looked_up {
                Some(p) => p,
                None => {
                    let Some(st) = state else {
                        return Ok(FlushTry::NeedsInode(meta.ino));
                    };
                    // Allocate on flush. The block may enter the file's
                    // tree only under a journaled inode-core update —
                    // mapped in memory alone, it is gone after a clean
                    // remount. So the journal comes first: open the
                    // transaction with its undo slots set aside, and on a
                    // full ring fail here, before anything changed (the
                    // block stays dirty in DRAM). The one thing a full
                    // ring still admits: the file's oldest queued
                    // transaction already holds an older image of the core
                    // and cannot commit while the shard lock is held, so
                    // the update rides on it — which is what lets a file
                    // whose own deferred transactions pin the ring flush
                    // at all.
                    let has_open_tx = sh.files.get(&meta.ino).is_some_and(|f| !f.txs.is_empty());
                    let tx = match self.inner.begin_inode_update() {
                        Ok(tx) => Some(tx),
                        Err(FsError::JournalFull) if has_open_tx => None,
                        Err(e) => return Err(e),
                    };
                    let p = match self.map_fresh_block(st, &meta) {
                        Ok(p) => p,
                        Err(e) => {
                            if let Some(tx) = tx {
                                self.inner.journal().abort(tx);
                            }
                            return Err(e);
                        }
                    };
                    match tx {
                        Some(tx) => {
                            let logged = self
                                .inner
                                .log_write_inode(&tx, meta.ino, st)
                                .expect("undo slots were set aside at begin");
                            // Through the ordered FIFO, behind the file's
                            // older transactions.
                            tracker::enqueue(
                                sh.file_mut(meta.ino),
                                tx,
                                logged,
                                HashSet::new(),
                                self.obs.stamp(self.env.now()),
                                &self.stats,
                            );
                        }
                        None => {
                            let oldest = &sh.files[&meta.ino].txs[0];
                            debug_assert_eq!(oldest.logged.ino(), meta.ino);
                            self.inner
                                .rewrite_logged_inode(&oldest.tx, oldest.logged, st);
                        }
                    }
                    p
                }
            }
        };
        // Write the dirty runs (CLFW: only dirty cachelines move).
        let base = Layout::block_off(pblk);
        for (start, n) in runs(meta.dirty) {
            let b = start as usize * CACHELINE;
            let data = &sh.pool().block(slot)[b..b + n as usize * CACHELINE];
            dev.write_persist(Cat::Writeback, base + b as u64, data);
        }
        dev.sfence();
        HinfsStats::bump(&self.stats.writeback_lines, meta.dirty.count_ones() as u64);
        HinfsStats::bump(&self.stats.writeback_blocks, 1);
        {
            let m = sh.pool_mut().meta_mut(slot);
            m.dirty = 0;
            m.nvmm_block = pblk;
        }
        sh.dirty_blocks -= 1;
        // The flush retires the block's ack stamp: record the durability
        // lag and put the causal link on the trace ring (the drained
        // event carries the origin op's seq window).
        if self.obs.full() {
            let drained = meta.dirty.count_ones() as u64 * CACHELINE as u64;
            let now = self.env.now();
            let lag = self.obs.record_drain(&meta.stamp, kind, now, drained);
            let seq_hi = self.obs.trace.emitted();
            self.obs.trace.emit(now, || TraceEvent::LineageDrained {
                row: meta.stamp.row as u64,
                lazy: kind == DrainKind::Lazy,
                bytes: drained,
                lag_ns: lag,
                seq_lo: meta.stamp.seq,
                seq_hi,
            });
        }
        tracker::note_flushed(
            sh.file_mut(meta.ino),
            self.inner.journal(),
            meta.iblk,
            &self.obs,
            kind,
            self.env.now(),
            &self.stats,
        );
        Ok(FlushTry::Done)
    }

    /// Allocates and zero-fills the NVMM block behind a buffered hole
    /// block and inserts it into the inode's tree (in memory and in the
    /// tree nodes; the inode core is the caller's to persist). Zeroes only
    /// the clean lines a reader could reach (up to end of file): lines
    /// fully beyond EOF are unreachable and the write path zeroes them
    /// explicitly if the file later grows over them — this is what keeps
    /// CLFW's NVMM write traffic at dirty-line granularity (Fig 9b).
    fn map_fresh_block(&self, st: &mut InodeMem, meta: &BlockMeta) -> Result<u64> {
        let dev = self.inner.device();
        let p = self.inner.allocator().alloc()?;
        let base = Layout::block_off(p);
        let in_file = st
            .size
            .saturating_sub(meta.iblk * BLOCK_SIZE as u64)
            .min(BLOCK_SIZE as u64) as usize;
        let readable = range_mask(0, in_file);
        for (start, n) in runs(readable & !meta.dirty) {
            dev.zero_persist(
                Cat::Writeback,
                base + start as u64 * CACHELINE as u64,
                n as usize * CACHELINE,
            );
        }
        pmfs::tree::insert(dev, self.inner.allocator(), st, meta.iblk, p)?;
        st.blocks += 1;
        Ok(p)
    }

    /// Flushes (if dirty) and releases a slot, dropping it from its file's
    /// DRAM Block Index. Same `state` contract as [`Self::flush_slot_locked`].
    pub(crate) fn evict_slot_locked(
        &self,
        sh: &mut Shared,
        slot: u32,
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> Result<FlushTry> {
        if let FlushTry::NeedsInode(ino) = self.flush_slot_locked(sh, slot, state, kind)? {
            return Ok(FlushTry::NeedsInode(ino));
        }
        let meta = *sh.pool().meta(slot);
        if let Some(file) = sh.files.get_mut(&meta.ino) {
            file.index.remove(meta.iblk);
        }
        sh.pool_mut().release_slot(slot);
        Ok(FlushTry::Done)
    }

    /// Reclaims LRW victims until `target_free` blocks are free, bracketing
    /// the pass with trace events when tracing is on.
    ///
    /// `own` lends the caller's already-locked inode so its own blocks can
    /// be flushed without re-locking. `blocking` selects whether foreign
    /// inode locks may be waited on (background) or only tried
    /// (foreground stall path — waiting there could deadlock).
    ///
    /// Returns the number of evicted victims; an eviction error (allocator
    /// or journal ring exhausted) ends the pass and is returned if the pass
    /// had freed nothing, so a foreground stall fails its write instead of
    /// retrying a reclaim that cannot make progress.
    pub(crate) fn reclaim(
        &self,
        si: usize,
        target_free: usize,
        own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) -> Result<u64> {
        if !self.obs.trace.enabled() {
            return self.reclaim_loop(si, target_free, own, blocking);
        }
        let free = self.shards[si].lock().pool().free_count() as u64;
        self.obs
            .trace
            .emit(self.env.now(), || obsv::TraceEvent::ReclaimBegin {
                free,
                target: target_free as u64,
            });
        let outcome = self.reclaim_loop(si, target_free, own, blocking);
        let free = self.shards[si].lock().pool().free_count() as u64;
        let victims = *outcome.as_ref().unwrap_or(&0);
        self.obs
            .trace
            .emit(self.env.now(), || obsv::TraceEvent::ReclaimEnd {
                victims,
                free,
            });
        outcome
    }

    /// The reclaim loop proper (see [`Self::reclaim`] for the result).
    fn reclaim_loop(
        &self,
        si: usize,
        target_free: usize,
        mut own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) -> Result<u64> {
        let mut victims = 0;
        let stopped = |victims: u64, e: FsError| if victims == 0 { Err(e) } else { Ok(victims) };
        loop {
            let mut sh = self.shards[si].lock();
            if sh.pool().free_count() >= target_free {
                return Ok(victims);
            }
            // Find the oldest victim we can handle in this iteration.
            let mut victim: Option<(u32, u64)> = None; // (slot, ino-if-foreign)
            for slot in sh.pool().lrw.iter_from_tail() {
                let m = sh.pool().meta(slot);
                let self_sufficient = m.dirty == 0 || m.nvmm_block != 0;
                let is_own = own.as_ref().is_some_and(|(oino, _)| *oino == m.ino);
                if self_sufficient || is_own {
                    victim = Some((slot, 0));
                    break;
                }
                if victim.is_none() {
                    victim = Some((slot, m.ino));
                }
            }
            let Some((slot, foreign_ino)) = victim else {
                return Ok(victims); // pool empty of victims (everything already free)
            };
            if foreign_ino == 0 {
                let state = own.as_mut().map(|(_, st)| &mut **st);
                // Self-sufficient or own-inode victims cannot fail with
                // NeedsInode; allocator or journal exhaustion aborts the
                // pass. Pool-pressure eviction drains behind the ack: lazy.
                if let Err(e) = self.evict_slot_locked(&mut sh, slot, state, DrainKind::Lazy) {
                    return stopped(victims, e);
                }
                victims += 1;
                continue;
            }
            // Foreign hole-block: take the owner's inode lock with the
            // shared lock dropped (lock order: inode before shared).
            drop(sh);
            let Ok(handle) = self.inner.inode(foreign_ino) else {
                continue; // raced with deletion; rescan
            };
            let guard = if blocking {
                Some(handle.state.write())
            } else {
                handle.state.try_write()
            };
            let Some(mut guard) = guard else {
                // Foreground stall path: do not wait (deadlock risk);
                // rescan — background writeback will handle it.
                std::thread::yield_now();
                continue;
            };
            let mut sh = self.shards[si].lock();
            // Re-validate after re-locking.
            let still = sh.slot_of(foreign_ino, sh.pool().meta(slot).iblk) == Some(slot)
                && sh.pool().meta(slot).ino == foreign_ino;
            if still {
                match self.evict_slot_locked(&mut sh, slot, Some(&mut guard), DrainKind::Lazy) {
                    Ok(_) => victims += 1,
                    Err(e) => return stopped(victims, e),
                }
            }
        }
    }

    /// One full writeback pass over every shard at time `now` (on the
    /// caller's clock) — the spin-mode thread body.
    pub(crate) fn wb_pass(&self, now: u64) {
        for si in 0..self.shards.len() {
            self.wb_pass_shard(si, now);
        }
        // Periodic online audit: each background pass re-verifies the
        // index/bitmap/LRW invariants when the mount has auditing on.
        self.maybe_audit();
    }

    /// One writeback pass over shard `si`: watermark reclaim against the
    /// shard's own `Low_f`/`High_f`, then the 30 s dirty-age flush along
    /// the shard's LRW list.
    pub(crate) fn wb_pass_shard(&self, si: usize, now: u64) {
        // Injected stall: the writeback actor simply makes no progress this
        // pass. Foreground paths must degrade gracefully (flush-on-demand
        // via fsync / pool-pressure reclaim in the write path still run).
        if nvmm::fault::writeback_stalled(self.inner.device()) {
            return;
        }
        // Background provenance: traffic of this pass lands in the bg row
        // (when an op's own reclaim runs inline, its frame stays owner).
        let _bg = self.obs.bg_scope();
        {
            let sh = self.shards[si].lock();
            let cap = sh.pool().capacity();
            let free = sh.pool().free_count();
            drop(sh);
            if free < self.cfg.low_blocks_of(cap) {
                // Background: what could not be evicted now is retried on
                // the next pass.
                let _ = self.reclaim(si, self.cfg.high_blocks_of(cap), None, true);
            }
        }
        // Age-based flush: the LRW list is ordered by last write, so scan
        // from the LRW end until blocks get too young.
        let mut age_flushed: u64 = 0;
        loop {
            let mut sh = self.shards[si].lock();
            let mut target: Option<(u32, u64)> = None;
            for slot in sh.pool().lrw.iter_from_tail() {
                let m = sh.pool().meta(slot);
                if m.last_write_ns + self.cfg.dirty_age_ns > now {
                    break;
                }
                if m.dirty != 0 {
                    target = Some((slot, m.ino));
                    break;
                }
            }
            let Some((slot, ino)) = target else { break };
            match self.flush_slot_locked(&mut sh, slot, None, DrainKind::Lazy) {
                Ok(FlushTry::Done) => {
                    age_flushed += 1;
                    continue;
                }
                Ok(FlushTry::NeedsInode(_)) => {
                    drop(sh);
                    let Ok(handle) = self.inner.inode(ino) else {
                        continue;
                    };
                    let mut guard = handle.state.write();
                    let mut sh = self.shards[si].lock();
                    let iblk = sh.pool().meta(slot).iblk;
                    if sh.slot_of(ino, iblk) != Some(slot) {
                        continue; // evicted or reused meanwhile; rescan
                    }
                    match self.flush_slot_locked(&mut sh, slot, Some(&mut guard), DrainKind::Lazy) {
                        Ok(_) => age_flushed += 1,
                        // Refused (journal ring or allocator exhausted):
                        // the block stays the oldest dirty one, so give
                        // the pass up; the next one retries it.
                        Err(_) => break,
                    }
                }
                Err(_) => break,
            }
        }
        if age_flushed > 0 {
            self.obs
                .trace
                .emit(now, || obsv::TraceEvent::PeriodicPass { age_flushed });
        }
    }

    /// Virtual-mode hook: runs due background work on the writeback actor's
    /// clock (never the caller's).
    pub(crate) fn tick_virtual(&self, now: u64) {
        if self.env.mode() != TimeMode::Virtual {
            return;
        }
        let last = self.wb.last_periodic.load(Ordering::Relaxed);
        let periodic_due = now.saturating_sub(last) >= self.cfg.periodic_wb_ns;
        if periodic_due {
            self.wb.last_periodic.store(now, Ordering::Relaxed);
        }
        // Each shard's writeback actor runs at most MAX_LEAD ahead of the
        // foreground: a real background thread shares wall time with its
        // producers, and bounding the lead also re-anchors the actor after
        // a timeline rebase (env.rebase() moves the foreground back to 0).
        const MAX_LEAD: u64 = 20_000_000; // 20 ms
        let mut ran = false;
        for si in 0..self.shards.len() {
            let need_reclaim = {
                let sh = self.shards[si].lock();
                sh.pool().free_count() < self.cfg.low_blocks_of(sh.pool().capacity())
            };
            if !need_reclaim && !periodic_due {
                continue;
            }
            let wb_now = self.wb.clocks[si]
                .load(Ordering::Relaxed)
                .clamp(now, now + MAX_LEAD);
            // The pass runs inline on the caller's thread but on the shard
            // actor's own timeline: detach span attribution so its device
            // time lands in the background row, not in whichever op
            // triggered it.
            let ((), end) =
                obsv::detached(|| self.env.with_now(wb_now, || self.wb_pass_shard(si, wb_now)));
            self.wb.clocks[si].store(end, Ordering::Relaxed);
            ran = true;
        }
        if ran {
            // Re-verify the invariants once per tick, not once per shard.
            self.maybe_audit();
        }
    }

    /// Wakes the background threads (spin mode) or runs the actor
    /// (virtual mode).
    pub(crate) fn kick_background(&self, now: u64) {
        match self.env.mode() {
            TimeMode::Virtual => self.tick_virtual(now),
            TimeMode::Spin => {
                let mut flag = self.wb.kick_flag.lock();
                *flag = true;
                self.wb.kick_cv.notify_all();
            }
        }
    }

    /// Spawns the spin-mode writeback threads ("multiple independent kernel
    /// threads created at mount time").
    pub(crate) fn start_background(self: &Arc<Self>) {
        if self.env.mode() != TimeMode::Spin {
            return;
        }
        let mut threads = self.wb.threads.lock();
        for _ in 0..self.cfg.wb_threads.max(1) {
            let fs = Arc::clone(self);
            threads.push(std::thread::spawn(move || loop {
                {
                    let mut flag = fs.wb.kick_flag.lock();
                    if !*flag {
                        let timeout = std::time::Duration::from_nanos(fs.cfg.periodic_wb_ns);
                        fs.wb.kick_cv.wait_for(&mut flag, timeout);
                    }
                    *flag = false;
                }
                if fs.wb.stop.load(Ordering::Relaxed) {
                    return;
                }
                fs.wb_pass(fs.env.now());
            }));
        }
    }

    /// Stops and joins the background threads (unmount).
    pub(crate) fn stop_background(&self) {
        self.wb.stop.store(true, Ordering::Relaxed);
        {
            let mut flag = self.wb.kick_flag.lock();
            *flag = true;
            self.wb.kick_cv.notify_all();
        }
        let mut threads = self.wb.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Flushes every dirty buffered block of every file (sync/unmount) —
    /// a synchronization the caller asked for, so the drains are sync.
    pub(crate) fn flush_all(&self) -> Result<()> {
        self.flush_files(true, DrainKind::Sync)
    }

    /// Best-effort global flush that skips inodes whose locks are busy.
    /// Used to relieve journal pressure while a file lock is already held
    /// (blocking there could deadlock with another writer doing the same).
    /// Nobody asked for this data to become durable — the drains are lazy.
    pub(crate) fn flush_all_opportunistic(&self) {
        let _ = self.flush_files(false, DrainKind::Lazy);
    }

    fn flush_files(&self, blocking: bool, kind: DrainKind) -> Result<()> {
        // Files whose hole blocks could not be mapped because the journal
        // ring was full. Passing them by lets every other file drain its
        // transactions, which is what empties the ring.
        let mut ring_full: Vec<(usize, u64)> = Vec::new();
        // Shards are visited in index order and inos sorted within each:
        // flush order feeds the journal and the bandwidth-gate calendar,
        // and HashMap order would make virtual time run-dependent.
        for si in 0..self.shards.len() {
            let mut inos: Vec<u64> = {
                let sh = self.shards[si].lock();
                sh.files.keys().copied().collect()
            };
            inos.sort_unstable();
            for ino in inos {
                match self.flush_file(si, ino, blocking, kind) {
                    Err(FsError::JournalFull) => ring_full.push((si, ino)),
                    other => other?,
                }
            }
        }
        // With the others drained the ring has quiesced (or has room);
        // what still cannot be mapped now is the caller's error to see.
        for (si, ino) in ring_full {
            self.flush_file(si, ino, blocking, kind)?;
        }
        Ok(())
    }

    /// Flushes every dirty block of `ino` (shard `si`) and commits its
    /// ready transactions. Skips the file when `blocking` is false and its
    /// inode lock is busy.
    fn flush_file(&self, si: usize, ino: u64, blocking: bool, kind: DrainKind) -> Result<()> {
        let Ok(handle) = self.inner.inode(ino) else {
            return Ok(());
        };
        let guard = if blocking {
            Some(handle.state.write())
        } else {
            handle.state.try_write()
        };
        let Some(mut guard) = guard else {
            return Ok(());
        };
        let mut sh = self.shards[si].lock();
        let slots: Vec<u32> = match sh.files.get(&ino) {
            Some(f) => {
                let mut v = Vec::new();
                f.index.for_each(&mut |_, s| v.push(*s));
                v
            }
            None => return Ok(()),
        };
        self.flush_slots_locked(&mut sh, &slots, &mut guard, kind)?;
        if let Some(file) = sh.files.get_mut(&ino) {
            // All blocks are clean: no pending entry may gate a commit.
            for t in &mut file.txs {
                t.pending.clear();
            }
            tracker::drain_ready(
                file,
                self.inner.journal(),
                &self.obs,
                kind,
                self.env.now(),
                &self.stats,
            );
            debug_assert!(file.txs.is_empty(), "flush_all left open transactions");
        }
        Ok(())
    }

    /// Flushes the dirty ones among `slots`, all blocks of the inode whose
    /// state the caller lends. A block that cannot be mapped because the
    /// journal ring is full stays dirty and does not stop the rest: their
    /// flushes commit transactions, and those commits are what lets the
    /// ring drain. Returns that error once every slot was tried.
    pub(crate) fn flush_slots_locked(
        &self,
        sh: &mut Shared,
        slots: &[u32],
        state: &mut InodeMem,
        kind: DrainKind,
    ) -> Result<()> {
        let mut ring_full = Ok(());
        for &slot in slots {
            if sh.pool().meta(slot).dirty == 0 {
                continue;
            }
            match self.flush_slot_locked(sh, slot, Some(state), kind) {
                Ok(FlushTry::Done) => {}
                Ok(FlushTry::NeedsInode(_)) => {
                    return Err(FsError::Corrupted("flush could not map block"))
                }
                Err(FsError::JournalFull) => ring_full = Err(FsError::JournalFull),
                Err(e) => return Err(e),
            }
        }
        ring_full
    }

    /// Total buffered dirty blocks across every shard (diagnostics).
    pub fn dirty_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_blocks).sum()
    }

    /// Free DRAM buffer blocks across every shard (diagnostics).
    pub fn free_buffer_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().pool().free_count())
            .sum()
    }

    /// Buffer capacity in blocks (sum of the shard pools).
    pub fn buffer_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pool().capacity()).sum()
    }
}
