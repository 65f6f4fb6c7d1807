//! Background writeback: flushing, eviction and the reclaim policy
//! (paper §3.2).
//!
//! Dirty DRAM blocks are written back to NVMM at cacheline granularity
//! (CLFW) by:
//!
//! - the **reclaim path**, woken when the mount's free blocks drop below
//!   `Low_f`: [`reclaim_plan`] hands the deficit to `High_f` to the
//!   fullest shards, and each evicts its share from its own LRW tail;
//! - the **periodic pass** (every 5 s), which also flushes any dirty block
//!   last written more than 30 s ago;
//! - **foreground stalls**: when the budget is exhausted before background
//!   writeback catches up, the writing thread evicts a victim itself and
//!   pays for it (the cost `Low_f` exists to avoid) — from its own shard,
//!   or from the next one that holds anything;
//! - **fsync**, which flushes the file's blocks on the caller's clock.
//!
//! The background work runs as one writeback pass per shard on either
//! clock ([`Hinfs::wb_pass_shard`]), each on the shard's share of one
//! [`reclaim_plan`] taken when the buffer runs low: in virtual mode as a
//! deterministic *writeback actor* whose clock advances independently of
//! the foreground, in spin mode on the shard's own real thread (see
//! [`WbCtl`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fskit::vfs::Namespace;
use fskit::{FsError, Result};
use nvmm::{Cat, TimeMode, BLOCK_SIZE, CACHELINE};
use obsv::{ContentionTable, DrainKind, Site, TraceEvent, TrackedCondvar, TrackedMutex};
use pmfs::inode::InodeMem;
use pmfs::Layout;

use crate::buffer::{range_mask, runs, BlockMeta, Shared};
use crate::fs::Hinfs;
use crate::stats::HinfsStats;
use crate::tracker;

/// Control state of the writeback machinery: one actor per shard.
#[derive(Debug)]
pub struct WbCtl {
    /// Per-shard writeback-actor virtual clocks (virtual mode only): each
    /// shard's background pass advances on its own timeline, mirroring one
    /// writeback thread per shard.
    pub(crate) clocks: Vec<AtomicU64>,
    /// Last periodic pass, in simulated ns (virtual mode only).
    pub(crate) last_periodic: AtomicU64,
    pub(crate) stop: AtomicBool,
    /// Spin mode: each shard thread's share of the last kick's reclaim
    /// plan, taken when the thread wakes (`None`: not kicked since).
    pub(crate) kicks: TrackedMutex<Vec<Option<usize>>>,
    /// Spin mode: one wake-up per shard thread, paired with `kicks`.
    pub(crate) kick_cv: Vec<TrackedCondvar>,
    pub(crate) threads: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl WbCtl {
    /// Control state for `nshards` actors, its locks recording into
    /// `table`.
    pub(crate) fn new(table: &Arc<ContentionTable>, nshards: usize) -> WbCtl {
        let n = nshards.max(1);
        WbCtl {
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            last_periodic: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            kicks: TrackedMutex::new(table, Site::HinfsWriteback, vec![None; n]),
            kick_cv: (0..n).map(|_| TrackedCondvar::new()).collect(),
            threads: TrackedMutex::new(table, Site::HinfsWriteback, Vec::new()),
        }
    }
}

/// Writes the lines of `dirty` from a buffered block to NVMM block
/// `pblk` (CLFW: only dirty cachelines move).
fn write_dirty_runs(dev: &nvmm::NvmmDevice, block: &[u8], dirty: u64, pblk: u64) {
    let base = Layout::block_off(pblk);
    for (start, n) in runs(dirty) {
        let b = start as usize * CACHELINE;
        dev.write_persist(
            Cat::Writeback,
            base + b as u64,
            &block[b..b + n as usize * CACHELINE],
        );
    }
}

/// The reclaim policy — the one place that decides which shard evicts how
/// many victims, given the mount's `free` blocks and what each shard holds.
/// Nothing at or above `low` (`Low_f`); below it the deficit to `high`
/// (`High_f`) goes to the fullest shard first (ties to the lower index),
/// capped at what it holds, the rest to the next.
pub fn reclaim_plan(free: usize, low: usize, high: usize, held: &[usize]) -> Vec<usize> {
    let mut plan = vec![0; held.len()];
    let mut deficit = high.saturating_sub(free);
    let mut order: Vec<usize> = (0..held.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(held[i]));
    for i in order.into_iter().filter(|_| free < low) {
        plan[i] = deficit.min(held[i]);
        deficit -= plan[i];
    }
    plan
}

impl Hinfs {
    /// Writes the dirty lines of a *batch* of buffered blocks to NVMM: the
    /// dirty ones among `slots`, all blocks of one inode. Caller holds the
    /// shared lock and lends that inode as `state`, or hands only blocks
    /// already mapped on NVMM, which need none ([`Self::with_owner`] takes
    /// an owner's lock for the others).
    ///
    /// Blocks over holes are mapped first, as one unit (allocate on
    /// flush, see [`Self::map_fresh_blocks`]); the already-mapped ones are
    /// then written in place, in `slots` order. A refusal to map (journal
    /// ring or allocator exhausted) leaves the refused blocks dirty in
    /// DRAM and does not stop the rest: their flushes commit transactions,
    /// and those commits are what lets the ring drain. It is returned once
    /// everything else is flushed.
    ///
    /// `kind` classifies the drains for lineage: [`DrainKind::Sync`] when
    /// the flush runs inside a synchronization the caller asked for
    /// (fsync, O_SYNC eviction, sync/unmount), [`DrainKind::Lazy`] when
    /// the writeback machinery flushes behind the caller's back.
    pub(crate) fn flush_batch_locked(
        &self,
        sh: &mut Shared,
        slots: &[u32],
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> Result<()> {
        let dev = self.inner.device();
        let mut mapped: Vec<(u32, u64)> = Vec::new(); // (slot, NVMM block)
        let mut fresh: Vec<(u64, u32)> = Vec::new(); // (file block, slot)
        let mut ino = 0;
        for &slot in slots {
            let m = sh.pool().meta(slot);
            if m.dirty == 0 {
                continue;
            }
            debug_assert!(ino == 0 || ino == m.ino, "a batch is one inode's");
            ino = m.ino;
            debug_assert!(
                m.nvmm_block != 0 || state.is_some(),
                "a block over a hole needs its owner's inode"
            );
            let pblk = match m.nvmm_block {
                0 => state
                    .as_deref()
                    .and_then(|st| pmfs::tree::lookup(dev, st, m.iblk)),
                p => Some(p),
            };
            match pblk {
                Some(p) => mapped.push((slot, p)),
                None => fresh.push((m.iblk, slot)),
            }
        }
        if ino == 0 {
            return Ok(());
        }
        let mut flushed = Vec::with_capacity(mapped.len() + fresh.len());
        let mut refused = Ok(());
        if let (false, Some(st)) = (fresh.is_empty(), state) {
            fresh.sort_unstable();
            refused = self.map_fresh_blocks(sh, st, ino, &fresh, kind, &mut flushed);
        }
        for (slot, pblk) in mapped {
            let BlockMeta { iblk, dirty, .. } = *sh.pool().meta(slot);
            write_dirty_runs(dev, sh.pool().block(slot), dirty, pblk);
            dev.sfence();
            self.retire_slot(sh, slot, pblk, kind);
            flushed.push(iblk);
        }
        tracker::note_flushed(
            sh.file_mut(ino),
            self.inner.journal(),
            &flushed,
            &self.obs,
            kind,
            self.env.now(),
            &self.stats,
        );
        refused
    }

    /// Allocate on flush: gives the dirty blocks `fresh` (`(file block,
    /// slot)`, ascending, all over holes of inode `ino`) their NVMM blocks
    /// and writes their content, in phases that let a crash or a refusal
    /// at any point leave a consistent file:
    ///
    /// 1. **reserve** the blocks and the tree nodes, then the inode-core
    ///    update. A block may enter the file's tree only under a
    ///    journaled core update — mapped in memory alone, it is gone
    ///    after a clean remount. Every transaction a file queues holds an
    ///    (older) undo image of its core and cannot commit while the
    ///    shard lock is held, so when there is one the update rides on
    ///    the oldest: the core is rewritten under that image, costing no
    ///    journal space. Only a file with none opens a transaction of its
    ///    own, one for the batch. A full device or ring refuses here,
    ///    before anything changed;
    /// 2. **allocate** and **fill** the unreachable blocks — zeroes on
    ///    the clean lines a reader could reach, the dirty lines themselves
    ///    — and **fence**;
    /// 3. **link** each run of consecutive file blocks with one
    ///    `insert_run`;
    /// 4. persist the in-DRAM **core** once, under the reserved
    ///    transaction, which then also waits for every other block of the
    ///    file still dirty below its size: the size may be lazy writes'
    ///    that left their update to a carrier (see `tracker`).
    ///
    /// The blocks are retired and added to `flushed`.
    fn map_fresh_blocks(
        &self,
        sh: &mut Shared,
        st: &mut InodeMem,
        ino: u64,
        fresh: &[(u64, u32)],
        kind: DrainKind,
        flushed: &mut Vec<u64>,
    ) -> Result<()> {
        let dev = self.inner.device();
        let alloc = self.inner.allocator();
        let span = fresh[0].0..fresh[fresh.len() - 1].0 + 1;
        let mut r = alloc.reserve(fresh.len() as u64 + pmfs::tree::nodes_bound(st, &span))?;
        let rides = sh.files.get(&ino).is_some_and(|f| !f.txs.is_empty());
        let own = match rides {
            true => None,
            false => match self.inner.begin_inode_update(ino) {
                Ok(own) => Some(own),
                Err(e) => {
                    alloc.unreserve(r);
                    return Err(e);
                }
            },
        };
        let blocks: Vec<u64> = fresh
            .iter()
            .map(|_| alloc.alloc_reserved(&mut r, false).0)
            .collect();
        // Fill. Only the clean lines a reader could reach (up to end of
        // file) are zeroed: lines fully beyond EOF are unreachable and the
        // write path zeroes them explicitly if the file later grows over
        // them — this is what keeps CLFW's NVMM write traffic at
        // dirty-line granularity (Fig 9b).
        for (&(iblk, slot), &p) in fresh.iter().zip(&blocks) {
            let dirty = sh.pool().meta(slot).dirty;
            let in_file = st
                .size
                .saturating_sub(iblk * BLOCK_SIZE as u64)
                .min(BLOCK_SIZE as u64) as usize;
            for (start, n) in runs(range_mask(0, in_file) & !dirty) {
                dev.zero_persist(
                    Cat::Writeback,
                    Layout::block_off(p) + start as u64 * CACHELINE as u64,
                    n as usize * CACHELINE,
                );
            }
            write_dirty_runs(dev, sh.pool().block(slot), dirty, p);
        }
        dev.sfence();
        // Link, run by run: every slot is a hole, every node reserved.
        let mut linked = 0;
        for run in fresh.chunk_by(|a, b| a.0 + 1 == b.0) {
            let pblks = &blocks[linked..linked + run.len()];
            let res = pmfs::tree::insert_run(dev, alloc, &mut r, st, run[0].0, pblks);
            debug_assert_eq!(res, Ok(()), "a fresh block over a mapped slot");
            linked += run.len();
        }
        alloc.unreserve(r);
        st.blocks += linked as u64;
        // The batch's own blocks among them clear when the caller notes
        // the flush.
        let waits: HashSet<u64> = sh.dirty_below(ino, st.size).into_iter().collect();
        let file = sh.file_mut(ino);
        match own {
            Some((tx, logged)) => {
                self.inner.rewrite_logged_inode(&tx, logged, st);
                // Through the ordered FIFO (it is empty).
                tracker::enqueue(
                    file,
                    tx,
                    logged,
                    waits,
                    self.obs.stamp(self.env.now()),
                    &self.stats,
                );
            }
            None => {
                let oldest = &mut file.txs[0];
                debug_assert_eq!(oldest.logged.ino(), ino);
                self.inner
                    .rewrite_logged_inode(&oldest.tx, oldest.logged, st);
                oldest.pending.extend(waits);
            }
        }
        for (&(iblk, slot), &p) in fresh.iter().zip(&blocks) {
            self.retire_slot(sh, slot, p, kind);
            flushed.push(iblk);
        }
        Ok(())
    }

    /// Books a slot whose dirty lines are on NVMM block `pblk` as clean:
    /// counters, bitmap, and the block's ack stamp — the flush retires it,
    /// recording the durability lag and putting the causal link on the
    /// trace ring (the drained event carries the origin op's seq window).
    fn retire_slot(&self, sh: &mut Shared, slot: u32, pblk: u64, kind: DrainKind) {
        let meta = *sh.pool().meta(slot);
        let lines = meta.dirty.count_ones() as u64;
        HinfsStats::bump(&self.stats.writeback_lines, lines);
        HinfsStats::bump(&self.stats.writeback_blocks, 1);
        {
            let m = sh.pool_mut().meta_mut(slot);
            m.dirty = 0;
            m.nvmm_block = pblk;
        }
        sh.dirty_blocks -= 1;
        if meta.nvmm_block == 0 {
            sh.file_mut(meta.ino).dirty_holes -= 1;
        }
        if self.obs.full() {
            let drained = lines * CACHELINE as u64;
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
    }

    /// Flushes a batch of one inode's blocks ([`Self::flush_batch_locked`],
    /// `state` lent as there) and releases the slots of `slots` up to the
    /// first that is still dirty — all of them unless the flush was
    /// refused — dropping them from the file's DRAM Block Index. Returns
    /// how many were released, and the refusal.
    pub(crate) fn evict_batch_locked(
        &self,
        sh: &mut Shared,
        slots: &[u32],
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> (u64, Result<()>) {
        let res = self.flush_batch_locked(sh, slots, state, kind);
        let mut released = 0;
        for &slot in slots {
            let meta = *sh.pool().meta(slot);
            if meta.dirty != 0 {
                break;
            }
            if let Some(file) = sh.files.get_mut(&meta.ino) {
                file.index.remove(&meta.iblk);
            }
            sh.pool_mut().release_slot(slot);
            released += 1;
        }
        (released, res)
    }

    /// Runs `f` on shard `si` with the inode `ino` locked and lent to it.
    /// The inode lock comes first (lock order: inode before shard, so the
    /// caller holds no shard lock) — waited for when `blocking`, only
    /// tried otherwise — then the shard lock is re-taken and `picked`, the
    /// `(slot, file block)` pairs chosen under an earlier hold of it, is
    /// re-checked against the index: what was evicted or reused meanwhile
    /// is dropped. `None` picks every block the file holds now. Returns
    /// `None` when the inode is gone or, not `blocking`, its lock busy.
    fn with_owner<R>(
        &self,
        si: usize,
        ino: u64,
        blocking: bool,
        picked: Option<&[(u32, u64)]>,
        f: impl FnOnce(&mut Shared, Vec<u32>, &mut InodeMem) -> R,
    ) -> Option<R> {
        let handle = self.inner.inode(ino).ok()?;
        let mut guard = if blocking {
            Some(handle.state.write())
        } else {
            handle.state.try_write()
        }?;
        let mut sh = self.shards[si].lock();
        let slots = match picked {
            Some(picked) => picked
                .iter()
                .filter(|&&(slot, iblk)| sh.slot_of(ino, iblk) == Some(slot))
                .map(|&(slot, _)| slot)
                .collect(),
            None => sh
                .files
                .get(&ino)
                .map_or_else(Vec::new, |f| f.index.values().copied().collect()),
        };
        Some(f(&mut sh, slots, &mut guard))
    }

    /// The closing step of flushing a whole file: every block of `ino` is
    /// clean now, so no pending entry may gate a commit any longer
    /// (entries go stale when a reclaim flushed a block before its
    /// transaction was enqueued), and every queued transaction commits.
    pub(crate) fn commit_clean_file(&self, sh: &mut Shared, ino: u64, kind: DrainKind, now: u64) {
        if let Some(file) = sh.files.get_mut(&ino) {
            for t in &mut file.txs {
                t.pending.clear();
            }
            tracker::drain_ready(
                file,
                self.inner.journal(),
                &self.obs,
                kind,
                now,
                &self.stats,
            );
            debug_assert!(file.txs.is_empty(), "ino {ino} kept open transactions");
        }
    }

    /// [`reclaim_plan`] over the mount's current state; `None` at or above
    /// `Low_f` (one atomic load — the shards are only visited below it).
    fn plan_reclaim(&self) -> Option<Vec<usize>> {
        let (free, low) = (self.free_buffer_blocks(), self.cfg.low_blocks());
        (free < low).then(|| {
            let held: Vec<usize> = self
                .shards
                .iter()
                .map(|s| s.lock().pool().lrw.len())
                .collect();
            reclaim_plan(free, low, self.cfg.high_blocks(), &held)
        })
    }

    /// The foreground stall: evicts one victim from the shard of the
    /// writer's locked inode (`state`, lent to that pass) or, when it has
    /// none, from the next shard in index order that does. Foreign inodes
    /// are only tried: `Ok(0)` means every holder is busy.
    pub(crate) fn stall_evict(&self, ino: u64, state: &mut InodeMem) -> Result<u64> {
        let (home, n) = (self.shard_idx(ino), self.shards.len());
        let mut own = Some((ino, state));
        for si in (home..home + n).map(|s| s % n) {
            if self.reclaim(si, 1, own.take(), false)? > 0 {
                return Ok(1);
            }
        }
        Ok(0)
    }

    /// Evicts up to `want` LRW victims of shard `si`, bracketing the pass
    /// with trace events when tracing is on.
    ///
    /// `own` lends the caller's already-locked inode so its own blocks can
    /// be flushed without re-locking. `blocking` selects whether foreign
    /// inode locks may be waited on (background) or only tried
    /// (foreground stall path — waiting there could deadlock).
    ///
    /// Returns the number of evicted victims (fewer when the shard ran out
    /// or, not `blocking`, an owner's lock was busy); an eviction error
    /// (allocator or journal ring exhausted) ends the pass and is returned
    /// if the pass had freed nothing, so a foreground stall fails its
    /// write instead of retrying a reclaim that cannot make progress.
    pub(crate) fn reclaim(
        &self,
        si: usize,
        want: usize,
        own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) -> Result<u64> {
        if !self.obs.trace.enabled() {
            return self.reclaim_loop(si, want, own, blocking);
        }
        let free = self.free_buffer_blocks() as u64;
        self.obs
            .trace
            .emit(self.env.now(), || obsv::TraceEvent::ReclaimBegin {
                free,
                target: free + want as u64,
            });
        let outcome = self.reclaim_loop(si, want, own, blocking);
        let free = self.free_buffer_blocks() as u64;
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
    ///
    /// Victims leave in LRW order, those that need no foreign inode lock
    /// first: clean or already-mapped blocks and the lent inode's own.
    /// Only a pool of nothing but foreign hole blocks makes the pass take
    /// an owner's lock. Either way one iteration evicts the maximal run
    /// of victims that belong to one file — as many as are still needed —
    /// as one flush batch. Pool-pressure eviction drains behind the ack:
    /// lazy.
    fn reclaim_loop(
        &self,
        si: usize,
        want: usize,
        mut own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) -> Result<u64> {
        let mut victims = 0;
        loop {
            let want = want.saturating_sub(victims as usize);
            if want == 0 {
                return Ok(victims);
            }
            let mut sh = self.shards[si].lock();
            let own_ino = own.as_ref().map_or(0, |(oino, _)| *oino);
            let mut run: Vec<u32> = Vec::new();
            let mut run_ino = 0;
            for slot in sh.pool().lrw.iter_from_tail() {
                let m = sh.pool().meta(slot);
                let self_sufficient = m.dirty == 0 || m.nvmm_block != 0;
                if !self_sufficient && m.ino != own_ino {
                    continue;
                }
                if run.is_empty() {
                    run_ino = m.ino;
                } else if m.ino != run_ino {
                    break;
                }
                run.push(slot);
                if run.len() == want {
                    break;
                }
            }
            let (released, res) = if !run.is_empty() {
                let state = own
                    .as_mut()
                    .filter(|(oino, _)| *oino == run_ino)
                    .map(|(_, st)| &mut **st);
                self.evict_batch_locked(&mut sh, &run, state, DrainKind::Lazy)
            } else {
                // Nothing but foreign hole blocks: the run at the LRW end
                // that belongs to the oldest one's file.
                let Some(foreign_ino) = sh.pool().lrw.tail().map(|t| sh.pool().meta(t).ino) else {
                    return Ok(victims); // the shard holds nothing
                };
                let run: Vec<(u32, u64)> = sh
                    .pool()
                    .lrw
                    .iter_from_tail()
                    .map(|slot| (slot, sh.pool().meta(slot)))
                    .take_while(|(_, m)| m.ino == foreign_ino)
                    .take(want)
                    .map(|(slot, m)| (slot, m.iblk))
                    .collect();
                drop(sh);
                let evicted =
                    self.with_owner(si, foreign_ino, blocking, Some(&run), |sh, run, st| {
                        self.evict_batch_locked(sh, &run, Some(st), DrainKind::Lazy)
                    });
                match evicted {
                    Some(evicted) => evicted,
                    // A foreground stall does not wait for a busy owner
                    // (deadlock risk): its caller moves on to the next
                    // shard.
                    None => return Ok(victims),
                }
            };
            victims += released;
            if let Err(e) = res {
                return if victims == 0 { Err(e) } else { Ok(victims) };
            }
        }
    }

    /// One writeback pass over shard `si` at time `now` — on the shard
    /// actor's clock in virtual mode, on its thread in spin mode: its
    /// share `victims` of the watermark reclaim, then the 30 s dirty-age
    /// flush along the shard's LRW list.
    pub(crate) fn wb_pass_shard(&self, si: usize, now: u64, victims: usize) {
        // Injected stall: the writeback actor simply makes no progress this
        // pass. Foreground paths must degrade gracefully (flush-on-demand
        // via fsync / pool-pressure reclaim in the write path still run).
        if nvmm::fault::writeback_stalled(self.inner.device()) {
            return;
        }
        // Background provenance: traffic of this pass lands in the bg row
        // (when an op's own reclaim runs inline, its frame stays owner).
        let _bg = self.obs.bg_scope();
        if victims > 0 {
            // Background: what could not be evicted now is retried on the
            // next pass.
            let _ = self.reclaim(si, victims, None, true);
        }
        // Age-based flush: the LRW list is ordered by last write, so scan
        // from the LRW end until blocks get too young.
        let mut age_flushed: u64 = 0;
        loop {
            let mut sh = self.shards[si].lock();
            let mut target = None;
            for slot in sh.pool().lrw.iter_from_tail() {
                let m = sh.pool().meta(slot);
                if m.last_write_ns + self.cfg.dirty_age_ns > now {
                    break;
                }
                if m.dirty != 0 {
                    target = Some((slot, *m));
                    break;
                }
            }
            let Some((slot, m)) = target else { break };
            let flushed = if m.nvmm_block != 0 {
                self.flush_batch_locked(&mut sh, &[slot], None, DrainKind::Lazy)
                    .map(|()| 1)
            } else {
                drop(sh);
                let picked = [(slot, m.iblk)];
                let flushed = self.with_owner(si, m.ino, true, Some(&picked), |sh, slots, st| {
                    self.flush_batch_locked(sh, &slots, Some(st), DrainKind::Lazy)
                        .map(|()| slots.len() as u64)
                });
                match flushed {
                    Some(flushed) => flushed,
                    None => break, // the file is gone
                }
            };
            match flushed {
                // 0 when the block was evicted or reused meanwhile: rescan.
                Ok(n) => age_flushed += n,
                // Refused (journal ring or allocator exhausted): the block
                // stays the oldest dirty one, so give the pass up; the
                // next one retries it.
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
        let plan = self.plan_reclaim();
        let mut ran = false;
        for si in 0..self.shards.len() {
            let victims = plan.as_ref().map_or(0, |p| p[si]);
            if victims == 0 && !periodic_due {
                continue;
            }
            let wb_now = self.wb.clocks[si]
                .load(Ordering::Relaxed)
                .clamp(now, now + MAX_LEAD);
            // The pass runs inline on the caller's thread but on the shard
            // actor's own timeline: detach span attribution so its device
            // time lands in the background row, not in whichever op
            // triggered it.
            let ((), end) = obsv::detached(|| {
                self.env
                    .with_now(wb_now, || self.wb_pass_shard(si, wb_now, victims))
            });
            self.wb.clocks[si].store(end, Ordering::Relaxed);
            ran = true;
        }
        if ran {
            // Re-verify the invariants once per tick, not once per shard.
            self.maybe_audit();
        }
    }

    /// Wakes the writeback actors below `Low_f`: runs them inline on their
    /// own clocks (virtual mode), or hands each shard's thread its share
    /// of one reclaim plan (spin mode).
    pub(crate) fn kick_background(&self, now: u64) {
        match self.env.mode() {
            TimeMode::Virtual => self.tick_virtual(now),
            TimeMode::Spin => {
                let Some(plan) = self.plan_reclaim() else {
                    return;
                };
                let mut kicks = self.wb.kicks.lock();
                for (si, share) in plan.into_iter().enumerate().filter(|&(_, n)| n > 0) {
                    // A share not yet taken is stale: this plan counts
                    // its deficit again.
                    kicks[si] = Some(share);
                    self.wb.kick_cv[si].notify_one();
                }
            }
        }
    }

    /// Spawns the spin-mode writeback threads, one per shard ("multiple
    /// independent kernel threads created at mount time"). Each wakes on
    /// its kick, or after `periodic_wb_ns` with no share to reclaim, and
    /// runs its shard's pass.
    pub(crate) fn start_background(self: &Arc<Self>) {
        if self.env.mode() != TimeMode::Spin {
            return;
        }
        let period = Duration::from_nanos(self.cfg.periodic_wb_ns);
        let mut threads = self.wb.threads.lock();
        for si in 0..self.shards.len() {
            let fs = Arc::clone(self);
            threads.push(std::thread::spawn(move || loop {
                let victims = {
                    let mut kicks = fs.wb.kicks.lock();
                    if kicks[si].is_none() {
                        kicks = fs.wb.kick_cv[si].wait_for(kicks, period);
                    }
                    kicks[si].take().unwrap_or(0)
                };
                if fs.wb.stop.load(Ordering::Relaxed) {
                    return;
                }
                fs.wb_pass_shard(si, fs.env.now(), victims);
                // Periodic online audit: each background pass re-verifies
                // the invariants when the mount has auditing on.
                fs.maybe_audit();
            }));
        }
    }

    /// Stops and joins the writeback threads (unmount).
    pub(crate) fn stop_background(&self) {
        self.wb.stop.store(true, Ordering::Relaxed);
        {
            let mut kicks = self.wb.kicks.lock();
            for (kick, cv) in kicks.iter_mut().zip(&self.wb.kick_cv) {
                *kick = Some(0);
                cv.notify_one();
            }
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
        self.with_owner(si, ino, blocking, None, |sh, slots, st| {
            self.flush_batch_locked(sh, &slots, Some(st), kind)?;
            self.commit_clean_file(sh, ino, kind, self.env.now());
            Ok(())
        })
        .unwrap_or(Ok(()))
    }

    /// Total buffered dirty blocks across every shard (diagnostics).
    pub fn dirty_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_blocks).sum()
    }

    /// Free blocks of the mount's buffer budget (diagnostics).
    pub fn free_buffer_blocks(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Buffer capacity in blocks (the mount's budget).
    pub fn buffer_capacity(&self) -> usize {
        self.cfg.buffer_blocks()
    }
}
