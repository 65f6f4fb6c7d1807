//! The HiNFS file system object.
//!
//! HiNFS shares PMFS's persistent structures and namespace (the paper built
//! it inside PMFS) and replaces the data path:
//!
//! - **Writes** go through the Eager-Persistent Write Checker. Lazy-
//!   persistent writes land in the DRAM buffer at cacheline granularity;
//!   eager-persistent writes copy once, straight to NVMM (§3.3.2).
//! - **Reads** copy once, stitched from DRAM and NVMM per the Cacheline
//!   Bitmap (§3.3.1).
//! - **fsync** flushes the file's dirty buffer blocks, commits its ordered
//!   transactions, and feeds the Buffer Benefit Model.
//!
//! Lock order: inode `RwLock` → buffer shard mutex → journal mutex. A
//! file's buffered state lives entirely in shard `ino % cfg.shards`, so a
//! per-file path holds at most one shard lock; mount-wide sweeps
//! (flush-all, introspection, the reclaim plan) and a foreground stall
//! that finds its own shard empty visit several shards, one at a time,
//! never nested. The stalled writer keeps its own inode lock while it
//! evicts from a foreign shard; a foreign inode it only `try_write`s,
//! with no shard lock held. Buffer *capacity* is not behind any of these
//! locks: it is one atomic count of free blocks for the mount.

use std::collections::HashSet;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use fskit::{DirEntry, Fd, FileSystem, FileType, FsError, MmapHandle, OpenFlags, Result, Stat};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE, CACHELINE};
use obsv::{FsObs, OpKind, Phase, Site, TraceEvent, TrackedMutex};
use pmfs::inode::InodeMem;
use pmfs::{Layout, Pmfs, PmfsOptions, TxHandle};

use crate::buffer::{covered_mask, range_mask, runs, Shared, FULL_MASK};
use crate::checker;
use crate::stats::HinfsStats;
use crate::tracker;
use crate::writeback::WbCtl;
use crate::HinfsConfig;

/// A mounted HiNFS instance.
pub struct Hinfs {
    pub(crate) inner: Arc<Pmfs>,
    pub(crate) env: Arc<SimEnv>,
    pub(crate) cfg: HinfsConfig,
    /// The mount's block budget: the free ones of `cfg.buffer_blocks()`.
    pub(crate) budget: Arc<AtomicUsize>,
    /// The buffer's shards keyed `ino % shards` — a file's blocks, index,
    /// LRW position and open transactions all live in exactly one shard,
    /// so per-file paths take one shard lock.
    pub(crate) shards: Vec<TrackedMutex<Shared>>,
    pub(crate) stats: HinfsStats,
    pub(crate) obs: Arc<FsObs>,
    pub(crate) wb: WbCtl,
}

impl Hinfs {
    /// Formats `dev` and mounts HiNFS on it.
    pub fn mkfs(dev: Arc<NvmmDevice>, popts: PmfsOptions, cfg: HinfsConfig) -> Result<Arc<Hinfs>> {
        let inner = Pmfs::mkfs(dev, popts)?;
        Self::wrap(inner, cfg)
    }

    /// Mounts HiNFS on an existing PMFS-formatted device (running PMFS
    /// journal recovery as needed — HiNFS adds no persistent structures of
    /// its own; everything buffered is volatile by design).
    pub fn mount(dev: Arc<NvmmDevice>, cfg: HinfsConfig) -> Result<Arc<Hinfs>> {
        let inner = Pmfs::mount(dev)?;
        Self::wrap(inner, cfg)
    }

    fn wrap(inner: Arc<Pmfs>, cfg: HinfsConfig) -> Result<Arc<Hinfs>> {
        let env = inner.env().clone();
        let nshards = cfg.shards.max(1);
        let budget = Arc::new(AtomicUsize::new(cfg.buffer_blocks()));
        let shards = (0..nshards)
            .map(|i| {
                TrackedMutex::attached(
                    env.contention(),
                    Site::hinfs_shard(i),
                    Shared::init(budget.clone()),
                )
            })
            .collect();
        let fs = Arc::new(Hinfs {
            budget,
            shards,
            stats: HinfsStats::new(),
            // One bundle per mounted stack: a syscall forwarded to PMFS
            // nests in the op frame HiNFS opened.
            obs: inner.obs().clone(),
            wb: WbCtl::new(nshards),
            inner,
            env,
            cfg,
        });
        fs.wb.attach_contention(fs.env.contention());
        // Journal commits land on the same trace timeline as writeback.
        fs.inner.journal().set_trace(fs.obs.trace.clone());
        fs.start_background();
        Ok(fs)
    }

    /// Runtime counters.
    pub fn stats(&self) -> &HinfsStats {
        &self.stats
    }

    /// Level switch, latency histograms, trace ring and ledgers.
    pub fn obs(&self) -> &Arc<FsObs> {
        &self.obs
    }

    /// The mount configuration.
    pub fn config(&self) -> &HinfsConfig {
        &self.cfg
    }

    /// The underlying PMFS instance (shared persistent structures).
    pub fn pmfs(&self) -> &Arc<Pmfs> {
        &self.inner
    }

    /// The simulation environment.
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    pub(crate) fn dev(&self) -> &Arc<NvmmDevice> {
        self.inner.device()
    }

    /// Index of the buffer shard owning `ino`.
    pub(crate) fn shard_idx(&self, ino: u64) -> usize {
        (ino % self.shards.len() as u64) as usize
    }

    /// The buffer shard owning `ino`.
    pub(crate) fn shard(&self, ino: u64) -> &TrackedMutex<Shared> {
        let idx = self.shard_idx(ino);
        obsv::note_shard(idx as u32);
        &self.shards[idx]
    }

    // ----- write path -----

    /// Headroom (in 64 B entries) a single inode-core transaction needs:
    /// two undo entries plus the reserved commit slot, with slack.
    const TX_HEADROOM: u64 = 8;

    /// Headroom a namespace operation (create/unlink/rename with its
    /// directory-entry edits) may need.
    const NS_HEADROOM: u64 = 64;

    /// Books the simulated time elapsed since `t0` as a stall at `site`
    /// (no-op when the profiler is off or no time passed).
    fn note_stall(&self, site: Site, t0: u64) {
        let c = self.env.contention();
        if !c.enabled() {
            return;
        }
        let dt = self.env.now().saturating_sub(t0);
        if dt > 0 {
            c.stall(site, dt);
        }
    }

    /// Relieves journal pressure before a namespace operation delegates to
    /// PMFS: open lazy transactions are what pins the ring, and only HiNFS
    /// can flush them.
    fn relieve_for_namespace(&self) {
        if self.inner.journal().free_entries() < Self::NS_HEADROOM {
            let t0 = self.env.now();
            self.flush_all_opportunistic();
            self.note_stall(Site::StallJournalFull, t0);
        }
    }

    /// Begins the journal transaction of an inode-core update
    /// ([`Pmfs::begin_core_tx`]: a refusal comes from here, not from the
    /// core's log), relieving journal pressure by flushing (and thereby
    /// committing) open lazy transactions if the ring is nearly full —
    /// first this file's, then, best-effort, everyone's.
    fn begin_tx(&self, ino: u64, state: &mut InodeMem) -> Result<TxHandle> {
        if self.inner.journal().free_entries() < Self::TX_HEADROOM {
            let t0 = self.env.now();
            // A hole block of this file that the full ring refuses to map
            // is no reason to give up before the global flush below has
            // had its chance to empty the ring.
            match self.fsync_core(ino, state, false) {
                Ok(()) | Err(FsError::JournalFull) => {}
                Err(e) => return Err(e),
            }
            if self.inner.journal().free_entries() < Self::TX_HEADROOM {
                self.flush_all_opportunistic();
            }
            self.note_stall(Site::StallJournalFull, t0);
        }
        match self.inner.begin_core_tx() {
            Ok(tx) => Ok(tx),
            Err(FsError::JournalFull) => {
                let t0 = self.env.now();
                self.fsync_core(ino, state, false)?;
                self.note_stall(Site::StallJournalFull, t0);
                self.inner.begin_core_tx()
            }
            Err(e) => Err(e),
        }
    }

    /// The shared write path: a gather list of slices lands as one
    /// contiguous run at `off_req` (or EOF in append mode). One syscall
    /// charge, one inode write lock, one metadata journal transaction and
    /// one watermark check cover the whole vector — `write`/`append` pass
    /// a single slice, `write_vectored` passes the caller's iovec.
    fn write_impl(&self, fd: Fd, off_req: u64, iovs: &[&[u8]], append: bool) -> Result<u64> {
        self.env.charge_syscall();
        let of = self.inner.open_file(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        let ino = of.ino;
        let mut guard = of.handle.state.write();
        let state = &mut *guard;
        let off = if append || of.flags.contains(OpenFlags::APPEND) {
            state.size
        } else {
            off_req
        };
        let total: u64 = iovs.iter().map(|s| s.len() as u64).sum();
        if total == 0 {
            return Ok(off);
        }
        let end = off
            .checked_add(total)
            .filter(|&e| e <= pmfs::file::MAX_FILE_SIZE)
            .ok_or(FsError::FileTooLarge)?;
        obsv::note_logical(total);
        let now = self.env.now();
        let case1 = of.flags.contains(OpenFlags::SYNC) || self.cfg.sync_mount;
        let old_size = state.size;
        let old_blocks = state.blocks;

        let mut pending: HashSet<u64> = HashSet::new();
        // POSIX: a write beyond EOF exposes the gap as zeroes. The block
        // holding the old end of file may carry stale bytes past EOF on
        // NVMM (the flush path only zeroes up to EOF), so zero the in-block
        // gap explicitly before the size grows over it.
        if off > old_size && old_size % BLOCK_SIZE as u64 != 0 {
            let bblk = old_size / BLOCK_SIZE as u64;
            let gap_end = off.min((bblk + 1) * BLOCK_SIZE as u64);
            let materialized = {
                let sh = self.shard(ino).lock();
                sh.slot_of(ino, bblk).is_some()
            } || pmfs::tree::lookup(self.dev(), state, bblk).is_some();
            if materialized && gap_end > old_size {
                let in_blk = (old_size % BLOCK_SIZE as u64) as usize;
                let zeros = vec![0u8; (gap_end - old_size) as usize];
                self.buffered_write_chunk(ino, state, bblk, in_blk, &zeros, now)?;
                let mut sh = self.shard(ino).lock();
                checker::record_write(
                    sh.file_mut(ino),
                    bblk,
                    range_mask(in_blk, zeros.len()),
                    true,
                );
                pending.insert(bblk);
            }
        }
        let mut done: u64 = 0;
        for data in iovs {
            let mut idone = 0;
            while idone < data.len() {
                let pos = off + done;
                let iblk = pos / BLOCK_SIZE as u64;
                let in_blk = (pos % BLOCK_SIZE as u64) as usize;
                let chunk = (BLOCK_SIZE - in_blk).min(data.len() - idone);
                let payload = &data[idone..idone + chunk];
                let mask = range_mask(in_blk, chunk);

                let eager = case1 || {
                    let mut sh = self.shard(ino).lock();
                    checker::is_eager_block(&self.cfg, sh.file_mut(ino), iblk, now)
                };
                if !eager {
                    self.buffered_write_chunk(ino, state, iblk, in_blk, payload, now)?;
                    let mut sh = self.shard(ino).lock();
                    checker::record_write(sh.file_mut(ino), iblk, mask, true);
                    HinfsStats::bump(&self.stats.lazy_writes, 1);
                    pending.insert(iblk);
                } else {
                    // Eager-persistent: the block's data must be on NVMM
                    // when the write completes.
                    let mut absorbed = false;
                    {
                        let mut sh = self.shard(ino).lock();
                        if let Some(slot) = sh.slot_of(ino, iblk) {
                            if case1 {
                                // Case 1 on a buffered block: apply the
                                // write to DRAM, then explicitly evict
                                // (flush) it before returning to the user
                                // (paper §3.3.2).
                                let partial = mask & !covered_mask(in_blk, chunk);
                                self.ensure_lines(&mut sh, slot, partial);
                                self.apply_to_slot(&mut sh, slot, in_blk, payload, now);
                                absorbed = true;
                            }
                            // Either way the buffered copy leaves the buffer
                            // so NVMM stays the single source of truth.
                            self.evict_batch_locked(
                                &mut sh,
                                &[slot],
                                state,
                                obsv::DrainKind::Sync,
                            )?;
                        }
                    }
                    if !absorbed {
                        pmfs::file::write_at(
                            self.dev(),
                            self.inner.allocator(),
                            state,
                            pos,
                            payload,
                            now,
                        )?;
                        // Eager-persistent: durable at op return, lag 0.
                        self.obs.record_inline_drain(payload.len() as u64);
                    }
                    let mut sh = self.shard(ino).lock();
                    checker::record_write(sh.file_mut(ino), iblk, mask, false);
                    if case1 {
                        HinfsStats::bump(&self.stats.sync_writes, 1);
                    } else {
                        HinfsStats::bump(&self.stats.eager_writes, 1);
                    }
                }
                idone += chunk;
                done += chunk as u64;
            }
        }

        if end > state.size {
            state.size = end;
        }
        state.mtime = now;
        // Metadata durability (ordered mode): a transaction journals the
        // inode core now; its commit record waits for the buffered data.
        if state.size != old_size || state.blocks != old_blocks {
            let tx = self.begin_tx(ino, state)?;
            let logged = match self.inner.log_write_inode(&tx, ino, state) {
                Ok(logged) => logged,
                Err(e) => {
                    // Abort rather than leak the reservation: an open tx
                    // record would pin the journal ring forever.
                    self.inner.journal().abort(tx);
                    return Err(e);
                }
            };
            let mut sh = self.shard(ino).lock();
            // A reclaim may already have flushed some of this op's blocks
            // (pool pressure mid-write); only still-dirty blocks gate the
            // commit.
            pending.retain(|&iblk| {
                sh.slot_of(ino, iblk)
                    .is_some_and(|s| sh.pool().meta(s).dirty != 0)
            });
            let tstamp = self.obs.stamp(now);
            let file = sh.file_mut(ino);
            tracker::enqueue(file, tx, logged, pending, tstamp, &self.stats);
            // A commit that happens here runs inside the op that logged
            // it — the metadata is durable before the ack.
            tracker::drain_ready(
                file,
                self.inner.journal(),
                &self.obs,
                obsv::DrainKind::Sync,
                now,
                &self.stats,
            );
        }
        if case1 {
            // O_SYNC semantics: data *and* metadata durable on return.
            self.fsync_core(ino, state, false)?;
        }
        drop(guard);

        // Wake the background writeback when the buffer runs low (Low_f).
        let (free, low) = (self.free_buffer_blocks(), self.cfg.low_blocks());
        if free < low {
            self.obs.trace.emit(now, || TraceEvent::WatermarkLow {
                free: free as u64,
                low: low as u64,
            });
            self.kick_background(self.env.now());
        }
        Ok(off)
    }

    /// Copies `payload` into an existing buffer slot (no fetch — the slot's
    /// missing partial lines must already be valid).
    fn apply_to_slot(&self, sh: &mut Shared, slot: u32, in_blk: usize, payload: &[u8], now: u64) {
        self.inner.device().spans().scope(Phase::DramCopy, || {
            let mask = range_mask(in_blk, payload.len());
            // A buffered write pays the DRAM write latency per touched
            // cacheline — the `N_cw · L_dram` term of the Buffer Benefit Model
            // (Inequality 1). This is what makes buffering *not* free relative
            // to a direct NVMM write when no coalescing follows.
            self.env.charge(
                Cat::UserWrite,
                mask.count_ones() as u64 * self.env.cost().dram_write_latency_ns,
            );
            obsv::note_buffered(payload.len() as u64);
            sh.pool_mut().block_mut(slot)[in_blk..in_blk + payload.len()].copy_from_slice(payload);
            let was_clean = sh.pool().meta(slot).dirty == 0;
            {
                let m = sh.pool_mut().meta_mut(slot);
                m.valid |= mask;
                m.dirty |= mask;
                m.last_write_ns = now;
            }
            if was_clean && mask != 0 {
                sh.dirty_blocks += 1;
                // The clean→dirty transition is the ack the durability
                // lag is measured from.
                sh.pool_mut().meta_mut(slot).stamp = self.obs.stamp(now);
            }
            sh.pool_mut().lrw.touch(slot);
        });
    }

    /// Fetches (CLFW) the lines in `need` that are not yet valid in `slot`,
    /// from NVMM when the block is mapped or as zeroes for holes.
    fn ensure_lines(&self, sh: &mut Shared, slot: u32, need: u64) {
        let meta = *sh.pool().meta(slot);
        let miss = need & !meta.valid;
        if miss == 0 {
            return;
        }
        if meta.nvmm_block != 0 {
            let base = Layout::block_off(meta.nvmm_block);
            for (start, n) in runs(miss) {
                let b = start as usize * CACHELINE;
                let len = n as usize * CACHELINE;
                let dev = self.dev().clone();
                dev.read(
                    Cat::Fetch,
                    base + b as u64,
                    &mut sh.pool_mut().block_mut(slot)[b..b + len],
                );
            }
            HinfsStats::bump(&self.stats.fetch_lines, miss.count_ones() as u64);
        } else {
            // Hole: the backing content is zeroes.
            for (start, n) in runs(miss) {
                let b = start as usize * CACHELINE;
                let len = n as usize * CACHELINE;
                sh.pool_mut().block_mut(slot)[b..b + len].fill(0);
            }
            self.env
                .charge_dram_copy(Cat::Fetch, miss.count_ones() as usize * CACHELINE);
        }
        sh.pool_mut().meta_mut(slot).valid |= miss;
    }

    /// Lazy-persistent write of one chunk into the DRAM buffer.
    fn buffered_write_chunk(
        &self,
        ino: u64,
        state: &mut InodeMem,
        iblk: u64,
        in_blk: usize,
        payload: &[u8],
        now: u64,
    ) -> Result<()> {
        let touched = range_mask(in_blk, payload.len());
        let covered = covered_mask(in_blk, payload.len());
        // Per-block buffer management software cost (DRAM Block Index
        // insert/lookup, LRW maintenance, allocation) — the same class of
        // overhead the page-cache baselines pay per page. This is part of
        // why an uncoalesced buffered write is *worse* than a direct one
        // (paper §3.3.2) beyond the pure `L_dram` term.
        self.inner.device().spans().scope(Phase::BufLookup, || {
            self.env.charge(Cat::Other, self.env.cost().page_cache_ns);
        });
        loop {
            let mut sh = self.shard(ino).lock();
            if let Some(slot) = sh.slot_of(ino, iblk) {
                HinfsStats::bump(&self.stats.buffer_hits, 1);
                let fetch_need = if self.cfg.clfw {
                    touched & !covered
                } else {
                    FULL_MASK
                };
                self.ensure_lines(&mut sh, slot, fetch_need);
                self.apply_to_slot(&mut sh, slot, in_blk, payload, now);
                if !self.cfg.clfw {
                    let m = sh.pool_mut().meta_mut(slot);
                    m.valid = FULL_MASK;
                    m.dirty = FULL_MASK;
                }
                return Ok(());
            }
            let Some(slot) = sh.pool_mut().alloc_slot(ino, iblk, now) else {
                // Budget exhausted before background writeback caught up:
                // the foreground pays for one eviction itself (the stall).
                drop(sh);
                HinfsStats::bump(&self.stats.foreground_stalls, 1);
                self.obs
                    .trace
                    .emit(now, || TraceEvent::ForegroundStall { ino });
                let t0 = self.env.now();
                let evicted = self.stall_evict(ino, state);
                self.note_stall(Site::StallWriteback, t0);
                if evicted? == 0 {
                    std::thread::yield_now(); // every holder's inode is busy
                }
                continue;
            };
            HinfsStats::bump(&self.stats.buffer_misses, 1);
            // Bind the NVMM backing (if mapped) into the Index Node.
            let pblk = pmfs::tree::lookup(self.dev(), state, iblk).unwrap_or(0);
            sh.pool_mut().meta_mut(slot).nvmm_block = pblk;
            sh.file_mut(ino).index.insert(iblk, slot);
            let fetch_need = if self.cfg.clfw {
                touched & !covered
            } else {
                FULL_MASK
            };
            self.ensure_lines(&mut sh, slot, fetch_need);
            self.apply_to_slot(&mut sh, slot, in_blk, payload, now);
            if !self.cfg.clfw {
                let m = sh.pool_mut().meta_mut(slot);
                m.valid = FULL_MASK;
                m.dirty = FULL_MASK;
            }
            return Ok(());
        }
    }

    // ----- read path -----

    fn read_impl(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.env.charge_syscall();
        let of = self.inner.open_file(fd)?;
        if !of.flags.readable() {
            return Err(FsError::BadFd);
        }
        let guard = of.handle.state.read();
        let state = &*guard;
        if off >= state.size {
            return Ok(0);
        }
        let n = buf.len().min((state.size - off) as usize);
        let mut done = 0;
        while done < n {
            let pos = off + done as u64;
            let iblk = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - in_blk).min(n - done);
            let out = &mut buf[done..done + chunk];
            let sh = self.shard(of.ino).lock();
            match sh.slot_of(of.ino, iblk) {
                Some(slot) => {
                    self.inner
                        .device()
                        .spans()
                        .scope(Phase::CachelineStitch, || {
                            let meta = *sh.pool().meta(slot);
                            let rmask = range_mask(in_blk, chunk);
                            // Stitch: valid lines from DRAM, the rest from
                            // NVMM (or zero for holes). One copy per
                            // consecutive run.
                            for (start, nl) in runs(rmask & meta.valid) {
                                let (s, e) = clip(start, nl, in_blk, chunk);
                                out[s - in_blk..e - in_blk]
                                    .copy_from_slice(&sh.pool().block(slot)[s..e]);
                                self.env.charge_dram_copy(Cat::UserRead, e - s);
                            }
                            let nvmm_mask = rmask & !meta.valid;
                            if nvmm_mask != 0 {
                                let pblk = if meta.nvmm_block != 0 {
                                    Some(meta.nvmm_block)
                                } else {
                                    pmfs::tree::lookup(self.dev(), state, iblk)
                                };
                                for (start, nl) in runs(nvmm_mask) {
                                    let (s, e) = clip(start, nl, in_blk, chunk);
                                    match pblk {
                                        Some(p) => self.dev().read(
                                            Cat::UserRead,
                                            Layout::block_off(p) + s as u64,
                                            &mut out[s - in_blk..e - in_blk],
                                        ),
                                        None => {
                                            out[s - in_blk..e - in_blk].fill(0);
                                            self.env.charge_dram_copy(Cat::UserRead, e - s);
                                        }
                                    }
                                }
                            }
                        });
                }
                None => {
                    drop(sh);
                    match pmfs::tree::lookup(self.dev(), state, iblk) {
                        Some(p) => self.dev().read(
                            Cat::UserRead,
                            Layout::block_off(p) + in_blk as u64,
                            out,
                        ),
                        None => {
                            out.fill(0);
                            self.env.charge_dram_copy(Cat::UserRead, chunk);
                        }
                    }
                }
            }
            done += chunk;
        }
        Ok(n)
    }

    // ----- fsync -----

    /// Flushes the file's dirty buffered blocks, commits its ordered
    /// transactions, and (when `eval_bbm`) runs the Buffer Benefit Model
    /// for the involved blocks. Caller holds the inode write lock.
    pub(crate) fn fsync_core(&self, ino: u64, state: &mut InodeMem, eval_bbm: bool) -> Result<()> {
        let now = self.env.now();
        let mut sh = self.shard(ino).lock();
        // Collect this file's dirty blocks and their flush sizes (N_cf).
        let mut dirty: Vec<(u64, u32, u64)> = Vec::new(); // (iblk, slot, n_cf)
        if let Some(file) = sh.files.get(&ino) {
            file.index.for_each(&mut |iblk, slot| {
                let d = sh.pool().meta(*slot).dirty;
                if d != 0 {
                    dirty.push((iblk, *slot, d.count_ones() as u64));
                }
            });
        }
        let slots: Vec<u32> = dirty.iter().map(|&(_, slot, _)| slot).collect();
        let _ = self.flush_batch_locked(&mut sh, &slots, Some(state), obsv::DrainKind::Sync)?;
        if eval_bbm {
            // Blocks bypassing the buffer contribute their ghost flushes;
            // every block with activity this epoch gets evaluated.
            let file = sh.file_mut(ino);
            let mut evals: Vec<(u64, u64)> = dirty.iter().map(|&(i, _, n)| (i, n)).collect();
            let flushed: HashSet<u64> = evals.iter().map(|&(i, _)| i).collect();
            for (&iblk, st) in file.bbm.iter() {
                if !flushed.contains(&iblk) && (st.n_cw > 0 || st.ghost_dirty != 0) {
                    evals.push((iblk, st.ghost_dirty.count_ones() as u64));
                }
            }
            // `bbm` is a HashMap: pin the evaluation (and hence eviction)
            // order so repeated runs stay bit-identical.
            evals.sort_unstable();
            let ctx = checker::EvalCtx {
                cfg: &self.cfg,
                cost: self.env.cost(),
                stats: &self.stats,
                trace: &self.obs.trace,
                now,
                ino,
            };
            let mut to_evict: Vec<u64> = Vec::new();
            self.inner.device().spans().scope(Phase::GhostProbe, || {
                for (iblk, n_cf) in evals {
                    let lazy = checker::evaluate_at_sync(&ctx, file, iblk, n_cf);
                    if !lazy && file.index.get(iblk).is_some() {
                        to_evict.push(iblk);
                    }
                }
            });
            file.last_sync_ns = now;
            state.last_sync = now;
            // Blocks now in the Eager-Persistent state leave the buffer so
            // NVMM stays the single source of truth for them.
            let slots: Vec<u32> = to_evict
                .iter()
                .filter_map(|&iblk| sh.slot_of(ino, iblk))
                .collect();
            self.evict_batch_locked(&mut sh, &slots, state, obsv::DrainKind::Sync)?;
        }
        if let Some(file) = sh.files.get_mut(&ino) {
            // Every block of this file is clean now, so no pending entry
            // may gate a commit any longer (entries can go stale when a
            // reclaim flushed a block before its transaction was enqueued).
            for t in &mut file.txs {
                t.pending.clear();
            }
            tracker::drain_ready(
                file,
                self.inner.journal(),
                &self.obs,
                obsv::DrainKind::Sync,
                now,
                &self.stats,
            );
            debug_assert!(
                file.txs.is_empty(),
                "fsync left open transactions for ino {ino}"
            );
        }
        drop(sh);
        self.dev().sfence();
        self.maybe_audit();
        Ok(())
    }

    /// Discards every buffered block and open transaction of `ino` without
    /// writing anything back — the unlink path ("writes to files that are
    /// later deleted do not need to be performed"). Caller holds the inode
    /// write lock or has otherwise excluded concurrent I/O on the file.
    pub(crate) fn drop_buffers(&self, ino: u64) {
        let mut sh = self.shard(ino).lock();
        if let Some(mut file) = sh.files.remove(&ino) {
            let mut slots = Vec::new();
            file.index.drain(&mut |_, slot| slots.push(slot));
            for slot in slots {
                if sh.pool().meta(slot).dirty != 0 {
                    sh.dirty_blocks -= 1;
                    HinfsStats::bump(&self.stats.dropped_dirty_blocks, 1);
                }
                sh.pool_mut().release_slot(slot);
            }
            // With allocate-on-flush the never-flushed blocks are holes on
            // NVMM, so committing the open transactions exposes zeroes at
            // worst — and the file is being deleted anyway.
            tracker::force_commit_all(&mut file, self.inner.journal(), &self.obs, &self.stats);
        }
    }

    fn truncate_impl(&self, fd: Fd, size: u64) -> Result<()> {
        self.env.charge_syscall();
        let of = self.inner.open_file(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        let mut guard = of.handle.state.write();
        if size != 0 {
            // Quiesce the file's ordered transactions before this one
            // opens, so that its buffered state can be dropped entirely
            // (simple and safe; partial truncate is rare in the evaluated
            // workloads).
            self.fsync_core(of.ino, &mut guard, false)?;
        }
        // The last step a full ring can refuse, and nothing has changed
        // yet: dropped buffers and a cut tree cannot be taken back.
        let tx = self.begin_tx(of.ino, &mut guard)?;
        // Truncate-to-zero (log rotation) is a delete of the contents:
        // like unlink, the buffered data need never reach NVMM.
        // drop_buffers force-commits the open transactions (safe: the
        // never-flushed blocks are holes, and the truncate transaction
        // supersedes the sizes anyway).
        self.drop_buffers(of.ino);
        // Extending over the old tail block must expose zeroes even where
        // the flush path left stale bytes past the old EOF.
        let old_size = guard.size;
        if size > old_size && old_size % BLOCK_SIZE as u64 != 0 {
            if let Some(pblk) = pmfs::tree::lookup(self.dev(), &guard, old_size / BLOCK_SIZE as u64)
            {
                let in_blk = (old_size % BLOCK_SIZE as u64) as usize;
                let len = (BLOCK_SIZE - in_blk).min((size - old_size) as usize);
                self.dev().zero_persist(
                    Cat::UserWrite,
                    Layout::block_off(pblk) + in_blk as u64,
                    len,
                );
            }
        }
        let res = (|| -> Result<Option<pmfs::tree::Emptied>> {
            let emptied = pmfs::file::truncate(
                self.dev(),
                self.inner.allocator(),
                &mut guard,
                size,
                self.env.now(),
            )?;
            if emptied.is_some() {
                let snap = *guard;
                self.inner.log_write_inode(&tx, of.ino, &snap)?;
            }
            Ok(emptied)
        })();
        match res {
            Ok(emptied) => {
                self.inner.commit_recycling(tx, emptied);
                Ok(())
            }
            Err(e) => {
                self.inner.journal().abort(tx);
                Err(e)
            }
        }
    }

    /// Resolves a path to a file inode handle, if it exists and is a file.
    fn peek_file(&self, path: &str) -> Option<Arc<pmfs::inode::InodeHandle>> {
        let h = self.inner.resolve_path(path).ok()?;
        let is_file = h.state.read().ftype == FileType::File;
        is_file.then_some(h)
    }
}

/// Clips the byte span of a line run to `[in_blk, in_blk+chunk)`; returns
/// block-relative `(start, end)` bytes.
fn clip(start_line: u32, nlines: u32, in_blk: usize, chunk: usize) -> (usize, usize) {
    let s = (start_line as usize * CACHELINE).max(in_blk);
    let e = ((start_line + nlines) as usize * CACHELINE).min(in_blk + chunk);
    (s, e)
}

impl FileSystem for Hinfs {
    fn name(&self) -> &'static str {
        if !self.cfg.checker {
            "hinfs-wb"
        } else if !self.cfg.clfw {
            "hinfs-nclfw"
        } else {
            "hinfs"
        }
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.obs.op(OpKind::Open, || {
            self.relieve_for_namespace();
            // O_TRUNC discards this file's buffered data before PMFS
            // truncates the persistent state.
            if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                if let Some(h) = self.peek_file(path) {
                    let _guard = h.state.write();
                    self.drop_buffers(h.ino);
                }
            }
            self.inner.open(path, flags)
        })
    }

    fn close(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Close, || {
            // The final close of an unlinked file frees it inside PMFS,
            // which needs journal space.
            self.relieve_for_namespace();
            // PMFS decides "last descriptor of an unlinked file" atomically
            // with the descriptor count; what the buffer still holds for
            // the inode dies with it.
            self.inner.close_with(fd, |h| self.drop_buffers(h.ino))
        })
    }

    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.obs.op(OpKind::Read, || self.read_impl(fd, off, buf))
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            self.write_impl(fd, off, &[data], false).map(|_| data.len())
        })
    }

    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            let total = iovs.iter().map(|s| s.len()).sum();
            self.write_impl(fd, off, iovs, false).map(|_| total)
        })
    }

    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        self.obs
            .op(OpKind::Write, || self.write_impl(fd, 0, &[data], true))
    }

    fn fsync(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Fsync, || {
            self.env.charge_syscall();
            let of = self.inner.open_file(fd)?;
            let mut guard = of.handle.state.write();
            self.fsync_core(of.ino, &mut guard, true)
        })
    }

    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        self.obs
            .op(OpKind::Truncate, || self.truncate_impl(fd, size))
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.obs.op(OpKind::Unlink, || {
            self.relieve_for_namespace();
            // When nobody has the file open it dies in this call, and its
            // buffered data with it ("writes to files that are later
            // deleted do not need to be performed").
            self.inner.unlink_with(path, |h| self.drop_buffers(h.ino))
        })
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.relieve_for_namespace();
        self.inner.mkdir(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.relieve_for_namespace();
        self.inner.rmdir(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.inner.readdir(path)
    }

    fn stat(&self, path: &str) -> Result<Stat> {
        self.inner.stat(path)
    }

    fn fstat(&self, fd: Fd) -> Result<Stat> {
        self.inner.fstat(fd)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.relieve_for_namespace();
        // Replacing an existing destination discards its buffered data —
        // but only a rename that actually replaces it may do so: with a
        // missing source the rename fails, and with `from == to` it is a
        // no-op, and in both cases the destination (and its not-yet-
        // written-back DRAM blocks) must survive intact.
        if let Some(h) = self.peek_file(to) {
            let replacing = match self.peek_file(from) {
                Some(src) => src.ino != h.ino,
                None => false,
            };
            if replacing {
                let _guard = h.state.write();
                self.drop_buffers(h.ino);
            }
        }
        self.inner.rename(from, to)
    }

    fn sync(&self) -> Result<()> {
        self.env.charge_syscall();
        self.flush_all()?;
        self.dev().sfence();
        Ok(())
    }

    fn unmount(&self) -> Result<()> {
        // "HiNFS flushes all the DRAM blocks to the NVMM when unmounting."
        self.flush_all()?;
        self.stop_background();
        self.inner.unmount()
    }

    fn mmap(&self, fd: Fd, off: u64, len: usize) -> Result<Arc<dyn MmapHandle>> {
        // Paper §4.2: flush the file's dirty DRAM blocks, pin its blocks to
        // the Eager-Persistent state, then map NVMM directly.
        let of = self.inner.open_file(fd)?;
        {
            let mut guard = of.handle.state.write();
            self.fsync_core(of.ino, &mut guard, false)?;
            let mut sh = self.shard(of.ino).lock();
            // Drop (clean) buffered copies: the mapping must see NVMM.
            let slots: Vec<u32> = match sh.files.get(&of.ino) {
                Some(f) => {
                    let mut v = Vec::new();
                    f.index.for_each(&mut |_, s| v.push(*s));
                    v
                }
                None => Vec::new(),
            };
            self.evict_batch_locked(&mut sh, &slots, &mut guard, obsv::DrainKind::Sync)?;
            sh.file_mut(of.ino).mmap_pinned = true;
        }
        self.inner.mmap(fd, off, len)
    }

    fn tick(&self, now_ns: u64) {
        self.tick_virtual(now_ns);
    }
}

impl obsv::MetricSource for Hinfs {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        obsv::MetricSource::collect(&self.stats, out);
        obsv::MetricSource::collect(self.inner.allocator(), out);
        obsv::MetricSource::collect(&*self.obs, out);
        // The gauges and the snapshot are the same collection, so the
        // exposition can never disagree with `fs_inspect` output.
        obsv::Introspect::snapshot(self).visit_gauges("hinfs_", out);
    }
}

#[cfg(test)]
mod tests;
