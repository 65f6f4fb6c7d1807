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
use std::sync::{Arc, Weak};

use fskit::vfs::{chunks, Files, OpenFile};
use fskit::{Fd, FdTable, FileSystem, FsError, MmapHandle, OpenFlags, Result};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE, CACHELINE};
use obsv::{FsObs, Phase, Site, TraceEvent, TrackedMutex};
use pmfs::inode::{InodeGuard, InodeHandle, InodeMem};
use pmfs::{Credits, Held, Layout, Pmfs, PmfsOptions, VolatileLayer};

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
                TrackedMutex::new(
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
            wb: WbCtl::new(env.contention(), nshards),
            inner,
            env,
            cfg,
        });
        let layer: Weak<Hinfs> = Arc::downgrade(&fs);
        fs.inner.attach_layer(layer);
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
        &self.shards[self.shard_idx(ino)]
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

    /// Sets aside the journal transaction of an inode-core update
    /// ([`Pmfs::reserve_core`]), relieving journal pressure by flushing
    /// (and thereby committing) open lazy transactions if the ring is
    /// nearly full — first this file's, then, best-effort, everyone's.
    fn reserve_tx(&self, ino: u64, state: &mut InodeMem) -> Result<Credits> {
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
        match self.inner.reserve_core() {
            Ok(credits) => Ok(credits),
            Err(FsError::JournalFull) => {
                let t0 = self.env.now();
                self.fsync_core(ino, state, false)?;
                self.note_stall(Site::StallJournalFull, t0);
                self.inner.reserve_core()
            }
            Err(e) => Err(e),
        }
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
            obsv::note_bytes(obsv::Layer::DramBuffered, payload.len() as u64);
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
                let m = *sh.pool().meta(slot);
                if m.nvmm_block == 0 {
                    sh.file_mut(m.ino).dirty_holes += 1;
                }
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
        let (mut sh, slot) = loop {
            let mut sh = self.shard(ino).lock();
            if let Some(slot) = sh.slot_of(ino, iblk) {
                HinfsStats::bump(&self.stats.buffer_hits, 1);
                break (sh, slot);
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
            break (sh, slot);
        };
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
        Ok(())
    }

    // ----- fsync -----

    /// Flushes the file's dirty buffered blocks, commits its ordered
    /// transactions, and (when `eval_bbm`) runs the Buffer Benefit Model
    /// for the involved blocks; then the in-band auditor runs. Caller
    /// holds the inode write lock.
    pub(crate) fn fsync_core(&self, ino: u64, state: &mut InodeMem, eval_bbm: bool) -> Result<()> {
        self.quiesce(ino, state, eval_bbm)?;
        self.maybe_audit();
        Ok(())
    }

    /// [`Hinfs::fsync_core`] without the audit, for a caller inside a
    /// transaction of its own, which no file's queue holds.
    fn quiesce(&self, ino: u64, state: &mut InodeMem, eval_bbm: bool) -> Result<()> {
        let now = self.env.now();
        let mut sh = self.shard(ino).lock();
        // Collect this file's dirty blocks and their flush sizes (N_cf).
        let mut dirty: Vec<(u64, u32, u64)> = Vec::new(); // (iblk, slot, n_cf)
        if let Some(file) = sh.files.get(&ino) {
            for (&iblk, &slot) in &file.index {
                let d = sh.pool().meta(slot).dirty;
                if d != 0 {
                    dirty.push((iblk, slot, d.count_ones() as u64));
                }
            }
        }
        let slots: Vec<u32> = dirty.iter().map(|&(_, slot, _)| slot).collect();
        self.flush_batch_locked(&mut sh, &slots, Some(state), obsv::DrainKind::Sync)?;
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
            // Blocks now in the Eager-Persistent state leave the buffer so
            // NVMM stays the single source of truth for them.
            let mut to_evict: Vec<u32> = Vec::new();
            self.inner.device().spans().scope(Phase::GhostProbe, || {
                for (iblk, n_cf) in evals {
                    let lazy = checker::evaluate_at_sync(&ctx, file, iblk, n_cf);
                    if !lazy {
                        to_evict.extend(file.index.get(&iblk));
                    }
                }
            });
            file.last_sync_ns = now;
            state.last_sync = now;
            self.evict_batch_locked(&mut sh, &to_evict, Some(state), obsv::DrainKind::Sync)
                .1?;
        }
        self.commit_clean_file(&mut sh, ino, obsv::DrainKind::Sync, now);
        drop(sh);
        self.dev().sfence();
        Ok(())
    }

    /// Discards every buffered block and open transaction of `ino` without
    /// writing anything back — the unlink path ("writes to files that are
    /// later deleted do not need to be performed"). Caller holds the inode
    /// write lock or has otherwise excluded concurrent I/O on the file.
    pub(crate) fn drop_buffers(&self, ino: u64) {
        let mut sh = self.shard(ino).lock();
        if let Some(mut file) = sh.files.remove(&ino) {
            for slot in std::mem::take(&mut file.index).into_values() {
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

    fskit::data_ops!();

    // Namespace ops are PMFS's: it calls back into this mount as its
    // `VolatileLayer`, as the driver's truncate does.
    fskit::namespace_ops!(inner);

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
        let of = self.inner.fds().get(fd)?;
        {
            let mut guard = of.handle.state.write();
            self.fsync_core(of.ino, &mut guard, false)?;
            let mut sh = self.shard(of.ino).lock();
            // Drop (clean) buffered copies: the mapping must see NVMM.
            let slots: Vec<u32> = match sh.files.get(&of.ino) {
                Some(f) => f.index.values().copied().collect(),
                None => Vec::new(),
            };
            self.evict_batch_locked(&mut sh, &slots, Some(&mut guard), obsv::DrainKind::Sync)
                .1?;
            sh.file_mut(of.ino).mmap_pinned = true;
        }
        self.inner.mmap(fd, off, len)
    }

    fn tick(&self, now_ns: u64) {
        self.tick_virtual(now_ns);
    }
}

/// What a HiNFS write set aside ([`Files::reserve`]).
pub struct WriteHeld {
    /// When the write began: its blocks' write stamps, and the clock the
    /// checker decided at.
    now: u64,
    /// Whether each block of the run goes straight to NVMM, first first.
    direct: Vec<bool>,
    /// The inode update's transaction, when the write can change the core
    /// and no carrier covers it; the direct blocks and their tree nodes.
    held: Held,
}

impl Files for Hinfs {
    type State = InodeMem;
    type Held = WriteHeld;

    fn device(&self) -> &NvmmDevice {
        self.dev()
    }

    fn obs(&self) -> &FsObs {
        &self.obs
    }

    fn fds(&self) -> &FdTable<OpenFile<InodeMem>> {
        self.inner.fds()
    }

    fn make_room(&self) {
        self.inner.make_room();
    }

    fn resize(&self, h: &InodeHandle, size: u64) -> Result<()> {
        self.inner.resize(h, size)
    }

    /// Each block is stitched from the buffer's valid lines and NVMM.
    fn read_data(
        &self,
        of: &OpenFile<InodeMem>,
        state: &InodeMem,
        off: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        let ino = of.ino;
        for (iblk, in_blk, r) in chunks(off, buf.len()) {
            let chunk = r.len();
            let out = &mut buf[r];
            let sh = self.shard(ino).lock();
            match sh.slot_of(ino, iblk) {
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
        }
        Ok(())
    }

    /// The checker routes each block of the run (`O_SYNC`: all of them)
    /// to NVMM or to the buffer; the direct ones may fill holes, whose
    /// blocks and tree nodes are set aside. A write that can change the
    /// inode core sets aside its transaction — unless every block goes to
    /// the buffer and the file holds a carrier, whose flush persists the
    /// core (see `tracker`).
    fn reserve(
        &self,
        of: &OpenFile<InodeMem>,
        state: &mut InodeMem,
        off: u64,
        _: &[&[u8]],
        total: u64,
    ) -> Result<WriteHeld> {
        let ino = of.ino;
        let end = pmfs::file::end_of(off, total)?;
        let case1 = of.flags.contains(OpenFlags::SYNC);
        if case1 && !self.shard(ino).lock().dirty_below(ino, u64::MAX).is_empty() {
            // What `O_SYNC` flushes after the write is its own then: the
            // blocks the file holds dirty now are mapped here, where a
            // refusal changes nothing.
            self.quiesce(ino, state, false)?;
        }
        let now = self.env.now();
        let iblks = off / BLOCK_SIZE as u64..end.div_ceil(BLOCK_SIZE as u64);
        let direct: Vec<bool> = iblks
            .clone()
            .map(|iblk| {
                case1 || {
                    let mut sh = self.shard(ino).lock();
                    checker::is_eager_block(&self.cfg, sh.file_mut(ino), iblk, now)
                }
            })
            .collect();
        // Every direct block is taken for a hole.
        let first = direct.iter().position(|&d| d).unwrap_or(direct.len());
        let last = direct.iter().rposition(|&d| d).map_or(first, |i| i + 1);
        let span = iblks.start + first as u64..iblks.start + last as u64;
        let count = direct.iter().filter(|&&d| d).count() as u64;
        let blocks = count + pmfs::tree::nodes_bound(state, &span);
        let carried = count == 0 && self.shard(ino).lock().carriers(ino) > 0;
        let mut credits = None;
        if (end > state.size || count > 0) && !carried {
            credits = Some(self.reserve_tx(ino, state)?);
        }
        let held = self.inner.hold(credits, blocks)?;
        Ok(WriteHeld { now, direct, held })
    }

    /// A gather list of slices lands as one contiguous run at `off`. One
    /// inode write lock, at most one metadata journal transaction and one
    /// watermark check cover the whole vector.
    fn write_data(
        &self,
        of: &OpenFile<InodeMem>,
        mut guard: InodeGuard<'_>,
        off: u64,
        iovs: &[&[u8]],
        held: &mut WriteHeld,
    ) -> Result<()> {
        let ino = of.ino;
        let state = &mut guard;
        let now = held.now;
        let case1 = of.flags.contains(OpenFlags::SYNC);
        let all_lazy = !held.direct.contains(&true);
        let old_size = state.size;
        let old_blocks = state.blocks;

        let mut pending: HashSet<u64> = HashSet::new();
        // POSIX: a write beyond EOF exposes the gap as zeroes. The block
        // holding the old end of file may carry stale bytes past EOF on
        // NVMM (the flush path only zeroes up to EOF), so zero the in-block
        // gap explicitly before the size grows over it — in the buffer,
        // the one place the gap is zeroed, flushed with the block.
        if off > old_size && !old_size.is_multiple_of(BLOCK_SIZE as u64) {
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
        let first = off / BLOCK_SIZE as u64;
        let mut start = off;
        for data in iovs {
            for (iblk, in_blk, r) in chunks(start, data.len()) {
                let (chunk, pos) = (r.len(), start + r.start as u64);
                let payload = &data[r];
                let mask = range_mask(in_blk, chunk);
                if !held.direct[(iblk - first) as usize] {
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
                                Some(state),
                                obsv::DrainKind::Sync,
                            )
                            .1?;
                        }
                    }
                    if !absorbed {
                        let (dev, alloc) = (self.dev(), self.inner.allocator());
                        let blocks = &mut held.held.blocks;
                        pmfs::file::write_at(dev, alloc, blocks, state, pos, payload, now);
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
            }
            start += data.len() as u64;
        }

        state.size = state.size.max(start);
        state.mtime = now;
        // Metadata durability (ordered mode, see `tracker`): a write whose
        // chunks all went lazy leaves its inode update to the file's
        // carriers, whose flush persists the core. Any other change
        // journals the core now; its commit record waits for the data.
        let grew = state.size != old_size || state.blocks != old_blocks;
        let carried = grew && all_lazy && self.shard(ino).lock().carriers(ino) > 0;
        if grew && !carried {
            // A stall eviction may have retired the carrier the write
            // counted on, or mapped blocks of a write that grew nothing.
            let credits = held.held.credits.take();
            match credits.or_else(|| self.inner.reserve_core().ok()) {
                // The ring is full: no transaction. Such a write's every
                // block went to the buffer, and no carrier is left, so the
                // file's dirty blocks are all mapped: they reach NVMM in
                // place, then the size and the mtime follow as atomic
                // stores (the eviction persisted the rest of the core).
                None => {
                    if state.size > old_size {
                        self.quiesce(ino, state, false)?;
                    }
                    self.inner.store_size_mtime(ino, state, old_size);
                }
                Some(credits) => {
                    let tx = self.inner.journal().begin_reserved(credits);
                    let logged = self.inner.log_core(&tx, &of.handle, state);
                    let mut sh = self.shard(ino).lock();
                    // A reclaim may already have flushed some of this op's blocks
                    // (pool pressure mid-write); only still-dirty blocks gate the
                    // commit.
                    pending.retain(|&iblk| {
                        sh.slot_of(ino, iblk)
                            .is_some_and(|s| sh.pool().meta(s).dirty != 0)
                    });
                    // An eager write may land while earlier lazy writes' sizes
                    // still ride a carrier: the core it persists covers theirs.
                    if sh.carriers(ino) > 0 {
                        pending.extend(sh.dirty_below(ino, state.size));
                    }
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
            }
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
        Ok(())
    }

    fn release(&self, held: WriteHeld) {
        self.inner.release(held.held);
    }

    fn fsync_data(&self, of: &OpenFile<InodeMem>) -> Result<()> {
        self.fsync_core(of.ino, &mut of.handle.state.write(), true)
    }
}

impl VolatileLayer for Hinfs {
    /// The file's buffered blocks and deferred transactions go without
    /// being written back: a freed file's, and a truncate-to-zero's (log
    /// rotation), whose contents are deleted too. A cut or an extend to
    /// `size != 0` first quiesces the file's ordered transactions, so
    /// that its buffered state can be dropped entirely (simple and safe;
    /// partial truncate is rare in the evaluated workloads); PMFS's
    /// truncate then zeroes what an extend exposes of the old tail block.
    fn discard(&self, h: &InodeHandle, state: &mut InodeMem, size: u64) -> Result<()> {
        if size != 0 {
            self.quiesce(h.ino, state, false)?;
        }
        self.drop_buffers(h.ino);
        Ok(())
    }

    /// Open lazy transactions are what pins the journal ring, and only
    /// HiNFS can flush them.
    fn make_room(&self) {
        if self.inner.journal().free_entries() < Self::NS_HEADROOM {
            let t0 = self.env.now();
            self.flush_all_opportunistic();
            self.note_stall(Site::StallJournalFull, t0);
        }
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
