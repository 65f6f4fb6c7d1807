//! The ext-family file system object: ext2/ext4 on NVMMBD, and EXT4-DAX.
//!
//! All three personalities share the namespace, the on-disk format, the
//! buffer cache and the journal; they differ in the data path and in
//! whether the journal is active (see [`crate::ExtMode`]).
//!
//! The namespace rules are [`fskit::vfs`]'s; ext is its [`Namespace`]
//! with one namespace lock, `ns`, held across each namespace op, and a
//! transaction that records the op's entry edits, to undo them if a
//! later step fails. Lock order: `ns` → inode `RwLock` (two only
//! child-then-parent) → a directory's `names` (its name index,
//! [`fskit::namei`]) → cache/journal internals. Names resolve through
//! the name index, never by scanning directory blocks.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::Nvmmbd;
use fskit::namei::{NameIndex, NameiStats};
use fskit::vfs::{self, chunks, Edit, Files, Namespace, OpenFile, Reserve, StateGuard};
use fskit::{DirEntry, FdTable, FileSystem, FileType, FsError, OpenFlags, Result};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::{FsObs, Phase, Site, TraceEvent, TrackedMutex, TrackedMutexGuard};

use crate::alloc::DiskBitmap;
use crate::blkmap;
use crate::cache::BufferCache;
use crate::dir;
use crate::inode::{clear_inode, write_inode, ExtInodeCache, ExtInodeHandle, ExtInodeMem};
use crate::jbd::Jbd;
use crate::layout::{self, ExtLayout, ROOT_INO};
use crate::ExtMode;

/// Format- and mount-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExtOptions {
    /// Journal region size in blocks.
    pub journal_blocks: u64,
    /// Number of inode slots.
    pub inode_count: u64,
    /// Page cache capacity in 4 KiB pages (the paper gives the NVMMBD
    /// systems 3 GB of system memory next to a 5 GB dataset; experiments
    /// scale this relative to the working set).
    pub cache_pages: usize,
}

/// A namespace op's transaction ([`Namespace::begin`]): the op's one
/// clock reading, and what undoes its steps — the inode it allocated,
/// the inverse of each entry edit — which [`Namespace::finish`] runs in
/// reverse when the op fails.
pub struct ExtTx {
    now: u64,
    created: Option<u64>,
    undo: Vec<(Arc<ExtInodeHandle>, Edit<String>)>,
}

/// A mounted ext2/ext4/ext4-dax instance.
pub struct Extfs {
    mode: ExtMode,
    env: Arc<SimEnv>,
    bd: Arc<Nvmmbd>,
    cache: Arc<BufferCache>,
    layout: ExtLayout,
    jbd: Jbd,
    balloc: DiskBitmap,
    ialloc: DiskBitmap,
    icache: ExtInodeCache,
    fds: FdTable<OpenFile<ExtInodeMem>>,
    ns: TrackedMutex<()>,
    last_commit: AtomicU64,
    /// Device data blocks dirtied per inode, for ordered-mode fsync.
    dirty_data: TrackedMutex<HashMap<u64, HashSet<u64>>>,
    obs: Arc<FsObs>,
    namei: Arc<NameiStats>,
    /// Journal transactions replayed at mount (0 on a fresh mkfs mount).
    replayed: u64,
}

impl Extfs {
    /// Formats `dev` and mounts it in the given mode.
    pub fn mkfs(dev: Arc<NvmmDevice>, mode: ExtMode, opts: ExtOptions) -> Result<Arc<Extfs>> {
        let bd = Arc::new(Nvmmbd::new(dev));
        let total_blocks = bd.num_blocks();
        let l = ExtLayout::compute(total_blocks, opts.journal_blocks, opts.inode_count)?;
        let cache = BufferCache::new(bd.clone(), opts.cache_pages);
        Jbd::format(&bd, l.journal_start);
        // Zero the bitmap and inode table regions.
        let zero = vec![0u8; BLOCK_SIZE];
        for b in l.ibitmap_start..l.data_start {
            cache.write(Cat::Meta, b, 0, &zero, 0)?;
        }
        // Pre-mark metadata blocks and reserved inodes; journaling off
        // during mkfs.
        let nojournal = Jbd::open(bd.clone(), l.journal_start, l.journal_blocks, false);
        let balloc = DiskBitmap::load(&cache, l.bbitmap_start, l.total_blocks)?;
        for b in 0..l.data_start {
            balloc.set(&cache, &nojournal, b, 0)?;
        }
        let ialloc = DiskBitmap::load(&cache, l.ibitmap_start, l.inode_count)?;
        ialloc.set(&cache, &nojournal, 0, 0)?; // reserved
        ialloc.set(&cache, &nojournal, ROOT_INO, 0)?;
        write_inode(
            &cache,
            &nojournal,
            &l,
            ROOT_INO,
            &ExtInodeMem::new(FileType::Dir, 0),
            0,
        )?;
        layout::write_superblock(&cache, &l, 0)?;
        cache.flush_all(obsv::DrainKind::Sync);
        drop(cache);
        let dev = bd.byte_device().clone();
        drop(bd);
        Self::mount(dev, mode, opts)
    }

    /// Mounts an existing file system, replaying the journal first in the
    /// journaled modes.
    pub fn mount(dev: Arc<NvmmDevice>, mode: ExtMode, opts: ExtOptions) -> Result<Arc<Extfs>> {
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = Arc::new(BufferCache::new(bd.clone(), opts.cache_pages));
        let (l, _clean) = layout::read_superblock(&cache)?;
        let mut replayed = 0;
        if mode.journaled() {
            replayed = Jbd::replay(&bd, l.journal_start, l.journal_blocks);
            Jbd::format(&bd, l.journal_start);
        }
        let jbd = Jbd::open(
            bd.clone(),
            l.journal_start,
            l.journal_blocks,
            mode.journaled(),
        );
        let balloc = DiskBitmap::load(&cache, l.bbitmap_start, l.total_blocks)?;
        let ialloc = DiskBitmap::load(&cache, l.ibitmap_start, l.inode_count)?;
        layout::set_clean(&cache, false, 0)?;
        let env = bd.byte_device().env().clone();
        let obs = Arc::new(FsObs::new(bd.byte_device().spans().clone()));
        cache.attach_obs(obs.clone());
        let contention = bd.byte_device().contention().clone();
        Ok(Arc::new(Extfs {
            mode,
            env,
            bd,
            cache,
            layout: l,
            jbd,
            balloc,
            ialloc,
            icache: ExtInodeCache::new(&contention),
            fds: FdTable::new(&contention),
            ns: TrackedMutex::new(&contention, Site::ExtfsNamespace, ()),
            last_commit: AtomicU64::new(0),
            dirty_data: TrackedMutex::new(&contention, Site::ExtfsDirtyData, HashMap::new()),
            obs,
            namei: Arc::default(),
            replayed,
        }))
    }

    /// Journal transactions replayed at mount (diagnostics).
    pub fn recovery_replayed(&self) -> u64 {
        self.replayed
    }

    /// The buffer cache (diagnostics).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Level switch, latency histograms, trace ring and ledgers.
    pub fn obs(&self) -> &Arc<FsObs> {
        &self.obs
    }

    /// Name-index counters (a registry source of their own, as PMFS's).
    pub fn namei(&self) -> &Arc<NameiStats> {
        &self.namei
    }

    /// Commits the running jbd transaction, tracing the commit when it
    /// actually wrote something. `kind` classifies the durability drain:
    /// sync when a caller asked for it (fsync, sync, unmount), lazy for
    /// the periodic tick.
    fn jbd_commit(&self, kind: obsv::DrainKind) -> Result<()> {
        let pending = self.jbd.running_len() as u64;
        self.bd
            .byte_device()
            .spans()
            .scope(Phase::Journal, || self.jbd.commit(&self.cache, kind))?;
        if pending > 0 {
            self.obs
                .trace
                .emit(self.now(), || TraceEvent::JournalCommit {
                    txid: self.jbd.commits(),
                    log_entries: pending,
                });
        }
        Ok(())
    }

    /// The block device (diagnostics).
    pub fn device(&self) -> &Arc<Nvmmbd> {
        &self.bd
    }

    /// The simulation environment.
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    /// Free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.balloc.free_count()
    }

    fn now(&self) -> u64 {
        self.env.now()
    }

    /// jbd's admission of a handle: injected backpressure refuses it in
    /// the journaled modes.
    fn admit(&self) -> Result<()> {
        if self.jbd.enabled() && nvmm::fault::journal_blocked(self.bd.byte_device()) {
            return Err(FsError::JournalFull);
        }
        Ok(())
    }

    /// Carries entry edit `edit` of a directory (`state`) to its blocks
    /// through `index`, at time `now`.
    fn apply<N: AsRef<str>>(
        &self,
        index: &mut NameIndex,
        state: &mut ExtInodeMem,
        edit: Edit<N>,
        now: u64,
    ) -> Result<bool> {
        let (c, j, b) = (&self.cache, &self.jbd, &self.balloc);
        match edit {
            Edit::Add(n, ino, ftype) => {
                dir::add(c, j, b, state, index, n.as_ref(), ino, ftype, now).map(|()| true)
            }
            Edit::Remove(n) => dir::remove(c, j, index, n.as_ref(), now).map(|_| true),
            Edit::Rewrite(from, to, ino, ftype) => {
                let (from, to) = (from.as_ref(), to.as_ref());
                dir::rewrite(c, j, index, from, to, ino, ftype, now)
            }
        }
    }

    // ----- data paths -----

    /// Buffered (page cache) write of one chunk.
    fn cached_write_chunk(
        &self,
        state: &mut ExtInodeMem,
        ino: u64,
        iblk: u64,
        in_blk: usize,
        payload: &[u8],
        now: u64,
    ) -> Result<()> {
        let (blk, fresh) = blkmap::ensure(&self.cache, &self.jbd, &self.balloc, state, iblk, now)?;
        self.bd.byte_device().spans().scope(Phase::DramCopy, || {
            if fresh && (in_blk != 0 || payload.len() != BLOCK_SIZE) {
                // Fresh block, partial write: materialize a zeroed page
                // and lay the payload in, avoiding a fetch of stale
                // device bytes.
                let mut page = vec![0u8; BLOCK_SIZE];
                page[in_blk..in_blk + payload.len()].copy_from_slice(payload);
                self.cache.write(Cat::UserWrite, blk, 0, &page, now)
            } else {
                self.cache.write(Cat::UserWrite, blk, in_blk, payload, now)
            }
        })?;
        self.dirty_data.lock().entry(ino).or_default().insert(blk);
        Ok(())
    }

    /// DAX write of one chunk: single copy straight to the NVMM bytes.
    fn dax_write_chunk(
        &self,
        state: &mut ExtInodeMem,
        iblk: u64,
        in_blk: usize,
        payload: &[u8],
        now: u64,
    ) -> Result<()> {
        let dev = self.bd.byte_device();
        let (blk, fresh) = blkmap::ensure(&self.cache, &self.jbd, &self.balloc, state, iblk, now)?;
        let base = blk * BLOCK_SIZE as u64;
        if fresh {
            if in_blk > 0 {
                dev.zero_persist(Cat::UserWrite, base, in_blk);
            }
            let tail = in_blk + payload.len();
            if tail < BLOCK_SIZE {
                dev.zero_persist(Cat::UserWrite, base + tail as u64, BLOCK_SIZE - tail);
            }
        }
        dev.write_persist(Cat::UserWrite, base + in_blk as u64, payload);
        // Single-copy persist straight to NVMM: durable at op return.
        self.obs.record_inline_drain(payload.len() as u64);
        Ok(())
    }

    /// `fsync`'s work once jbd has admitted it: flushes the file's data
    /// pages (ordered mode), then commits the journal (ext4/dax) or
    /// flushes its inode block (ext2).
    fn sync_file(&self, ino: u64) -> Result<()> {
        let mut blocks: Vec<u64> = {
            let mut dd = self.dirty_data.lock();
            match dd.get_mut(&ino) {
                Some(set) => set.drain().collect(),
                None => Vec::new(),
            }
        };
        // The set iterates in hash order; flush in block order so the
        // journal and device see a run-independent sequence.
        blocks.sort_unstable();
        for blk in blocks {
            self.cache.flush_block(blk, obsv::DrainKind::Sync);
        }
        if self.jbd.enabled() {
            self.jbd_commit(obsv::DrainKind::Sync)?;
        } else {
            // ext2: push the inode block too, then barrier.
            let (iblk, _) = self.layout.inode_loc(ino);
            self.cache.flush_block(iblk, obsv::DrainKind::Sync);
        }
        self.bd.flush();
        Ok(())
    }
}

impl FileSystem for Extfs {
    fskit::namespace_ops!();
    fskit::data_ops!();

    fn name(&self) -> &'static str {
        self.mode.name()
    }

    fn sync(&self) -> Result<()> {
        self.env.charge_syscall();
        let _bg = self.obs.bg_scope();
        self.jbd_commit(obsv::DrainKind::Sync)?;
        self.cache.flush_all(obsv::DrainKind::Sync);
        self.bd.flush();
        Ok(())
    }

    fn unmount(&self) -> Result<()> {
        self.env.charge_syscall();
        let _bg = self.obs.bg_scope();
        self.jbd_commit(obsv::DrainKind::Sync)?;
        self.cache.flush_all(obsv::DrainKind::Sync);
        layout::set_clean(&self.cache, true, self.now())?;
        self.cache.flush_all(obsv::DrainKind::Sync);
        self.bd.flush();
        Ok(())
    }

    fn tick(&self, now_ns: u64) {
        let last = self.last_commit.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) >= crate::COMMIT_PERIOD_NS {
            self.last_commit.store(now_ns, Ordering::Relaxed);
            let _bg = self.obs.bg_scope();
            // A commit the cache cannot serve stays running; the next
            // fsync, sync or tick retries it.
            let _ = self.jbd_commit(obsv::DrainKind::Lazy);
            self.cache.flush_older_than(now_ns, crate::DIRTY_AGE_NS);
        }
    }
}

impl Files for Extfs {
    type State = ExtInodeMem;
    type Held = ();

    fn device(&self) -> &NvmmDevice {
        self.bd.byte_device()
    }

    fn obs(&self) -> &FsObs {
        &self.obs
    }

    fn fds(&self) -> &FdTable<OpenFile<ExtInodeMem>> {
        &self.fds
    }

    /// jbd commits on fsync, sync and the periodic tick: nothing pins it.
    fn make_room(&self) {}

    /// The cut tail of a kept last block is zeroed.
    fn resize(&self, h: &ExtInodeHandle, size: u64) -> Result<()> {
        let mut state = h.state.write();
        if state.size == size {
            return Ok(());
        }
        let now = self.now();
        if size < state.size {
            let keep = size.div_ceil(BLOCK_SIZE as u64);
            blkmap::free_from(&self.cache, &self.jbd, &self.balloc, &mut state, keep, now)?;
            let in_blk = (size % BLOCK_SIZE as u64) as usize;
            if in_blk != 0 {
                if let Some(blk) = blkmap::lookup(&self.cache, &state, size / BLOCK_SIZE as u64)? {
                    if self.mode.dax_data() {
                        self.bd.byte_device().zero_persist(
                            Cat::UserWrite,
                            blk * BLOCK_SIZE as u64 + in_blk as u64,
                            BLOCK_SIZE - in_blk,
                        );
                    } else {
                        let zeros = vec![0u8; BLOCK_SIZE - in_blk];
                        self.cache.write(Cat::UserWrite, blk, in_blk, &zeros, now)?;
                        self.dirty_data.lock().entry(h.ino).or_default().insert(blk);
                    }
                }
            }
        }
        state.size = size;
        state.mtime = now;
        write_inode(&self.cache, &self.jbd, &self.layout, h.ino, &state, now)?;
        if size == 0 {
            self.dirty_data.lock().remove(&h.ino);
        }
        Ok(())
    }

    fn read_data(
        &self,
        _: &OpenFile<ExtInodeMem>,
        state: &ExtInodeMem,
        off: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        for (iblk, in_blk, r) in chunks(off, buf.len()) {
            let chunk = r.len();
            let out = &mut buf[r];
            match blkmap::lookup(&self.cache, state, iblk)? {
                Some(blk) => {
                    if self.mode.dax_data() {
                        // Single copy from the NVMM bytes.
                        self.bd.byte_device().read(
                            Cat::UserRead,
                            blk * BLOCK_SIZE as u64 + in_blk as u64,
                            out,
                        );
                    } else {
                        self.bd.byte_device().spans().scope(Phase::DramCopy, || {
                            self.cache.read(Cat::UserRead, blk, in_blk, out)
                        })?;
                    }
                }
                None => {
                    out.fill(0);
                    self.env.charge_dram_copy(Cat::UserRead, chunk);
                }
            }
        }
        Ok(())
    }

    /// jbd's admission (the journaled modes), then the blocks of the
    /// holes the write may fill and their indirect blocks, as jbd credits
    /// are taken before a handle runs.
    fn reserve(
        &self,
        _: &OpenFile<ExtInodeMem>,
        state: &mut ExtInodeMem,
        off: u64,
        _: &[&[u8]],
        total: u64,
    ) -> Result<()> {
        let end = off
            .checked_add(total)
            .filter(|&e| e / BLOCK_SIZE as u64 <= blkmap::max_blocks())
            .ok_or(FsError::FileTooLarge)?;
        self.admit()?;
        let holes = vfs::maybe_holes(state.size, state.blocks, off, end);
        self.balloc
            .reserve(&self.cache, blkmap::blocks_for(state, holes))
    }

    fn write_data(
        &self,
        of: &OpenFile<ExtInodeMem>,
        mut state: StateGuard<'_, ExtInodeMem>,
        off: u64,
        iovs: &[&[u8]],
        _: &mut (),
    ) -> Result<()> {
        let now = self.now();
        let mut start = off;
        for data in iovs {
            for (iblk, in_blk, r) in chunks(start, data.len()) {
                let payload = &data[r];
                if self.mode.dax_data() {
                    self.dax_write_chunk(&mut state, iblk, in_blk, payload, now)?;
                } else {
                    self.cached_write_chunk(&mut state, of.ino, iblk, in_blk, payload, now)?;
                }
            }
            start += data.len() as u64;
        }
        state.size = state.size.max(start);
        state.mtime = now;
        let snap = *state;
        drop(state);
        write_inode(&self.cache, &self.jbd, &self.layout, of.ino, &snap, now)?;
        if of.flags.contains(OpenFlags::SYNC) {
            // Admitted with the write: no second admission to refuse.
            self.sync_file(of.ino)?;
        }
        Ok(())
    }

    fn release(&self, (): ()) {}

    fn fsync_data(&self, of: &OpenFile<ExtInodeMem>) -> Result<()> {
        // Injected jbd backpressure: refuse the commit before draining the
        // dirty set so a retry still sees every dirty block.
        self.admit()?;
        self.sync_file(of.ino)
    }
}

impl Namespace for Extfs {
    type Tx<'a> = ExtTx;
    /// The one namespace lock, whatever the entries.
    type Locked<'a> = TrackedMutexGuard<'a, ()>;
    const ROOT: u64 = ROOT_INO;

    fn namei(&self) -> &NameiStats {
        &self.namei
    }

    fn inode(&self, ino: u64) -> Result<Arc<ExtInodeHandle>> {
        self.icache.get(&self.cache, &self.layout, ino)
    }

    fn index(&self, dir: &ExtInodeMem) -> Result<NameIndex> {
        dir::index(&self.cache, dir)
    }

    fn list(&self, dir: &ExtInodeMem) -> Result<Vec<DirEntry>> {
        dir::list(&self.cache, dir)
    }

    fn lock_entries<'a>(&'a self, _: &[(u64, &str)]) -> TrackedMutexGuard<'a, ()> {
        self.ns.lock()
    }

    /// jbd's admission; every block the op dirties joins its running
    /// transaction.
    fn begin(&self, _: Reserve) -> Result<ExtTx> {
        self.admit()?;
        let (now, created, undo) = (self.now(), None, Vec::new());
        Ok(ExtTx { now, created, undo })
    }

    fn create(&self, tx: &mut ExtTx, ftype: FileType) -> Result<Arc<ExtInodeHandle>> {
        self.ialloc.reserve(&self.cache, 1)?;
        let ino = self.ialloc.alloc(&self.cache, &self.jbd, tx.now)?;
        tx.created = Some(ino);
        let mem = ExtInodeMem::new(ftype, tx.now);
        write_inode(&self.cache, &self.jbd, &self.layout, ino, &mem, tx.now)?;
        Ok(self.icache.install(ino, mem))
    }

    fn edit(
        &self,
        tx: &mut ExtTx,
        d: &Arc<ExtInodeHandle>,
        state: &mut ExtInodeMem,
        edit: Edit<&str>,
    ) -> Result<bool> {
        let inverse = vfs::edit_names(self, d, state, |index, state| {
            let bound = |name| index.get(name).ok_or(FsError::NotFound);
            let inverse = match edit {
                Edit::Add(name, ..) => Edit::Remove(name.into()),
                Edit::Remove(name) => {
                    let (ino, ftype) = bound(name)?;
                    Edit::Add(name.into(), ino, ftype)
                }
                Edit::Rewrite(from, to, ..) => {
                    let (ino, ftype) = bound(from)?;
                    Edit::Rewrite(to.into(), from.into(), ino, ftype)
                }
            };
            let done = self.apply(index, state, edit, tx.now)?;
            Ok(done.then_some(inverse))
        })?;
        let done = inverse.is_some();
        tx.undo.extend(inverse.map(|inverse| (d.clone(), inverse)));
        Ok(done)
    }

    fn stamp(&self, tx: &mut ExtTx, d: &ExtInodeHandle, state: &mut ExtInodeMem) -> Result<()> {
        state.mtime = tx.now;
        write_inode(&self.cache, &self.jbd, &self.layout, d.ino, state, tx.now)
    }

    fn drop_link(&self, tx: &mut ExtTx, h: &ExtInodeHandle, state: &mut ExtInodeMem) -> Result<()> {
        state.nlink -= 1;
        write_inode(&self.cache, &self.jbd, &self.layout, h.ino, state, tx.now)
    }

    /// An inode's data and slot go. A directory's name index goes with
    /// it: a walker still holding the handle must find no names.
    fn free(&self, _: &mut ExtTx, h: &ExtInodeHandle, state: &mut ExtInodeMem) -> Result<()> {
        let now = self.now();
        self.namei.forget(&mut h.names.lock());
        blkmap::free_from(&self.cache, &self.jbd, &self.balloc, state, 0, now)?;
        state.size = 0;
        state.nlink = 0;
        clear_inode(&self.cache, &self.jbd, &self.layout, h.ino, now)?;
        self.ialloc.release(&self.cache, &self.jbd, h.ino, now)?;
        self.icache.forget(h.ino);
        self.dirty_data.lock().remove(&h.ino);
        Ok(())
    }

    /// A failed op's steps are undone in reverse, at its clock reading:
    /// each entry edit's inverse, then the edited directory's inode
    /// written; then the inode it allocated.
    fn finish<R>(&self, tx: ExtTx, res: Result<R>) -> Result<R> {
        let (c, j, l, now) = (&self.cache, &self.jbd, &self.layout, tx.now);
        if res.is_ok() {
            return res;
        }
        for (d, inverse) in tx.undo.into_iter().rev() {
            let mut state = d.state.write();
            vfs::edit_names(self, &d, &mut state, |index, state| {
                self.apply(index, state, inverse, now)
            })?;
            write_inode(c, j, l, d.ino, &state, now)?;
        }
        if let Some(ino) = tx.created {
            clear_inode(c, j, l, ino, now)?;
            self.icache.forget(ino);
            self.ialloc.release(c, j, ino, now)?;
        }
        res
    }
}

impl obsv::Introspect for Extfs {
    fn snapshot(&self) -> obsv::FsSnapshot {
        let (cached, dirty, hits, misses) = self.cache.usage();
        obsv::FsSnapshot {
            system: fskit::FileSystem::name(self).into(),
            at_ns: self.env.now(),
            cache: Some(obsv::CacheSnap {
                capacity_pages: self.cache.capacity() as u64,
                cached_pages: cached as u64,
                dirty_pages: dirty as u64,
                hits,
                misses,
            }),
            lineage: self.obs.full().then(|| self.obs.lineage().snap()),
            ..obsv::FsSnapshot::default()
        }
    }

    fn audit(&self) -> obsv::AuditReport {
        let mut rep = obsv::AuditReport::new(self.env.now());
        let (cached, dirty, _, _) = self.cache.usage();
        // cache.accounting: dirty pages are a subset of cached pages, which
        // never exceed the page-cache capacity.
        rep.check_le(12, 0, 0, dirty as u64, cached as u64);
        rep.check_le(12, 0, 0, cached as u64, self.cache.capacity() as u64);
        // namei.index, against the blocks as the page cache holds them.
        let media = |state: &ExtInodeMem| dir::index_uncharged(&self.cache, state);
        vfs::audit_names(&mut rep, &self.namei, self.icache.cached(), media);
        rep
    }
}

impl obsv::MetricSource for Extfs {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        obsv::MetricSource::collect(&*self.obs, out);
        out.counter("extfs_jbd_commits", self.jbd.commits());
        out.gauge("extfs_jbd_running", self.jbd.running_len() as u64);
        out.gauge("extfs_free_blocks", self.free_blocks());
        obsv::Introspect::snapshot(self).visit_gauges("extfs_", out);
    }
}

#[cfg(test)]
mod tests;
