//! The ext-family file system object: ext2/ext4 on NVMMBD, and EXT4-DAX.
//!
//! All three personalities share the namespace, the on-disk format, the
//! buffer cache and the journal; they differ in the data path and in
//! whether the journal is active (see [`crate::ExtMode`]).
//!
//! Lock order: `ns` mutex → inode `RwLock` → cache/journal internals.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::Nvmmbd;
use fskit::{DirEntry, Fd, FdTable, FileSystem, FileType, FsError, OpenFlags, Result, Stat};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::{FsObs, OpKind, Phase, Site, TraceEvent, TrackedMutex};

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
    /// Journal commit / writeback period (5 s, like jbd2).
    pub periodic_commit_ns: u64,
    /// Age after which dirty pages are written back (30 s default).
    pub dirty_age_ns: u64,
}

impl Default for ExtOptions {
    fn default() -> Self {
        ExtOptions {
            journal_blocks: 1024,
            inode_count: 16384,
            cache_pages: 16384,
            periodic_commit_ns: 5_000_000_000,
            dirty_age_ns: 30_000_000_000,
        }
    }
}

/// Per-open state.
#[derive(Debug)]
pub struct ExtOpenFile {
    pub ino: u64,
    pub flags: OpenFlags,
    pub handle: Arc<ExtInodeHandle>,
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
    fds: FdTable<ExtOpenFile>,
    ns: TrackedMutex<()>,
    opts: ExtOptions,
    last_commit: AtomicU64,
    /// Device data blocks dirtied per inode, for ordered-mode fsync.
    dirty_data: TrackedMutex<HashMap<u64, HashSet<u64>>>,
    obs: Arc<FsObs>,
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
            cache.write(Cat::Meta, b, 0, &zero, 0);
        }
        // Pre-mark metadata blocks and reserved inodes; journaling off
        // during mkfs.
        let nojournal = Jbd::open(bd.clone(), l.journal_start, l.journal_blocks, false);
        let balloc = DiskBitmap::load(&cache, l.bbitmap_start, l.total_blocks);
        for b in 0..l.data_start {
            balloc.set(&cache, &nojournal, b, 0);
        }
        let ialloc = DiskBitmap::load(&cache, l.ibitmap_start, l.inode_count);
        ialloc.set(&cache, &nojournal, 0, 0); // reserved
        ialloc.set(&cache, &nojournal, ROOT_INO, 0);
        write_inode(
            &cache,
            &nojournal,
            &l,
            ROOT_INO,
            &ExtInodeMem::new(FileType::Dir, 0),
            0,
        );
        layout::write_superblock(&cache, &l, 0);
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
        let balloc = DiskBitmap::load(&cache, l.bbitmap_start, l.total_blocks);
        let ialloc = DiskBitmap::load(&cache, l.ibitmap_start, l.inode_count);
        layout::set_clean(&cache, false, 0);
        let env = bd.byte_device().env().clone();
        let obs = Arc::new(FsObs::new(bd.byte_device().spans().clone()));
        cache.attach_obs(obs.clone());
        let contention = bd.byte_device().contention().clone();
        balloc.attach_contention(&contention);
        ialloc.attach_contention(&contention);
        let icache = ExtInodeCache::new();
        icache.attach_contention(&contention);
        let fds = FdTable::new();
        fds.attach_contention(&contention);
        Ok(Arc::new(Extfs {
            mode,
            env,
            bd,
            cache,
            layout: l,
            jbd,
            balloc,
            ialloc,
            icache,
            fds,
            ns: TrackedMutex::attached(&contention, Site::ExtfsNamespace, ()),
            opts,
            last_commit: AtomicU64::new(0),
            dirty_data: TrackedMutex::attached(&contention, Site::ExtfsDirtyData, HashMap::new()),
            obs,
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

    /// Commits the running jbd transaction, tracing the commit when it
    /// actually wrote something. `kind` classifies the durability drain:
    /// sync when a caller asked for it (fsync, sync, unmount), lazy for
    /// the periodic tick.
    fn jbd_commit(&self, kind: obsv::DrainKind) {
        let pending = self.jbd.running_len() as u64;
        self.bd.byte_device().spans().scope(Phase::Journal, || {
            self.jbd.commit(&self.cache, kind);
        });
        if pending > 0 {
            self.obs
                .trace
                .emit(self.now(), || TraceEvent::JournalCommit {
                    txid: self.jbd.commits(),
                    log_entries: pending,
                });
        }
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

    // ----- namespace internals (mirroring the PMFS structure) -----

    fn inode(&self, ino: u64) -> Result<Arc<ExtInodeHandle>> {
        self.icache.get(&self.cache, &self.layout, ino)
    }

    fn resolve(&self, comps: &[&str]) -> Result<Arc<ExtInodeHandle>> {
        let mut h = self.inode(ROOT_INO)?;
        for comp in comps {
            let next = {
                let state = h.state.read();
                if state.ftype != FileType::Dir {
                    return Err(FsError::NotADirectory);
                }
                dir::lookup(&self.cache, &state, comp)?
                    .ok_or(FsError::NotFound)?
                    .0
            };
            h = self.inode(next)?;
        }
        Ok(h)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Arc<ExtInodeHandle>, &'p str)> {
        let (parent_comps, name) = fskit::path::split_parent(path)?;
        let parent = self.resolve(&parent_comps)?;
        if parent.state.read().ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }

    fn create_node(
        &self,
        parent: &Arc<ExtInodeHandle>,
        name: &str,
        ftype: FileType,
    ) -> Result<Arc<ExtInodeHandle>> {
        // Injected ENOSPC: refuse before any allocation so the namespace op
        // is trivially all-or-nothing.
        if nvmm::fault::alloc_blocked(self.bd.byte_device()) {
            return Err(FsError::NoSpace);
        }
        let now = self.now();
        let ino = self.ialloc.alloc(&self.cache, &self.jbd, now)?;
        let mem = ExtInodeMem::new(ftype, now);
        write_inode(&self.cache, &self.jbd, &self.layout, ino, &mem, now);
        let mut pstate = parent.state.write();
        if let Err(e) = dir::add(
            &self.cache,
            &self.jbd,
            &self.balloc,
            &mut pstate,
            name,
            ino,
            ftype,
            now,
        ) {
            clear_inode(&self.cache, &self.jbd, &self.layout, ino, now);
            self.ialloc.release(&self.cache, &self.jbd, ino, now);
            return Err(e);
        }
        pstate.mtime = now;
        let p = *pstate;
        drop(pstate);
        write_inode(&self.cache, &self.jbd, &self.layout, parent.ino, &p, now);
        Ok(self.icache.install(ino, mem))
    }

    /// Frees an inode's data and slot.
    fn free_inode(&self, h: &Arc<ExtInodeHandle>) {
        let now = self.now();
        let mut state = h.state.write();
        blkmap::free_from(&self.cache, &self.jbd, &self.balloc, &mut state, 0, now);
        state.size = 0;
        clear_inode(&self.cache, &self.jbd, &self.layout, h.ino, now);
        self.ialloc.release(&self.cache, &self.jbd, h.ino, now);
        drop(state);
        self.icache.forget(h.ino);
        self.dirty_data.lock().remove(&h.ino);
    }

    fn unlink_locked(&self, path: &str) -> Result<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let now = self.now();
        let (ino, ftype) = {
            let pstate = parent.state.read();
            dir::lookup(&self.cache, &pstate, name)?.ok_or(FsError::NotFound)?
        };
        if ftype != FileType::File {
            return Err(FsError::IsADirectory);
        }
        let child = self.inode(ino)?;
        {
            let mut pstate = parent.state.write();
            dir::remove(&self.cache, &self.jbd, &pstate, name, now)?;
            pstate.mtime = now;
            let p = *pstate;
            drop(pstate);
            write_inode(&self.cache, &self.jbd, &self.layout, parent.ino, &p, now);
        }
        let freeable = {
            let mut cstate = child.state.write();
            cstate.nlink -= 1;
            let freeable = cstate.nlink == 0 && *child.opens.lock() == 0;
            if !freeable {
                let snap = *cstate;
                drop(cstate);
                write_inode(&self.cache, &self.jbd, &self.layout, ino, &snap, now);
            }
            freeable
        };
        if freeable {
            self.free_inode(&child);
        }
        Ok(())
    }

    fn rmdir_locked(&self, path: &str) -> Result<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let now = self.now();
        let (ino, ftype) = {
            let pstate = parent.state.read();
            dir::lookup(&self.cache, &pstate, name)?.ok_or(FsError::NotFound)?
        };
        if ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        let child = self.inode(ino)?;
        if !dir::is_empty(&self.cache, &child.state.read())? {
            return Err(FsError::DirectoryNotEmpty);
        }
        {
            let mut pstate = parent.state.write();
            dir::remove(&self.cache, &self.jbd, &pstate, name, now)?;
            pstate.mtime = now;
            let p = *pstate;
            drop(pstate);
            write_inode(&self.cache, &self.jbd, &self.layout, parent.ino, &p, now);
        }
        self.free_inode(&child);
        Ok(())
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
                self.cache.write(Cat::UserWrite, blk, 0, &page, now);
            } else {
                self.cache.write(Cat::UserWrite, blk, in_blk, payload, now);
            }
        });
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

    fn write_impl(&self, fd: Fd, off_req: u64, data: &[u8], append: bool) -> Result<u64> {
        self.env.charge_syscall();
        let of = self.fds.get(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        let now = self.now();
        let mut state = of.handle.state.write();
        let off = if append || of.flags.contains(OpenFlags::APPEND) {
            state.size
        } else {
            off_req
        };
        if data.is_empty() {
            return Ok(off);
        }
        // Injected ENOSPC: fail the whole write up front with a clean error
        // rather than part-way through the chunk loop.
        if nvmm::fault::alloc_blocked(self.bd.byte_device()) {
            return Err(FsError::NoSpace);
        }
        let end = off
            .checked_add(data.len() as u64)
            .filter(|&e| e / BLOCK_SIZE as u64 <= blkmap::max_blocks())
            .ok_or(FsError::FileTooLarge)?;
        obsv::note_logical(data.len() as u64);
        let mut done = 0;
        while done < data.len() {
            let pos = off + done as u64;
            let iblk = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - in_blk).min(data.len() - done);
            let payload = &data[done..done + chunk];
            if self.mode.dax_data() {
                self.dax_write_chunk(&mut state, iblk, in_blk, payload, now)?;
            } else {
                self.cached_write_chunk(&mut state, of.ino, iblk, in_blk, payload, now)?;
            }
            done += chunk;
        }
        if end > state.size {
            state.size = end;
        }
        state.mtime = now;
        let snap = *state;
        drop(state);
        write_inode(&self.cache, &self.jbd, &self.layout, of.ino, &snap, now);
        if of.flags.contains(OpenFlags::SYNC) {
            self.fsync_ino(of.ino)?;
        }
        Ok(off)
    }

    fn read_impl(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.env.charge_syscall();
        let of = self.fds.get(fd)?;
        if !of.flags.readable() {
            return Err(FsError::BadFd);
        }
        let state = of.handle.state.read();
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
            match blkmap::lookup(&self.cache, &state, iblk) {
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
                            self.cache.read(Cat::UserRead, blk, in_blk, out);
                        });
                    }
                }
                None => {
                    out.fill(0);
                    self.env.charge_dram_copy(Cat::UserRead, chunk);
                }
            }
            done += chunk;
        }
        Ok(n)
    }

    /// fsync core: flush the file's data pages (ordered mode), then commit
    /// the journal (ext4/dax) or flush its inode block (ext2).
    fn fsync_ino(&self, ino: u64) -> Result<()> {
        // Injected jbd backpressure: refuse the commit before draining the
        // dirty set so a retry still sees every dirty block.
        if self.jbd.enabled() && nvmm::fault::journal_blocked(self.bd.byte_device()) {
            return Err(FsError::JournalFull);
        }
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
            self.jbd_commit(obsv::DrainKind::Sync);
        } else {
            // ext2: push the inode block too, then barrier.
            let (iblk, _) = self.layout.inode_loc(ino);
            self.cache.flush_block(iblk, obsv::DrainKind::Sync);
        }
        self.bd.flush();
        Ok(())
    }

    fn open_impl(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.env.charge_syscall();
        let _ns = self.ns.lock();
        let (parent, name) = self.resolve_parent(path)?;
        fskit::path::validate_name(name)?;
        let existing = {
            let pstate = parent.state.read();
            if pstate.ftype != FileType::Dir {
                return Err(FsError::NotADirectory);
            }
            dir::lookup(&self.cache, &pstate, name)?
        };
        let handle = match existing {
            Some((_, FileType::Dir)) => return Err(FsError::IsADirectory),
            Some((ino, FileType::File)) => {
                if flags.contains(OpenFlags::CREATE) && flags.contains(OpenFlags::EXCL) {
                    return Err(FsError::AlreadyExists);
                }
                self.inode(ino)?
            }
            None => {
                if !flags.contains(OpenFlags::CREATE) {
                    return Err(FsError::NotFound);
                }
                self.create_node(&parent, name, FileType::File)?
            }
        };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            let now = self.now();
            let mut state = handle.state.write();
            if state.size > 0 {
                blkmap::free_from(&self.cache, &self.jbd, &self.balloc, &mut state, 0, now);
                state.size = 0;
                state.mtime = now;
                let snap = *state;
                drop(state);
                write_inode(&self.cache, &self.jbd, &self.layout, handle.ino, &snap, now);
                self.dirty_data.lock().remove(&handle.ino);
            }
        }
        *handle.opens.lock() += 1;
        Ok(self.fds.insert(ExtOpenFile {
            ino: handle.ino,
            flags,
            handle,
        }))
    }

    fn truncate_impl(&self, fd: Fd, size: u64) -> Result<()> {
        self.env.charge_syscall();
        let of = self.fds.get(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        let now = self.now();
        let mut state = of.handle.state.write();
        if size < state.size {
            let keep = size.div_ceil(BLOCK_SIZE as u64);
            blkmap::free_from(&self.cache, &self.jbd, &self.balloc, &mut state, keep, now);
            // Zero the tail of the new last block.
            let in_blk = (size % BLOCK_SIZE as u64) as usize;
            if in_blk != 0 {
                if let Some(blk) = blkmap::lookup(&self.cache, &state, size / BLOCK_SIZE as u64) {
                    let zeros = vec![0u8; BLOCK_SIZE - in_blk];
                    if self.mode.dax_data() {
                        self.bd.byte_device().zero_persist(
                            Cat::UserWrite,
                            blk * BLOCK_SIZE as u64 + in_blk as u64,
                            BLOCK_SIZE - in_blk,
                        );
                    } else {
                        self.cache.write(Cat::UserWrite, blk, in_blk, &zeros, now);
                        self.dirty_data
                            .lock()
                            .entry(of.ino)
                            .or_default()
                            .insert(blk);
                    }
                }
            }
        }
        state.size = size;
        state.mtime = now;
        let snap = *state;
        drop(state);
        write_inode(&self.cache, &self.jbd, &self.layout, of.ino, &snap, now);
        Ok(())
    }
}

impl FileSystem for Extfs {
    fn name(&self) -> &'static str {
        self.mode.name()
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.obs.op(OpKind::Open, || self.open_impl(path, flags))
    }

    fn close(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Close, || {
            self.env.charge_syscall();
            let of = self.fds.remove(fd)?;
            let orphan = {
                let mut opens = of.handle.opens.lock();
                *opens -= 1;
                *opens == 0 && of.handle.state.read().nlink == 0
            };
            if orphan {
                self.free_inode(&of.handle);
            }
            Ok(())
        })
    }

    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.obs.op(OpKind::Read, || self.read_impl(fd, off, buf))
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            self.write_impl(fd, off, data, false).map(|_| data.len())
        })
    }

    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        self.obs
            .op(OpKind::Write, || self.write_impl(fd, 0, data, true))
    }

    fn fsync(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Fsync, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            self.fsync_ino(of.ino)
        })
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.obs.op(OpKind::Unlink, || {
            self.env.charge_syscall();
            let _ns = self.ns.lock();
            self.unlink_locked(path)
        })
    }

    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        self.obs
            .op(OpKind::Truncate, || self.truncate_impl(fd, size))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.env.charge_syscall();
        let _ns = self.ns.lock();
        let (parent, name) = self.resolve_parent(path)?;
        fskit::path::validate_name(name)?;
        {
            let pstate = parent.state.read();
            if dir::lookup(&self.cache, &pstate, name)?.is_some() {
                return Err(FsError::AlreadyExists);
            }
        }
        self.create_node(&parent, name, FileType::Dir)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.env.charge_syscall();
        let _ns = self.ns.lock();
        self.rmdir_locked(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.env.charge_syscall();
        let comps = fskit::path::components(path)?;
        let h = self.resolve(&comps)?;
        let state = h.state.read();
        if state.ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        dir::list(&self.cache, &state)
    }

    fn stat(&self, path: &str) -> Result<Stat> {
        self.env.charge_syscall();
        let comps = fskit::path::components(path)?;
        let h = self.resolve(&comps)?;
        let s = h.state.read();
        Ok(Stat {
            ino: h.ino,
            ftype: s.ftype,
            size: s.size,
            blocks: s.blocks,
            nlink: s.nlink,
            mtime_ns: s.mtime,
        })
    }

    fn fstat(&self, fd: Fd) -> Result<Stat> {
        self.env.charge_syscall();
        let of = self.fds.get(fd)?;
        let s = of.handle.state.read();
        Ok(Stat {
            ino: of.ino,
            ftype: s.ftype,
            size: s.size,
            blocks: s.blocks,
            nlink: s.nlink,
            mtime_ns: s.mtime,
        })
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.env.charge_syscall();
        let _ns = self.ns.lock();
        let now = self.now();
        let (src_parent, src_name) = self.resolve_parent(from)?;
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        fskit::path::validate_name(dst_name)?;
        let (ino, ftype) = {
            let pstate = src_parent.state.read();
            dir::lookup(&self.cache, &pstate, src_name)?.ok_or(FsError::NotFound)?
        };
        let dst_existing = {
            let pstate = dst_parent.state.read();
            dir::lookup(&self.cache, &pstate, dst_name)?
        };
        if let Some((dino, dftype)) = dst_existing {
            if dino == ino {
                return Ok(());
            }
            match (ftype, dftype) {
                (FileType::File, FileType::File) => self.unlink_locked(to)?,
                (FileType::Dir, FileType::Dir) => self.rmdir_locked(to)?,
                (FileType::File, FileType::Dir) => return Err(FsError::IsADirectory),
                (FileType::Dir, FileType::File) => return Err(FsError::NotADirectory),
            }
        }
        let same_parent = Arc::ptr_eq(&src_parent, &dst_parent);
        {
            let mut pstate = src_parent.state.write();
            dir::remove(&self.cache, &self.jbd, &pstate, src_name, now)?;
            if same_parent {
                dir::add(
                    &self.cache,
                    &self.jbd,
                    &self.balloc,
                    &mut pstate,
                    dst_name,
                    ino,
                    ftype,
                    now,
                )?;
            }
            pstate.mtime = now;
            let p = *pstate;
            drop(pstate);
            write_inode(
                &self.cache,
                &self.jbd,
                &self.layout,
                src_parent.ino,
                &p,
                now,
            );
        }
        if !same_parent {
            let mut pstate = dst_parent.state.write();
            dir::add(
                &self.cache,
                &self.jbd,
                &self.balloc,
                &mut pstate,
                dst_name,
                ino,
                ftype,
                now,
            )?;
            pstate.mtime = now;
            let p = *pstate;
            drop(pstate);
            write_inode(
                &self.cache,
                &self.jbd,
                &self.layout,
                dst_parent.ino,
                &p,
                now,
            );
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.env.charge_syscall();
        let _bg = self.obs.bg_scope();
        self.jbd_commit(obsv::DrainKind::Sync);
        self.cache.flush_all(obsv::DrainKind::Sync);
        self.bd.flush();
        Ok(())
    }

    fn unmount(&self) -> Result<()> {
        self.env.charge_syscall();
        let _bg = self.obs.bg_scope();
        self.jbd_commit(obsv::DrainKind::Sync);
        self.cache.flush_all(obsv::DrainKind::Sync);
        layout::set_clean(&self.cache, true, self.now());
        self.cache.flush_all(obsv::DrainKind::Sync);
        self.bd.flush();
        Ok(())
    }

    fn tick(&self, now_ns: u64) {
        let last = self.last_commit.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) >= self.opts.periodic_commit_ns {
            self.last_commit.store(now_ns, Ordering::Relaxed);
            let _bg = self.obs.bg_scope();
            self.jbd_commit(obsv::DrainKind::Lazy);
            self.cache.flush_older_than(now_ns, self.opts.dirty_age_ns);
        }
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
