//! The PMFS file system object: mount/mkfs/recovery, the namespace, and the
//! [`FileSystem`] implementation.
//!
//! Locking model (documented order):
//!
//! 1. `ns_shards` — namespace mutations (create, unlink, mkdir, rmdir,
//!    rename) lock the shard keyed by the *(parent inode, entry name)*
//!    pair they mutate, so racing operations on the same entry serialize
//!    while operations on different entries proceed in parallel. Rename
//!    locks its two shards in ascending index order. Cross-entry races
//!    (creating inside a directory that is concurrently removed) are
//!    resolved by the directory's own inode lock: `rmdir` holds the dead
//!    directory's write lock from the emptiness check through
//!    `nlink = 0`, and every entry mutation re-checks `nlink` under the
//!    parent's lock.
//! 2. per-inode `RwLock` — protects file size, block tree and data I/O.
//!    Never hold two except child-then-parent in `rmdir`, which always
//!    follows tree depth upward (no cycles).
//! 3. a directory's `names` mutex (its DRAM name index) — under that
//!    directory's inode lock, or alone; two at once only in ascending
//!    inode order (an aborting rename).
//! 4. journal internal mutex — leaf lock, taken inside transactions.
//!
//! Names resolve through the per-directory DRAM name index
//! ([`crate::inode::NameIndex`]), never by scanning directory blocks: the
//! media is read once per directory and mount, to build the index.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use fskit::{
    DirEntry, Fd, FdTable, FileSystem, FileType, FsError, MmapHandle, OpenFlags, Result, Stat,
};
use nvmm::{Cat, NvmmDevice, SimEnv};
use obsv::{FsObs, OpKind, Phase, Site, TrackedMutex};

use crate::alloc::Allocator;
use crate::dir;
use crate::file;
use crate::inode::{InodeCache, InodeHandle, InodeMem, NameIndex, INODE_CORE};
use crate::journal::{Journal, RecoveryStats, TxHandle};
use crate::layout::{self, Layout, ROOT_INO};
use crate::mmap::PmfsMmap;
use crate::tree;

/// Format-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct PmfsOptions {
    /// Journal region size in blocks (header + entries).
    pub journal_blocks: u64,
    /// Number of inode slots.
    pub inode_count: u64,
}

impl Default for PmfsOptions {
    fn default() -> Self {
        PmfsOptions {
            journal_blocks: 1024,
            inode_count: 16384,
        }
    }
}

/// Per-open state.
#[derive(Debug)]
pub struct OpenFile {
    /// Inode number of the open file.
    pub ino: u64,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
    /// Shared inode state.
    pub handle: Arc<InodeHandle>,
}

/// Witness that a transaction journaled an inode's core: minted only by
/// [`Pmfs::log_write_inode`], spent by [`Pmfs::rewrite_logged_inode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeLogged {
    ino: u64,
    txid: u32,
}

impl InodeLogged {
    /// The inode whose core was journaled.
    pub fn ino(&self) -> u64 {
        self.ino
    }
}

/// Name-index activity, reported as `pmfs_namei_*`.
#[derive(Debug, Default)]
pub struct NameiStats {
    /// Lookups that found their name in an index.
    pub hits: AtomicU64,
    /// Indexes built from the media (first lookup in a directory since
    /// mount, or since an abort dropped its index).
    pub builds: AtomicU64,
    /// Names held by all built indexes right now.
    pub entries: AtomicU64,
}

impl obsv::MetricSource for NameiStats {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        out.counter("pmfs_namei_hits", self.hits.load(Relaxed));
        out.counter("pmfs_namei_builds", self.builds.load(Relaxed));
        out.gauge("pmfs_namei_entries", self.entries.load(Relaxed));
    }
}

/// A mounted PMFS instance.
pub struct Pmfs {
    dev: Arc<NvmmDevice>,
    env: Arc<SimEnv>,
    layout: Layout,
    journal: Journal,
    alloc: Allocator,
    icache: InodeCache,
    fds: FdTable<OpenFile>,
    ns_shards: Vec<TrackedMutex<()>>,
    recovery: RecoveryStats,
    obs: Arc<FsObs>,
    namei: Arc<NameiStats>,
}

impl Pmfs {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(dev: Arc<NvmmDevice>, opts: PmfsOptions) -> Result<Arc<Pmfs>> {
        let total_blocks = (dev.len() / nvmm::BLOCK_SIZE) as u64;
        let l = Layout::compute(total_blocks, opts.journal_blocks, opts.inode_count)?;
        // Zero the metadata regions.
        dev.zero_persist(
            Cat::Meta,
            Layout::block_off(l.journal_start),
            ((l.data_start - l.journal_start) * nvmm::BLOCK_SIZE as u64) as usize,
        );
        Journal::format(&dev, &l);
        // Root directory inode.
        let root = InodeMem::new(FileType::Dir, 0);
        dev.write_persist(Cat::Meta, l.inode_off(ROOT_INO), &root.encode());
        dev.sfence();
        // Fresh allocator image so a clean mount can load it.
        Allocator::new_empty(&l).persist(&dev, &l);
        layout::write_superblock(&dev, &l);
        Self::mount(dev)
    }

    /// Mounts an existing file system, running journal recovery and (after
    /// an unclean shutdown) the allocator rebuild walk.
    pub fn mount(dev: Arc<NvmmDevice>) -> Result<Arc<Pmfs>> {
        let (l, clean) = layout::read_superblock(&dev)?;
        let recovery = Journal::recover(&dev, &l)?;
        let icache = InodeCache::scan(&dev, &l)?;
        let alloc = if clean {
            Allocator::load(&dev, &l)
        } else {
            Self::rebuild_allocator(&dev, &l)?
        };
        alloc.attach_fault_device(dev.clone());
        layout::set_clean(&dev, false);
        let journal = Journal::open(dev.clone(), &l)?;
        let env = dev.env().clone();
        let obs = Arc::new(FsObs::new(dev.spans().clone()));
        let fds = FdTable::new();
        fds.attach_contention(dev.contention());
        let ns_shards = (0..obsv::NSHARDS)
            .map(|i| TrackedMutex::attached(dev.contention(), Site::pmfs_ns_shard(i), ()))
            .collect();
        Ok(Arc::new(Pmfs {
            dev,
            env,
            layout: l,
            journal,
            alloc,
            icache,
            fds,
            ns_shards,
            recovery,
            obs,
            namei: Arc::default(),
        }))
    }

    fn rebuild_allocator(dev: &NvmmDevice, l: &Layout) -> Result<Allocator> {
        let alloc = Allocator::new_empty(l);
        let mut buf = [0u8; INODE_CORE];
        for ino in 1..l.inode_count {
            dev.read(Cat::Meta, l.inode_off(ino), &mut buf);
            if let Some(mem) = InodeMem::decode(&buf)? {
                tree::mark_all(dev, &mem, &mut |pblk| alloc.mark_used(pblk));
            }
        }
        Ok(alloc)
    }

    /// Journal recovery statistics from mount (diagnostics).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// This instance's observability bundle (level switch, per-op
    /// histograms, trace ring, lineage ledger, tail reservoir). HiNFS
    /// mounted on top shares it, so a syscall HiNFS forwards here nests
    /// in the same op frame.
    pub fn obs(&self) -> &Arc<FsObs> {
        &self.obs
    }

    // ----- layering API (used by HiNFS, which is built on these
    // structures exactly as the paper built HiNFS inside PMFS) -----

    /// `close(2)`. When this was the last descriptor of an unlinked file
    /// the inode is freed here, and `before_free` runs first, under the
    /// inode's write lock — the one moment a layer above (HiNFS) can
    /// discard its volatile state for the inode without racing another
    /// closer: PMFS decides "last one out" atomically with the
    /// descriptor count.
    pub fn close_with(&self, fd: Fd, before_free: impl FnOnce(&InodeHandle)) -> Result<()> {
        self.obs.op(OpKind::Close, || {
            self.env.charge_syscall();
            let of = self.fds.remove(fd)?;
            let orphan = {
                // `state` before `opens`, like every other site (see
                // `InodeHandle`).
                let state = of.handle.state.read();
                let mut opens = of.handle.opens.lock();
                *opens -= 1;
                *opens == 0 && state.nlink == 0
            };
            if orphan {
                self.reap(&of.handle, before_free)?;
            }
            Ok(())
        })
    }

    /// `unlink(2)`. `before_free` runs under the file's write lock iff
    /// the unlink frees the inode (last link, no open descriptor); see
    /// [`Pmfs::close_with`].
    pub fn unlink_with(&self, path: &str, before_free: impl FnOnce(&InodeHandle)) -> Result<()> {
        self.obs.op(OpKind::Unlink, || {
            self.env.charge_syscall();
            let (parent, name) = self.resolve_parent(path)?;
            let _ns = self.lock_ns(parent.ino, name);
            self.unlink_at(&parent, name, before_free)
        })
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<NvmmDevice> {
        &self.dev
    }

    /// The simulation environment.
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    /// Name-index counters (a registry source of their own, like the
    /// journal's: a HiNFS mount registers them too).
    pub fn namei(&self) -> &Arc<NameiStats> {
        &self.namei
    }

    /// The metadata journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The block allocator.
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    /// The on-device layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Looks up the per-open state of a descriptor.
    pub fn open_file(&self, fd: Fd) -> Result<Arc<OpenFile>> {
        self.fds.get(fd)
    }

    /// Returns the shared handle of an inode.
    pub fn inode(&self, ino: u64) -> Result<Arc<InodeHandle>> {
        self.icache.get(&self.dev, &self.layout, ino)
    }

    /// Resolves a path to its inode handle.
    pub fn resolve_path(&self, path: &str) -> Result<Arc<InodeHandle>> {
        let comps = fskit::path::components(path)?;
        self.resolve(&comps)
    }

    /// Journals the inode core's old image and persists the new one.
    /// The change becomes crash-durable when the transaction commits; the
    /// returned witness says which transaction now holds that image.
    pub fn log_write_inode(&self, tx: &TxHandle, ino: u64, mem: &InodeMem) -> Result<InodeLogged> {
        let logged = self.log_inode(tx, ino)?;
        self.persist_inode_core(ino, mem);
        Ok(logged)
    }

    /// Journals the inode core's current image under `tx`.
    fn log_inode(&self, tx: &TxHandle, ino: u64) -> Result<InodeLogged> {
        self.journal
            .log_range(tx, self.layout.inode_off(ino), INODE_CORE)?;
        Ok(InodeLogged {
            ino,
            txid: tx.txid(),
        })
    }

    /// Opens a transaction with the undo slots of one inode-core update
    /// set aside: a full ring refuses here, not the core's
    /// [`Pmfs::log_write_inode`] under it — which, in a truncate, follows
    /// a cut of the tree that cannot be taken back.
    pub fn begin_core_tx(&self) -> Result<TxHandle> {
        self.journal
            .begin_reserving(INODE_CORE.div_ceil(crate::journal::PAYLOAD) as u64)
    }

    /// Opens a transaction that already holds the undo image of inode
    /// `ino`'s core: everything that can fail on a full ring happens here,
    /// with no side effect when it does. What is left of the update —
    /// [`Pmfs::rewrite_logged_inode`] with the returned witness, then the
    /// commit — cannot fail. For updates that follow changes the caller
    /// cannot take back (HiNFS mapping blocks at flush time).
    pub fn begin_inode_update(&self, ino: u64) -> Result<(TxHandle, InodeLogged)> {
        let tx = self.begin_core_tx()?;
        match self.log_inode(&tx, ino) {
            Ok(logged) => Ok((tx, logged)),
            Err(e) => {
                // Not with the slots set aside above — but an open record
                // would pin the ring forever.
                self.journal.abort(tx);
                Err(e)
            }
        }
    }

    /// Persists the inode core again under a transaction that already
    /// journaled it, adding no undo entry: `tx` is still open (the caller
    /// holds its handle) and `logged` proves it holds an image of this
    /// core — the (older) one a rollback restores. The caller must keep
    /// `tx` from committing until this returns.
    pub fn rewrite_logged_inode(&self, tx: &TxHandle, logged: InodeLogged, mem: &InodeMem) {
        assert_eq!(
            logged.txid,
            tx.txid(),
            "inode core logged by another transaction"
        );
        self.persist_inode_core(logged.ino, mem);
    }

    fn persist_inode_core(&self, ino: u64, mem: &InodeMem) {
        self.dev
            .write_persist(Cat::Meta, self.layout.inode_off(ino), &mem.encode());
        self.dev.sfence();
    }

    /// Commits `tx`, then recycles the tree nodes it cut off their inode
    /// (`None`: it cut none) — the one place the two are sequenced, because
    /// the order is what makes wiping a node safe (see [`tree::Emptied`]).
    pub fn commit_recycling(&self, tx: TxHandle, emptied: Option<tree::Emptied>) {
        self.journal.commit(tx);
        if let Some(emptied) = emptied {
            emptied.recycle(&self.dev);
        }
    }

    /// Free data blocks (for HiNFS's `Low_f`/`High_f` style policies and
    /// workload sizing).
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    // ----- namespace internals -----

    /// Namespace shard index for entry `name` under directory
    /// `parent_ino` (FNV-style fold; any deterministic spread works).
    fn ns_shard(&self, parent_ino: u64, name: &str) -> usize {
        let mut h = parent_ino ^ 0x9E37_79B9_7F4A_7C15;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.ns_shards.len() as u64) as usize
    }

    /// Locks the namespace shard guarding `(parent_ino, name)`.
    fn lock_ns<'a>(&'a self, parent_ino: u64, name: &str) -> obsv::TrackedMutexGuard<'a, ()> {
        self.ns_shards[self.ns_shard(parent_ino, name)].lock()
    }

    /// Looks `name` up in directory `dir` (the caller holds its `state`
    /// lock, `state`), hit or "no such name", from the directory's name
    /// index. The first lookup builds the index with one pass over the
    /// directory blocks, at that pass's full NVMM-read cost; a hit costs
    /// the DRAM copy of the one entry.
    fn lookup(
        &self,
        dir: &InodeHandle,
        state: &InodeMem,
        name: &str,
    ) -> Result<Option<(u64, FileType)>> {
        let mut names = dir.names.lock();
        let index = match &mut *names {
            Some(index) => index,
            unbuilt => {
                let mut index = NameIndex::new();
                for e in dir::list(&self.dev, state)? {
                    // A name the media repeats resolves to its first
                    // entry, as a block scan would.
                    index.entry(e.name).or_insert((e.ino, e.ftype));
                }
                self.namei.builds.fetch_add(1, Relaxed);
                self.namei.entries.fetch_add(index.len() as u64, Relaxed);
                unbuilt.insert(index)
            }
        };
        let found = index.get(name).copied();
        if found.is_some() {
            self.namei.hits.fetch_add(1, Relaxed);
            self.dev.spans().scope(Phase::Index, || {
                self.env
                    .charge_dram_copy(Cat::Meta, dir::entry_len(name.len()))
            });
        }
        Ok(found)
    }

    /// [`dir::add`] under `tx`, mirrored in the directory's name index.
    /// The caller holds `dir`'s write lock (`state`).
    fn add_entry(
        &self,
        tx: &TxHandle,
        dir: &InodeHandle,
        state: &mut InodeMem,
        name: &str,
        ino: u64,
        ftype: FileType,
    ) -> Result<()> {
        dir::add(
            &self.dev,
            &self.journal,
            tx,
            &self.alloc,
            state,
            name,
            ino,
            ftype,
        )?;
        if let Some(index) = dir.names.lock().as_mut() {
            if index.insert(name.to_owned(), (ino, ftype)).is_none() {
                self.namei.entries.fetch_add(1, Relaxed);
            }
        }
        Ok(())
    }

    /// [`dir::remove`] under `tx`, mirrored in the directory's name index.
    /// The caller holds `dir`'s write lock (`state`).
    fn remove_entry(
        &self,
        tx: &TxHandle,
        dir: &InodeHandle,
        state: &InodeMem,
        name: &str,
    ) -> Result<()> {
        dir::remove(&self.dev, &self.journal, tx, state, name)?;
        if let Some(index) = dir.names.lock().as_mut() {
            if index.remove(name).is_some() {
                self.namei.entries.fetch_sub(1, Relaxed);
            }
        }
        Ok(())
    }

    /// Forgets a directory's name index (the next lookup rebuilds it).
    fn forget_names(&self, names: &mut Option<NameIndex>) {
        if let Some(index) = names.take() {
            self.namei.entries.fetch_sub(index.len() as u64, Relaxed);
        }
    }

    /// Aborts a namespace transaction that may have edited entries of
    /// `dirs`: the rollback restores those entries on the media, under
    /// the name indexes, so the indexes go too. Their locks are held
    /// across the rollback — a lookup must not rebuild an index from
    /// half-restored blocks and keep it.
    fn abort_namespace(&self, tx: TxHandle, dirs: &[&Arc<InodeHandle>]) {
        let mut dirs: Vec<&Arc<InodeHandle>> = dirs.to_vec();
        dirs.sort_unstable_by_key(|d| d.ino);
        dirs.dedup_by_key(|d| d.ino);
        let mut held: Vec<_> = dirs.iter().map(|d| d.names.lock()).collect();
        self.journal.abort(tx);
        for names in &mut held {
            self.forget_names(names);
        }
    }

    fn resolve(&self, comps: &[&str]) -> Result<Arc<InodeHandle>> {
        let mut h = self.inode(ROOT_INO)?;
        for comp in comps {
            let next = {
                let state = h.state.read();
                if state.ftype != FileType::Dir {
                    return Err(FsError::NotADirectory);
                }
                self.lookup(&h, &state, comp)?.ok_or(FsError::NotFound)?.0
            };
            h = self.inode(next)?;
        }
        Ok(h)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Arc<InodeHandle>, &'p str)> {
        let (parent_comps, name) = fskit::path::split_parent(path)?;
        let parent = self.resolve(&parent_comps)?;
        if parent.state.read().ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }

    /// Creates a file or directory entry under `parent` (ns lock held).
    fn create_node(
        &self,
        parent: &Arc<InodeHandle>,
        name: &str,
        ftype: FileType,
    ) -> Result<Arc<InodeHandle>> {
        let ino = self.icache.alloc_slot()?;
        let tx = self.journal.begin()?;
        let mem = InodeMem::new(ftype, self.env.now());
        let res = (|| -> Result<()> {
            self.log_write_inode(&tx, ino, &mem)?;
            let mut pstate = parent.state.write();
            if pstate.ftype != FileType::Dir || pstate.nlink == 0 {
                // The parent was removed between resolution and the
                // shard lock (different entries, different shards).
                return Err(FsError::NotFound);
            }
            // The parent's undo image goes in before the entry does: once
            // a grown directory counts its new block in memory, nothing
            // is left that a full ring could refuse.
            let logged = self.log_inode(&tx, parent.ino)?;
            self.add_entry(&tx, parent, &mut pstate, name, ino, ftype)?;
            pstate.mtime = self.env.now();
            self.rewrite_logged_inode(&tx, logged, &pstate);
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.journal.commit(tx);
                Ok(self.icache.install(ino, mem))
            }
            Err(e) => {
                self.abort_namespace(tx, &[parent]);
                self.icache.free_slot(ino);
                Err(e)
            }
        }
    }

    /// Frees an unlinked inode once its last descriptor closes.
    /// `before_free` runs first, under the inode's write lock.
    fn reap(&self, h: &Arc<InodeHandle>, before_free: impl FnOnce(&InodeHandle)) -> Result<()> {
        let tx = self.journal.begin()?;
        let res = (|| -> Result<tree::Emptied> {
            let mut state = h.state.write();
            before_free(h);
            self.journal
                .log_range(&tx, self.layout.inode_off(h.ino), INODE_CORE)?;
            let emptied = file::free_all(&self.dev, &self.alloc, &mut state);
            self.dev
                .write_persist(Cat::Meta, self.layout.inode_off(h.ino), &[0u8; INODE_CORE]);
            self.dev.sfence();
            Ok(emptied)
        })();
        match res {
            Ok(emptied) => {
                self.commit_recycling(tx, Some(emptied));
                self.icache.free_slot(h.ino);
                Ok(())
            }
            Err(e) => {
                self.journal.abort(tx);
                Err(e)
            }
        }
    }

    /// Truncates or extends `h` to `size` in a transaction of its own
    /// (`truncate` and `open` with `O_TRUNC`).
    fn resize(&self, h: &InodeHandle, size: u64) -> Result<()> {
        let tx = self.begin_core_tx()?;
        let res = (|| -> Result<Option<tree::Emptied>> {
            let mut state = h.state.write();
            let emptied = file::truncate(&self.dev, &self.alloc, &mut state, size, self.env.now())?;
            if emptied.is_some() {
                let snap = *state;
                drop(state);
                self.log_write_inode(&tx, h.ino, &snap)?;
            }
            Ok(emptied)
        })();
        match res {
            Ok(emptied) => {
                self.commit_recycling(tx, emptied);
                Ok(())
            }
            Err(e) => {
                self.journal.abort(tx);
                Err(e)
            }
        }
    }

    /// Append implementation shared by `append` and APPEND-flagged
    /// `write` (both wrap it in the op scope / syscall charge).
    fn append_inner(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        let of = self.fds.get(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        obsv::note_logical(data.len() as u64);
        let tx = self.journal.begin()?;
        let res = (|| -> Result<u64> {
            let mut state = of.handle.state.write();
            let off = state.size;
            file::write_at(
                &self.dev,
                &self.alloc,
                &mut state,
                off,
                data,
                self.env.now(),
            )?;
            let snap = *state;
            drop(state);
            self.log_write_inode(&tx, of.ino, &snap)?;
            Ok(off)
        })();
        match res {
            Ok(off) => {
                self.journal.commit(tx);
                // Direct access: the data is durable before the ack.
                self.obs.record_inline_drain(data.len() as u64);
                Ok(off)
            }
            Err(e) => {
                self.journal.abort(tx);
                Err(e)
            }
        }
    }

    /// Unlink of `name` under `parent`, with the entry's namespace shard
    /// already held (also used by rename's replace path). `before_free`
    /// runs under the child's write lock iff this unlink frees the inode.
    fn unlink_at(
        &self,
        parent: &Arc<InodeHandle>,
        name: &str,
        before_free: impl FnOnce(&InodeHandle),
    ) -> Result<()> {
        let (ino, ftype) = {
            let pstate = parent.state.read();
            if pstate.nlink == 0 {
                return Err(FsError::NotFound);
            }
            self.lookup(parent, &pstate, name)?
                .ok_or(FsError::NotFound)?
        };
        if ftype != FileType::File {
            return Err(FsError::IsADirectory);
        }
        let child = self.inode(ino)?;
        let tx = self.journal.begin()?;
        // Fallible steps run before the volatile nlink/cache mutations so an
        // abort leaves the in-memory state matching the rolled-back bytes.
        let res = (|| -> Result<Option<tree::Emptied>> {
            {
                let mut pstate = parent.state.write();
                self.remove_entry(&tx, parent, &pstate, name)?;
                pstate.mtime = self.env.now();
                let p = *pstate;
                drop(pstate);
                self.log_write_inode(&tx, parent.ino, &p)?;
            }
            let mut cstate = child.state.write();
            if cstate.nlink == 1 && *child.opens.lock() == 0 {
                before_free(&child);
                // Free data and the inode slot in the same transaction.
                self.journal
                    .log_range(&tx, self.layout.inode_off(ino), INODE_CORE)?;
                cstate.nlink = 0;
                let emptied = file::free_all(&self.dev, &self.alloc, &mut cstate);
                self.dev
                    .write_persist(Cat::Meta, self.layout.inode_off(ino), &[0u8; INODE_CORE]);
                self.dev.sfence();
                Ok(Some(emptied))
            } else {
                let mut snap = *cstate;
                snap.nlink -= 1;
                self.log_write_inode(&tx, ino, &snap)?;
                cstate.nlink -= 1;
                Ok(None)
            }
        })();
        match res {
            // `Some`: the unlink freed the inode.
            Ok(freed) => {
                let freeable = freed.is_some();
                self.commit_recycling(tx, freed);
                if freeable {
                    self.icache.free_slot(ino);
                }
                Ok(())
            }
            Err(e) => {
                self.abort_namespace(tx, &[parent]);
                Err(e)
            }
        }
    }

    /// Rmdir of `name` under `parent`, with the entry's namespace shard
    /// already held.
    fn rmdir_at(&self, parent: &Arc<InodeHandle>, name: &str) -> Result<()> {
        let (ino, ftype) = {
            let pstate = parent.state.read();
            if pstate.nlink == 0 {
                return Err(FsError::NotFound);
            }
            self.lookup(parent, &pstate, name)?
                .ok_or(FsError::NotFound)?
        };
        if ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        let child = self.inode(ino)?;
        let tx = self.journal.begin()?;
        let res = (|| -> Result<tree::Emptied> {
            // Hold the dying directory's write lock from the emptiness
            // check through `nlink = 0`: a concurrent create into it
            // either lands first (seen here as DirectoryNotEmpty) or
            // observes the dead directory under its own parent lock.
            // Child-then-parent nesting always follows tree depth upward,
            // so it cannot deadlock against another rmdir.
            let mut cstate = child.state.write();
            if cstate.nlink == 0 {
                return Err(FsError::NotFound);
            }
            if !dir::is_empty(&self.dev, &cstate)? {
                return Err(FsError::DirectoryNotEmpty);
            }
            {
                let mut pstate = parent.state.write();
                self.remove_entry(&tx, parent, &pstate, name)?;
                pstate.mtime = self.env.now();
                let p = *pstate;
                drop(pstate);
                self.log_write_inode(&tx, parent.ino, &p)?;
            }
            self.journal
                .log_range(&tx, self.layout.inode_off(ino), INODE_CORE)?;
            cstate.nlink = 0;
            // The inode number may come back as another directory; a
            // walker still holding this handle must find no names in it.
            self.forget_names(&mut child.names.lock());
            let emptied = file::free_all(&self.dev, &self.alloc, &mut cstate);
            self.dev
                .write_persist(Cat::Meta, self.layout.inode_off(ino), &[0u8; INODE_CORE]);
            self.dev.sfence();
            Ok(emptied)
        })();
        match res {
            Ok(emptied) => {
                self.commit_recycling(tx, Some(emptied));
                self.icache.free_slot(ino);
                Ok(())
            }
            Err(e) => {
                self.abort_namespace(tx, &[parent]);
                Err(e)
            }
        }
    }
}

impl FileSystem for Pmfs {
    fn name(&self) -> &'static str {
        "pmfs"
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.obs.op(OpKind::Open, || {
            self.env.charge_syscall();
            let (parent, name) = self.resolve_parent(path)?;
            fskit::path::validate_name(name)?;
            let _ns = self.lock_ns(parent.ino, name);
            let existing = {
                let pstate = parent.state.read();
                if pstate.ftype != FileType::Dir {
                    return Err(FsError::NotADirectory);
                }
                if pstate.nlink == 0 {
                    return Err(FsError::NotFound);
                }
                self.lookup(&parent, &pstate, name)?
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
                self.resize(&handle, 0)?;
            }
            *handle.opens.lock() += 1;
            Ok(self.fds.insert(OpenFile {
                ino: handle.ino,
                flags,
                handle,
            }))
        })
    }

    fn close(&self, fd: Fd) -> Result<()> {
        self.close_with(fd, |_| ())
    }

    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.obs.op(OpKind::Read, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            if !of.flags.readable() {
                return Err(FsError::BadFd);
            }
            let state = of.handle.state.read();
            Ok(file::read_at(&self.dev, &state, off, buf))
        })
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            if !of.flags.writable() {
                return Err(FsError::BadFd);
            }
            if of.flags.contains(OpenFlags::APPEND) {
                return self.append_inner(fd, data).map(|_| data.len());
            }
            obsv::note_logical(data.len() as u64);
            let tx = self.journal.begin()?;
            let res = (|| -> Result<()> {
                let mut state = of.handle.state.write();
                file::write_at(
                    &self.dev,
                    &self.alloc,
                    &mut state,
                    off,
                    data,
                    self.env.now(),
                )?;
                let snap = *state;
                drop(state);
                self.log_write_inode(&tx, of.ino, &snap)?;
                Ok(())
            })();
            match res {
                Ok(()) => {
                    self.journal.commit(tx);
                    // Direct access: the data is durable before the ack.
                    self.obs.record_inline_drain(data.len() as u64);
                    Ok(data.len())
                }
                Err(e) => {
                    self.journal.abort(tx);
                    Err(e)
                }
            }
        })
    }

    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            if !of.flags.writable() {
                return Err(FsError::BadFd);
            }
            // One journal transaction, one inode lock hold and one logged
            // inode core cover the whole gather list — per-slice the only
            // repeated cost is the data copy itself.
            obsv::note_logical(iovs.iter().map(|s| s.len() as u64).sum());
            let tx = self.journal.begin()?;
            let res = (|| -> Result<usize> {
                let mut state = of.handle.state.write();
                let mut cur = if of.flags.contains(OpenFlags::APPEND) {
                    state.size
                } else {
                    off
                };
                let start = cur;
                for iov in iovs {
                    file::write_at(&self.dev, &self.alloc, &mut state, cur, iov, self.env.now())?;
                    cur += iov.len() as u64;
                }
                let snap = *state;
                drop(state);
                self.log_write_inode(&tx, of.ino, &snap)?;
                Ok((cur - start) as usize)
            })();
            match res {
                Ok(n) => {
                    self.journal.commit(tx);
                    // Direct access: the data is durable before the ack.
                    self.obs.record_inline_drain(n as u64);
                    Ok(n)
                }
                Err(e) => {
                    self.journal.abort(tx);
                    Err(e)
                }
            }
        })
    }

    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        self.obs.op(OpKind::Write, || {
            self.env.charge_syscall();
            self.append_inner(fd, data)
        })
    }

    fn fsync(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Fsync, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            // Direct-access writes are already durable; fsync only fences and
            // records the synchronization time.
            of.handle.state.write().last_sync = self.env.now();
            self.dev.sfence();
            Ok(())
        })
    }

    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        self.obs.op(OpKind::Truncate, || {
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            if !of.flags.writable() {
                return Err(FsError::BadFd);
            }
            self.resize(&of.handle, size)
        })
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.unlink_with(path, |_| ())
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.env.charge_syscall();
        let (parent, name) = self.resolve_parent(path)?;
        fskit::path::validate_name(name)?;
        let _ns = self.lock_ns(parent.ino, name);
        {
            let pstate = parent.state.read();
            if pstate.nlink == 0 {
                return Err(FsError::NotFound);
            }
            if self.lookup(&parent, &pstate, name)?.is_some() {
                return Err(FsError::AlreadyExists);
            }
        }
        self.create_node(&parent, name, FileType::Dir)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.env.charge_syscall();
        let (parent, name) = self.resolve_parent(path)?;
        let _ns = self.lock_ns(parent.ino, name);
        self.rmdir_at(&parent, name)
    }

    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.env.charge_syscall();
        let comps = fskit::path::components(path)?;
        let h = self.resolve(&comps)?;
        let state = h.state.read();
        if state.ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        dir::list(&self.dev, &state)
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
        let (src_parent, src_name) = self.resolve_parent(from)?;
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        fskit::path::validate_name(dst_name)?;
        // Lock both entries' shards in ascending index order (one lock
        // when they collide) so concurrent renames cannot deadlock.
        let si = self.ns_shard(src_parent.ino, src_name);
        let di = self.ns_shard(dst_parent.ino, dst_name);
        let (lo, hi) = (si.min(di), si.max(di));
        let _ns_lo = self.ns_shards[lo].lock();
        let _ns_hi = (hi != lo).then(|| self.ns_shards[hi].lock());
        let (ino, ftype) = {
            let pstate = src_parent.state.read();
            if pstate.nlink == 0 {
                return Err(FsError::NotFound);
            }
            self.lookup(&src_parent, &pstate, src_name)?
                .ok_or(FsError::NotFound)?
        };
        // Replace semantics for an existing destination.
        let dst_existing = {
            let pstate = dst_parent.state.read();
            self.lookup(&dst_parent, &pstate, dst_name)?
        };
        if let Some((dino, dftype)) = dst_existing {
            if dino == ino {
                return Ok(());
            }
            match (ftype, dftype) {
                (FileType::File, FileType::File) => {
                    self.unlink_at(&dst_parent, dst_name, |_| ())?
                }
                (FileType::Dir, FileType::Dir) => self.rmdir_at(&dst_parent, dst_name)?,
                (FileType::File, FileType::Dir) => return Err(FsError::IsADirectory),
                (FileType::Dir, FileType::File) => return Err(FsError::NotADirectory),
            }
        }
        let tx = self.journal.begin()?;
        let same_parent = Arc::ptr_eq(&src_parent, &dst_parent);
        let res = (|| -> Result<()> {
            {
                let mut pstate = src_parent.state.write();
                self.remove_entry(&tx, &src_parent, &pstate, src_name)?;
                if same_parent {
                    self.add_entry(&tx, &src_parent, &mut pstate, dst_name, ino, ftype)?;
                }
                pstate.mtime = self.env.now();
                let p = *pstate;
                drop(pstate);
                self.log_write_inode(&tx, src_parent.ino, &p)?;
            }
            if !same_parent {
                let mut pstate = dst_parent.state.write();
                self.add_entry(&tx, &dst_parent, &mut pstate, dst_name, ino, ftype)?;
                pstate.mtime = self.env.now();
                let p = *pstate;
                drop(pstate);
                self.log_write_inode(&tx, dst_parent.ino, &p)?;
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.journal.commit(tx);
                Ok(())
            }
            Err(e) => {
                self.abort_namespace(tx, &[&src_parent, &dst_parent]);
                Err(e)
            }
        }
    }

    fn sync(&self) -> Result<()> {
        self.env.charge_syscall();
        self.dev.sfence();
        Ok(())
    }

    fn unmount(&self) -> Result<()> {
        self.env.charge_syscall();
        debug_assert_eq!(self.journal.open_txs(), 0, "unmount with open transactions");
        self.alloc.persist(&self.dev, &self.layout);
        layout::set_clean(&self.dev, true);
        Ok(())
    }

    fn mmap(&self, fd: Fd, off: u64, len: usize) -> Result<Arc<dyn MmapHandle>> {
        self.env.charge_syscall();
        let of = self.fds.get(fd)?;
        let handle = PmfsMmap::new(self, &of, off, len)?;
        Ok(Arc::new(handle))
    }
}

impl obsv::Introspect for Pmfs {
    fn snapshot(&self) -> obsv::FsSnapshot {
        obsv::FsSnapshot {
            system: "pmfs".into(),
            at_ns: self.env.now(),
            journal: Some(self.journal.usage().snap()),
            lineage: self.obs.full().then(|| self.obs.lineage().snap()),
            ..obsv::FsSnapshot::default()
        }
    }

    fn audit(&self) -> obsv::AuditReport {
        let mut rep = obsv::AuditReport::new(self.env.now());
        let u = self.journal.usage();
        // journal.reserved: every open transaction reserves one commit slot
        // — the running count the reservation checks use against a recount
        // of the transaction records.
        rep.check_eq(9, 0, 0, u.reserved_entries, u.open_txs);
        // journal.capacity: logged plus reserved entries fit the region.
        rep.check_le(
            10,
            0,
            0,
            u.fill_entries + u.reserved_entries + u.undo_reserved_entries,
            u.capacity_entries,
        );
        // journal.stats: the activity counters agree with the live count.
        // (Counters and usage are read under different locks, so this can
        // only be relied on when no transaction is concurrently in flight —
        // which holds everywhere the auditor runs.)
        let s = self.journal.stats().snapshot();
        rep.check_eq(
            11,
            0,
            0,
            s.begins.saturating_sub(s.commits + s.aborts),
            u.open_txs,
        );
        // namei.index: every built name index says exactly what a scan of
        // the directory's blocks would, and the entries gauge is their
        // sum. Only handles that have an index are locked — the in-band
        // auditor runs under a *file's* inode lock.
        let mut indexed = 0u64;
        for h in self.icache.cached() {
            if h.names.lock().is_none() {
                continue;
            }
            let state = h.state.read();
            let names = h.names.lock();
            let Some(index) = names.as_ref() else {
                continue;
            };
            indexed += index.len() as u64;
            // An unreadable directory differs in every name.
            let differing = dir::list_uncharged(&self.dev, &state).map_or(u64::MAX, |entries| {
                let mut media = NameIndex::new();
                for e in entries {
                    media.entry(e.name).or_insert((e.ino, e.ftype));
                }
                let stale = index.iter().filter(|&(n, at)| media.get(n) != Some(at));
                let missing = media.keys().filter(|&n| !index.contains_key(n));
                (stale.count() + missing.count()) as u64
            });
            rep.check_eq(15, h.ino, 0, differing, 0);
        }
        rep.check_eq(15, 0, 0, self.namei.entries.load(Relaxed), indexed);
        self.alloc.audit_zeroed_pool(&self.dev, &mut rep);
        rep
    }
}

impl obsv::MetricSource for Pmfs {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        obsv::Introspect::snapshot(self).visit_gauges("pmfs_", out);
        self.alloc.collect(out);
    }
}

#[cfg(test)]
mod tests;
