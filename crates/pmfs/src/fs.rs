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
//!    Never hold two except child-then-parent: `rmdir` and a rename over
//!    an existing entry hold the dying inode's lock while they edit the
//!    parents. That inode is a file or an empty directory, checked under
//!    its lock first, so no lock holder waits on it (no cycles).
//! 3. a directory's `names` mutex (its DRAM name index) — under that
//!    directory's inode lock, or alone; two at once only in ascending
//!    inode order (an aborting rename). An entry edit holds it across
//!    its journal log and, when the directory grows, its allocation.
//! 4. journal internal mutex — leaf lock, taken inside transactions.
//!
//! Names resolve through the per-directory DRAM name index
//! ([`fskit::namei::NameIndex`]), never by scanning directory blocks: the
//! media is read once per directory and mount, to build the index. Entry
//! edits find their slot there too, and write only the bytes they change.

use std::sync::{Arc, OnceLock, Weak};

use fskit::namei::{NameIndex, NameiStats};
use fskit::{
    DirEntry, Fd, FdTable, FileSystem, FileType, FsError, MmapHandle, OpenFlags, Result, Stat,
};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::{FsObs, OpKind, Site, TrackedMutex};

use crate::alloc::Allocator;
use crate::dir;
use crate::file;
use crate::inode::{InodeCache, InodeGuard, InodeHandle, InodeMem, INODE_CORE};
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

/// The contract between PMFS and a layer that keeps volatile per-inode
/// state above it (HiNFS's DRAM buffer; the paper built HiNFS inside
/// PMFS): "writes to files that are later deleted do not need to be
/// performed", so what the layer holds for a file dies in the same
/// atomic step as the inode or the bytes it describes. PMFS makes both
/// calls itself, attached once per mount ([`Pmfs::attach_layer`]).
pub trait VolatileLayer: Send + Sync {
    /// Regular file `h` is being freed (`size` 0) or cut or extended to
    /// `size`: drop what the layer holds for it. Called from the one place
    /// PMFS frees an inode and from its truncate, under `h`'s write lock
    /// (`state` is the locked image) and inside the freeing or truncating
    /// transaction, after its begin; an error aborts that transaction.
    fn discard(&self, h: &InodeHandle, state: &mut InodeMem, size: u64) -> Result<()>;

    /// Makes journal room before a namespace op or a truncate, holding
    /// no lock: the first statement of `open`, `close`, `unlink`,
    /// `rename`, `mkdir`, `rmdir` and `truncate`.
    fn make_room(&self);
}

/// An inode [`Pmfs::free_inode`] freed: once its transaction commits,
/// the tree nodes it cut are recycled and its slot returns to the free
/// list.
struct Freed<'a> {
    ino: u64,
    emptied: tree::Emptied<'a>,
}

/// Undo slots a rename to an `n`-byte name sets aside. In place it logs
/// the entry's header and the new name; as a move, at worst the removed
/// entry's predecessor header and a grown directory's core (an add that
/// fits logs one header instead of the core); over an existing entry
/// (`replace`), that entry's header, the removed entry's predecessor
/// header and the replaced inode's liveness word.
fn rename_undo_slots(n: usize, replace: bool) -> u64 {
    let slots = |bytes: usize| bytes.div_ceil(crate::journal::PAYLOAD) as u64;
    if replace {
        return 2 + slots(crate::inode::LIVENESS);
    }
    (1 + slots(INODE_CORE)).max(slots(dir::HDR + n))
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
    layer: OnceLock<Weak<dyn VolatileLayer>>,
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
        Allocator::new_empty(&l, dev.contention()).persist(&dev, &l);
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
        let fds = FdTable::new(dev.contention());
        let ns_shards = (0..obsv::NSHARDS)
            .map(|i| TrackedMutex::new(dev.contention(), Site::pmfs_ns_shard(i), ()))
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
            layer: OnceLock::new(),
        }))
    }

    fn rebuild_allocator(dev: &NvmmDevice, l: &Layout) -> Result<Allocator> {
        let alloc = Allocator::new_empty(l, dev.contention());
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

    /// Registers the layer that keeps volatile per-inode state above this
    /// mount (HiNFS's DRAM buffer). Once per mount; held weakly, so the
    /// layer's own `Arc` of this mount makes no cycle. With none (plain
    /// PMFS) the layer's calls are no-ops.
    pub fn attach_layer(&self, layer: Weak<dyn VolatileLayer>) {
        assert!(
            self.layer.set(layer).is_ok(),
            "a volatile layer is already attached"
        );
    }

    fn layer(&self) -> Option<Arc<dyn VolatileLayer>> {
        self.layer.get()?.upgrade()
    }

    fn make_room(&self) {
        if let Some(layer) = self.layer() {
            layer.make_room();
        }
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

    /// Journals inode `h`'s core's old image and persists the new one from
    /// `state`, the caller's live write guard on `h` (never a stale copy).
    /// The change becomes crash-durable when the transaction commits; the
    /// returned witness says which transaction now holds that image.
    pub fn log_write_inode(
        &self,
        tx: &TxHandle,
        h: &InodeHandle,
        state: &InodeGuard,
    ) -> Result<InodeLogged> {
        let logged = self.log_inode(tx, h.ino)?;
        self.persist_inode_core(h.ino, state);
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

    /// Journals word 0 of inode `ino`'s core, its liveness (see
    /// [`crate::inode`]): all a namespace op's rollback puts back.
    fn log_liveness(&self, tx: &TxHandle, ino: u64) -> Result<()> {
        self.journal
            .log_range(tx, self.layout.inode_off(ino), crate::inode::LIVENESS)
    }

    /// Stores the 8-byte word at `off` in inode `ino`'s core with one
    /// atomic store.
    fn store_word(&self, ino: u64, off: usize, word: u64) {
        let at = self.layout.inode_off(ino) + off as u64;
        self.dev.write_u64_persist(Cat::Meta, at, word);
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

    /// Runs entry edit `edit` on directory `d`'s name index, under its
    /// write lock (`state`): [`NameiStats::edit`], the index built on
    /// first use with one pass over the directory blocks, at that pass's
    /// full NVMM-read cost.
    fn edit_names<R>(
        &self,
        d: &InodeHandle,
        state: &mut InodeMem,
        edit: impl FnOnce(&mut NameIndex, &mut InodeMem) -> Result<R>,
    ) -> Result<R> {
        let build = |s: &InodeMem| dir::index(&self.dev, s);
        self.namei.edit(&mut d.names.lock(), state, build, edit)
    }

    /// Looks `name` up in directory `d` (`state` read-locked by the caller)
    /// through its name index: a hit costs the DRAM copy of the one entry.
    fn lookup(
        &self,
        d: &InodeHandle,
        state: &InodeMem,
        name: &str,
    ) -> Result<Option<(u64, FileType)>> {
        let build = || dir::index(&self.dev, state);
        self.namei
            .lookup(&self.dev, &mut d.names.lock(), build, name)
    }

    /// [`dir::add`] under `tx`, through and into the directory's name
    /// index. The caller holds `dir`'s write lock (`state`). When the
    /// entry does not fit the directory's blocks, the directory's core is
    /// journaled first — once a grown directory counts its new block in
    /// memory, nothing is left that a full ring could refuse — and the
    /// witness returned for [`Pmfs::stamp_dir`]; `None`: only the mtime
    /// changes.
    fn add_entry(
        &self,
        tx: &TxHandle,
        dir: &InodeHandle,
        state: &mut InodeMem,
        name: &str,
        ino: u64,
        ftype: FileType,
    ) -> Result<Option<InodeLogged>> {
        self.edit_names(dir, state, |index, state| {
            let logged = match index.host(dir::entry_len(name.len())) {
                Some(_) => None,
                None => Some(self.log_inode(tx, dir.ino)?),
            };
            let (dev, j, alloc) = (&self.dev, &self.journal, &self.alloc);
            dir::add(dev, j, tx, alloc, state, index, name, ino, ftype)?;
            Ok(logged)
        })
    }

    /// [`dir::remove`] under `tx`, through and out of the directory's name
    /// index. The caller holds `dir`'s write lock (`state`).
    fn remove_entry(
        &self,
        tx: &TxHandle,
        dir: &InodeHandle,
        state: &mut InodeMem,
        name: &str,
    ) -> Result<()> {
        self.edit_names(dir, state, |index, _| {
            dir::remove(&self.dev, &self.journal, tx, index, name).map(drop)
        })
    }

    /// Stamps directory `ino`'s mtime after an entry edit under `tx`.
    /// With `logged` (the edit grew the directory) the core is rewritten
    /// under its undo image; otherwise the mtime is the one field that
    /// changed, and goes to the media as one 8-byte atomic store that no
    /// rollback takes back.
    fn stamp_dir(
        &self,
        tx: &TxHandle,
        ino: u64,
        state: &mut InodeMem,
        logged: Option<InodeLogged>,
    ) {
        state.mtime = self.env.now();
        match logged {
            Some(logged) => self.rewrite_logged_inode(tx, logged, state),
            None => self.store_word(ino, crate::inode::MTIME_OFF, state.mtime),
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
            self.namei.forget(names);
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
            self.log_liveness(&tx, ino)?;
            self.persist_inode_core(ino, &mem);
            let mut pstate = parent.state.write();
            if pstate.ftype != FileType::Dir || pstate.nlink == 0 {
                // The parent was removed between resolution and the
                // shard lock (different entries, different shards).
                return Err(FsError::NotFound);
            }
            let logged = self.add_entry(&tx, parent, &mut pstate, name, ino, ftype)?;
            self.stamp_dir(&tx, parent.ino, &mut pstate, logged);
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

    /// Frees inode `h`, whose last link is gone and which no descriptor
    /// holds open, inside `tx` and under its write lock (`state`): the one
    /// place PMFS frees an inode. What the layer above holds for a regular
    /// file goes first ([`VolatileLayer::discard`]); then word 0 is
    /// journaled, the blocks freed and word 0 cleared (the rest of the core
    /// is the slot's dead tail). The caller ends `tx` with
    /// [`Pmfs::finish_namespace`].
    fn free_inode(
        &self,
        tx: &TxHandle,
        h: &InodeHandle,
        state: &mut InodeMem,
    ) -> Result<Freed<'_>> {
        match state.ftype {
            FileType::File => {
                if let Some(layer) = self.layer() {
                    layer.discard(h, state, 0)?;
                }
            }
            // The inode number may come back as another directory; a
            // walker still holding this handle must find no names in it.
            FileType::Dir => self.namei.forget(&mut h.names.lock()),
        }
        self.log_liveness(tx, h.ino)?;
        state.nlink = 0;
        let emptied = file::free_all(&self.dev, &self.alloc, state);
        self.store_word(h.ino, 0, 0);
        Ok(Freed {
            ino: h.ino,
            emptied,
        })
    }

    /// Drops one link of `h` inside `tx`, under its write lock (`state`):
    /// frees the inode when that was its last link and no descriptor holds
    /// it open, else journals word 0 and stores it with the lower count.
    fn drop_link(
        &self,
        tx: &TxHandle,
        h: &InodeHandle,
        state: &mut InodeMem,
    ) -> Result<Option<Freed<'_>>> {
        if state.nlink == 1 && *h.opens.lock() == 0 {
            return self.free_inode(tx, h, state).map(Some);
        }
        self.log_liveness(tx, h.ino)?;
        state.nlink -= 1;
        self.store_word(h.ino, 0, state.liveness_word());
        Ok(None)
    }

    /// Ends a namespace transaction: commits `tx`, then recycles what it
    /// freed and returns the inode slot (`None`: it freed none) — or, on
    /// an error, aborts it ([`Pmfs::abort_namespace`] over `dirs`).
    fn finish_namespace(
        &self,
        tx: TxHandle,
        res: Result<Option<Freed<'_>>>,
        dirs: &[&Arc<InodeHandle>],
    ) -> Result<()> {
        match res {
            Ok(freed) => {
                let ino = freed.as_ref().map(|f| f.ino);
                self.commit_recycling(tx, freed.map(|f| f.emptied));
                if let Some(ino) = ino {
                    self.icache.free_slot(ino);
                }
                Ok(())
            }
            Err(e) => {
                self.abort_namespace(tx, dirs);
                Err(e)
            }
        }
    }

    /// Frees an unlinked inode once its last descriptor closes.
    fn reap(&self, h: &InodeHandle) -> Result<()> {
        let tx = self.journal.begin()?;
        let res = self.free_inode(&tx, h, &mut h.state.write());
        self.finish_namespace(tx, res.map(Some), &[])
    }

    /// Truncates or extends `h` to `size` in a transaction of its own
    /// (`truncate` and `open` with `O_TRUNC`). What the layer above holds
    /// for the file goes under the inode's write lock once the transaction
    /// is open ([`VolatileLayer::discard`]).
    fn resize(&self, h: &InodeHandle, size: u64) -> Result<()> {
        let tx = self.begin_core_tx()?;
        let res = (|| -> Result<Option<tree::Emptied>> {
            let mut state = h.state.write();
            if let Some(layer) = self.layer() {
                layer.discard(h, &mut state, size)?;
            }
            let emptied = file::truncate(&self.dev, &self.alloc, &mut state, size, self.env.now())?;
            if emptied.is_some() {
                // Logged under the lock: a writer that takes it next must
                // find its own core persisted last.
                self.log_write_inode(&tx, h, &state)?;
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

    /// The write path of `write`, `write_vectored` and `append` (each
    /// wraps it in the op scope and the syscall charge): the gather list
    /// lands as one run at `off`, or at the end of file for `None` or an
    /// `O_APPEND` descriptor. One inode lock hold covers the whole list.
    /// A one-slice write that stays inside one mapped block updates the
    /// inode in place ([`Pmfs::write_in_place`]); any other write is one
    /// journal transaction with one logged inode core, its undo slots set
    /// aside at `begin`, so a full ring refuses it before a byte moves —
    /// per slice the only repeated cost is the data copy itself. Returns
    /// where the run landed and its length.
    fn write_inner(&self, fd: Fd, off: Option<u64>, iovs: &[&[u8]]) -> Result<(u64, usize)> {
        let of = self.fds.get(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        obsv::note_bytes(
            obsv::Layer::Logical,
            iovs.iter().map(|s| s.len() as u64).sum(),
        );
        let mut state = of.handle.state.write();
        let start = match off {
            Some(off) if !of.flags.contains(OpenFlags::APPEND) => off,
            _ => state.size,
        };
        if let [data] = iovs {
            if self.write_in_place(of.ino, &mut state, start, data) {
                drop(state);
                self.obs.record_inline_drain(data.len() as u64);
                return Ok((start, data.len()));
            }
        }
        let tx = self.begin_core_tx()?;
        let res = (|| -> Result<usize> {
            let mut cur = start;
            for iov in iovs {
                file::write_at(&self.dev, &self.alloc, &mut state, cur, iov, self.env.now())?;
                cur += iov.len() as u64;
            }
            self.log_write_inode(&tx, &of.handle, &state)?;
            Ok((cur - start) as usize)
        })();
        drop(state);
        match res {
            Ok(n) => {
                self.journal.commit(tx);
                // Direct access: the data is durable before the ack.
                self.obs.record_inline_drain(n as u64);
                Ok((start, n))
            }
            Err(e) => {
                self.journal.abort(tx);
                Err(e)
            }
        }
    }

    /// PMFS's in-place write (`pmfs_file_write_fast`): when `data` is not
    /// empty, ends inside the block it starts in, and that block is
    /// mapped, the bytes are copied there and fenced, then a grown size
    /// and the mtime each go to the core with one 8-byte atomic store —
    /// size first — and no transaction. Returns `false`, having changed
    /// nothing, for any other write. A block that holds no byte below EOF
    /// is taken for a hole without walking the tree (only a crash between
    /// linking a run and persisting its core leaves one mapped), so an
    /// append that opens a block walks the tree once, in
    /// [`file::write_at`]. Caller holds inode `ino`'s write lock (`state`).
    fn write_in_place(&self, ino: u64, state: &mut InodeMem, off: u64, data: &[u8]) -> bool {
        let block = BLOCK_SIZE as u64;
        let (iblk, in_blk) = (off / block, (off % block) as usize);
        if data.is_empty() || in_blk + data.len() > BLOCK_SIZE || iblk >= state.size.div_ceil(block)
        {
            return false;
        }
        let Some(pblk) = tree::lookup(&self.dev, state, iblk) else {
            return false;
        };
        let now = self.env.now();
        self.dev.write_persist(
            Cat::UserWrite,
            Layout::block_off(pblk) + in_blk as u64,
            data,
        );
        self.dev.sfence();
        let end = off + data.len() as u64;
        if end > state.size {
            self.store_word(ino, crate::inode::SIZE_OFF, end);
            state.size = end;
        }
        state.mtime = now;
        self.store_word(ino, crate::inode::MTIME_OFF, now);
        true
    }

    /// Looks `name` up in directory `dir` under its read lock: the entry,
    /// if any — "no such name" when `dir` itself was removed.
    fn entry(&self, dir: &InodeHandle, name: &str) -> Result<Option<(u64, FileType)>> {
        let state = dir.state.read();
        if state.nlink == 0 {
            return Err(FsError::NotFound);
        }
        self.lookup(dir, &state, name)
    }

    /// Whether directory `state` (write-locked by the caller) may be
    /// removed: still linked, and empty.
    fn check_removable(&self, state: &InodeMem) -> Result<()> {
        if state.nlink == 0 {
            return Err(FsError::NotFound);
        }
        if !dir::is_empty(&self.dev, state)? {
            return Err(FsError::DirectoryNotEmpty);
        }
        Ok(())
    }

    /// [`Pmfs::remove_entry`] under `dir`'s write lock, then the mtime
    /// stamp: an entry edit that changes nothing else in the directory.
    fn remove_stamped(&self, tx: &TxHandle, dir: &Arc<InodeHandle>, name: &str) -> Result<()> {
        let mut state = dir.state.write();
        self.remove_entry(tx, dir, &mut state, name)?;
        self.stamp_dir(tx, dir.ino, &mut state, None);
        Ok(())
    }

    /// Rename over an existing entry, inside `tx`: the destination entry
    /// (`dst`, bound to `victim`) is pointed at the source inode in place,
    /// the source entry goes, and `victim` loses the link — one
    /// transaction, so a crash leaves the destination naming one file or
    /// the other, never neither. `victim`'s write lock is held throughout:
    /// a directory is checked empty under it, as in `rmdir`.
    fn replace_entry(
        &self,
        tx: &TxHandle,
        (src_parent, src_name): (&Arc<InodeHandle>, &str),
        (dst_parent, dst_name): (&Arc<InodeHandle>, &str),
        (ino, ftype): (u64, FileType),
        victim: &InodeHandle,
    ) -> Result<Option<Freed<'_>>> {
        let mut vstate = victim.state.write();
        if vstate.ftype == FileType::Dir {
            self.check_removable(&vstate)?;
        }
        let same_dir = Arc::ptr_eq(src_parent, dst_parent);
        {
            let mut pstate = dst_parent.state.write();
            self.edit_names(dst_parent, &mut pstate, |index, _| {
                let (from, to) = (dst_name, dst_name);
                dir::rewrite(&self.dev, &self.journal, tx, index, from, to, ino, ftype)
            })?;
            if same_dir {
                self.remove_entry(tx, src_parent, &mut pstate, src_name)?;
            }
            self.stamp_dir(tx, dst_parent.ino, &mut pstate, None);
        }
        if !same_dir {
            self.remove_stamped(tx, src_parent, src_name)?;
        }
        self.drop_link(tx, victim, &mut vstate)
    }
}

impl FileSystem for Pmfs {
    fn name(&self) -> &'static str {
        "pmfs"
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.obs.op(OpKind::Open, || {
            self.make_room();
            self.env.charge_syscall();
            let (parent, name) = self.resolve_parent(path)?;
            fskit::path::validate_name(name)?;
            let _ns = self.lock_ns(parent.ino, name);
            let create = flags.contains(OpenFlags::CREATE);
            let excl = create && flags.contains(OpenFlags::EXCL);
            let handle = match self.entry(&parent, name)? {
                Some((_, FileType::Dir)) => return Err(FsError::IsADirectory),
                Some(_) if excl => return Err(FsError::AlreadyExists),
                Some((ino, _)) => self.inode(ino)?,
                None if !create => return Err(FsError::NotFound),
                None => self.create_node(&parent, name, FileType::File)?,
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

    /// `close(2)`. The last descriptor of an unlinked file frees it; PMFS
    /// decides "last one out" atomically with the descriptor count.
    fn close(&self, fd: Fd) -> Result<()> {
        self.obs.op(OpKind::Close, || {
            self.make_room();
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
                self.reap(&of.handle)?;
            }
            Ok(())
        })
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
        self.write_vectored(fd, off, &[data])
    }

    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        self.obs.op(OpKind::Write, || {
            self.env.charge_syscall();
            self.write_inner(fd, Some(off), iovs).map(|(_, n)| n)
        })
    }

    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        self.obs.op(OpKind::Write, || {
            self.env.charge_syscall();
            self.write_inner(fd, None, &[data]).map(|(off, _)| off)
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
            self.make_room();
            self.env.charge_syscall();
            let of = self.fds.get(fd)?;
            if !of.flags.writable() {
                return Err(FsError::BadFd);
            }
            self.resize(&of.handle, size)
        })
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.obs.op(OpKind::Unlink, || {
            self.make_room();
            self.env.charge_syscall();
            let (parent, name) = self.resolve_parent(path)?;
            let _ns = self.lock_ns(parent.ino, name);
            let (ino, ftype) = self.entry(&parent, name)?.ok_or(FsError::NotFound)?;
            if ftype != FileType::File {
                return Err(FsError::IsADirectory);
            }
            let child = self.inode(ino)?;
            let tx = self.journal.begin()?;
            // Fallible steps run before the volatile nlink/cache mutations
            // so an abort leaves the in-memory state matching the
            // rolled-back bytes.
            let res = (|| -> Result<Option<Freed<'_>>> {
                self.remove_stamped(&tx, &parent, name)?;
                self.drop_link(&tx, &child, &mut child.state.write())
            })();
            self.finish_namespace(tx, res, &[&parent])
        })
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.make_room();
        self.env.charge_syscall();
        let (parent, name) = self.resolve_parent(path)?;
        fskit::path::validate_name(name)?;
        let _ns = self.lock_ns(parent.ino, name);
        if self.entry(&parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        self.create_node(&parent, name, FileType::Dir)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.make_room();
        self.env.charge_syscall();
        let (parent, name) = self.resolve_parent(path)?;
        let _ns = self.lock_ns(parent.ino, name);
        let (ino, ftype) = self.entry(&parent, name)?.ok_or(FsError::NotFound)?;
        if ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        let child = self.inode(ino)?;
        let tx = self.journal.begin()?;
        let res = (|| -> Result<Option<Freed<'_>>> {
            // Hold the dying directory's write lock from the emptiness
            // check through `nlink = 0`: a concurrent create into it
            // either lands first (seen here as DirectoryNotEmpty) or
            // observes the dead directory under its own parent lock.
            // Child-then-parent nesting always follows tree depth upward,
            // so it cannot deadlock against another rmdir.
            let mut cstate = child.state.write();
            self.check_removable(&cstate)?;
            self.remove_stamped(&tx, &parent, name)?;
            self.free_inode(&tx, &child, &mut cstate).map(Some)
        })();
        self.finish_namespace(tx, res, &[&parent])
    }

    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.env.charge_syscall();
        let h = self.resolve_path(path)?;
        let state = h.state.read();
        if state.ftype != FileType::Dir {
            return Err(FsError::NotADirectory);
        }
        dir::list(&self.dev, &state)
    }

    fn stat(&self, path: &str) -> Result<Stat> {
        self.env.charge_syscall();
        Ok(self.resolve_path(path)?.stat())
    }

    fn fstat(&self, fd: Fd) -> Result<Stat> {
        self.env.charge_syscall();
        Ok(self.fds.get(fd)?.handle.stat())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.make_room();
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
        let (ino, ftype) = self
            .entry(&src_parent, src_name)?
            .ok_or(FsError::NotFound)?;
        let replaced = {
            let pstate = dst_parent.state.read();
            self.lookup(&dst_parent, &pstate, dst_name)?
        };
        let victim = match replaced {
            None => None,
            Some((dino, _)) if dino == ino => return Ok(()),
            Some((_, FileType::Dir)) if ftype == FileType::File => {
                return Err(FsError::IsADirectory)
            }
            Some((_, FileType::File)) if ftype == FileType::Dir => {
                return Err(FsError::NotADirectory)
            }
            Some((dino, _)) => Some(self.inode(dino)?),
        };
        // Undo slots for every log below are set aside up front: past the
        // first entry edit, nothing can fail on a full ring.
        let tx = self
            .journal
            .begin_reserving(rename_undo_slots(dst_name.len(), victim.is_some()))?;
        let res = (|| -> Result<Option<Freed<'_>>> {
            if let Some(victim) = &victim {
                let (src, dst) = ((&src_parent, src_name), (&dst_parent, dst_name));
                return self.replace_entry(&tx, src, dst, (ino, ftype), victim);
            }
            if Arc::ptr_eq(&src_parent, &dst_parent) {
                // In place when the new name fits the old record, so a
                // full directory does not grow. Otherwise add before
                // remove: the new entry may only land on bytes no record
                // reached when the transaction began — the removed
                // entry's are not, once merged into its neighbour.
                let mut pstate = src_parent.state.write();
                let in_place = self.edit_names(&src_parent, &mut pstate, |index, _| {
                    let (from, to) = (src_name, dst_name);
                    dir::rewrite(&self.dev, &self.journal, &tx, index, from, to, ino, ftype)
                })?;
                let logged = if in_place {
                    None
                } else {
                    let logged =
                        self.add_entry(&tx, &src_parent, &mut pstate, dst_name, ino, ftype)?;
                    self.remove_entry(&tx, &src_parent, &mut pstate, src_name)?;
                    logged
                };
                self.stamp_dir(&tx, src_parent.ino, &mut pstate, logged);
                return Ok(None);
            }
            self.remove_stamped(&tx, &src_parent, src_name)?;
            let mut pstate = dst_parent.state.write();
            let logged = self.add_entry(&tx, &dst_parent, &mut pstate, dst_name, ino, ftype)?;
            self.stamp_dir(&tx, dst_parent.ino, &mut pstate, logged);
            Ok(None)
        })();
        self.finish_namespace(tx, res, &[&src_parent, &dst_parent])
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
        // namei.index. Only handles that have an index are locked — the
        // in-band auditor runs under a *file's* inode lock.
        let mut held = 0;
        for h in self.icache.cached() {
            if h.names.lock().is_none() {
                continue;
            }
            let state = h.state.read();
            let media = dir::index_uncharged(&self.dev, &state);
            if let Some(index) = h.names.lock().as_ref() {
                held += index.audit(&mut rep, h.ino, media);
            }
        }
        self.namei.audit(&mut rep, held);
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
