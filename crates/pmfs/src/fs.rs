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
//! The namespace rules are [`fskit::vfs`]'s; PMFS is its [`Namespace`],
//! each op one journal transaction. Names resolve, and entry edits find
//! their slot, through the per-directory DRAM name index, never by
//! scanning directory blocks.

use std::sync::{Arc, OnceLock, Weak};

use fskit::namei::{NameIndex, NameiStats};
use fskit::vfs::{self, Edit, Files, Namespace, OpenFile, Reserve};
use fskit::{DirEntry, Fd, FdTable, FileSystem, FileType, MmapHandle, Result};
use nvmm::{Cat, NvmmDevice, SimEnv, BLOCK_SIZE};
use obsv::{FsObs, Site, TrackedMutex, TrackedMutexGuard};

use crate::alloc::{Allocator, Reserved};
use crate::dir;
use crate::file;
use crate::inode::{InodeCache, InodeGuard, InodeHandle, InodeMem, INODE_CORE};
use crate::journal::{Credits, Journal, RecoveryStats, TxHandle};
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

/// Witness that a transaction journaled an inode's core: minted only by
/// [`Pmfs::log_core`], spent by [`Pmfs::rewrite_logged_inode`].
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

/// A namespace op's transaction: the journal handle, and what
/// [`Namespace::finish`] settles when it commits or aborts.
pub struct NsTx<'a> {
    tx: TxHandle,
    /// A grown directory's core, journaled by its add, for its stamp.
    logged: Option<InodeLogged>,
    /// The inode the op allocated: its slot goes back on abort.
    created: Option<u64>,
    /// The inode the op freed, and the tree nodes it cut: recycled, and
    /// its slot returned, once the commit lands.
    freed: Option<(u64, tree::Emptied<'a>)>,
    /// Directories whose entries the op edited.
    edited: Vec<Arc<InodeHandle>>,
}

/// Journal slots that `bytes` bytes of undo image take.
fn slots(bytes: usize) -> u64 {
    bytes.div_ceil(crate::journal::PAYLOAD) as u64
}

/// Undo slots a namespace op sets aside at begin, so no log in it is
/// refused. A removal logs an entry header and a liveness word; a reap,
/// the word. A rename in place logs the header and the new name; as a
/// move, at worst a header and a grown directory's core; over an entry,
/// two headers and the replaced inode's word. A create is refused only
/// before anything it cannot roll back.
fn undo_slots(reserve: Reserve) -> u64 {
    let liveness = slots(crate::inode::LIVENESS);
    match reserve {
        Reserve::Create => 0,
        Reserve::Remove => slots(dir::HDR) + liveness,
        Reserve::Reap => liveness,
        Reserve::Rename { replace: true, .. } => 2 + liveness,
        Reserve::Rename { name_len, .. } => (1 + slots(INODE_CORE)).max(slots(dir::HDR + name_len)),
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
    fds: FdTable<OpenFile<InodeMem>>,
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

    /// Journals inode `h`'s core's old image in the slots `tx` set aside
    /// for it ([`Pmfs::reserve_core`]) and persists the new one from
    /// `state`, the caller's live write guard on `h` (never a stale copy).
    /// The change becomes crash-durable when the transaction commits; the
    /// returned witness says which transaction now holds that image.
    pub fn log_core(&self, tx: &TxHandle, h: &InodeHandle, state: &InodeGuard) -> InodeLogged {
        let logged = self.log_reserved_core(tx, h.ino);
        self.persist_inode_core(h.ino, state);
        logged
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

    /// [`Pmfs::log_inode`] in the slots `tx` set aside for it.
    fn log_reserved_core(&self, tx: &TxHandle, ino: u64) -> InodeLogged {
        let off = self.layout.inode_off(ino);
        self.journal.log_reserved(tx, off, INODE_CORE);
        InodeLogged {
            ino,
            txid: tx.txid(),
        }
    }

    /// Opens a transaction with the undo slots of one inode-core update
    /// set aside: a full ring refuses here, not the core's log under it —
    /// which, in a truncate, follows a cut of the tree that cannot be
    /// taken back.
    pub fn begin_core_tx(&self) -> Result<TxHandle> {
        Ok(self.journal.begin_reserved(self.reserve_core()?))
    }

    /// Sets aside, without opening it, the transaction of one inode-core
    /// update: its commit slot and the core's undo slots.
    pub fn reserve_core(&self) -> Result<Credits> {
        self.journal.reserve(slots(INODE_CORE))
    }

    /// A write's [`Held`]: `credits`, and `n` blocks — or, refused,
    /// nothing (the credits go back).
    pub fn hold(&self, credits: Option<Credits>, n: u64) -> Result<Held> {
        match self.alloc.reserve(n) {
            Ok(blocks) => Ok(Held {
                in_place: None,
                credits,
                blocks,
            }),
            Err(e) => {
                Files::release(
                    self,
                    Held {
                        credits,
                        ..Held::default()
                    },
                );
                Err(e)
            }
        }
    }

    /// Stores a grown size and the mtime of inode `ino` (`state`) with one
    /// 8-byte atomic store each, size first, and no transaction: the data
    /// they expose is durable and fenced, and the core's other fields
    /// stand as persisted.
    pub fn store_size_mtime(&self, ino: u64, state: &InodeMem, old_size: u64) {
        if state.size > old_size {
            self.store_word(ino, crate::inode::SIZE_OFF, state.size);
        }
        self.store_word(ino, crate::inode::MTIME_OFF, state.mtime);
    }

    /// Opens a transaction that already holds the undo image of inode
    /// `ino`'s core: everything that can fail on a full ring happens here,
    /// with no side effect when it does. What is left of the update —
    /// [`Pmfs::rewrite_logged_inode`] with the returned witness, then the
    /// commit — cannot fail. For updates that follow changes the caller
    /// cannot take back (HiNFS mapping blocks at flush time).
    pub fn begin_inode_update(&self, ino: u64) -> Result<(TxHandle, InodeLogged)> {
        let tx = self.begin_core_tx()?;
        let logged = self.log_reserved_core(&tx, ino);
        Ok((tx, logged))
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

    /// The block of PMFS's in-place write (`pmfs_file_write_fast`): when
    /// `data` ends inside the block it starts in, and that block is
    /// mapped. `None` for any other write. A block that holds no byte
    /// below EOF is taken for a hole without walking the tree (only a
    /// crash between linking a run and persisting its core leaves one
    /// mapped), so an append that opens a block walks the tree once, in
    /// [`file::write_at`].
    fn in_place_block(&self, state: &InodeMem, off: u64, data: &[u8]) -> Option<u64> {
        let block = BLOCK_SIZE as u64;
        let (iblk, in_blk) = (off / block, (off % block) as usize);
        if in_blk + data.len() > BLOCK_SIZE || iblk >= state.size.div_ceil(block) {
            return None;
        }
        tree::lookup(&self.dev, state, iblk)
    }

    /// The in-place write into `pblk` ([`Pmfs::in_place_block`]): the gap
    /// a start past EOF leaves is zeroed and the bytes are copied there
    /// and fenced, then a grown size and the mtime each go to the core
    /// with one 8-byte atomic store — size first — and no transaction.
    /// Caller holds inode `ino`'s write lock (`state`).
    fn write_in_place(&self, ino: u64, state: &mut InodeMem, pblk: u64, off: u64, data: &[u8]) {
        let now = self.env.now();
        // A start past EOF lies in this block: its stale gap goes first.
        file::zero_gap(&self.dev, state, off);
        let in_blk = off % BLOCK_SIZE as u64;
        self.dev
            .write_persist(Cat::UserWrite, Layout::block_off(pblk) + in_blk, data);
        self.dev.sfence();
        let old_size = state.size;
        state.size = old_size.max(off + data.len() as u64);
        state.mtime = now;
        self.store_size_mtime(ino, state, old_size);
    }
}

/// What a write set aside before it moved a byte ([`Files::reserve`]).
#[derive(Default)]
pub struct Held {
    /// The one mapped block of an in-place write, which sets nothing aside.
    in_place: Option<u64>,
    /// The transaction of the write's inode update.
    pub credits: Option<Credits>,
    /// The blocks of the holes it may fill, and their tree nodes.
    pub blocks: Reserved,
}

impl FileSystem for Pmfs {
    fskit::namespace_ops!();
    fskit::data_ops!();

    fn name(&self) -> &'static str {
        "pmfs"
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

impl Files for Pmfs {
    type State = InodeMem;
    type Held = Held;

    fn device(&self) -> &NvmmDevice {
        &self.dev
    }

    fn obs(&self) -> &FsObs {
        &self.obs
    }

    fn fds(&self) -> &FdTable<OpenFile<InodeMem>> {
        &self.fds
    }

    fn make_room(&self) {
        if let Some(layer) = self.layer() {
            layer.make_room();
        }
    }

    /// One transaction of its own. What the layer above holds for the
    /// file goes under the inode's write lock once the transaction is
    /// open ([`VolatileLayer::discard`]).
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
                self.log_core(&tx, h, &state);
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

    fn read_data(
        &self,
        _: &OpenFile<InodeMem>,
        s: &InodeMem,
        off: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        file::read_at(&self.dev, s, off, buf);
        Ok(())
    }

    /// A one-slice write that stays inside one mapped block updates the
    /// inode in place; any other write sets aside the undo slots of its
    /// one logged inode core and the blocks of the holes it may fill, so
    /// a full ring or device refuses it before a byte moves.
    fn reserve(
        &self,
        _: &OpenFile<InodeMem>,
        state: &mut InodeMem,
        off: u64,
        iovs: &[&[u8]],
        total: u64,
    ) -> Result<Held> {
        let end = file::end_of(off, total)?;
        if let [data] = iovs {
            let in_place = self.in_place_block(state, off, data);
            if in_place.is_some() {
                return Ok(Held {
                    in_place,
                    ..Held::default()
                });
            }
        }
        let holes = vfs::maybe_holes(state.size, state.blocks, off, end);
        self.hold(Some(self.reserve_core()?), file::blocks_for(state, holes))
    }

    /// One journal transaction with one logged inode core — per slice the
    /// only repeated cost is the data copy itself.
    fn write_data(
        &self,
        of: &OpenFile<InodeMem>,
        mut state: InodeGuard<'_>,
        start: u64,
        iovs: &[&[u8]],
        held: &mut Held,
    ) -> Result<()> {
        let total = iovs.iter().map(|d| d.len() as u64).sum();
        if let Some(pblk) = held.in_place {
            self.write_in_place(of.ino, &mut state, pblk, start, iovs[0]);
        } else {
            let tx = held.credits.take().map(|c| self.journal.begin_reserved(c));
            // Fenced below with the data, before the core that exposes it.
            file::zero_gap(&self.dev, &state, start);
            let mut cur = start;
            for iov in iovs.iter().filter(|iov| !iov.is_empty()) {
                let (now, blocks) = (self.env.now(), &mut held.blocks);
                file::write_at(&self.dev, &self.alloc, blocks, &mut state, cur, iov, now);
                cur += iov.len() as u64;
            }
            if let Some(tx) = tx {
                self.log_core(&tx, &of.handle, &state);
                drop(state);
                self.journal.commit(tx);
            }
        }
        // Direct access: the data is durable before the ack.
        self.obs.record_inline_drain(total);
        Ok(())
    }

    fn release(&self, held: Held) {
        if let Some(credits) = held.credits {
            self.journal.unreserve(credits);
        }
        self.alloc.unreserve(held.blocks);
    }

    /// Direct-access writes are already durable; fsync only fences and
    /// records the synchronization time.
    fn fsync_data(&self, of: &OpenFile<InodeMem>) -> Result<()> {
        of.handle.state.write().last_sync = self.env.now();
        self.dev.sfence();
        Ok(())
    }
}

impl Namespace for Pmfs {
    type Tx<'a> = NsTx<'a>;
    /// The shards of the (one or two) entries' `(parent, name)` pairs,
    /// in ascending index order and one lock when they collide, so racing
    /// ops on one entry serialize and no two ops deadlock.
    type Locked<'a> = [Option<TrackedMutexGuard<'a, ()>>; 2];
    const ROOT: u64 = ROOT_INO;

    fn namei(&self) -> &NameiStats {
        &self.namei
    }

    fn inode(&self, ino: u64) -> Result<Arc<InodeHandle>> {
        self.icache.get(&self.dev, &self.layout, ino)
    }

    fn index(&self, dir: &InodeMem) -> Result<NameIndex> {
        dir::index(&self.dev, dir)
    }

    fn list(&self, dir: &InodeMem) -> Result<Vec<DirEntry>> {
        dir::list(&self.dev, dir)
    }

    fn lock_entries<'a>(&'a self, entries: &[(u64, &str)]) -> Self::Locked<'a> {
        let mut shards = [None; 2];
        for (shard, &(parent, name)) in shards.iter_mut().zip(entries) {
            *shard = Some(self.ns_shard(parent, name));
        }
        shards.sort_unstable();
        if shards[0] == shards[1] {
            shards[0] = None;
        }
        shards.map(|shard| shard.map(|i| self.ns_shards[i].lock()))
    }

    fn begin(&self, reserve: Reserve) -> Result<NsTx<'_>> {
        Ok(NsTx {
            tx: self.journal.begin_reserving(undo_slots(reserve))?,
            logged: None,
            created: None,
            freed: None,
            edited: Vec::new(),
        })
    }

    /// The slot's liveness word is journaled before the fresh core lands.
    fn create(&self, tx: &mut NsTx<'_>, ftype: FileType) -> Result<Arc<InodeHandle>> {
        let ino = self.icache.alloc_slot()?;
        tx.created = Some(ino);
        let mem = InodeMem::new(ftype, self.env.now());
        self.log_liveness(&tx.tx, ino)?;
        self.persist_inode_core(ino, &mem);
        Ok(self.icache.install(ino, mem))
    }

    /// An add journals the one header it links — or, when the entry does
    /// not fit the directory's blocks, the directory's core first: once a
    /// grown directory counts its new block in memory, nothing is left
    /// that a full ring could refuse. The core's witness goes to
    /// [`Namespace::stamp`].
    fn edit(
        &self,
        tx: &mut NsTx<'_>,
        d: &Arc<InodeHandle>,
        state: &mut InodeMem,
        edit: Edit<&str>,
    ) -> Result<bool> {
        tx.edited.push(d.clone());
        let (dev, j, alloc) = (&self.dev, &self.journal, &self.alloc);
        vfs::edit_names(self, d, state, |index, state| match edit {
            Edit::Add(name, ino, ftype) => {
                if index.host(dir::entry_len(name.len())).is_none() {
                    tx.logged = Some(self.log_inode(&tx.tx, d.ino)?);
                }
                dir::add(dev, j, &tx.tx, alloc, state, index, name, ino, ftype).map(|_| true)
            }
            Edit::Remove(name) => dir::remove(dev, j, &tx.tx, index, name).map(|_| true),
            Edit::Rewrite(from, to, ino, ftype) => {
                dir::rewrite(dev, j, &tx.tx, index, from, to, ino, ftype)
            }
        })
    }

    /// With the core journaled (the edit grew the directory) the core is
    /// rewritten under its undo image; otherwise the mtime is the one
    /// field that changed, and goes to the media as one 8-byte atomic
    /// store that no rollback takes back.
    fn stamp(&self, tx: &mut NsTx<'_>, d: &InodeHandle, state: &mut InodeMem) -> Result<()> {
        state.mtime = self.env.now();
        match tx.logged.take_if(|l| l.ino == d.ino) {
            Some(logged) => self.rewrite_logged_inode(&tx.tx, logged, state),
            None => self.store_word(d.ino, crate::inode::MTIME_OFF, state.mtime),
        }
        Ok(())
    }

    /// Journals word 0 and stores it with the lower count.
    fn drop_link(&self, tx: &mut NsTx<'_>, h: &InodeHandle, state: &mut InodeMem) -> Result<()> {
        self.log_liveness(&tx.tx, h.ino)?;
        state.nlink -= 1;
        self.store_word(h.ino, 0, state.liveness_word());
        Ok(())
    }

    /// The one place PMFS frees an inode. What the layer above holds for
    /// a regular file goes first ([`VolatileLayer::discard`]); then word
    /// 0 is journaled, the blocks freed and word 0 cleared (the rest of
    /// the core is the slot's dead tail). Every op that frees sets the
    /// word's undo slot aside at begin ([`undo_slots`]), so nothing after
    /// the discard can fail and leave a live file without its buffers.
    fn free<'a>(&'a self, tx: &mut NsTx<'a>, h: &InodeHandle, state: &mut InodeMem) -> Result<()> {
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
        self.log_liveness(&tx.tx, h.ino)?;
        state.nlink = 0;
        let emptied = file::free_all(&self.dev, &self.alloc, state);
        self.store_word(h.ino, 0, 0);
        tx.freed = Some((h.ino, emptied));
        Ok(())
    }

    /// Commits `tx`, then recycles what it freed and returns the inode
    /// slot — or aborts it, dropping the indexes of the directories it
    /// edited and returning the slot it allocated.
    fn finish<R>(&self, tx: NsTx<'_>, res: Result<R>) -> Result<R> {
        match res {
            Ok(r) => {
                let (ino, emptied) = tx.freed.unzip();
                self.commit_recycling(tx.tx, emptied);
                if let Some(ino) = ino {
                    self.icache.free_slot(ino);
                }
                Ok(r)
            }
            Err(e) => {
                // The rollback restores the edited entries under the
                // indexes, so those go too, locked across it: a lookup
                // must not rebuild one from half-restored blocks.
                let mut dirs = tx.edited;
                dirs.sort_unstable_by_key(|d| d.ino);
                dirs.dedup_by_key(|d| d.ino);
                let mut held: Vec<_> = dirs.iter().map(|d| d.names.lock()).collect();
                self.journal.abort(tx.tx);
                for names in &mut held {
                    self.namei.forget(names);
                }
                if let Some(ino) = tx.created {
                    self.icache.free_slot(ino);
                }
                Err(e)
            }
        }
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
        let media = |state: &InodeMem| dir::index_uncharged(&self.dev, state);
        vfs::audit_names(&mut rep, &self.namei, self.icache.cached(), media);
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
