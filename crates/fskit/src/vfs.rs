//! The virtual file system: the interface and the one driver.
//!
//! [`FileSystem`] is the syscall surface the paper's workloads exercise:
//! `open`/`close`, positional `read`/`write`, `append`, `fsync`, namespace
//! operations, and direct memory-mapped I/O for the NVMM-aware file
//! systems. Implementations charge their own model costs (through the
//! driver below, the fixed per-call "syscall" overhead included), so
//! callers simply invoke the methods.
//!
//! The rules of that surface are written once, here, as the kernel VFS
//! is for the paper's five systems. The namespace half: the path walk
//! ([`resolve`], [`resolve_parent`]), the `open` table, the rename matrix,
//! the `rmdir`/`unlink` type and emptiness checks, `close`'s last-one-out
//! decision and the descriptor table's [`OpenFile`]s. A file system family
//! plugs in through [`Namespace`], statically dispatched: it owns its
//! locks, its transactions and its media, and each op runs one
//! [`Namespace::begin`] … [`Namespace::finish`] bracket, so a namespace op
//! that returns an error changed nothing. The data half ([`read`],
//! [`write`], [`append`], [`fsync`], [`truncate`]): the descriptor's
//! lookup and access mode, the `O_APPEND` offset, the end-of-file clamp
//! and the empty-write rule, as `vfs_read`/`vfs_write` check them before
//! a file system's `->read`/`->write` runs. A family plugs in through
//! [`Files`], whose hooks only move data; a write reserves what it could
//! be refused for before it moves a byte, so a write that returns an
//! error changed nothing either.

use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use nvmm::{NvmmDevice, BLOCK_SIZE};
use obsv::{AuditReport, FsObs, OpKind};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::dirent::entry_len;
use crate::error::{FsError, Result};
use crate::fdtable::FdTable;
use crate::flags::OpenFlags;
use crate::namei::{NameIndex, NameiStats};
use crate::path::{components, split_parent, validate_name};
use crate::types::{DirEntry, Fd, FileType, Ino, Stat};

/// A mounted file system instance.
///
/// All methods take `&self`; implementations do their own locking, as a
/// kernel file system would.
pub trait FileSystem: Send + Sync {
    /// A short stable name for reports ("pmfs", "hinfs", "ext4-nvmmbd", ...).
    fn name(&self) -> &'static str;

    /// Opens (and with [`OpenFlags::CREATE`] possibly creates) a file.
    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd>;

    /// Closes a descriptor.
    fn close(&self, fd: Fd) -> Result<()>;

    /// Reads up to `buf.len()` bytes at byte offset `off`. Returns the
    /// number of bytes read (short at end of file).
    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize>;

    /// Writes `data` at byte offset `off`, extending the file if needed.
    /// Returns the number of bytes written.
    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize>;

    /// Writes a gather list of slices as one contiguous run starting at
    /// byte offset `off` (`pwritev(2)`): one call's costs, per-file locks
    /// and journal transaction for the whole vector. Returns the total
    /// number of bytes written.
    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize>;

    /// Appends `data` at the end of the file, returning the offset the data
    /// landed at.
    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64>;

    /// Makes all data of `fd` durable before returning.
    fn fsync(&self, fd: Fd) -> Result<()>;

    /// Truncates (or extends with zeroes) the file to `size` bytes.
    fn truncate(&self, fd: Fd, size: u64) -> Result<()>;

    /// Removes a name; the file is freed when the link count drops to zero.
    fn unlink(&self, path: &str) -> Result<()>;

    /// Creates a directory.
    fn mkdir(&self, path: &str) -> Result<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &str) -> Result<()>;

    /// Lists a directory.
    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>>;

    /// Metadata by path.
    fn stat(&self, path: &str) -> Result<Stat>;

    /// Metadata by descriptor.
    fn fstat(&self, fd: Fd) -> Result<Stat>;

    /// Renames `from` to `to` (same-directory and cross-directory).
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Makes every dirty buffer durable (like `sync(2)`).
    fn sync(&self) -> Result<()>;

    /// Flushes everything and quiesces background work. The file system
    /// must be fully durable when this returns (the paper: "HiNFS flushes
    /// all the DRAM blocks to the NVMM when unmounting").
    fn unmount(&self) -> Result<()>;

    /// Maps `len` bytes of the file at offset `off` directly into the
    /// caller's address space. Only the NVMM-aware file systems support
    /// this (PMFS-style direct mmap).
    fn mmap(&self, _fd: Fd, _off: u64, _len: usize) -> Result<Arc<dyn MmapHandle>> {
        Err(FsError::Unsupported)
    }

    /// Virtual-time hook: gives background machinery (writeback threads,
    /// journal checkpointing) a chance to run at simulated time `now_ns`.
    /// Real-thread (spin mode) deployments may ignore it.
    fn tick(&self, _now_ns: u64) {}
}

/// A direct memory mapping of file data.
///
/// Loads and stores go straight to the mapped NVMM region; stores are *not*
/// durable until [`MmapHandle::msync`], mirroring CPU-cache semantics.
pub trait MmapHandle: Send + Sync {
    /// Length of the mapping in bytes.
    fn len(&self) -> usize;

    /// Whether the mapping is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads bytes at `off` within the mapping.
    fn load(&self, off: usize, buf: &mut [u8]) -> Result<()>;

    /// Stores bytes at `off` within the mapping (volatile until `msync`).
    fn store(&self, off: usize, data: &[u8]) -> Result<()>;

    /// Persists the given range of the mapping.
    fn msync(&self, off: usize, len: usize) -> Result<()>;
}

/// What the driver reads of an inode's in-memory state.
pub trait InodeState: Send + Sync {
    /// `stat(2)`'s view of inode `ino` in this state.
    fn stat(&self, ino: Ino) -> Stat;
    /// File type.
    fn ftype(&self) -> FileType {
        self.stat(0).ftype
    }
    /// Hard link count (0: unlinked, freed once no descriptor holds it).
    fn nlink(&self) -> u32 {
        self.stat(0).nlink
    }
    /// Size in bytes.
    fn size(&self) -> u64 {
        self.stat(0).size
    }
}

/// A write lock held on an inode's state.
pub type StateGuard<'a, S> = RwLockWriteGuard<'a, S>;

/// An inode's shared in-memory state, one per cached inode.
#[derive(Debug)]
pub struct Inode<S> {
    /// The inode number.
    pub ino: Ino,
    /// The mutable inode state. Lock order: namespace locks, then inode
    /// locks, two only child-then-parent (`rmdir`, a rename's victim).
    pub state: RwLock<S>,
    /// Open descriptor count. Lock order: `state` → `opens` — "is this
    /// the last reference?" reads `nlink` and the count together.
    pub opens: Mutex<u32>,
    /// Directories only: the name index ([`crate::namei`]), built on the
    /// first lookup after mount. Lock order: `state` → `names`.
    pub names: Mutex<Option<NameIndex>>,
}

impl<S: InodeState> Inode<S> {
    /// A handle on inode `ino` in `state`, open nowhere.
    pub fn new(ino: Ino, state: S) -> Arc<Self> {
        let (state, opens, names) = (RwLock::new(state), Mutex::new(0), Mutex::new(None));
        Arc::new(Inode {
            ino,
            state,
            opens,
            names,
        })
    }

    /// `stat(2)`'s view of the inode.
    pub fn stat(&self) -> Stat {
        self.state.read().stat(self.ino)
    }
}

/// Per-open state of a descriptor.
#[derive(Debug)]
pub struct OpenFile<S> {
    /// Inode number of the open file.
    pub ino: Ino,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
    /// Shared inode state.
    pub handle: Arc<Inode<S>>,
}

/// The op a namespace transaction is for: a family sets aside what the
/// op's logs need at [`Namespace::begin`], so none is refused partway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reserve {
    /// `open` with `O_CREAT`, `mkdir`.
    Create,
    /// `unlink`, `rmdir`: an entry removal and an inode's liveness.
    Remove,
    /// The last close of an unlinked file: an inode's liveness.
    Reap,
    /// A rename to a `name_len`-byte name, over an existing entry when
    /// `replace`.
    Rename { name_len: usize, replace: bool },
}

/// An entry edit of one directory, naming entries by `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit<N> {
    /// Adds `name -> (ino, ftype)`; the name is absent.
    Add(N, Ino, FileType),
    /// Removes `name`.
    Remove(N),
    /// Rewrites entry `from` in place as `to -> (ino, ftype)`: rename,
    /// or rename's replace when `to` is `from`.
    Rewrite(N, N, Ino, FileType),
}

/// A file system family as the data driver sees it: its descriptor
/// table, and hooks that only move data, each called once the driver has
/// checked the descriptor. A write runs one [`Files::reserve`] …
/// [`Files::release`] bracket around [`Files::write_data`].
pub trait Files: Sync {
    /// An inode's in-memory state.
    type State: InodeState;
    /// What a write set aside before it moved a byte.
    type Held;

    /// The device the mount's time is charged to.
    fn device(&self) -> &NvmmDevice;
    /// The mount's op scopes.
    fn obs(&self) -> &FsObs;
    /// The descriptor table.
    fn fds(&self) -> &FdTable<OpenFile<Self::State>>;
    /// Makes journal room before a namespace op or a truncate, holding no
    /// lock.
    fn make_room(&self);
    /// Truncates or extends `node` to `size`: `ftruncate`, and `open`
    /// with `O_TRUNC`. A file already `size` bytes long is left as it is.
    fn resize(&self, node: &Inode<Self::State>, size: u64) -> Result<()>;
    /// Fills `buf`, which lies below end of file, from byte `off` of
    /// `of`'s file (read-locked: `state`).
    fn read_data(
        &self,
        of: &OpenFile<Self::State>,
        state: &Self::State,
        off: u64,
        buf: &mut [u8],
    ) -> Result<()>;
    /// Sets aside everything writing `iovs`, `total > 0` bytes, at `off`
    /// into `of`'s file (write-locked: `state`) could be refused for: the
    /// journal room of its inode update, the blocks of the holes it fills
    /// directly. A refusal here changed nothing.
    fn reserve(
        &self,
        of: &OpenFile<Self::State>,
        state: &mut Self::State,
        off: u64,
        iovs: &[&[u8]],
        total: u64,
    ) -> Result<Self::Held>;
    /// Writes `iovs` as one run at `off` into `of`'s file, write-locked by
    /// `state` until the hook drops it, drawing on `held`: nothing is left
    /// to refuse it for space.
    fn write_data(
        &self,
        of: &OpenFile<Self::State>,
        state: StateGuard<'_, Self::State>,
        off: u64,
        iovs: &[&[u8]],
        held: &mut Self::Held,
    ) -> Result<()>;
    /// Gives back what the write did not use of `held`.
    fn release(&self, held: Self::Held);
    /// Makes `of`'s file durable.
    fn fsync_data(&self, of: &OpenFile<Self::State>) -> Result<()>;
}

/// A file system family as the namespace driver sees it. An op runs under
/// its entries' locks, in one transaction from `begin` to `finish`; an
/// entry edit holds its directory's write lock (the `state` passed).
pub trait Namespace: Files {
    /// A namespace op's transaction.
    type Tx<'a>
    where
        Self: 'a;
    /// Held namespace locks.
    type Locked<'a>
    where
        Self: 'a;
    /// The root directory's inode number.
    const ROOT: Ino;

    /// The mount's name-index counters.
    fn namei(&self) -> &NameiStats;
    /// The handle of a used inode.
    fn inode(&self, ino: Ino) -> Result<Arc<Inode<Self::State>>>;
    /// A directory's name index, built by one charged pass over its blocks.
    fn index(&self, dir: &Self::State) -> Result<NameIndex>;
    /// A directory's live entries, in media order.
    fn list(&self, dir: &Self::State) -> Result<Vec<DirEntry>>;
    /// Locks the `(parent, name)` entries an op looks up and edits.
    fn lock_entries<'a>(&'a self, entries: &[(Ino, &str)]) -> Self::Locked<'a>;
    /// Opens a namespace op's transaction; a refusal here changed nothing.
    fn begin(&self, reserve: Reserve) -> Result<Self::Tx<'_>>;
    /// Allocates a fresh inode of type `ftype` with one link.
    fn create(&self, tx: &mut Self::Tx<'_>, ftype: FileType) -> InodeResult<Self>;
    /// Runs `edit` on directory `dir` (write-locked: `state`). `false`,
    /// nothing changed: a rewrite's new name does not fit the record.
    fn edit(
        &self,
        tx: &mut Self::Tx<'_>,
        dir: &Arc<Node<Self>>,
        state: &mut Self::State,
        edit: Edit<&str>,
    ) -> Result<bool>;
    /// Stamps directory `dir`'s mtime after its entry edits.
    fn stamp(&self, tx: &mut Self::Tx<'_>, dir: &Node<Self>, s: &mut Self::State) -> Result<()>;
    /// Drops a link of `node`: not its last, or a descriptor holds it.
    fn drop_link(&self, tx: &mut Self::Tx<'_>, n: &Node<Self>, s: &mut Self::State) -> Result<()>;
    /// Frees `node`: its last link goes, and no descriptor holds it.
    fn free<'a>(
        &'a self,
        tx: &mut Self::Tx<'a>,
        node: &Node<Self>,
        state: &mut Self::State,
    ) -> Result<()>;
    /// Ends `tx`: keeps what it did when `res` is `Ok`, else undoes it.
    fn finish<R>(&self, tx: Self::Tx<'_>, res: Result<R>) -> Result<R>;
}

/// A family's inode.
pub type Node<F> = Inode<<F as Files>::State>;

/// A family's inode handle, or why there is none.
pub type InodeResult<F> = Result<Arc<Node<F>>>;

/// Looks `name` up in directory `dir` (`state`, locked by the caller)
/// through its name index, built on first use.
fn lookup<F: Namespace>(fs: &F, dir: &Node<F>, state: &F::State, name: &str) -> Entry {
    let build = || fs.index(state);
    let found = fs.namei().index(&mut dir.names.lock(), build)?.get(name);
    if found.is_some() {
        fs.namei().hits.fetch_add(1, Relaxed);
        crate::namei::charge(fs.device(), entry_len(name.len()));
    }
    Ok(found)
}

/// What a name resolves to in a directory.
type Entry = Result<Option<(Ino, FileType)>>;

/// Runs `edit` on directory `dir`'s name index under its write lock
/// (`state`), the index built on first use, keeping the entries gauge in
/// step. An edit that fails partway drops the index; the next lookup
/// rebuilds it from what reached the media.
pub fn edit_names<F: Namespace, R>(
    fs: &F,
    dir: &Inode<F::State>,
    state: &mut F::State,
    edit: impl FnOnce(&mut NameIndex, &mut F::State) -> Result<R>,
) -> Result<R> {
    let (namei, names) = (fs.namei(), &mut *dir.names.lock());
    let index = namei.index(names, || fs.index(state))?;
    let before = index.len() as u64;
    let out = edit(index, state);
    let delta = (index.len() as u64).wrapping_sub(before);
    namei.entries.fetch_add(delta, Relaxed);
    if out.is_err() {
        namei.forget(names);
    }
    out
}

/// Walks `comps` from the root: a file in mid-path is `NotADirectory`.
fn walk<F: Namespace>(fs: &F, comps: &[&str]) -> InodeResult<F> {
    let mut h = fs.inode(F::ROOT)?;
    for comp in comps {
        let next = {
            let state = h.state.read();
            if state.ftype() != FileType::Dir {
                return Err(FsError::NotADirectory);
            }
            lookup(fs, &h, &state, comp)?.ok_or(FsError::NotFound)?.0
        };
        h = fs.inode(next)?;
    }
    Ok(h)
}

/// Resolves a path to its inode handle.
pub fn resolve<F: Namespace>(fs: &F, path: &str) -> InodeResult<F> {
    walk(fs, &components(path)?)
}

/// Resolves a path's parent directory; returns it with the final name.
pub fn resolve_parent<'p, F: Namespace>(fs: &F, path: &'p str) -> Result<(Arc<Node<F>>, &'p str)> {
    let (parent_comps, name) = split_parent(path)?;
    let parent = walk(fs, &parent_comps)?;
    if parent.state.read().ftype() != FileType::Dir {
        return Err(FsError::NotADirectory);
    }
    Ok((parent, name))
}

/// Looks `name` up in directory `dir` under its read lock — "no such
/// name" when `dir` itself was removed.
fn entry<F: Namespace>(fs: &F, dir: &Node<F>, name: &str) -> Entry {
    let state = dir.state.read();
    if state.ftype() != FileType::Dir {
        return Err(FsError::NotADirectory);
    }
    if state.nlink() == 0 {
        return Err(FsError::NotFound);
    }
    lookup(fs, dir, &state, name)
}

/// Whether directory `state` (write-locked) may go: linked, and empty.
fn removable<F: Namespace>(fs: &F, state: &F::State) -> Result<()> {
    if state.nlink() == 0 {
        return Err(FsError::NotFound);
    }
    if !fs.list(state)?.is_empty() {
        return Err(FsError::DirectoryNotEmpty);
    }
    Ok(())
}

/// Creates entry `name` of type `ftype` under `parent`, entry locked.
fn create_node<F: Namespace>(
    fs: &F,
    parent: &Arc<Node<F>>,
    name: &str,
    ftype: FileType,
) -> InodeResult<F> {
    let mut tx = fs.begin(Reserve::Create)?;
    let res = (|| {
        let node = fs.create(&mut tx, ftype)?;
        let mut pstate = parent.state.write();
        if pstate.ftype() != FileType::Dir || pstate.nlink() == 0 {
            // Removed between resolution and the entry lock.
            return Err(FsError::NotFound);
        }
        fs.edit(
            &mut tx,
            parent,
            &mut pstate,
            Edit::Add(name, node.ino, ftype),
        )?;
        fs.stamp(&mut tx, parent, &mut pstate)?;
        Ok(node)
    })();
    fs.finish(tx, res)
}

/// Runs `edits` on directory `dir` under its write lock, then stamps it.
fn edit_stamped<F: Namespace>(
    fs: &F,
    tx: &mut F::Tx<'_>,
    dir: &Arc<Node<F>>,
    edits: &[Edit<&str>],
) -> Result<()> {
    let mut state = dir.state.write();
    for edit in edits {
        fs.edit(tx, dir, &mut state, edit.clone())?;
    }
    fs.stamp(tx, dir, &mut state)
}

/// Drops a link of `node` (write-locked: `state`): the last link of a
/// file no descriptor holds frees it; else the last close does.
fn unlink_node<'a, F: Namespace>(
    fs: &'a F,
    tx: &mut F::Tx<'a>,
    node: &Node<F>,
    state: &mut F::State,
) -> Result<()> {
    if state.nlink() == 1 && *node.opens.lock() == 0 {
        fs.free(tx, node, state)
    } else {
        fs.drop_link(tx, node, state)
    }
}

/// `open(2)`: the `O_CREAT`/`O_EXCL`/`O_TRUNC` table; a directory does
/// not open.
pub fn open<F: Namespace>(fs: &F, path: &str, flags: OpenFlags) -> Result<Fd> {
    fs.obs().op(OpKind::Open, || {
        fs.make_room();
        fs.device().env().charge_syscall();
        let (parent, name) = resolve_parent(fs, path)?;
        validate_name(name)?;
        let _locked = fs.lock_entries(&[(parent.ino, name)]);
        let create = flags.contains(OpenFlags::CREATE);
        let excl = create && flags.contains(OpenFlags::EXCL);
        let handle = match entry(fs, &parent, name)? {
            Some((_, FileType::Dir)) => return Err(FsError::IsADirectory),
            Some(_) if excl => return Err(FsError::AlreadyExists),
            Some((ino, _)) => fs.inode(ino)?,
            None if !create => return Err(FsError::NotFound),
            None => create_node(fs, &parent, name, FileType::File)?,
        };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            fs.resize(&handle, 0)?;
        }
        *handle.opens.lock() += 1;
        let ino = handle.ino;
        Ok(fs.fds().insert(OpenFile { ino, flags, handle }))
    })
}

/// `close(2)`. The last descriptor of an unlinked file frees it, decided
/// atomically with the descriptor count, `state` before `opens`.
pub fn close<F: Namespace>(fs: &F, fd: Fd) -> Result<()> {
    fs.obs().op(OpKind::Close, || {
        fs.make_room();
        fs.device().env().charge_syscall();
        let of = fs.fds().remove(fd)?;
        let orphan = {
            let state = of.handle.state.read();
            let mut opens = of.handle.opens.lock();
            *opens -= 1;
            *opens == 0 && state.nlink() == 0
        };
        if orphan {
            let mut tx = fs.begin(Reserve::Reap)?;
            let res = fs.free(&mut tx, &of.handle, &mut of.handle.state.write());
            fs.finish(tx, res)?;
        }
        Ok(())
    })
}

/// `unlink(2)`: a file's name; a directory is `IsADirectory`.
pub fn unlink<F: Namespace>(fs: &F, path: &str) -> Result<()> {
    fs.obs().op(OpKind::Unlink, || {
        fs.make_room();
        fs.device().env().charge_syscall();
        let (parent, name) = resolve_parent(fs, path)?;
        let _locked = fs.lock_entries(&[(parent.ino, name)]);
        let (ino, ftype) = entry(fs, &parent, name)?.ok_or(FsError::NotFound)?;
        if ftype != FileType::File {
            return Err(FsError::IsADirectory);
        }
        let child = fs.inode(ino)?;
        let mut tx = fs.begin(Reserve::Remove)?;
        let res = (|| {
            edit_stamped(fs, &mut tx, &parent, &[Edit::Remove(name)])?;
            unlink_node(fs, &mut tx, &child, &mut child.state.write())
        })();
        fs.finish(tx, res)
    })
}

/// `mkdir(2)`.
pub fn mkdir<F: Namespace>(fs: &F, path: &str) -> Result<()> {
    fs.make_room();
    fs.device().env().charge_syscall();
    let (parent, name) = resolve_parent(fs, path)?;
    validate_name(name)?;
    let _locked = fs.lock_entries(&[(parent.ino, name)]);
    if entry(fs, &parent, name)?.is_some() {
        return Err(FsError::AlreadyExists);
    }
    create_node(fs, &parent, name, FileType::Dir).map(drop)
}

/// `rmdir(2)`: an empty directory; a file is `NotADirectory`.
pub fn rmdir<F: Namespace>(fs: &F, path: &str) -> Result<()> {
    fs.make_room();
    fs.device().env().charge_syscall();
    let (parent, name) = resolve_parent(fs, path)?;
    let _locked = fs.lock_entries(&[(parent.ino, name)]);
    let (ino, ftype) = entry(fs, &parent, name)?.ok_or(FsError::NotFound)?;
    if ftype != FileType::Dir {
        return Err(FsError::NotADirectory);
    }
    let child = fs.inode(ino)?;
    let mut tx = fs.begin(Reserve::Remove)?;
    let res = (|| {
        // Its write lock is held from the emptiness check through the
        // free, so a racing create into it lands first or finds it dead.
        let mut cstate = child.state.write();
        removable(fs, &cstate)?;
        edit_stamped(fs, &mut tx, &parent, &[Edit::Remove(name)])?;
        fs.free(&mut tx, &child, &mut cstate)
    })();
    fs.finish(tx, res)
}

/// `readdir(3)`.
pub fn readdir<F: Namespace>(fs: &F, path: &str) -> Result<Vec<DirEntry>> {
    fs.device().env().charge_syscall();
    let h = resolve(fs, path)?;
    let state = h.state.read();
    if state.ftype() != FileType::Dir {
        return Err(FsError::NotADirectory);
    }
    fs.list(&state)
}

/// `stat(2)`.
pub fn stat<F: Namespace>(fs: &F, path: &str) -> Result<Stat> {
    fs.device().env().charge_syscall();
    Ok(resolve(fs, path)?.stat())
}

/// `fstat(2)`.
pub fn fstat<F: Namespace>(fs: &F, fd: Fd) -> Result<Stat> {
    fs.device().env().charge_syscall();
    Ok(fs.fds().get(fd)?.handle.stat())
}

/// `rename(2)`. The same inode is a no-op; a file does not replace a
/// directory (`IsADirectory`), nor a directory a file (`NotADirectory`)
/// or a non-empty one; a directory does not move into its own subtree
/// (`InvalidArgument`). A replaced entry is pointed at the source in
/// place, in the transaction that unlinks its inode.
pub fn rename<F: Namespace>(fs: &F, from: &str, to: &str) -> Result<()> {
    fs.make_room();
    fs.device().env().charge_syscall();
    let (src_dir, src) = resolve_parent(fs, from)?;
    let (dst_dir, dst) = resolve_parent(fs, to)?;
    validate_name(dst)?;
    // No symlinks and no directory hard links: `to` lies under `from`
    // exactly when `from`'s components are a proper prefix of its own.
    let (from_comps, to_comps) = (components(from)?, components(to)?);
    if to_comps.len() > from_comps.len() && to_comps.starts_with(&from_comps) {
        return Err(FsError::InvalidArgument("rename into its own subtree"));
    }
    let _locked = fs.lock_entries(&[(src_dir.ino, src), (dst_dir.ino, dst)]);
    let (ino, ftype) = entry(fs, &src_dir, src)?.ok_or(FsError::NotFound)?;
    let victim = match entry(fs, &dst_dir, dst)? {
        None => None,
        Some((dino, _)) if dino == ino => return Ok(()),
        Some((_, FileType::Dir)) if ftype == FileType::File => return Err(FsError::IsADirectory),
        Some((_, FileType::File)) if ftype == FileType::Dir => return Err(FsError::NotADirectory),
        Some((dino, _)) => Some(fs.inode(dino)?),
    };
    let (same_dir, replace) = (Arc::ptr_eq(&src_dir, &dst_dir), victim.is_some());
    let name_len = dst.len();
    let mut tx = fs.begin(Reserve::Rename { name_len, replace })?;
    let res = (|| {
        let Some(victim) = &victim else {
            if !same_dir {
                edit_stamped(fs, &mut tx, &src_dir, &[Edit::Remove(src)])?;
                return edit_stamped(fs, &mut tx, &dst_dir, &[Edit::Add(dst, ino, ftype)]);
            }
            // In place when the new name fits the old record, so a full
            // directory does not grow; else add before remove — the new
            // entry may only land on bytes no record reached when the
            // transaction began.
            let mut pstate = src_dir.state.write();
            if !fs.edit(
                &mut tx,
                &src_dir,
                &mut pstate,
                Edit::Rewrite(src, dst, ino, ftype),
            )? {
                fs.edit(&mut tx, &src_dir, &mut pstate, Edit::Add(dst, ino, ftype))?;
                fs.edit(&mut tx, &src_dir, &mut pstate, Edit::Remove(src))?;
            }
            return fs.stamp(&mut tx, &src_dir, &mut pstate);
        };
        // The victim's write lock is held throughout: a directory is
        // checked empty under it, as in `rmdir`.
        let mut vstate = victim.state.write();
        if vstate.ftype() == FileType::Dir {
            removable(fs, &vstate)?;
        }
        let rewrite = Edit::Rewrite(dst, dst, ino, ftype);
        if same_dir {
            edit_stamped(fs, &mut tx, &dst_dir, &[rewrite, Edit::Remove(src)])?;
        } else {
            edit_stamped(fs, &mut tx, &dst_dir, &[rewrite])?;
            edit_stamped(fs, &mut tx, &src_dir, &[Edit::Remove(src)])?;
        }
        unlink_node(fs, &mut tx, victim, &mut vstate)
    })();
    fs.finish(tx, res)
}

/// The byte run `[off, off + len)` cut at block boundaries: for each
/// piece, its file block, its offset in that block, and its range within
/// the run.
pub fn chunks(off: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let pos = off + done as u64;
        let in_blk = (pos % BLOCK_SIZE as u64) as usize;
        let chunk = (BLOCK_SIZE - in_blk).min(len - done);
        let range = done..done + chunk;
        done += chunk;
        (chunk > 0).then_some((pos / BLOCK_SIZE as u64, in_blk, range))
    })
}

/// `read(2)` at `off`: a descriptor opened for reading, short at end of
/// file.
pub fn read<F: Files>(fs: &F, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
    fs.obs().op(OpKind::Read, || {
        fs.device().env().charge_syscall();
        let of = fs.fds().get(fd)?;
        if !of.flags.readable() {
            return Err(FsError::BadFd);
        }
        let state = of.handle.state.read();
        let n = buf.len().min(state.size().saturating_sub(off) as usize);
        if n > 0 {
            fs.read_data(&of, &state, off, &mut buf[..n])?;
        }
        Ok(n)
    })
}

/// The write path of `write`, `pwritev` and `append`: a descriptor
/// opened for writing, the run landing at `off`, or at end of file for
/// `None` or an `O_APPEND` descriptor; an empty run changes nothing.
/// Reserve, then apply: what the family's write could be refused for is
/// set aside before a byte moves. Returns where the run landed and its
/// length.
fn write_run<F: Files>(fs: &F, fd: Fd, off: Option<u64>, iovs: &[&[u8]]) -> Result<(u64, usize)> {
    fs.device().env().charge_syscall();
    let of = fs.fds().get(fd)?;
    if !of.flags.writable() {
        return Err(FsError::BadFd);
    }
    let mut state = of.handle.state.write();
    let start = match off {
        Some(off) if !of.flags.contains(OpenFlags::APPEND) => off,
        _ => state.size(),
    };
    let total: usize = iovs.iter().map(|s| s.len()).sum();
    if total > 0 {
        obsv::note_bytes(obsv::Layer::Logical, total as u64);
        let mut held = fs.reserve(&of, &mut state, start, iovs, total as u64)?;
        let res = fs.write_data(&of, state, start, iovs, &mut held);
        fs.release(held);
        res?;
    }
    Ok((start, total))
}

/// The file blocks of the write `[off, end)` that may be holes, judged
/// from the file's `size` and mapped-block count `blocks` alone: past
/// end of file when every block below it is mapped, else all of them. A
/// file maps no block past its last byte's.
pub fn maybe_holes(size: u64, blocks: u64, off: u64, end: u64) -> Range<u64> {
    let (block, below) = (BLOCK_SIZE as u64, size.div_ceil(BLOCK_SIZE as u64));
    let first = off / block;
    let first = if blocks >= below {
        first.max(below)
    } else {
        first
    };
    first..end.div_ceil(block).max(first)
}

/// `pwrite(2)`/`pwritev(2)`: the gather list `iovs` as one run at `off`.
pub fn write<F: Files>(fs: &F, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
    fs.obs()
        .op(OpKind::Write, || Ok(write_run(fs, fd, Some(off), iovs)?.1))
}

/// A write at end of file; returns where `data` landed.
pub fn append<F: Files>(fs: &F, fd: Fd, data: &[u8]) -> Result<u64> {
    fs.obs()
        .op(OpKind::Write, || Ok(write_run(fs, fd, None, &[data])?.0))
}

/// `fsync(2)`: any open descriptor.
pub fn fsync<F: Files>(fs: &F, fd: Fd) -> Result<()> {
    fs.obs().op(OpKind::Fsync, || {
        fs.device().env().charge_syscall();
        let of = fs.fds().get(fd)?;
        fs.fsync_data(&of)
    })
}

/// `ftruncate(2)`: a descriptor opened for writing; the resize is
/// `open`'s `O_TRUNC` one.
pub fn truncate<F: Files>(fs: &F, fd: Fd, size: u64) -> Result<()> {
    fs.obs().op(OpKind::Truncate, || {
        fs.make_room();
        fs.device().env().charge_syscall();
        let of = fs.fds().get(fd)?;
        if !of.flags.writable() {
            return Err(FsError::BadFd);
        }
        fs.resize(&of.handle, size)
    })
}

/// The data methods of a [`Files`] family's [`FileSystem`] impl: each is
/// the driver's. Invoked inside the `impl` block.
#[macro_export]
macro_rules! data_ops {
    () => {
        fn read(&self, fd: $crate::Fd, off: u64, buf: &mut [u8]) -> $crate::Result<usize> {
            $crate::vfs::read(self, fd, off, buf)
        }
        fn write(&self, fd: $crate::Fd, off: u64, data: &[u8]) -> $crate::Result<usize> {
            $crate::vfs::write(self, fd, off, &[data])
        }
        fn write_vectored(
            &self,
            fd: $crate::Fd,
            off: u64,
            iovs: &[&[u8]],
        ) -> $crate::Result<usize> {
            $crate::vfs::write(self, fd, off, iovs)
        }
        fn append(&self, fd: $crate::Fd, data: &[u8]) -> $crate::Result<u64> {
            $crate::vfs::append(self, fd, data)
        }
        fn fsync(&self, fd: $crate::Fd) -> $crate::Result<()> {
            $crate::vfs::fsync(self, fd)
        }
        fn truncate(&self, fd: $crate::Fd, size: u64) -> $crate::Result<()> {
            $crate::vfs::truncate(self, fd, size)
        }
    };
}

/// The namespace methods of a [`Namespace`] family's [`FileSystem`]
/// impl: each is the driver's. Invoked inside the `impl` block; with a
/// field name, the family is that field's (a layer over it).
#[macro_export]
macro_rules! namespace_ops {
    ($($via:ident)?) => {
        fn open(&self, path: &str, flags: $crate::OpenFlags) -> $crate::Result<$crate::Fd> {
            $crate::vfs::open(&*self $(.$via)?, path, flags)
        }
        fn close(&self, fd: $crate::Fd) -> $crate::Result<()> {
            $crate::vfs::close(&*self $(.$via)?, fd)
        }
        fn unlink(&self, path: &str) -> $crate::Result<()> {
            $crate::vfs::unlink(&*self $(.$via)?, path)
        }
        fn mkdir(&self, path: &str) -> $crate::Result<()> {
            $crate::vfs::mkdir(&*self $(.$via)?, path)
        }
        fn rmdir(&self, path: &str) -> $crate::Result<()> {
            $crate::vfs::rmdir(&*self $(.$via)?, path)
        }
        fn readdir(&self, path: &str) -> $crate::Result<Vec<$crate::DirEntry>> {
            $crate::vfs::readdir(&*self $(.$via)?, path)
        }
        fn stat(&self, path: &str) -> $crate::Result<$crate::Stat> {
            $crate::vfs::stat(&*self $(.$via)?, path)
        }
        fn fstat(&self, fd: $crate::Fd) -> $crate::Result<$crate::Stat> {
            $crate::vfs::fstat(&*self $(.$via)?, fd)
        }
        fn rename(&self, from: &str, to: &str) -> $crate::Result<()> {
            $crate::vfs::rename(&*self $(.$via)?, from, to)
        }
    };
}

/// Audit code 15 (`namei.index`) over a mount's cached inodes `nodes`:
/// every built index says exactly what its directory's blocks say
/// (`media`, the index they build, uncharged), and the entries gauge
/// sums them. Only handles that have an index are locked — the in-band
/// auditor runs under a *file's* inode lock.
pub fn audit_names<S>(
    rep: &mut AuditReport,
    namei: &NameiStats,
    nodes: Vec<Arc<Inode<S>>>,
    media: impl Fn(&S) -> Result<NameIndex>,
) {
    let mut held = 0;
    for h in nodes {
        if h.names.lock().is_none() {
            continue;
        }
        let state = h.state.read();
        let media = media(&state);
        if let Some(index) = h.names.lock().as_ref() {
            held += index.audit(rep, h.ino, media);
        }
    }
    namei.audit(rep, held);
}
