//! The durability oracle: what a file system **must**, **may**, and **must
//! not** show after a crash.
//!
//! The oracle shadows a replayed [`Script`](crate::script::Script) with a
//! model of every file's durability state, updated from each operation's
//! *observed* outcome:
//!
//! - **Acknowledged, synchronized** (`fsync`/`sync` returned `Ok`, or any
//!   acknowledged data op on an eager system like PMFS): the data **must**
//!   survive — recovered size is at least the synced size (`floor`) and
//!   every recovered byte below it equals the synced image or a later
//!   pending overwrite.
//! - **Acknowledged, lazy** (buffered writes not yet synced): the data
//!   **may** survive — each recovered byte must be the last synced value
//!   or the fill of some write covering it, and zero only where the model
//!   has no durable value (past the synced image, at or above a pending
//!   truncate, on a tainted file); recovered size never exceeds the
//!   largest size ever reached (`ceil`).
//! - **Namespace** operations must be all-or-nothing: on the eagerly
//!   journaled systems (PMFS, HiNFS) an acknowledged create/unlink/rename
//!   is durable on return (`MustExist`/`MustNotExist`); on EXT4 it is
//!   `MayExist` until a jbd commit point (fsync/sync) promotes it.
//! - An operation **in flight** at the crash, or one that failed with a
//!   clean error under fault injection, downgrades the affected state to
//!   its `may` form (and taints the file so later syncs stop asserting an
//!   exact image) — it never relaxes what was already guaranteed durable.
//!
//! [`Oracle::check`] walks the remounted file system and reports every
//! violation as a human-readable string; an empty list means the crash
//! schedule entry passed.

use std::collections::BTreeMap;

use fskit::{FileSystem, FileType, FsError, OpenFlags, Stat};
use workloads::setups::SystemKind;

use crate::script::{dir_path, file_path, Op, MAX_DIRS, MAX_FILES};

/// Whether an acknowledged data operation (write/append/truncate) is
/// already durable when the call returns — the *eager* judgment. True for
/// PMFS (in-place non-temporal stores plus a committed metadata
/// transaction before return); false for the buffered systems.
fn write_sync_on_ack(kind: SystemKind) -> bool {
    matches!(kind, SystemKind::Pmfs)
}

/// Whether an acknowledged namespace operation (create/unlink/mkdir/
/// rmdir/rename) is durable when the call returns. True for PMFS and
/// HiNFS (the undo-journal transaction commits before the syscall
/// returns); false for the ext family, where namespace changes only
/// become durable at a jbd commit point.
fn ns_sync(kind: SystemKind) -> bool {
    matches!(
        kind,
        SystemKind::Pmfs | SystemKind::Hinfs | SystemKind::HinfsNclfw | SystemKind::HinfsWb
    )
}

/// Durability class of a name after the operations so far.
// The shared `Exist` suffix is the domain language (must / must-not /
// may), not a naming accident.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NsState {
    /// The name must resolve after recovery.
    MustExist,
    /// The name must not resolve after recovery.
    MustNotExist,
    /// Either outcome is acceptable (operation not yet durable, or in
    /// flight at the crash).
    MayExist,
}

/// A write whose bytes may (but need not) have reached NVMM.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    off: u64,
    len: u64,
    fill: u8,
}

impl WriteRec {
    fn covers(&self, o: u64) -> bool {
        o >= self.off && o < self.off + self.len
    }
}

/// Durability model of one file slot.
#[derive(Debug, Clone)]
struct FileModel {
    /// Volatile truth: does the file exist right now (pre-crash)?
    live: bool,
    /// Volatile size right now.
    vsize: u64,
    /// Volatile content right now (trustworthy only while untainted).
    vimage: Vec<u8>,
    /// Durability of the name.
    ns: NsState,
    /// Last image known durable (`None`: never synchronized).
    synced: Option<Vec<u8>>,
    /// Recovered size must be at least this (when the file must exist).
    floor: u64,
    /// Recovered size must be at most this.
    ceil: u64,
    /// Writes since the last sync point: each byte they cover may hold
    /// their fill after recovery.
    pending: Vec<WriteRec>,
    /// A clean error touched this file: its volatile image is no longer
    /// exact, so syncs stop rebasing `synced` (bounds stay sound).
    tainted: bool,
    /// Alternative durable states (pre-rename/pre-recreate incarnations on
    /// lazily journaled systems). A `MayExist` file passes if any of the
    /// primary or alternative models accepts it.
    alts: Vec<FileModel>,
}

impl Default for FileModel {
    fn default() -> Self {
        FileModel {
            live: false,
            vsize: 0,
            vimage: Vec::new(),
            ns: NsState::MustNotExist,
            synced: None,
            floor: 0,
            ceil: 0,
            pending: Vec::new(),
            tainted: false,
            alts: Vec::new(),
        }
    }
}

impl FileModel {
    /// Is `b` an acceptable recovered value for byte `o`? A byte the last
    /// sync made durable comes back as that value or as a pending write's
    /// fill. Zero is a value like any other: it passes only past the
    /// synced image (or with none), at or above a pending truncate, under
    /// a write of fill 0, or on a tainted file.
    fn byte_ok(&self, o: u64, b: u8) -> bool {
        let synced = self.synced.as_ref().and_then(|s| s.get(o as usize));
        if synced == Some(&b) || self.pending.iter().any(|w| w.covers(o) && w.fill == b) {
            return true;
        }
        b == 0 && (synced.is_none() || o >= self.floor || self.tainted)
    }

    /// Marks the current volatile state durable (successful sync point).
    fn sync_point(&mut self) {
        self.floor = self.vsize;
        self.ceil = self.ceil.max(self.vsize);
        if !self.tainted {
            self.synced = Some(self.vimage.clone());
            self.pending.clear();
        }
    }

    /// Applies an acknowledged write of `len` bytes of `fill` at `off`.
    fn apply_write(&mut self, off: u64, len: u64, fill: u8, eager: bool) {
        let end = off + len;
        if end > self.vsize {
            self.vimage.resize(end as usize, 0);
            self.vsize = end;
        }
        self.vimage[off as usize..end as usize].fill(fill);
        self.pending.push(WriteRec { off, len, fill });
        self.ceil = self.ceil.max(self.vsize);
        if eager {
            self.sync_point();
        }
    }
}

/// Durability model of one directory slot.
#[derive(Debug, Clone, Copy)]
struct DirModel {
    live: bool,
    ns: NsState,
}

impl Default for DirModel {
    fn default() -> Self {
        DirModel {
            live: false,
            ns: NsState::MustNotExist,
        }
    }
}

/// Result of one post-recovery check.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Individual assertions evaluated.
    pub checks: u64,
    /// Human-readable violations (empty = pass).
    pub violations: Vec<String>,
}

/// The per-run durability oracle. Feed it every operation outcome with
/// [`Oracle::apply`] / [`Oracle::apply_crashed`], then [`Oracle::check`]
/// the remounted file system.
#[derive(Debug)]
pub struct Oracle {
    kind: SystemKind,
    files: BTreeMap<u8, FileModel>,
    dirs: BTreeMap<u8, DirModel>,
}

impl Oracle {
    /// A fresh oracle for one run against `kind`.
    pub fn new(kind: SystemKind) -> Oracle {
        Oracle {
            kind,
            files: BTreeMap::new(),
            dirs: BTreeMap::new(),
        }
    }

    /// Whether `op` failing is the *expected* outcome of the current
    /// volatile state (operating on a missing file, re-creating a live
    /// directory) rather than an injected fault.
    fn expected_failure(&self, op: &Op) -> bool {
        let file_live = |id: &u8| self.files.get(id).is_some_and(|f| f.live);
        let dir_live = |id: &u8| self.dirs.get(id).is_some_and(|d| d.live);
        match op {
            Op::Create { .. } | Op::Sync | Op::Tick => false,
            Op::Write { file, .. }
            | Op::Append { file, .. }
            | Op::Fsync { file }
            | Op::Truncate { file, .. }
            | Op::Unlink { file } => !file_live(file),
            Op::Rename { from, to } => !file_live(from) || from == to,
            Op::Mkdir { dir } => dir_live(dir),
            Op::Rmdir { dir } => !dir_live(dir),
        }
    }

    /// Updates the model from one completed (non-crashed) operation.
    pub fn apply(&mut self, op: &Op, result: &Result<(), FsError>) {
        match result {
            Ok(()) => self.apply_ok(op),
            Err(_) if self.expected_failure(op) => {}
            Err(_) => self.apply_clean_error(op),
        }
    }

    fn apply_ok(&mut self, op: &Op) {
        let eager = write_sync_on_ack(self.kind);
        let ns_sync = ns_sync(self.kind);
        match *op {
            Op::Create { file } => {
                let m = self.files.entry(file).or_default();
                if !m.live {
                    let old = std::mem::take(m);
                    m.live = true;
                    if ns_sync {
                        // Durable empty file; prior incarnations are gone.
                        m.ns = NsState::MustExist;
                        m.synced = Some(Vec::new());
                    } else {
                        // Not yet committed: the crash may land on nothing,
                        // the new empty file, or (if the old unlink was
                        // also uncommitted) the previous incarnation.
                        m.ns = NsState::MayExist;
                        if old.ns != NsState::MustNotExist {
                            let mut prior = old;
                            let mut alts = std::mem::take(&mut prior.alts);
                            alts.push(prior);
                            m.alts = alts;
                        }
                    }
                }
            }
            Op::Write {
                file,
                off,
                len,
                fill,
            } => {
                let m = self.files.entry(file).or_default();
                m.apply_write(off, len as u64, fill, eager);
            }
            Op::Append { file, len, fill } => {
                let m = self.files.entry(file).or_default();
                m.apply_write(m.vsize, len as u64, fill, eager);
            }
            Op::Fsync { file } => {
                let m = self.files.entry(file).or_default();
                m.sync_point();
                // On the jbd systems the fsync commit also makes this
                // file's acknowledged namespace state durable.
                m.ns = NsState::MustExist;
                m.alts.clear();
            }
            Op::Truncate { file, size } => {
                let m = self.files.entry(file).or_default();
                m.vimage.resize(size as usize, 0);
                m.vsize = size;
                m.ceil = m.ceil.max(size);
                m.floor = m.floor.min(size);
                if eager {
                    m.sync_point();
                }
            }
            Op::Unlink { file } => {
                let m = self.files.entry(file).or_default();
                m.live = false;
                if ns_sync {
                    m.ns = NsState::MustNotExist;
                    m.alts.clear();
                } else {
                    m.ns = NsState::MayExist;
                }
            }
            Op::Rename { from, to } => {
                if from == to {
                    return;
                }
                let mut src = self.files.remove(&from).unwrap_or_default();
                let old_dst = self.files.remove(&to).unwrap_or_default();
                if ns_sync {
                    // Atomic durable replace: destination is the source
                    // file, the source name is gone, the old destination
                    // can never resurface.
                    src.ns = NsState::MustExist;
                    src.alts.clear();
                    self.files.insert(to, src);
                    self.files.insert(
                        from,
                        FileModel {
                            ns: NsState::MustNotExist,
                            ..FileModel::default()
                        },
                    );
                } else {
                    // Uncommitted: the destination may be the moved file
                    // or still the old one; the source name may linger.
                    let mut ghost = src.clone();
                    ghost.live = false;
                    ghost.ns = NsState::MayExist;
                    src.ns = NsState::MayExist;
                    if old_dst.ns != NsState::MustNotExist {
                        let mut prior = old_dst;
                        src.alts.append(&mut prior.alts);
                        src.alts.push(prior);
                    }
                    self.files.insert(to, src);
                    self.files.insert(from, ghost);
                }
            }
            Op::Mkdir { dir } => {
                let d = self.dirs.entry(dir).or_default();
                d.live = true;
                d.ns = if ns_sync {
                    NsState::MustExist
                } else {
                    NsState::MayExist
                };
            }
            Op::Rmdir { dir } => {
                let d = self.dirs.entry(dir).or_default();
                d.live = false;
                d.ns = if ns_sync {
                    NsState::MustNotExist
                } else {
                    NsState::MayExist
                };
            }
            Op::Sync => {
                // Everything acknowledged so far is now durable.
                for m in self.files.values_mut() {
                    if m.live {
                        m.sync_point();
                        m.ns = NsState::MustExist;
                    } else {
                        m.ns = NsState::MustNotExist;
                    }
                    m.alts.clear();
                }
                for d in self.dirs.values_mut() {
                    d.ns = if d.live {
                        NsState::MustExist
                    } else {
                        NsState::MustNotExist
                    };
                }
            }
            Op::Tick => {}
        }
    }

    /// A clean error on an operation expected to succeed (fault
    /// injection): data ops may have partially applied; the hardened
    /// namespace paths are all-or-nothing, so their model is untouched.
    fn apply_clean_error(&mut self, op: &Op) {
        match *op {
            Op::Write {
                file,
                off,
                len,
                fill,
            } => {
                let m = self.files.entry(file).or_default();
                m.pending.push(WriteRec {
                    off,
                    len: len as u64,
                    fill,
                });
                m.ceil = m.ceil.max(off + len as u64);
                m.tainted = true;
            }
            Op::Append { file, len, fill } => {
                let m = self.files.entry(file).or_default();
                m.pending.push(WriteRec {
                    off: m.vsize,
                    len: len as u64,
                    fill,
                });
                m.ceil = m.ceil.max(m.vsize + len as u64);
                m.tainted = true;
            }
            Op::Truncate { file, size } => {
                let m = self.files.entry(file).or_default();
                m.floor = m.floor.min(size);
                m.ceil = m.ceil.max(size);
                m.tainted = true;
            }
            // Fsync/sync failures flush nothing new that `pending` does
            // not already allow; hardened namespace ops roll back cleanly.
            _ => {}
        }
    }

    /// Updates the model for the operation that was in flight when the
    /// crash fired: any prefix of its effects may be durable.
    pub fn apply_crashed(&mut self, op: &Op) {
        if self.expected_failure(op) {
            return; // would have failed before touching anything durable
        }
        match *op {
            Op::Create { file } => {
                let m = self.files.entry(file).or_default();
                if !m.live {
                    m.ns = NsState::MayExist;
                }
            }
            Op::Write {
                file,
                off,
                len,
                fill,
            } => {
                let m = self.files.entry(file).or_default();
                m.pending.push(WriteRec {
                    off,
                    len: len as u64,
                    fill,
                });
                m.ceil = m.ceil.max(off + len as u64);
            }
            Op::Append { file, len, fill } => {
                let m = self.files.entry(file).or_default();
                m.pending.push(WriteRec {
                    off: m.vsize,
                    len: len as u64,
                    fill,
                });
                m.ceil = m.ceil.max(m.vsize + len as u64);
            }
            Op::Fsync { .. } | Op::Sync | Op::Tick => {}
            Op::Truncate { file, size } => {
                let m = self.files.entry(file).or_default();
                m.floor = m.floor.min(size);
                m.ceil = m.ceil.max(size);
            }
            Op::Unlink { file } => {
                let m = self.files.entry(file).or_default();
                m.ns = NsState::MayExist;
            }
            Op::Rename { from, to } => {
                // The source name becomes uncertain; the destination may
                // hold either file's content. A destination that had to
                // exist still does: a replace is one atomic step.
                let src_model = self.files.get(&from).cloned().unwrap_or_default();
                let dst = self.files.entry(to).or_default();
                if dst.ns != NsState::MustExist {
                    dst.ns = NsState::MayExist;
                }
                dst.alts.push(src_model);
                let src = self.files.entry(from).or_default();
                src.ns = NsState::MayExist;
            }
            Op::Mkdir { dir } | Op::Rmdir { dir } => {
                let d = self.dirs.entry(dir).or_default();
                d.ns = NsState::MayExist;
            }
        }
    }

    /// Checks the remounted file system against the model.
    pub fn check(&self, fs: &dyn FileSystem) -> CheckReport {
        let mut rep = CheckReport::default();
        self.check_root_listing(fs, &mut rep);
        for (&id, m) in &self.files {
            self.check_file(fs, id, m, &mut rep);
        }
        for (&id, d) in &self.dirs {
            self.check_dir(fs, id, d, &mut rep);
        }
        rep
    }

    /// Every root dirent must be a name the script could have created, and
    /// must be statable (no dangling entries).
    fn check_root_listing(&self, fs: &dyn FileSystem, rep: &mut CheckReport) {
        rep.checks += 1;
        let ents = match fs.readdir("/") {
            Ok(e) => e,
            Err(e) => {
                rep.violations.push(format!("readdir / failed: {e:?}"));
                return;
            }
        };
        for ent in ents {
            rep.checks += 1;
            let known = match (ent.name.strip_prefix('f'), ent.name.strip_prefix('d')) {
                (Some(n), _) => n.parse::<u8>().is_ok_and(|i| i < MAX_FILES),
                (_, Some(n)) => n.parse::<u8>().is_ok_and(|i| i < MAX_DIRS),
                _ => false,
            };
            if !known {
                rep.violations
                    .push(format!("unexpected root entry {:?}", ent.name));
                continue;
            }
            if let Err(e) = fs.stat(&format!("/{}", ent.name)) {
                rep.violations
                    .push(format!("dangling dirent {:?}: {e:?}", ent.name));
            }
        }
    }

    fn check_file(&self, fs: &dyn FileSystem, id: u8, m: &FileModel, rep: &mut CheckReport) {
        let path = file_path(id);
        rep.checks += 1;
        match m.ns {
            NsState::MustExist => match fs.stat(&path) {
                Err(e) => rep
                    .violations
                    .push(format!("{path}: must exist, stat failed: {e:?}")),
                Ok(st) if st.ftype != FileType::File => rep
                    .violations
                    .push(format!("{path}: expected a file, found {:?}", st.ftype)),
                Ok(st) => {
                    rep.checks += 1;
                    if let Err(v) = content_ok_any(fs, &path, st, m, true) {
                        rep.violations.push(v);
                    }
                }
            },
            NsState::MustNotExist => match fs.stat(&path) {
                Ok(_) => rep
                    .violations
                    .push(format!("{path}: must not exist, but stat succeeded")),
                Err(FsError::NotFound) => {}
                Err(e) => rep
                    .violations
                    .push(format!("{path}: expected NotFound, got {e:?}")),
            },
            NsState::MayExist => match fs.stat(&path) {
                Err(FsError::NotFound) => {}
                Err(e) => rep
                    .violations
                    .push(format!("{path}: expected file or NotFound, got {e:?}")),
                Ok(st) => {
                    rep.checks += 1;
                    if st.ftype != FileType::File {
                        rep.violations
                            .push(format!("{path}: expected a file, found {:?}", st.ftype));
                        return;
                    }
                    if let Err(v) = content_ok_any(fs, &path, st, m, false) {
                        rep.violations.push(v);
                    }
                }
            },
        }
    }

    fn check_dir(&self, fs: &dyn FileSystem, id: u8, d: &DirModel, rep: &mut CheckReport) {
        let path = dir_path(id);
        rep.checks += 1;
        match d.ns {
            NsState::MustExist => match fs.stat(&path) {
                Err(e) => rep
                    .violations
                    .push(format!("{path}: must exist, stat failed: {e:?}")),
                Ok(st) if st.ftype != FileType::Dir => rep
                    .violations
                    .push(format!("{path}: expected a dir, found {:?}", st.ftype)),
                Ok(_) => {
                    if let Err(e) = fs.readdir(&path) {
                        rep.violations
                            .push(format!("{path}: readdir failed: {e:?}"));
                    }
                }
            },
            NsState::MustNotExist => match fs.stat(&path) {
                Ok(_) => rep
                    .violations
                    .push(format!("{path}: must not exist, but stat succeeded")),
                Err(FsError::NotFound) => {}
                Err(e) => rep
                    .violations
                    .push(format!("{path}: expected NotFound, got {e:?}")),
            },
            NsState::MayExist => match fs.stat(&path) {
                Ok(st) if st.ftype != FileType::Dir => rep
                    .violations
                    .push(format!("{path}: expected a dir, found {:?}", st.ftype)),
                _ => {}
            },
        }
    }
}

/// Validates a recovered file against `m` or, failing that, any of its
/// alternative states; the error is the primary model's.
fn content_ok_any(
    fs: &dyn FileSystem,
    path: &str,
    st: Stat,
    m: &FileModel,
    must: bool,
) -> Result<(), String> {
    let primary = content_ok(fs, path, st, m, must);
    if primary.is_ok()
        || m.alts
            .iter()
            .any(|alt| content_ok(fs, path, st, alt, must).is_ok())
    {
        return Ok(());
    }
    if m.alts.is_empty() {
        return primary;
    }
    primary.map_err(|v| format!("{v} (no alternative state matches)"))
}

/// Validates a recovered file's size and bytes against one model.
fn content_ok(
    fs: &dyn FileSystem,
    path: &str,
    st: Stat,
    m: &FileModel,
    must: bool,
) -> Result<(), String> {
    if must && st.size < m.floor {
        return Err(format!(
            "{path}: recovered size {} below synced floor {}",
            st.size, m.floor
        ));
    }
    if st.size > m.ceil {
        return Err(format!(
            "{path}: recovered size {} above ceiling {}",
            st.size, m.ceil
        ));
    }
    let fd = fs
        .open(path, OpenFlags::READ)
        .map_err(|e| format!("{path}: open for check failed: {e:?}"))?;
    let mut buf = vec![0u8; st.size as usize];
    let n = fs
        .read(fd, 0, &mut buf)
        .map_err(|e| format!("{path}: read for check failed: {e:?}"))?;
    let _ = fs.close(fd);
    if n as u64 != st.size {
        return Err(format!("{path}: short read {} of stat size {}", n, st.size));
    }
    for (o, &b) in buf.iter().enumerate() {
        if !m.byte_ok(o as u64, b) {
            return Err(format!(
                "{path}: byte {o} = {b:#04x} matches neither the synced \
                 image, any pending write, nor a hole"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_and_judgments() {
        assert_eq!(SystemKind::Pmfs.label(), "pmfs");
        assert!(write_sync_on_ack(SystemKind::Pmfs));
        assert!(!write_sync_on_ack(SystemKind::Hinfs));
        assert!(ns_sync(SystemKind::Hinfs));
        assert!(!ns_sync(SystemKind::Ext4Bd));
    }

    /// A file whose last sync made `image` durable.
    fn synced(image: &[u8]) -> FileModel {
        FileModel {
            live: true,
            vsize: image.len() as u64,
            vimage: image.to_vec(),
            ns: NsState::MustExist,
            synced: Some(image.to_vec()),
            floor: image.len() as u64,
            ceil: image.len() as u64,
            ..FileModel::default()
        }
    }

    #[test]
    fn a_zero_over_a_synced_nonzero_byte_is_a_violation() {
        let m = synced(&[7, 7, 7, 7]);
        assert!(m.byte_ok(1, 7));
        assert!(!m.byte_ok(1, 0), "the sync made 7 durable");
        assert!(!m.byte_ok(1, 9), "no write of 9 is pending");
    }

    #[test]
    fn zero_passes_past_the_synced_image() {
        let m = synced(&[7, 7]);
        assert!(m.byte_ok(2, 0));
        assert!(m.byte_ok(4096, 0));
    }

    #[test]
    fn zero_passes_where_the_synced_byte_is_zero_or_nothing_was_synced() {
        let m = synced(&[7, 0, 7]);
        assert!(m.byte_ok(1, 0));
        assert!(!m.byte_ok(0, 0));
        let never = FileModel::default();
        assert!(never.byte_ok(0, 0));
        assert!(!never.byte_ok(0, 7), "nothing wrote a 7");
    }

    #[test]
    fn zero_passes_at_or_above_a_pending_truncate() {
        let mut m = synced(&[7; 8]);
        m.floor = 5;
        assert!(!m.byte_ok(4, 0));
        assert!(m.byte_ok(5, 0));
        assert!(m.byte_ok(7, 0));
    }

    #[test]
    fn zero_passes_under_a_pending_write_of_fill_zero() {
        let mut m = synced(&[7; 8]);
        m.pending.push(WriteRec {
            off: 2,
            len: 2,
            fill: 0,
        });
        assert!(!m.byte_ok(1, 0));
        assert!(m.byte_ok(2, 0));
        assert!(m.byte_ok(3, 0));
        assert!(!m.byte_ok(4, 0));
    }

    #[test]
    fn zero_passes_on_a_tainted_file() {
        let mut m = synced(&[7; 8]);
        m.tainted = true;
        assert!(m.byte_ok(0, 0));
        assert!(!m.byte_ok(0, 9), "taint admits zero, not any value");
    }

    #[test]
    fn a_pending_write_admits_its_fill_over_the_synced_image() {
        let mut m = synced(&[7; 8]);
        m.pending.push(WriteRec {
            off: 0,
            len: 4,
            fill: 9,
        });
        assert!(m.byte_ok(3, 9) && m.byte_ok(3, 7));
        assert!(!m.byte_ok(4, 9));
    }
}
