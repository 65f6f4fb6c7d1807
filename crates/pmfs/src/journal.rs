//! Cacheline-granular metadata undo journal, after PMFS.
//!
//! The journal is a region of 64 B entries, each carrying up to 40 B of
//! *old* metadata content, a generation number, and a valid flag written
//! last (the paper leverages the architectural guarantee that stores to
//! one cacheline are not reordered, so a persistent valid flag implies a
//! complete entry).
//!
//! Like PMFS, the journal persists **no head or tail pointer** on the hot
//! path — that is the point of the valid flag + generation design. Entries
//! of the current generation are written contiguously from slot 0;
//! recovery simply scans from slot 0 while it sees valid current-generation
//! entries. When every transaction has resolved and the region is past
//! half full, the generation number is bumped (one 8-byte persist) which
//! retires every written entry at once.
//!
//! Transaction protocol (undo logging):
//!
//! 1. [`Journal::begin`] a transaction.
//! 2. [`Journal::log_range`] the *current* content of what a rollback must
//!    restore (of an inode a namespace op creates or frees: word 0). Entries
//!    are flushed and fenced — then the caller may overwrite it in place.
//! 3. [`Journal::commit`] appends a commit entry. Until the commit entry is
//!    persistent, recovery undoes the transaction.
//!
//! HiNFS's ordered data mode relies on the gap between steps 2 and 3: a
//! lazy-persistent write logs and applies its metadata immediately but
//! holds the [`TxHandle`] open until the background writeback has persisted
//! the corresponding DRAM data blocks, and only then commits (paper §4.1).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE, CACHELINE};
use obsv::{Phase, Site, TraceEvent, TraceRing, TrackedMutex};

use crate::layout::Layout;

obsv::counter_set! {
    /// Hot-path journal activity counters.
    pub struct JournalStats, snapshot JournalSnapshot, prefix "pmfs_journal_" {
        /// Transactions opened.
        pub begins,
        /// Transactions committed.
        pub commits,
        /// Transactions aborted (rolled back immediately).
        pub aborts,
        /// Undo entries appended.
        pub undo_entries,
    }
}

/// Size of one log entry: one cacheline.
pub const ENTRY_SIZE: usize = CACHELINE;

/// Maximum undo payload per entry.
pub const PAYLOAD: usize = 40;

const KIND_UNDO: u8 = 1;
const KIND_COMMIT: u8 = 2;
const VALID_MAGIC: u8 = 0xA5;

/// A decoded log entry. The payload lives inline (`data[..len]`), so
/// logging and recovery allocate nothing per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    txid: u32,
    kind: u8,
    gen: u32,
    addr: u64,
    len: u8,
    data: [u8; PAYLOAD],
}

impl Entry {
    /// A commit record for `txid`.
    fn commit(txid: u32, gen: u32) -> Entry {
        Entry {
            txid,
            kind: KIND_COMMIT,
            gen,
            addr: 0,
            len: 0,
            data: [0; PAYLOAD],
        }
    }

    fn payload(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }
}

fn checksum(buf: &[u8; ENTRY_SIZE]) -> u16 {
    // Fletcher-style sum (mod 255) over the entry with the csum field
    // (bytes 6..8) treated as zero. The sums of 64 bytes stay far below
    // `u32::MAX`, so the reduction is done once at the end: same value as
    // reducing at every byte, without 128 divisions per entry.
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if !(6..8).contains(&i) {
            a += byte as u32;
        }
        b += a;
    }
    (((b % 255) << 8) | (a % 255)) as u16
}

fn encode(e: &Entry) -> [u8; ENTRY_SIZE] {
    debug_assert!(e.len as usize <= PAYLOAD);
    let mut buf = [0u8; ENTRY_SIZE];
    buf[0..4].copy_from_slice(&e.txid.to_le_bytes());
    buf[4] = e.kind;
    buf[5] = e.len;
    buf[8..16].copy_from_slice(&e.addr.to_le_bytes());
    buf[16..16 + e.len as usize].copy_from_slice(e.payload());
    buf[56..60].copy_from_slice(&e.gen.to_le_bytes());
    buf[63] = VALID_MAGIC;
    let c = checksum(&buf);
    buf[6..8].copy_from_slice(&c.to_le_bytes());
    buf
}

/// Decodes an entry slot; `Ok(None)` when the slot holds no valid entry
/// (zeroed or torn).
fn decode(buf: &[u8; ENTRY_SIZE]) -> Option<Entry> {
    if buf[63] != VALID_MAGIC {
        return None;
    }
    let stored = u16::from_le_bytes([buf[6], buf[7]]);
    if checksum(buf) != stored {
        return None;
    }
    let len = buf[5] as usize;
    if len > PAYLOAD {
        return None;
    }
    let mut data = [0u8; PAYLOAD];
    data[..len].copy_from_slice(&buf[16..16 + len]);
    Some(Entry {
        txid: u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]),
        kind: buf[4],
        gen: fskit::le::u32_at(buf, 56),
        addr: fskit::le::u64_at(buf, 8),
        len: len as u8,
        data,
    })
}

/// An open transaction. Must be resolved with [`Journal::commit`] or
/// [`Journal::abort`]; dropping it leaks journal space until the next
/// quiesce.
#[must_use = "transactions must be committed or aborted"]
#[derive(Debug)]
pub struct TxHandle {
    txid: u32,
    /// Undo slots set aside for this transaction at begin and not logged
    /// yet (`Journal::begin_reserving`); zero for a plain `begin`.
    reserved: Cell<u64>,
}

impl TxHandle {
    /// The transaction id (diagnostics).
    pub fn txid(&self) -> u32 {
        self.txid
    }
}

/// Journal room set aside for one transaction not opened yet: its commit
/// slot and `undo` undo slots ([`Journal::reserve`]). Spent by
/// [`Journal::begin_reserved`] or given back by [`Journal::unreserve`];
/// dropped, it leaks the room until the next mount.
#[must_use = "credits must be spent or given back"]
#[derive(Debug)]
pub struct Credits {
    undo: u64,
}

/// Undo entries the ranges take.
fn undo_slots(ranges: &[(u64, usize)]) -> u64 {
    ranges
        .iter()
        .map(|&(_, len)| len.div_ceil(PAYLOAD) as u64)
        .sum()
}

#[derive(Debug)]
struct TxRec {
    txid: u32,
    start: u64,
    committed: bool,
}

#[derive(Debug)]
struct JInner {
    /// First entry that may belong to an unresolved transaction.
    head: u64,
    /// Next free entry slot (entries fill `0..tail` within a generation).
    tail: u64,
    /// Current generation (mirrors the persisted header field).
    gen: u64,
    next_txid: u32,
    /// Open/uncollected transactions in begin order (txids ascend).
    txs: VecDeque<TxRec>,
    /// Number of uncommitted records in `txs` — each holds one commit
    /// slot. One old open transaction pins every later record in the
    /// deque, so this is kept as a count, never recounted on a hot path.
    open: u64,
    /// Undo slots set aside and not yet logged, summed over the open
    /// handles (each carries its own share in `TxHandle::reserved`), plus
    /// each outstanding [`Credits`]' undo and commit slots.
    undo_reserved: u64,
}

impl JInner {
    /// Entries neither written nor promised to an open transaction.
    fn free(&self, capacity: u64) -> u64 {
        capacity.saturating_sub(self.tail + self.open + self.undo_reserved)
    }

    /// The record of `txid` while it is in the deque (txids ascend with
    /// begin order, so binary search).
    fn rec_mut(&mut self, txid: u32) -> Option<&mut TxRec> {
        let i = self.txs.partition_point(|t| t.txid < txid);
        self.txs.get_mut(i).filter(|t| t.txid == txid)
    }
}

/// One coherent reading of the journal region's occupancy (all fields
/// taken under a single lock hold; see [`Journal::usage`]). Every open
/// transaction reserves one commit-entry slot: `reserved_entries` is the
/// running count `begin`/commit/abort maintain (what the reservation
/// checks use), `open_txs` a recount of the transaction records, and the
/// auditor requires the two to agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalUsage {
    /// Total undo-entry slots in the region.
    pub capacity_entries: u64,
    /// Entries logged in the current generation (the log tail).
    pub fill_entries: u64,
    /// Commit slots reserved by uncommitted transactions (running count).
    pub reserved_entries: u64,
    /// Undo slots set aside for an inode-core update and not yet logged
    /// (zero outside such a transaction's begin-to-log window), and the
    /// slots of credits no transaction was opened with yet.
    pub undo_reserved_entries: u64,
    /// Entries available to `begin`/`log_range`.
    pub free_entries: u64,
    /// Transactions begun and not yet committed or aborted (recounted).
    pub open_txs: u64,
    /// Current generation counter.
    pub generation: u64,
}

impl JournalUsage {
    /// The reading as an introspection snapshot section; both kinds of
    /// reservation count as reserved there, so that fill + reserved + free
    /// is the capacity.
    pub fn snap(&self) -> obsv::JournalSnap {
        obsv::JournalSnap {
            capacity_entries: self.capacity_entries,
            fill_entries: self.fill_entries,
            reserved_entries: self.reserved_entries + self.undo_reserved_entries,
            free_entries: self.free_entries,
            open_txs: self.open_txs,
            generation: self.generation,
        }
    }
}

/// Statistics returned by [`Journal::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Entries scanned in the live region.
    pub scanned: u64,
    /// Transactions that lacked a commit entry and were rolled back.
    pub txs_undone: u64,
    /// Undo entries applied.
    pub entries_undone: u64,
}

/// The metadata undo journal.
#[derive(Debug)]
pub struct Journal {
    dev: Arc<NvmmDevice>,
    /// Byte offset of the journal header block.
    hdr: u64,
    /// Byte offset of the first entry.
    area: u64,
    /// Region capacity in entries (one generation's budget).
    capacity: u64,
    inner: TrackedMutex<JInner>,
    stats: Arc<JournalStats>,
    /// Trace ring shared with the owning file system, installed after
    /// mount (commits then appear on the same timeline as writeback).
    trace: OnceLock<Arc<TraceRing>>,
}

impl Journal {
    /// Formats the journal region: generation 1, no entries.
    pub fn format(dev: &NvmmDevice, layout: &Layout) {
        let hdr = Layout::block_off(layout.journal_start);
        dev.write_u64_persist(Cat::Journal, hdr, 1);
        dev.sfence();
        // Invalidate slot 0 so a scan of a freshly formatted region stops
        // immediately.
        dev.write_persist(Cat::Journal, hdr + BLOCK_SIZE as u64, &[0u8; ENTRY_SIZE]);
        dev.sfence();
    }

    /// Opens the journal. Run [`Journal::recover`] first after any mount —
    /// it leaves the region quiesced (fresh generation, no live entries).
    pub fn open(dev: Arc<NvmmDevice>, layout: &Layout) -> Result<Journal> {
        assert!(layout.journal_blocks >= 2, "journal needs header + entries");
        let hdr = Layout::block_off(layout.journal_start);
        let gen = dev.read_u64(Cat::Journal, hdr);
        if gen == 0 {
            return Err(FsError::Corrupted("journal generation"));
        }
        let capacity = (layout.journal_blocks - 1) * (BLOCK_SIZE / ENTRY_SIZE) as u64;
        Ok(Journal {
            area: hdr + BLOCK_SIZE as u64,
            hdr,
            capacity,
            inner: TrackedMutex::new(
                dev.contention(),
                Site::PmfsJournal,
                JInner {
                    head: 0,
                    tail: 0,
                    gen,
                    next_txid: 1,
                    txs: VecDeque::new(),
                    open: 0,
                    undo_reserved: 0,
                },
            ),
            stats: Arc::new(JournalStats::new()),
            trace: OnceLock::new(),
            dev,
        })
    }

    /// Journal activity counters (registrable as an
    /// [`obsv::MetricSource`]).
    pub fn stats(&self) -> &Arc<JournalStats> {
        &self.stats
    }

    /// Installs the trace ring commits are reported into. Later calls are
    /// ignored (the first mounted owner wins).
    pub fn set_trace(&self, ring: Arc<TraceRing>) {
        let _ = self.trace.set(ring);
    }

    /// Scans the current generation's entries and rolls back every
    /// transaction without a commit entry, then bumps the generation
    /// (retiring all entries at once). Run at mount, before
    /// [`Journal::open`].
    pub fn recover(dev: &NvmmDevice, layout: &Layout) -> Result<RecoveryStats> {
        let hdr = Layout::block_off(layout.journal_start);
        let area = hdr + BLOCK_SIZE as u64;
        let capacity = (layout.journal_blocks - 1) * (BLOCK_SIZE / ENTRY_SIZE) as u64;
        let gen = dev.read_u64(Cat::Journal, hdr);
        if gen == 0 {
            return Err(FsError::Corrupted("journal generation"));
        }
        let mut stats = RecoveryStats::default();
        // Entries of the current generation are contiguous from slot 0;
        // stop at the first slot that is invalid or from an older
        // generation.
        let mut committed: Vec<u32> = Vec::new();
        let mut undo: Vec<Entry> = Vec::new();
        for idx in 0..capacity {
            let off = area + idx * ENTRY_SIZE as u64;
            let mut buf = [0u8; ENTRY_SIZE];
            dev.read(Cat::Journal, off, &mut buf);
            let Some(e) = decode(&buf) else { break };
            if e.gen as u64 != gen {
                break;
            }
            stats.scanned += 1;
            match e.kind {
                KIND_COMMIT => committed.push(e.txid),
                KIND_UNDO => undo.push(e),
                _ => return Err(FsError::Corrupted("journal entry kind")),
            }
        }
        // One sorted set, one binary search per undo entry: recovery is
        // linear (×log) in the entries scanned however many committed.
        committed.sort_unstable();
        undo.retain(|e| committed.binary_search(&e.txid).is_err());
        // Roll back uncommitted transactions: apply their undo entries in
        // reverse append order so the oldest logged image wins.
        for e in undo.iter().rev() {
            dev.write_persist(Cat::Journal, e.addr, e.payload());
        }
        stats.entries_undone = undo.len() as u64;
        let mut undone: Vec<u32> = undo.iter().map(|e| e.txid).collect();
        undone.sort_unstable();
        undone.dedup();
        stats.txs_undone = undone.len() as u64;
        dev.sfence();
        // Retire every entry by bumping the generation (8-byte atomic).
        dev.write_u64_persist(Cat::Journal, hdr, gen + 1);
        dev.sfence();
        Ok(stats)
    }

    /// Opens a new transaction. Fails with [`FsError::JournalFull`] when the
    /// region cannot guarantee space for this transaction's commit entry.
    pub fn begin(&self) -> Result<TxHandle> {
        self.begin_reserving(0)
    }

    /// Opens a transaction with `undo_entries` undo slots set aside for it
    /// besides its commit slot: [`Self::reserve`], then
    /// [`Self::begin_reserved`].
    pub(crate) fn begin_reserving(&self, undo_entries: u64) -> Result<TxHandle> {
        Ok(self.begin_reserved(self.reserve(undo_entries)?))
    }

    /// Sets aside one transaction's commit slot and `undo_entries` undo
    /// slots without opening it — an in-memory count that no record and
    /// no `begins` tick stands for. The one admission check of the
    /// journal: a full ring (or injected backpressure) refuses here.
    pub fn reserve(&self, undo_entries: u64) -> Result<Credits> {
        self.span(|| {
            if nvmm::fault::journal_blocked(&self.dev) {
                return Err(FsError::JournalFull);
            }
            let mut inner = self.inner.lock();
            if inner.free(self.capacity) <= undo_entries {
                return Err(FsError::JournalFull);
            }
            inner.undo_reserved += undo_entries + 1;
            Ok(Credits { undo: undo_entries })
        })
    }

    /// Opens the transaction `credits` set aside; cannot fail. Logging up
    /// to its undo slots in it cannot fail either, whatever other
    /// transactions log in between ([`Self::log_reserved`]). The handle
    /// carries the slots; those it does not use are released when it
    /// resolves.
    pub fn begin_reserved(&self, credits: Credits) -> TxHandle {
        let mut inner = self.inner.lock();
        let txid = inner.next_txid;
        inner.next_txid = inner.next_txid.wrapping_add(1).max(1);
        let start = inner.tail;
        inner.txs.push_back(TxRec {
            txid,
            start,
            committed: false,
        });
        // The commit slot moves from the reservation to the open record.
        inner.undo_reserved -= 1;
        inner.open += 1;
        self.stats
            .begins
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TxHandle {
            txid,
            reserved: Cell::new(credits.undo),
        }
    }

    /// Gives back credits no transaction was opened with.
    pub fn unreserve(&self, credits: Credits) {
        self.inner.lock().undo_reserved -= credits.undo + 1;
    }

    /// Runs `f` inside a [`Phase::Journal`] span on the device's span
    /// matrix (one relaxed load when spans are disabled).
    #[inline]
    fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        self.dev.spans().scope(Phase::Journal, f)
    }

    /// Entries currently available for new undo records.
    pub fn free_entries(&self) -> u64 {
        self.inner.lock().free(self.capacity)
    }

    /// Number of transactions begun but not yet committed or aborted.
    pub fn open_txs(&self) -> usize {
        self.inner.lock().open as usize
    }

    /// The current journal generation (diagnostics).
    pub fn generation(&self) -> u64 {
        self.inner.lock().gen
    }

    /// Point-in-time usage of the journal region, read under one lock hold
    /// so the fields are mutually consistent (introspection/audit). The
    /// only place that walks the transaction records: `open_txs` is a
    /// recount for the auditor to hold the running count against.
    pub fn usage(&self) -> JournalUsage {
        let inner = self.inner.lock();
        JournalUsage {
            capacity_entries: self.capacity,
            fill_entries: inner.tail,
            reserved_entries: inner.open,
            undo_reserved_entries: inner.undo_reserved,
            free_entries: inner.free(self.capacity),
            open_txs: inner.txs.iter().filter(|t| !t.committed).count() as u64,
            generation: inner.gen,
        }
    }

    /// Writes `e` into the tail slot. Infallible by construction: every
    /// caller owns the slot — an undo entry one its batch's check in
    /// [`Self::log_ranges`] found free or its handle set aside, a commit
    /// entry the one its transaction's `begin` reserved
    /// ([`Self::append_commit_locked`]).
    fn append_locked(&self, inner: &mut JInner, e: &Entry) {
        debug_assert!(inner.tail < self.capacity, "journal entry past its region");
        let off = self.area + inner.tail * ENTRY_SIZE as u64;
        let buf = encode(e);
        obsv::note_bytes(obsv::Layer::JournalLogged, ENTRY_SIZE as u64);
        self.dev.write_flushed(Cat::Journal, off, &buf);
        inner.tail += 1;
    }

    /// Appends `txid`'s commit entry into the slot its `begin` reserved
    /// (`JInner::open` counts one per unresolved transaction, and
    /// `JInner::free` keeps them out of every other reservation).
    fn append_commit_locked(&self, inner: &mut JInner, txid: u32) {
        let e = Entry::commit(txid, inner.gen as u32);
        self.append_locked(inner, &e);
    }

    /// Records the current content of `[addr, addr+len)` so it can be
    /// rolled back if the transaction does not commit. Must be called
    /// *before* the range is overwritten. On return the undo records are
    /// durable; the caller may then update the metadata in place (durably).
    pub fn log_range(&self, tx: &TxHandle, addr: u64, len: usize) -> Result<()> {
        self.log_ranges(tx, &[(addr, len)])
    }

    /// Batched [`Journal::log_range`]: logs the current content of every
    /// `(addr, len)` range under **one** lock hold, **one** reservation
    /// check over the batch total, and **one** fence — the group-commit
    /// write path (NVLog-style batched persistence). Empty ranges are
    /// skipped; an empty batch is a no-op.
    pub fn log_ranges(&self, tx: &TxHandle, ranges: &[(u64, usize)]) -> Result<()> {
        if ranges.iter().all(|&(_, len)| len == 0) {
            return Ok(());
        }
        self.span(|| self.log_ranges_inner(tx, ranges))
    }

    fn log_ranges_inner(&self, tx: &TxHandle, ranges: &[(u64, usize)]) -> Result<()> {
        let mut inner = self.inner.lock();
        // Slots the handle set aside at begin are its own to use — a log
        // they cover cannot fail, injected backpressure included; only the
        // rest must come out of the free pool.
        let needed = undo_slots(ranges);
        let own = tx.reserved.get().min(needed);
        if own < needed
            && (nvmm::fault::journal_blocked(&self.dev) || inner.free(self.capacity) < needed - own)
        {
            return Err(FsError::JournalFull);
        }
        self.append_undo(&mut inner, tx, ranges);
        Ok(())
    }

    /// [`Journal::log_range`] inside the undo slots `tx` set aside
    /// ([`Journal::begin_reserved`]): nothing is left to refuse.
    pub fn log_reserved(&self, tx: &TxHandle, addr: u64, len: usize) {
        debug_assert!(undo_slots(&[(addr, len)]) <= tx.reserved.get());
        self.span(|| self.append_undo(&mut self.inner.lock(), tx, &[(addr, len)]))
    }

    /// Appends the undo entries of `ranges` for `tx`, drawing first on the
    /// slots its handle set aside, and fences them.
    fn append_undo(&self, inner: &mut JInner, tx: &TxHandle, ranges: &[(u64, usize)]) {
        let needed = undo_slots(ranges);
        let own = tx.reserved.get().min(needed);
        tx.reserved.set(tx.reserved.get() - own);
        inner.undo_reserved -= own;
        let gen = inner.gen as u32;
        for &(addr, len) in ranges {
            let mut off = addr;
            let mut remaining = len;
            while remaining > 0 {
                let chunk = remaining.min(PAYLOAD);
                let mut e = Entry {
                    txid: tx.txid,
                    kind: KIND_UNDO,
                    gen,
                    addr: off,
                    len: chunk as u8,
                    data: [0; PAYLOAD],
                };
                self.dev.read(Cat::Journal, off, &mut e.data[..chunk]);
                self.append_locked(inner, &e);
                off += chunk as u64;
                remaining -= chunk;
            }
        }
        self.stats
            .undo_entries
            .fetch_add(needed, std::sync::atomic::Ordering::Relaxed);
        // One fence orders the whole batch before the caller's in-place
        // updates; the folded per-range ordering points stay accounted.
        self.dev.sfence_coalesced(ranges.len() as u64);
    }

    fn resolve_locked(&self, inner: &mut JInner, tx: &TxHandle) {
        // Undo slots the handle set aside and never logged go back.
        inner.undo_reserved -= tx.reserved.take();
        // Mark committed (once: a second resolution finds the record
        // committed or gone) and release its commit slot.
        let newly = inner
            .rec_mut(tx.txid)
            .filter(|rec| !rec.committed)
            .map(|rec| rec.committed = true);
        if newly.is_some() {
            inner.open -= 1;
        }
        // Retire the longest committed prefix.
        while inner.txs.front().is_some_and(|t| t.committed) {
            inner.txs.pop_front();
        }
        inner.head = inner.txs.front().map_or(inner.tail, |t| t.start);
        // Quiesce point: no live transactions and the region is past half
        // full — retire the whole generation with one 8-byte persist.
        if inner.txs.is_empty() && inner.tail > self.capacity / 2 {
            inner.gen += 1;
            inner.head = 0;
            inner.tail = 0;
            self.dev
                .write_u64_persist(Cat::Journal, self.hdr, inner.gen);
            self.dev.sfence();
        }
    }

    /// Commits `tx`: after the commit entry is durable, recovery will never
    /// roll the transaction back. The caller must have made its in-place
    /// metadata updates durable before calling (PMFS writes metadata with
    /// non-temporal stores, so this holds by construction).
    pub fn commit(&self, tx: TxHandle) {
        self.span(|| self.commit_batch(std::slice::from_ref(&tx)))
    }

    /// Group commit: commits a batch of transactions with **one** lock
    /// hold and **two** fences total (one ordering the in-place updates
    /// before the commit entries, one making the commit entries durable)
    /// instead of two fences per transaction. Each transaction still gets
    /// its own commit entry, so recovery semantics are identical to
    /// committing them one by one; only the fence count changes.
    pub fn commit_group(&self, txs: Vec<TxHandle>) {
        if txs.is_empty() {
            return;
        }
        self.span(|| self.commit_batch(&txs))
    }

    /// The body of [`Self::commit`] and [`Self::commit_group`]: one fence
    /// standing for every transaction of `txs`, their commit entries, one
    /// more fence. A batch of one is a plain commit.
    fn commit_batch(&self, txs: &[TxHandle]) {
        let n = txs.len() as u64;
        let mut inner = self.inner.lock();
        // Order every caller's in-place metadata updates before any of the
        // batch's commit entries.
        self.dev.sfence_coalesced(n);
        for tx in txs {
            self.append_commit_locked(&mut inner, tx.txid);
        }
        self.dev.sfence_coalesced(n);
        self.stats
            .commits
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        if let Some(ring) = self.trace.get() {
            let live = inner.tail;
            for tx in txs {
                ring.emit(self.dev.env().now(), || TraceEvent::JournalCommit {
                    txid: tx.txid as u64,
                    log_entries: live,
                });
            }
        }
        for tx in txs {
            self.resolve_locked(&mut inner, tx);
        }
    }

    /// Aborts `tx`: rolls back its logged ranges immediately and then
    /// resolves it (a commit entry marks it resolved so recovery does not
    /// undo it again — later transactions may have touched the same
    /// ranges).
    pub fn abort(&self, tx: TxHandle) {
        self.span(|| self.abort_inner(tx))
    }

    fn abort_inner(&self, tx: TxHandle) {
        let mut inner = self.inner.lock();
        // Collect this tx's undo entries from the live region.
        let mut to_undo: Vec<Entry> = Vec::new();
        let start = {
            let idx = inner.txs.partition_point(|t| t.txid < tx.txid);
            inner.txs.get(idx).map_or(inner.head, |t| t.start)
        };
        for idx in start..inner.tail {
            let off = self.area + idx * ENTRY_SIZE as u64;
            let mut buf = [0u8; ENTRY_SIZE];
            self.dev.read(Cat::Journal, off, &mut buf);
            if let Some(e) = decode(&buf) {
                if e.txid == tx.txid && e.kind == KIND_UNDO {
                    to_undo.push(e);
                }
            }
        }
        for e in to_undo.iter().rev() {
            self.dev.write_persist(Cat::Journal, e.addr, e.payload());
        }
        self.dev.sfence();
        self.append_commit_locked(&mut inner, tx.txid);
        self.dev.sfence();
        self.stats
            .aborts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.resolve_locked(&mut inner, &tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, SimEnv};
    use proptest::prelude::*;

    fn setup() -> (Arc<NvmmDevice>, Layout) {
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 4096 * BLOCK_SIZE);
        let layout = Layout::compute(4096, 64, 512).unwrap();
        Journal::format(&dev, &layout);
        (dev, layout)
    }

    fn data_off(layout: &Layout, blk: u64) -> u64 {
        Layout::block_off(layout.data_start + blk)
    }

    /// An undo entry with a 17-byte payload.
    fn sample_entry(gen: u32) -> Entry {
        Entry {
            txid: 7,
            kind: KIND_UNDO,
            gen,
            addr: 0x1234,
            len: 17,
            data: std::array::from_fn(|i| if i < 17 { 9 } else { 0 }),
        }
    }

    #[test]
    fn entry_encode_decode_roundtrip() {
        let e = sample_entry(3);
        let buf = encode(&e);
        assert_eq!(decode(&buf), Some(e));
    }

    #[test]
    fn corrupt_entry_rejected() {
        let e = sample_entry(1);
        let mut buf = encode(&e);
        buf[20] ^= 0xff;
        assert_eq!(decode(&buf), None);
        let mut buf2 = encode(&e);
        buf2[63] = 0;
        assert_eq!(decode(&buf2), None);
        assert_eq!(decode(&[0u8; ENTRY_SIZE]), None);
    }

    #[test]
    fn committed_tx_survives_crash() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 0);
        dev.write_persist(Cat::Meta, target, &[1u8; 32]);

        let tx = j.begin().unwrap();
        j.log_range(&tx, target, 32).unwrap();
        dev.write_persist(Cat::Meta, target, &[2u8; 32]);
        j.commit(tx);

        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(stats.txs_undone, 0);
        let mut buf = [0u8; 32];
        dev.peek(target, &mut buf);
        assert_eq!(buf, [2u8; 32], "committed update survives");
    }

    #[test]
    fn uncommitted_tx_is_rolled_back() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 1);
        dev.write_persist(Cat::Meta, target, &[1u8; 100]);

        let tx = j.begin().unwrap();
        j.log_range(&tx, target, 100).unwrap();
        dev.write_persist(Cat::Meta, target, &[2u8; 100]);
        // No commit: crash.
        drop(tx);
        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(stats.txs_undone, 1);
        assert!(stats.entries_undone >= 3, "100 B needs 3 entries");
        let mut buf = [0u8; 100];
        dev.peek(target, &mut buf);
        assert_eq!(buf, [1u8; 100], "uncommitted update rolled back");
    }

    #[test]
    fn interleaved_txs_roll_back_independently() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let a_off = data_off(&layout, 2);
        let b_off = data_off(&layout, 3);
        dev.write_persist(Cat::Meta, a_off, &[0xa; 16]);
        dev.write_persist(Cat::Meta, b_off, &[0xb; 16]);

        let ta = j.begin().unwrap();
        let tb = j.begin().unwrap();
        j.log_range(&ta, a_off, 16).unwrap();
        j.log_range(&tb, b_off, 16).unwrap();
        dev.write_persist(Cat::Meta, a_off, &[0x1; 16]);
        dev.write_persist(Cat::Meta, b_off, &[0x2; 16]);
        j.commit(tb);
        drop(ta); // crash with ta open
        dev.crash();
        Journal::recover(&dev, &layout).unwrap();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        dev.peek(a_off, &mut a);
        dev.peek(b_off, &mut b);
        assert_eq!(a, [0xa; 16], "open tx rolled back");
        assert_eq!(b, [0x2; 16], "committed tx preserved");
    }

    #[test]
    fn abort_rolls_back_immediately() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 4);
        dev.write_persist(Cat::Meta, target, &[5u8; 40]);
        let tx = j.begin().unwrap();
        j.log_range(&tx, target, 40).unwrap();
        dev.write_persist(Cat::Meta, target, &[6u8; 40]);
        j.abort(tx);
        let mut buf = [0u8; 40];
        dev.peek(target, &mut buf);
        assert_eq!(buf, [5u8; 40]);
        // And recovery after a crash does not undo it again.
        dev.write_persist(Cat::Meta, target, &[7u8; 40]);
        dev.crash();
        Journal::recover(&dev, &layout).unwrap();
        dev.peek(target, &mut buf);
        assert_eq!(buf, [7u8; 40]);
    }

    #[test]
    fn generation_bump_reclaims_space() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 5);
        let initial = j.free_entries();
        let gen0 = j.generation();
        // Many sequential transactions must not exhaust the region: the
        // quiesce points bump the generation and reset the fill.
        for i in 0..initial * 2 {
            let tx = j.begin().unwrap();
            j.log_range(&tx, target + (i % 8) * 64, 40).unwrap();
            j.commit(tx);
        }
        assert_eq!(j.open_txs(), 0);
        assert!(j.generation() > gen0, "generation advanced at quiesce");
        assert!(j.free_entries() > initial / 4, "space reclaimed");
    }

    #[test]
    fn journal_full_reported() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 6);
        let tx = j.begin().unwrap();
        let mut filled = false;
        for i in 0.. {
            match j.log_range(&tx, target + (i % 32) * 64, 40) {
                Ok(()) => {}
                Err(FsError::JournalFull) => {
                    filled = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(filled, "open tx eventually fills the region");
        // Commit still succeeds thanks to the reserved slot, and the
        // quiesce point frees everything.
        j.commit(tx);
        assert!(j.free_entries() > 0);
    }

    #[test]
    fn stale_generation_entries_are_ignored() {
        let (dev, layout) = setup();
        {
            let j = Journal::open(dev.clone(), &layout).unwrap();
            let tx = j.begin().unwrap();
            j.log_range(&tx, data_off(&layout, 7), 8).unwrap();
            j.commit(tx);
        }
        // First recovery retires generation 1.
        let s1 = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(s1.scanned, 2);
        // Second recovery sees only stale-generation entries: scans none.
        let s2 = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(s2.scanned, 0);
        assert_eq!(s2.txs_undone, 0);
    }

    #[test]
    fn deferred_commit_matches_hinfs_ordered_mode() {
        // A transaction may stay open across other transactions' lifetimes
        // and commit later (HiNFS commits from the writeback path).
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let a = data_off(&layout, 8);
        let b = data_off(&layout, 9);
        dev.write_persist(Cat::Meta, a, &[1u8; 8]);
        dev.write_persist(Cat::Meta, b, &[1u8; 8]);
        let lazy = j.begin().unwrap();
        j.log_range(&lazy, a, 8).unwrap();
        dev.write_persist(Cat::Meta, a, &[2u8; 8]);
        // An unrelated tx begins and commits while `lazy` is open.
        let other = j.begin().unwrap();
        j.log_range(&other, b, 8).unwrap();
        dev.write_persist(Cat::Meta, b, &[3u8; 8]);
        j.commit(other);
        assert_eq!(j.open_txs(), 1);
        // "Writeback finished": now commit the lazy tx.
        j.commit(lazy);
        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(stats.txs_undone, 0);
        let mut buf = [0u8; 8];
        dev.peek(a, &mut buf);
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn log_ranges_batches_one_fence() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let offs: Vec<u64> = (0..3).map(|i| data_off(&layout, 11 + i)).collect();
        for &o in &offs {
            dev.write_persist(Cat::Meta, o, &[1u8; 24]);
        }
        let tx = j.begin().unwrap();
        let before = dev.stats().snapshot();
        j.log_ranges(&tx, &[(offs[0], 24), (offs[1], 24), (offs[2], 24)])
            .unwrap();
        let delta = dev.stats().snapshot().since(&before);
        assert_eq!(delta.fences, 1, "batch pays one fence");
        assert_eq!(delta.fences_coalesced, 2, "two ordering points folded");
        for &o in &offs {
            dev.write_persist(Cat::Meta, o, &[2u8; 24]);
        }
        // No commit: all three ranges roll back together.
        drop(tx);
        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(stats.txs_undone, 1);
        for &o in &offs {
            let mut buf = [0u8; 24];
            dev.peek(o, &mut buf);
            assert_eq!(buf, [1u8; 24], "batched undo rolled back");
        }
    }

    #[test]
    fn group_commit_is_durable_and_batches_fences() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let offs: Vec<u64> = (0..4).map(|i| data_off(&layout, 20 + i)).collect();
        for &o in &offs {
            dev.write_persist(Cat::Meta, o, &[1u8; 16]);
        }
        let mut txs = Vec::new();
        for &o in &offs {
            let tx = j.begin().unwrap();
            j.log_range(&tx, o, 16).unwrap();
            dev.write_persist(Cat::Meta, o, &[2u8; 16]);
            txs.push(tx);
        }
        let before = dev.stats().snapshot();
        j.commit_group(txs);
        let delta = dev.stats().snapshot().since(&before);
        assert_eq!(delta.fences, 2, "pre- and post-batch fence only");
        assert_eq!(delta.fences_coalesced, 6, "3 folded points per fence");
        assert_eq!(j.open_txs(), 0);
        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        assert_eq!(stats.txs_undone, 0, "the whole group committed");
        for &o in &offs {
            let mut buf = [0u8; 16];
            dev.peek(o, &mut buf);
            assert_eq!(buf, [2u8; 16]);
        }
    }

    #[test]
    fn group_commit_of_empty_batch_is_noop() {
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let before = dev.stats().snapshot();
        j.commit_group(Vec::new());
        let delta = dev.stats().snapshot().since(&before);
        assert_eq!(delta.fences, 0);
        assert_eq!(delta.nvmm_bytes_written, 0);
    }

    /// The running counts against a recount of the records and of the
    /// held handles, and `free_entries` against the formula it replaced
    /// (capacity − tail − one slot per uncommitted record, now also − the
    /// slots the handles carry).
    fn assert_counts_match_a_recount(j: &Journal, held: &[TxHandle]) {
        let set_aside: u64 = held.iter().map(|tx| tx.reserved.get()).sum();
        let (recount, tail) = {
            let inner = j.inner.lock();
            let recount = inner.txs.iter().filter(|rec| !rec.committed).count() as u64;
            assert_eq!(inner.open, recount);
            assert_eq!(inner.undo_reserved, set_aside);
            (recount, inner.tail)
        };
        assert_eq!(recount, held.len() as u64);
        assert_eq!(j.open_txs(), held.len());
        assert_eq!(
            j.free_entries(),
            j.capacity.saturating_sub(tail + recount + set_aside)
        );
        let u = j.usage();
        assert_eq!(u.reserved_entries, u.open_txs, "what audit code 9 checks");
        assert!(
            u.fill_entries + u.reserved_entries + u.undo_reserved_entries <= u.capacity_entries
        );
    }

    proptest! {
        /// Random begin / log / commit / group-commit / abort sequences on a
        /// ring small enough to fill and to retire generations, including
        /// attempts to resolve a transaction twice: after every step the
        /// O(1) counts equal a recount.
        #[test]
        fn running_counts_survive_any_resolution_order(
            ops in prop::collection::vec((0u8..10, 0usize..64, 1usize..400), 1..300)
        ) {
            let dev = NvmmDevice::new(
                SimEnv::new_virtual(CostModel::default()),
                256 * BLOCK_SIZE,
            );
            // 2 entry blocks: 128 slots.
            let layout = Layout::compute(256, 3, 64).unwrap();
            Journal::format(&dev, &layout);
            let j = Journal::open(dev.clone(), &layout).unwrap();
            let scratch = data_off(&layout, 0);
            let mut held: Vec<TxHandle> = Vec::new();
            let mut resolved: Vec<u32> = Vec::new();
            for (op, pick, len) in ops {
                match op {
                    0 | 1 => held.extend(j.begin().ok()),
                    2 => held.extend(j.begin_reserving(pick as u64 % 4).ok()),
                    3..=5 if !held.is_empty() => {
                        // Full ring is a legal answer; the counts must
                        // hold either way.
                        let _ = j.log_range(&held[pick % held.len()], scratch, len);
                    }
                    6 if !held.is_empty() => {
                        let tx = held.swap_remove(pick % held.len());
                        resolved.push(tx.txid());
                        j.commit(tx);
                    }
                    7 if !held.is_empty() => {
                        let tx = held.swap_remove(pick % held.len());
                        resolved.push(tx.txid());
                        j.abort(tx);
                    }
                    8 if !held.is_empty() => {
                        let n = 1 + pick % held.len();
                        let batch: Vec<TxHandle> = held.drain(..n).collect();
                        resolved.extend(batch.iter().map(TxHandle::txid));
                        j.commit_group(batch);
                    }
                    9 if !resolved.is_empty() => {
                        // A second resolution of a finished transaction
                        // (its record committed, retired, or gone with
                        // its generation) must not touch the counts.
                        let again = TxHandle {
                            txid: resolved[pick % resolved.len()],
                            reserved: Cell::new(0),
                        };
                        j.resolve_locked(&mut j.inner.lock(), &again);
                    }
                    _ => {}
                }
                assert_counts_match_a_recount(&j, &held);
            }
            j.commit_group(std::mem::take(&mut held));
            assert_counts_match_a_recount(&j, &[]);
        }
    }

    #[test]
    fn recovery_of_fifty_thousand_interleaved_transactions_is_exact() {
        // 5000 eight-byte cells, ten transactions each, issued round-robin
        // so committed and uncommitted ones interleave in the log. Per
        // cell (by `cell % 4`) the first 10 / 9 / 5 / 0 commit and the
        // rest stay open at the crash: recovery must restore each cell to
        // what its last committed transaction wrote — the image the
        // *oldest* uncommitted one logged.
        const CELLS: u64 = 5000;
        const ROUNDS: u64 = 10;
        let committed_rounds = |cell: u64| [10, 9, 5, 0][(cell % 4) as usize];
        let value = |cell: u64, round: u64| (cell << 8 | (round + 1)).to_le_bytes();
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 4096 * BLOCK_SIZE);
        let layout = Layout::compute(4096, 1700, 512).unwrap();
        Journal::format(&dev, &layout);
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let cell_off = |cell: u64| data_off(&layout, 0) + cell * 8;
        let mut left_open = Vec::new();
        for round in 0..ROUNDS {
            for cell in 0..CELLS {
                let tx = j.begin().unwrap();
                j.log_range(&tx, cell_off(cell), 8).unwrap();
                dev.write_persist(Cat::Meta, cell_off(cell), &value(cell, round));
                if round < committed_rounds(cell) {
                    j.commit(tx);
                } else {
                    left_open.push(tx);
                }
            }
        }
        assert_eq!(
            j.generation(),
            1,
            "open transactions kept the whole log live"
        );
        dev.crash();
        let stats = Journal::recover(&dev, &layout).unwrap();
        let open = (1 + 5 + 10) * CELLS / 4;
        assert_eq!(stats.txs_undone, open);
        assert_eq!(stats.entries_undone, open);
        assert_eq!(stats.scanned, 2 * CELLS * ROUNDS - open);
        assert_eq!(left_open.len() as u64, open);
        for cell in 0..CELLS {
            let mut got = [0u8; 8];
            dev.peek(cell_off(cell), &mut got);
            let want = match committed_rounds(cell) {
                0 => [0u8; 8],
                n => value(cell, n - 1),
            };
            assert_eq!(got, want, "cell {cell}");
        }
    }

    #[test]
    fn commit_costs_no_pointer_persists() {
        // The hot path writes exactly: N undo entries + 1 commit entry (one
        // line each) and nothing else — no head/tail publishing.
        let (dev, layout) = setup();
        let j = Journal::open(dev.clone(), &layout).unwrap();
        let target = data_off(&layout, 10);
        let before = dev.stats().snapshot();
        let tx = j.begin().unwrap();
        j.log_range(&tx, target, 40).unwrap(); // 1 undo entry
        j.commit(tx);
        let delta = dev.stats().snapshot().since(&before);
        assert_eq!(
            delta.nvmm_bytes_written,
            2 * ENTRY_SIZE as u64,
            "one undo + one commit line only"
        );
    }
}
