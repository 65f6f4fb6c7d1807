//! A jbd2-style physical redo journal (ordered data mode) for the ext4
//! baselines.
//!
//! A *running transaction* accumulates the metadata blocks dirtied since
//! the last commit; those pages are pinned in the cache so they cannot
//! reach the device in place early. [`Jbd::commit`] (triggered by fsync,
//! the periodic 5 s flush, or unmount) writes, through the block layer:
//!
//! 1. a descriptor block listing the target block numbers,
//! 2. a copy of each metadata block,
//! 3. a commit block,
//!
//! then unpins the pages, leaving them dirty for later checkpoint
//! writeback. *Ordered data mode* is the caller's job: file data pages are
//! flushed before `commit` is called. Recovery replays committed
//! transactions in sequence order (redo).

use std::collections::BTreeSet;
use std::sync::Arc;

use blockdev::Nvmmbd;
use fskit::le::u64_at;
use fskit::Result;
use nvmm::{Cat, BLOCK_SIZE};
use obsv::{DrainKind, Site, TrackedMutex};

use crate::cache::BufferCache;

const DESC_MAGIC: u64 = 0x4a42_4444_4553_4331; // "JBDDESC1"
const COMMIT_MAGIC: u64 = 0x4a42_4443_4f4d_5431; // "JBDCOMT1"
const REVOKE_MAGIC: u64 = 0x4a42_4452_4556_4b31; // "JBDREVK1"

/// Targets per descriptor block: header (magic, seq, count) + blknos.
const DESC_CAPACITY: usize = BLOCK_SIZE / 8 - 3;

/// A journal record block: magic, sequence number, then — for a
/// descriptor or revoke record — the count and the block numbers.
fn record(magic: u64, seq: u64, blks: &[u64]) -> Vec<u8> {
    let words = [magic, seq, blks.len() as u64]
        .into_iter()
        .chain(blks.iter().copied());
    let mut block = vec![0u8; BLOCK_SIZE];
    for (w, v) in block.chunks_exact_mut(8).zip(words) {
        w.copy_from_slice(&v.to_le_bytes());
    }
    block
}

#[derive(Debug)]
struct JbdInner {
    /// Metadata blocks of the running transaction.
    running: BTreeSet<u64>,
    /// Blocks freed since the last commit: the next commit writes a revoke
    /// record for them so replay never resurrects a stale image over their
    /// reallocated contents (jbd2's revoke mechanism).
    revoked: BTreeSet<u64>,
    /// Next transaction sequence number.
    seq: u64,
    /// Next free journal block (ring offset from the area start).
    write_ptr: u64,
    commits: u64,
}

/// The redo journal.
#[derive(Debug)]
pub struct Jbd {
    bd: Arc<Nvmmbd>,
    start: u64,
    blocks: u64,
    enabled: bool,
    inner: TrackedMutex<JbdInner>,
}

impl Jbd {
    /// Opens the journal over `[start, start+blocks)`. A disabled journal
    /// (ext2 mode) turns every operation into a no-op.
    pub fn open(bd: Arc<Nvmmbd>, start: u64, blocks: u64, enabled: bool) -> Jbd {
        assert!(blocks >= 8, "journal area too small");
        let inner = TrackedMutex::new(
            bd.byte_device().contention(),
            Site::ExtfsJbd,
            JbdInner {
                running: BTreeSet::new(),
                revoked: BTreeSet::new(),
                seq: 1,
                write_ptr: 0,
                commits: 0,
            },
        );
        Jbd {
            bd,
            start,
            blocks,
            enabled,
            inner,
        }
    }

    /// Whether journaling is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Zeroes the journal head so replay finds an empty log.
    pub fn format(bd: &Nvmmbd, start: u64) {
        bd.write_block(Cat::Journal, start, &vec![0u8; BLOCK_SIZE]);
        bd.flush();
    }

    /// Adds a dirtied metadata block to the running transaction, pinning
    /// its cache page.
    pub fn add(&self, cache: &BufferCache, blk: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.running.insert(blk) {
            cache.pin(blk);
        }
    }

    /// Number of blocks in the running transaction.
    pub fn running_len(&self) -> usize {
        self.inner.lock().running.len()
    }

    /// Drops a block from the running transaction (it was freed). Without
    /// this, a freed-and-reallocated block would be journaled with stale
    /// content and replay could clobber its new life as a data block.
    pub fn forget(&self, cache: &BufferCache, blk: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.running.remove(&blk) {
            cache.unpin(blk);
        }
        inner.revoked.insert(blk);
    }

    /// Total commits so far.
    pub fn commits(&self) -> u64 {
        self.inner.lock().commits
    }

    /// Commits the running transaction, draining the journaled pages'
    /// lineage stamps as `kind` (the commit makes them recoverable). The
    /// caller has already flushed the related *data* pages (ordered mode).
    /// When a journaled page cannot be read back (the cache is out of
    /// pages), the transaction stays running, uncommitted, and the next
    /// commit writes over what this one logged.
    pub fn commit(&self, cache: &BufferCache, kind: DrainKind) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        if inner.running.is_empty() && inner.revoked.is_empty() {
            return Ok(());
        }
        let blks: Vec<u64> = std::mem::take(&mut inner.running).into_iter().collect();
        let revoked: Vec<u64> = std::mem::take(&mut inner.revoked).into_iter().collect();
        // Space: descriptors + copies + revokes + commit, with
        // ring-overflow checkpointing first if needed.
        let descs = blks.len().div_ceil(DESC_CAPACITY) as u64;
        let revs = revoked.len().div_ceil(DESC_CAPACITY) as u64;
        let needed = descs + blks.len() as u64 + revs + 1;
        if inner.write_ptr + needed > self.blocks {
            // Checkpoint: push all dirty pages in place and restart the
            // ring. Unpin first so the flush may write them.
            for &b in &blks {
                cache.unpin(b);
            }
            cache.flush_all(kind);
            self.bd.flush();
            inner.write_ptr = 0;
            self.bd
                .write_block(Cat::Journal, self.start, &vec![0u8; BLOCK_SIZE]);
            obsv::note_bytes(obsv::Layer::JournalLogged, BLOCK_SIZE as u64);
            self.bd.flush();
            // Everything of this transaction is already in place; no
            // journal records needed.
            inner.seq += 1;
            inner.commits += 1;
            return Ok(());
        }
        let ring_before = inner.write_ptr;
        for group in revoked.chunks(DESC_CAPACITY) {
            let rev = record(REVOKE_MAGIC, inner.seq, group);
            self.bd
                .write_block(Cat::Journal, self.start + inner.write_ptr, &rev);
            inner.write_ptr += 1;
        }
        for group in blks.chunks(DESC_CAPACITY) {
            let desc = record(DESC_MAGIC, inner.seq, group);
            self.bd
                .write_block(Cat::Journal, self.start + inner.write_ptr, &desc);
            inner.write_ptr += 1;
            let mut page = vec![0u8; BLOCK_SIZE];
            for &blk in group {
                if let Err(e) = cache.read(Cat::Journal, blk, 0, &mut page) {
                    inner.running = blks.iter().copied().collect();
                    inner.revoked = revoked.iter().copied().collect();
                    inner.write_ptr = ring_before;
                    return Err(e);
                }
                self.bd
                    .write_block(Cat::Journal, self.start + inner.write_ptr, &page);
                inner.write_ptr += 1;
            }
        }
        self.bd.flush();
        let commit = record(COMMIT_MAGIC, inner.seq, &[]);
        self.bd
            .write_block(Cat::Journal, self.start + inner.write_ptr, &commit);
        inner.write_ptr += 1;
        obsv::note_bytes(
            obsv::Layer::JournalLogged,
            (inner.write_ptr - ring_before) * BLOCK_SIZE as u64,
        );
        self.bd.flush();
        inner.seq += 1;
        inner.commits += 1;
        drop(inner);
        // The commit record is durable: the journaled pages' acked
        // content is now recoverable, so their stamps retire here.
        cache.note_committed(&blks, kind);
        for &blk in &blks {
            cache.unpin(blk);
        }
        Ok(())
    }

    /// Replays committed transactions after a crash, writing their block
    /// images in place. Returns the number of transactions replayed.
    ///
    /// Two passes, like jbd2: the first collects every committed
    /// transaction and the revoke records; the second applies the images
    /// in sequence order, skipping any block revoked at an equal or later
    /// sequence (its journal copies are stale images of a freed block).
    pub fn replay(bd: &Nvmmbd, start: u64, blocks: u64) -> u64 {
        use std::collections::HashMap;
        struct Tx {
            seq: u64,
            targets: Vec<(u64, u64)>, // (journal block, target block)
        }
        let mut txs: Vec<Tx> = Vec::new();
        let mut revoke_at: HashMap<u64, u64> = HashMap::new(); // blk -> max seq
        let mut block = vec![0u8; BLOCK_SIZE];

        // Pass 1: walk the chain and collect.
        let mut ptr = 0u64;
        let mut expect: Option<u64> = None;
        'outer: loop {
            if ptr >= blocks {
                break;
            }
            bd.read_block(Cat::Journal, start + ptr, &mut block);
            let magic = u64_at(&block, 0);
            if magic != DESC_MAGIC && magic != REVOKE_MAGIC {
                break;
            }
            let seq = u64_at(&block, 8);
            if let Some(e) = expect {
                if seq != e {
                    // Stale record from an earlier lap of the ring.
                    break;
                }
            }
            let mut targets: Vec<(u64, u64)> = Vec::new();
            let mut revokes: Vec<u64> = Vec::new();
            let mut p = ptr;
            loop {
                if p >= blocks {
                    break 'outer;
                }
                bd.read_block(Cat::Journal, start + p, &mut block);
                let magic = u64_at(&block, 0);
                let bseq = u64_at(&block, 8);
                if magic == COMMIT_MAGIC && bseq == seq {
                    // Committed: record it.
                    for blk in revokes {
                        let e = revoke_at.entry(blk).or_insert(seq);
                        *e = (*e).max(seq);
                    }
                    txs.push(Tx { seq, targets });
                    expect = Some(seq + 1);
                    ptr = p + 1;
                    continue 'outer;
                }
                if (magic != DESC_MAGIC && magic != REVOKE_MAGIC) || bseq != seq {
                    // Torn transaction: stop replay entirely.
                    break 'outer;
                }
                let count = u64_at(&block, 16);
                if count as usize > DESC_CAPACITY {
                    break 'outer;
                }
                if magic == REVOKE_MAGIC {
                    for i in 0..count as usize {
                        revokes.push(u64_at(&block, 24 + i * 8));
                    }
                    p += 1;
                } else {
                    if p + count + 1 > blocks {
                        break 'outer;
                    }
                    for i in 0..count as usize {
                        let tblk = u64_at(&block, 24 + i * 8);
                        targets.push((p + 1 + i as u64, tblk));
                    }
                    p += count + 1;
                }
            }
        }

        // Pass 2: apply in order, honoring revokes.
        let mut img = vec![0u8; BLOCK_SIZE];
        let replayed = txs.len() as u64;
        for tx in txs {
            for (jblk, tblk) in tx.targets {
                if revoke_at.get(&tblk).is_some_and(|&rseq| rseq >= tx.seq) {
                    continue;
                }
                bd.read_block(Cat::Journal, start + jblk, &mut img);
                bd.write_block(Cat::Journal, tblk, &img);
            }
        }
        bd.flush();
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, NvmmDevice, SimEnv};

    fn setup() -> (Arc<Nvmmbd>, BufferCache, Jbd) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 1024 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 64);
        Jbd::format(&bd, 1);
        let jbd = Jbd::open(bd.clone(), 1, 64, true);
        (bd, cache, jbd)
    }

    #[test]
    fn committed_metadata_replays_after_crash() {
        let (bd, cache, jbd) = setup();
        // Dirty a metadata block, journal it, commit — but never checkpoint.
        cache.write(Cat::Meta, 200, 0, &[7u8; 64], 0).unwrap();
        jbd.add(&cache, 200);
        jbd.commit(&cache, DrainKind::Sync).unwrap();
        // Crash: the in-place block was never written (page still dirty).
        bd.byte_device().crash();
        let replayed = Jbd::replay(&bd, 1, 64);
        assert_eq!(replayed, 1);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::Meta, 200, &mut buf);
        assert_eq!(&buf[0..64], &[7u8; 64]);
    }

    #[test]
    fn uncommitted_transaction_is_not_replayed() {
        let (bd, cache, jbd) = setup();
        cache.write(Cat::Meta, 201, 0, &[9u8; 64], 0).unwrap();
        jbd.add(&cache, 201);
        // No commit; pinned page cannot be flushed in place either.
        cache.flush_all(DrainKind::Sync);
        bd.byte_device().crash();
        assert_eq!(Jbd::replay(&bd, 1, 64), 0);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::Meta, 201, &mut buf);
        assert_eq!(&buf[0..64], &[0u8; 64], "uncommitted change lost cleanly");
    }

    #[test]
    fn pinned_pages_resist_eviction_until_commit() {
        let (bd, cache, jbd) = setup();
        cache.write(Cat::Meta, 300, 0, &[1u8; 64], 0).unwrap();
        jbd.add(&cache, 300);
        // Fill the cache to force evictions; block 300 must survive.
        for blk in 0..100u64 {
            cache
                .write(Cat::UserWrite, 400 + blk, 0, &[2u8; BLOCK_SIZE], 0)
                .unwrap();
        }
        let mut direct = vec![0u8; BLOCK_SIZE];
        bd.byte_device().peek(300 * BLOCK_SIZE as u64, &mut direct);
        assert_eq!(
            &direct[0..64],
            &[0u8; 64],
            "pinned page never written in place"
        );
        jbd.commit(&cache, DrainKind::Sync).unwrap();
        cache.flush_all(DrainKind::Sync);
        bd.byte_device().peek(300 * BLOCK_SIZE as u64, &mut direct);
        assert_eq!(&direct[0..64], &[1u8; 64]);
    }

    #[test]
    fn multiple_transactions_replay_in_order() {
        let (bd, cache, jbd) = setup();
        for round in 1..=3u8 {
            cache.write(Cat::Meta, 210, 0, &[round; 64], 0).unwrap();
            jbd.add(&cache, 210);
            jbd.commit(&cache, DrainKind::Sync).unwrap();
        }
        bd.byte_device().crash();
        assert_eq!(Jbd::replay(&bd, 1, 64), 3);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::Meta, 210, &mut buf);
        assert_eq!(&buf[0..64], &[3u8; 64], "latest committed image wins");
    }

    #[test]
    fn ring_overflow_checkpoints_and_restarts() {
        let (bd, cache, jbd) = setup();
        // 64-block ring; each commit here uses 3 blocks. Push beyond.
        for i in 0..40u64 {
            cache
                .write(Cat::Meta, 220 + (i % 5), 0, &[i as u8; 64], 0)
                .unwrap();
            jbd.add(&cache, 220 + (i % 5));
            jbd.commit(&cache, DrainKind::Sync).unwrap();
        }
        assert_eq!(jbd.commits(), 40);
        // After crash, replay must still leave a consistent image: whatever
        // was checkpointed is in place; replayed txs apply on top.
        bd.byte_device().crash();
        Jbd::replay(&bd, 1, 64);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::Meta, 220 + 4, &mut buf);
        assert_eq!(&buf[0..64], &[39u8; 64]);
    }

    #[test]
    fn revoked_blocks_are_not_resurrected() {
        // Journal block X in a committed tx, then free it (forget) and
        // reuse it as a plain data block. Replay must not clobber the new
        // data with the stale journaled image.
        let (bd, cache, jbd) = setup();
        cache.write(Cat::Meta, 400, 0, &[0xEE; 64], 0).unwrap();
        jbd.add(&cache, 400);
        jbd.commit(&cache, DrainKind::Sync).unwrap();
        // Free + revoke, then the block gets a new life as data.
        jbd.forget(&cache, 400);
        cache.invalidate(400);
        bd.write_block(Cat::UserWrite, 400, &vec![0xDD; BLOCK_SIZE]);
        // The revoke must be committed (it rides the next commit).
        cache.write(Cat::Meta, 401, 0, &[1; 8], 0).unwrap();
        jbd.add(&cache, 401);
        jbd.commit(&cache, DrainKind::Sync).unwrap();
        bd.byte_device().crash();
        Jbd::replay(&bd, 1, 64);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bd.read_block(Cat::UserRead, 400, &mut buf);
        assert!(
            buf.iter().all(|&b| b == 0xDD),
            "replay resurrected a revoked block"
        );
    }

    #[test]
    fn disabled_journal_is_noop() {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 256 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 16);
        let jbd = Jbd::open(bd.clone(), 1, 16, false);
        cache.write(Cat::Meta, 100, 0, &[1u8; 64], 0).unwrap();
        jbd.add(&cache, 100);
        let (_, w0, _) = bd.request_counts();
        jbd.commit(&cache, DrainKind::Sync).unwrap();
        let (_, w1, _) = bd.request_counts();
        assert_eq!(w0, w1, "ext2 mode journals nothing");
        // And the page is not pinned: flush_all writes it.
        cache.flush_all(DrainKind::Sync);
        let (_, w2, _) = bd.request_counts();
        assert_eq!(w2, w1 + 1);
    }
}
