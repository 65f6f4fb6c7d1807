//! Ordered-mode transaction tracking (paper §4.1).
//!
//! A lazy-persistent write journals and applies its metadata immediately
//! but must not write the commit record "until the related DRAM data
//! blocks are persisted to NVMM". Each file keeps its open transactions in
//! a FIFO ([`FileBuf::txs`]); a transaction commits only when
//!
//! 1. every data block it covers has been flushed (its `pending` set is
//!    empty), **and**
//! 2. it is the oldest open transaction of the file.
//!
//! Rule 2 is essential for undo-log correctness: transactions of one file
//! all journal the same inode core, and undo records are only safe to leave
//! behind if commits happen in logging order — otherwise recovery of an
//! older open transaction would roll back a newer committed one.
//!
//! Each open transaction carries a lineage [`obsv::Stamp`]: the deferred
//! commit record is the moment the journaled metadata becomes durable, so
//! a drain is recorded against the stamp when the commit happens — lag 0
//! when the commit runs inside the synchronization the caller asked for
//! ([`obsv::DrainKind::Sync`]), the real ack-to-commit age when the
//! writeback machinery commits it behind the caller's back.

use std::collections::HashSet;

use obsv::{DrainKind, FsObs};
use pmfs::{InodeLogged, Journal, TxHandle};

use crate::buffer::{FileBuf, LocalTx};
use crate::stats::HinfsStats;

/// Enqueues a transaction with the blocks whose flush it awaits and the
/// lineage stamp of the journaling op. Pass an empty set for transactions
/// with no buffered data (they still wait their FIFO turn). `logged` is
/// the witness that `tx` journaled the file's inode core: every queued
/// transaction holds an image of it, which is what lets a flush that maps
/// blocks rewrite the core beneath the oldest one instead of journaling
/// it again (`Hinfs::map_fresh_blocks`).
pub fn enqueue(
    file: &mut FileBuf,
    tx: TxHandle,
    logged: InodeLogged,
    pending: HashSet<u64>,
    stamp: obsv::Stamp,
    stats: &HinfsStats,
) {
    HinfsStats::bump(&stats.txs_opened, 1);
    file.txs.push_back(LocalTx {
        tx,
        logged,
        pending,
        stamp,
    });
}

/// Records that the blocks `iblks` of `file` reached NVMM: clears them
/// from every open transaction and commits the ready prefix, once for the
/// whole flush batch. The commit drains inherit the flush's drain kind (a
/// flush inside fsync commits synchronously; a writeback-pass flush
/// commits behind the caller's back).
pub fn note_flushed(
    file: &mut FileBuf,
    journal: &Journal,
    iblks: &[u64],
    obs: &FsObs,
    kind: DrainKind,
    now: u64,
    stats: &HinfsStats,
) {
    for t in &mut file.txs {
        for iblk in iblks {
            t.pending.remove(iblk);
        }
    }
    drain_ready(file, journal, obs, kind, now, stats);
}

/// Commits transactions from the front of the FIFO while they are ready —
/// as one group commit, so a drain of N transactions costs one journal
/// lock hold and two fences instead of two fences per transaction.
pub fn drain_ready(
    file: &mut FileBuf,
    journal: &Journal,
    obs: &FsObs,
    kind: DrainKind,
    now: u64,
    stats: &HinfsStats,
) {
    let ready = file.txs.iter().take_while(|t| t.pending.is_empty()).count();
    if ready == 0 {
        return;
    }
    let mut batch = Vec::with_capacity(ready);
    for t in file.txs.drain(..ready) {
        // Metadata commit: durability lag only, no data bytes drain.
        obs.record_drain(&t.stamp, kind, now, 0);
        batch.push(t.tx);
    }
    HinfsStats::bump(&stats.txs_committed, ready as u64);
    journal.commit_group(batch);
}

/// Force-commits every open transaction of the file, dropping pending-block
/// requirements. Used when the file's buffered data is discarded (unlink of
/// a file whose writes will never be performed — with allocate-on-flush the
/// unflushed blocks are holes, so committing early exposes zeroes at worst,
/// never garbage). The data never needed durability, so the commits record
/// sync (lag-0) drains.
pub fn force_commit_all(file: &mut FileBuf, journal: &Journal, obs: &FsObs, stats: &HinfsStats) {
    let mut batch = Vec::with_capacity(file.txs.len());
    for t in file.txs.drain(..) {
        obs.record_drain(&t.stamp, DrainKind::Sync, 0, 0);
        batch.push(t.tx);
    }
    HinfsStats::bump(&stats.txs_committed, batch.len() as u64);
    journal.commit_group(batch);
}

/// Number of open transactions across every file (diagnostics).
pub fn open_count(file: &FileBuf) -> usize {
    file.txs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};
    use std::sync::Arc;

    fn pmfs() -> Arc<Pmfs> {
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1024 * BLOCK_SIZE);
        let opts = PmfsOptions {
            journal_blocks: 32,
            inode_count: 64,
        };
        Pmfs::mkfs(dev, opts).unwrap()
    }

    /// An open transaction that journaled the root inode's core, as every
    /// transaction a file queues has journaled that file's.
    fn open_tx(fs: &Pmfs) -> (TxHandle, InodeLogged) {
        let tx = fs.journal().begin().unwrap();
        let root = fs.resolve_path("/").unwrap();
        let core = *root.state.read();
        let logged = fs.log_write_inode(&tx, root.ino, &core).unwrap();
        (tx, logged)
    }

    fn pending(iblks: &[u64]) -> HashSet<u64> {
        iblks.iter().copied().collect()
    }

    fn no_stamp() -> obsv::Stamp {
        obsv::Stamp::default()
    }

    #[test]
    fn fifo_commit_order_is_preserved() {
        let fs = pmfs();
        let j = fs.journal();
        let stats = HinfsStats::new();
        let lin = FsObs::default();
        let mut f = FileBuf::new();
        let (t1, l1) = open_tx(&fs);
        let (t2, l2) = open_tx(&fs);
        enqueue(&mut f, t1, l1, pending(&[1]), no_stamp(), &stats);
        enqueue(&mut f, t2, l2, pending(&[2]), no_stamp(), &stats);
        // Block 2 flushes first: t2 is ready but t1 blocks the FIFO.
        note_flushed(&mut f, j, &[2], &lin, DrainKind::Sync, 0, &stats);
        assert_eq!(f.txs.len(), 2, "t2 must wait for t1");
        assert_eq!(j.open_txs(), 2);
        // Block 1 flushes: both drain in order.
        note_flushed(&mut f, j, &[1], &lin, DrainKind::Sync, 0, &stats);
        assert!(f.txs.is_empty());
        assert_eq!(j.open_txs(), 0);
        assert_eq!(stats.snapshot().txs_committed, 2);
    }

    #[test]
    fn shared_block_across_transactions() {
        let fs = pmfs();
        let j = fs.journal();
        let stats = HinfsStats::new();
        let lin = FsObs::default();
        let mut f = FileBuf::new();
        let (t1, l1) = open_tx(&fs);
        let (t2, l2) = open_tx(&fs);
        enqueue(&mut f, t1, l1, pending(&[5]), no_stamp(), &stats);
        enqueue(&mut f, t2, l2, pending(&[5, 6]), no_stamp(), &stats);
        note_flushed(&mut f, j, &[5], &lin, DrainKind::Sync, 0, &stats);
        assert_eq!(f.txs.len(), 1, "t1 committed, t2 still waits on 6");
        note_flushed(&mut f, j, &[6], &lin, DrainKind::Sync, 0, &stats);
        assert!(f.txs.is_empty());
    }

    #[test]
    fn empty_pending_still_waits_its_turn() {
        let fs = pmfs();
        let j = fs.journal();
        let stats = HinfsStats::new();
        let lin = FsObs::default();
        let mut f = FileBuf::new();
        let (t1, l1) = open_tx(&fs);
        let (t2, l2) = open_tx(&fs);
        enqueue(&mut f, t1, l1, pending(&[9]), no_stamp(), &stats);
        enqueue(&mut f, t2, l2, HashSet::new(), no_stamp(), &stats);
        drain_ready(&mut f, j, &lin, DrainKind::Sync, 0, &stats);
        assert_eq!(f.txs.len(), 2, "ready t2 must not jump over t1");
        note_flushed(&mut f, j, &[9], &lin, DrainKind::Sync, 0, &stats);
        assert!(f.txs.is_empty());
    }

    #[test]
    fn force_commit_clears_everything() {
        let fs = pmfs();
        let j = fs.journal();
        let stats = HinfsStats::new();
        let lin = FsObs::default();
        let mut f = FileBuf::new();
        for i in 0..5u64 {
            let (t, l) = open_tx(&fs);
            enqueue(&mut f, t, l, pending(&[i]), no_stamp(), &stats);
        }
        force_commit_all(&mut f, j, &lin, &stats);
        assert!(f.txs.is_empty());
        assert_eq!(j.open_txs(), 0);
        assert_eq!(stats.snapshot().txs_committed, 5);
    }

    #[test]
    fn deferred_commits_record_lag_against_the_stamp() {
        let fs = pmfs();
        let j = fs.journal();
        let stats = HinfsStats::new();
        let lin = FsObs::default();
        lin.set_level(obsv::Level::Full);
        let mut f = FileBuf::new();
        let (t1, l1) = open_tx(&fs);
        let stamp = lin.stamp(1_000);
        enqueue(&mut f, t1, l1, pending(&[1]), stamp, &stats);
        // A writeback-pass flush 4 µs later commits the deferred tx with
        // real lag; a sync commit would have asserted 0.
        note_flushed(&mut f, j, &[1], &lin, DrainKind::Lazy, 5_000, &stats);
        let s = lin.lineage().snap();
        assert_eq!(s.drains_lazy, 1);
        assert_eq!(s.max_lag_ns, 4_000);
    }
}
