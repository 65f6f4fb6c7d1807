//! Live state introspection and the online invariant auditor for HiNFS.
//!
//! [`Introspect::snapshot`] answers "what is in the write buffer right
//! now": occupancy against `Low_f`/`High_f`, the LRW age distribution, the
//! per-block dirty-cacheline population from the Cacheline Bitmaps, the
//! Eager/Lazy split of the Buffer Benefit Model, ghost-buffer size, open
//! deferred-commit transactions, and the PMFS journal fill — all under one
//! hold of the shared buffer lock so the numbers are mutually consistent.
//!
//! [`Introspect::audit`] checks the structural invariants that tie the
//! DRAM Block Index, the Cacheline Bitmaps and the LRW list together (see
//! [`obsv::AUDIT_INVARIANTS`] codes 0–9), then folds in the PMFS journal's
//! own audit. Both calls take only the subsystem's regular locks and never
//! mutate state, so running them cannot change any workload result.
//!
//! The cross-layer accounting checks (codes 8 and 9, and the mount-wide
//! half of code 2: Σ linked + budget free == capacity) compare counters
//! that quiesce between operations, and the folded-in PMFS audit walks
//! namespace and block trees. Both are only exact when no mutator is
//! mid-operation, so the *in-band* auditor (fsync/writeback hooks) skips
//! them in spin mode, where other real threads run concurrently: there a
//! journal transaction legitimately exists for a moment before its file
//! FIFO entry does. The shard-local checks (codes 0–7) run under each
//! shard's lock and hold at every lock release, so they stay on in every
//! mode. A quiescent [`Introspect::audit`] call (end of run, unmount,
//! post-recovery) always runs the full set.

use obsv::{dirty_line_bucket, lrw_age_bucket, AuditReport, BufferSnap, FsSnapshot, Introspect};

use crate::fs::Hinfs;

impl Hinfs {
    /// Runs the auditor and records the result (trace events plus the
    /// `obsv_audit_*` counters) when the mount has auditing enabled.
    pub(crate) fn maybe_audit(&self) {
        if self.cfg.audit {
            // In spin mode other threads are mid-operation; only the
            // shard-local invariants are exact (see the module doc).
            let quiescent = self.env.mode() == nvmm::TimeMode::Virtual;
            let rep = self.audit_inner(quiescent);
            self.obs.record_audit(&rep);
        }
    }
}

impl Introspect for Hinfs {
    fn snapshot(&self) -> FsSnapshot {
        let now = self.env.now();
        let mut b = BufferSnap {
            // The budget is the mount's, counted once — not per shard.
            capacity_blocks: self.buffer_capacity() as u64,
            free_blocks: self.free_buffer_blocks() as u64,
            low_blocks: self.cfg.low_blocks() as u64,
            high_blocks: self.cfg.high_blocks() as u64,
            ..BufferSnap::default()
        };
        // Shards are visited in index order, each under its own lock; the
        // numbers are mutually consistent per shard (in virtual mode whole
        // operations are atomic, so the aggregate is consistent too).
        let mut resident_eager = 0u64;
        for shard in &self.shards {
            let sh = shard.lock();
            let pool = sh.pool();
            b.occupied_blocks += pool.lrw.len() as u64;
            b.shard_occupied_blocks.push(pool.lrw.len() as u64);
            b.dirty_blocks += sh.dirty_blocks as u64;
            for slot in pool.lrw.iter_from_tail() {
                let m = pool.meta(slot);
                b.dirty_line_histo[dirty_line_bucket(m.dirty.count_ones())] += 1;
                b.lrw_age_histo[lrw_age_bucket(now.saturating_sub(m.last_write_ns))] += 1;
            }
            if let Some(tail) = pool.lrw.tail() {
                let age = now.saturating_sub(pool.meta(tail).last_write_ns);
                b.lrw_oldest_age_ns = b.lrw_oldest_age_ns.max(age);
            }
            b.files_tracked += sh.files.len() as u64;
            // HashMap iteration order is arbitrary; sort so repeated
            // snapshots of identical state are identical.
            let mut inos: Vec<u64> = sh.files.keys().copied().collect();
            inos.sort_unstable();
            for ino in inos {
                let f = &sh.files[&ino];
                b.eager_blocks += f.eager.len() as u64;
                b.bbm_tracked_blocks += f.bbm.len() as u64;
                b.open_txs += f.txs.len() as u64;
                resident_eager += f
                    .eager
                    .keys()
                    .filter(|&&iblk| f.index.get(iblk).is_some())
                    .count() as u64;
                b.ghost_blocks += f
                    .bbm
                    .keys()
                    .filter(|&&iblk| f.index.get(iblk).is_none())
                    .count() as u64;
            }
        }
        // Eager blocks are evicted when they flip, so resident eager slots
        // only exist transiently; everything else occupied is lazy.
        b.lazy_buffered_blocks = b.occupied_blocks.saturating_sub(resident_eager);
        let s = self.stats.snapshot();
        b.bbm_evals = s.bbm_evals;
        b.bbm_accurate = s.bbm_accurate;
        FsSnapshot {
            system: fskit::FileSystem::name(self).into(),
            at_ns: now,
            buffer: Some(b),
            journal: Some(self.inner.journal().usage().snap()),
            lineage: self.obs.full().then(|| self.obs.lineage().snap()),
            ..FsSnapshot::default()
        }
    }

    fn audit(&self) -> AuditReport {
        self.audit_inner(true)
    }
}

impl Hinfs {
    /// The audit body. `quiescent: false` restricts the pass to the
    /// shard-local invariants (codes 0–7), which hold at every shard-lock
    /// release even while other threads mutate; `true` adds the
    /// cross-layer sums (codes 8–9) and the PMFS walk, which are only
    /// exact with no operation in flight.
    fn audit_inner(&self, quiescent: bool) -> AuditReport {
        let mut rep = AuditReport::new(self.env.now());
        let mut open_sum = 0u64;
        let cap = self.buffer_capacity() as u64;
        // config.watermarks: low < high <= capacity, over the one budget.
        let high = self.cfg.high_blocks() as u64;
        rep.check_lt(6, 0, 0, self.cfg.low_blocks() as u64, high);
        rep.check_le(6, 0, 0, high, cap);
        let (free, mut linked_sum) = (self.free_buffer_blocks() as u64, 0u64);
        // Per-shard structural checks: each shard is its own arena + index
        // + LRW universe, so codes 0–7 hold shard-locally.
        for shard in &self.shards {
            let sh = shard.lock();
            let pool = sh.pool();
            linked_sum += pool.lrw.len() as u64;
            // lrw.accounting: every arena slot is either linked or idle.
            let slots = pool.slots() as u64;
            rep.check_eq(2, 0, 0, (pool.lrw.len() + pool.idle_slots()) as u64, slots);
            // One pass from the LRW tail: bitmap containment, chain
            // integrity, and the dirty-slot population. (Write *stamps* are
            // not compared: the workload runner gives each actor its own
            // virtual timeline, so `last_write_ns` is only monotonic per
            // actor, while the list itself orders by global touch
            // sequence.)
            let mut dirty_seen = 0u64;
            let mut walked = 0u64;
            let mut newest = None;
            for slot in pool.lrw.iter_from_tail() {
                let m = pool.meta(slot);
                if m.dirty != 0 {
                    dirty_seen += 1;
                }
                // bitmap.dirty_subset_valid: a line must hold data to need
                // writeback.
                rep.check_eq(4, m.ino, m.iblk, m.dirty, m.dirty & m.valid);
                walked += 1;
                newest = Some(slot);
            }
            // lrw.order: the tail-to-head chain covers every linked slot
            // exactly once and ends at the head — a broken or cyclic chain
            // either shorts the walk or never reaches the head.
            rep.check_eq(3, 0, 0, walked, pool.lrw.len() as u64);
            if walked == pool.lrw.len() as u64 {
                let head = pool.lrw.head().map_or(u64::MAX, u64::from);
                rep.check_eq(3, 0, 0, newest.map_or(u64::MAX, u64::from), head);
            }
            // buffer.dirty_count: the incremental gauge matches a full
            // count.
            rep.check_eq(5, 0, 0, dirty_seen, sh.dirty_blocks as u64);
            let mut inos: Vec<u64> = sh.files.keys().copied().collect();
            inos.sort_unstable();
            let mut index_entries = 0u64;
            for &ino in &inos {
                let f = &sh.files[&ino];
                index_entries += f.index.len() as u64;
                open_sum += f.txs.len() as u64;
                // index.slot_owner: each index entry points at a slot bound
                // to exactly this (ino, iblk).
                f.index.for_each(&mut |iblk, slot: &u32| {
                    let m = pool.meta(*slot);
                    rep.check_eq(0, ino, iblk, m.ino, ino);
                    rep.check_eq(0, ino, iblk, m.iblk, iblk);
                });
                // tx.pending_buffered: a block gating a deferred commit
                // must still be buffered dirty, else the commit could never
                // drain.
                for t in &f.txs {
                    let mut blocks: Vec<u64> = t.pending.iter().copied().collect();
                    blocks.sort_unstable();
                    for iblk in blocks {
                        let buffered_dirty =
                            f.index.get(iblk).is_some_and(|&s| pool.meta(s).dirty != 0);
                        rep.check_eq(7, ino, iblk, buffered_dirty as u64, 1);
                    }
                }
            }
            // index.coverage: with slot owners verified, equal counts make
            // the index-entry <-> occupied-slot relation a bijection.
            rep.check_eq(1, 0, 0, index_entries, pool.lrw.len() as u64);
        }
        if quiescent {
            // lrw.accounting, mount-wide: every block of the budget is
            // either free or linked in exactly one shard. (A background
            // pass still draining after a spin-mode run only releases:
            // an unchanged count says the walk raced with nothing.)
            if free == self.free_buffer_blocks() as u64 {
                rep.check_eq(2, 0, 0, linked_sum + free, cap);
            }
            // tx.accounting: the opened/committed counters explain every
            // open transaction, summed over all shards.
            let s = self.stats.snapshot();
            rep.check_eq(
                8,
                0,
                0,
                s.txs_opened.saturating_sub(s.txs_committed),
                open_sum,
            );
            // journal.reserved (cross-layer): every journal-side open
            // transaction belongs to some file's FIFO in some shard.
            rep.check_eq(9, 0, 0, self.inner.journal().usage().open_txs, open_sum);
            // lineage.sync_decay_bound: no acked write may stay volatile
            // longer than the mount's own staleness promise — the 30 s
            // dirty-age rule plus up to two periodic-pass periods of
            // scheduling slack.
            if self.obs.full() {
                let bound = self.cfg.dirty_age_ns + 2 * self.cfg.periodic_wb_ns;
                rep.check_le(14, 0, 0, self.obs.lineage().max_lag_ns(), bound);
            }
            rep.merge(Introspect::audit(self.inner.as_ref()));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, OpenFlags};
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use obsv::Introspect;
    use pmfs::PmfsOptions;

    use crate::fs::Hinfs;
    use crate::HinfsConfig;

    fn fresh(cfg: HinfsConfig) -> Arc<Hinfs> {
        let env = SimEnv::new_virtual(CostModel::default());
        env.set_now(0);
        let dev = NvmmDevice::new_tracked(env, 16384 * BLOCK_SIZE);
        Hinfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 128,
                inode_count: 512,
            },
            cfg,
        )
        .unwrap()
    }

    fn small_cfg() -> HinfsConfig {
        HinfsConfig::default().with_buffer_bytes(64 * BLOCK_SIZE)
    }

    fn populate(fs: &Arc<Hinfs>) -> fskit::Fd {
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
        fs.write(fd, 0, &vec![0xAB; 5 * BLOCK_SIZE]).unwrap();
        fs.write(fd, 100, &[1, 2, 3]).unwrap();
        // A sub-line write buffers block 5 with most lines still invalid.
        fs.write(fd, 5 * BLOCK_SIZE as u64 + 100, &[9, 9]).unwrap();
        fd
    }

    #[test]
    fn snapshot_agrees_with_pool_and_stats() {
        let fs = fresh(small_cfg());
        let fd = populate(&fs);
        let snap = fs.snapshot();
        let b = snap.buffer.as_ref().unwrap();
        assert_eq!(b.capacity_blocks, fs.config().buffer_blocks() as u64);
        assert_eq!(b.occupied_blocks, b.capacity_blocks - b.free_blocks);
        assert!(b.dirty_blocks >= 5, "five blocks written lazily");
        assert_eq!(
            b.dirty_line_histo.iter().sum::<u64>(),
            b.occupied_blocks,
            "every occupied block lands in exactly one dirty-line bucket"
        );
        assert_eq!(b.lrw_age_histo.iter().sum::<u64>(), b.occupied_blocks);
        assert_eq!(b.low_blocks, fs.config().low_blocks() as u64);
        assert_eq!(b.high_blocks, fs.config().high_blocks() as u64);
        assert_eq!(b.files_tracked, 1);
        assert!(b.open_txs >= 1, "the size-changing write deferred a commit");
        let j = snap.journal.as_ref().unwrap();
        assert_eq!(j.open_txs, b.open_txs, "journal and tracker agree");
        assert_eq!(
            j.capacity_entries,
            j.fill_entries + j.reserved_entries + j.free_entries
        );
        // The dirty population drains after fsync.
        fs.fsync(fd).unwrap();
        let after = fs.snapshot();
        assert_eq!(after.buffer.as_ref().unwrap().dirty_blocks, 0);
        assert_eq!(after.journal.as_ref().unwrap().open_txs, 0);
        assert!(after.to_json().contains("\"buffer\":{"));
        fs.close(fd).unwrap();
    }

    #[test]
    fn audit_is_clean_through_a_workload() {
        let fs = fresh(small_cfg().with_audit());
        let fd = populate(&fs);
        let rep = fs.audit();
        assert!(rep.is_clean(), "violations: {:?}", rep.violations);
        assert!(rep.checks > 10, "the pass actually checked relations");
        // fsync runs the auditor itself under the flag.
        fs.fsync(fd).unwrap();
        assert!(fs.obs().audit_checks() > 0);
        assert_eq!(fs.obs().audit_violations(), 0);
        assert!(fs.audit().is_clean());
        fs.close(fd).unwrap();
        fs.unmount().unwrap();
    }

    #[test]
    fn corrupted_bitmap_is_caught_as_violation() {
        let fs = fresh(small_cfg());
        let _fd = populate(&fs);
        let ino = fs.stat("/f").unwrap().ino;
        // Flip a dirty bit with no backing valid line — exactly the class
        // of bug the Cacheline Bitmap invariant exists to catch.
        {
            let mut sh = fs.shard(ino).lock();
            let slot = sh.slot_of(ino, 5).expect("block 5 is buffered");
            let m = sh.pool_mut().meta_mut(slot);
            let stray = !m.valid;
            assert_ne!(stray, 0, "partial write leaves invalid lines");
            m.dirty |= 1u64 << (63 - stray.leading_zeros());
        }
        let rep = fs.audit();
        assert!(!rep.is_clean());
        let v = rep
            .violations
            .iter()
            .find(|v| v.invariant() == "bitmap.dirty_subset_valid")
            .expect("bitmap violation reported");
        assert_eq!((v.ino, v.iblk), (ino, 5));
        // Recording surfaces it on the counter and the trace ring.
        fs.obs().record_audit(&rep);
        assert!(fs.obs().audit_violations() >= 1);
        let traced = fs
            .obs()
            .trace
            .tail(16)
            .into_iter()
            .any(|r| r.ev.kind() == "audit.violation");
        assert!(traced, "violation emitted as a trace event");
    }

    #[test]
    fn snapshot_serialization_is_deterministic() {
        let fs = fresh(small_cfg());
        let _fd = populate(&fs);
        let a = fs.snapshot();
        let b = fs.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }
}
