//! The tail reservoir: the slowest finished [`OpRecord`]s per op kind.
//!
//! The histograms say *what* the p99 is; the span matrix says where time
//! goes *on average*. Neither says why one particular slow op was slow.
//! A [`FlightRecorder`] keeps, for the slowest operations of each
//! [`OpKind`], the full [`OpRecord`] the op frame assembled: per-phase
//! exclusive ns, per-site lock-wait ns, stall events, fence and byte
//! counts, the buffer-pool shard the op hit, the group-commit batch it
//! rode in, and the trace-ring seq range covering its lifetime. Records
//! double as *exemplars* for the latency histograms —
//! [`FlightSnapshot::cohort`] selects the records whose latency falls in
//! the p99/p999 buckets, so a tail quantile links to concrete anatomies.
//!
//! The recorder is a pure accumulator: finished frames are retired into
//! it by the op scope, which is also the only gate. Retirement is
//! allocation-free — it replaces the caller's reservoir shard's current
//! minimum in place once the top-K slots are full; the only allocations
//! are the lazy first-use reservoir boxes.

use crate::histo::bucket_of;
use crate::scope::{top_k, OpRecord};
use crate::{thread_ordinal, OpKind, Phase, Site, ALL_PHASES, ALL_SITES};
use crate::{COLLECTION_SHARDS, NOPS, NPHASES, NSITES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Records kept per op kind per collection shard. The merged snapshot
/// keeps [`FLIGHT_MERGED_TOPK`]; any globally-top-K record necessarily
/// survives its own shard's top-K pruning, so the merge is exact up to
/// `FLIGHT_TOPK` records per shard.
pub const FLIGHT_TOPK: usize = 8;

/// Records kept per op kind after merging the collection shards.
pub const FLIGHT_MERGED_TOPK: usize = 16;

/// One collection shard's reservoirs: a top-K vector per op kind,
/// boxed and lazily allocated on the shard's first retirement.
type ShardReservoirs = Mutex<Option<Box<[Vec<OpRecord>; NOPS]>>>;

/// Per-file-system tail reservoir: top-K-slowest records per op kind,
/// sharded per thread ordinal so concurrent retirements never serialize
/// on one mutex.
#[derive(Debug)]
pub struct FlightRecorder {
    recorded: AtomicU64,
    shards: [ShardReservoirs; COLLECTION_SHARDS],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// Locks a reservoir shard. A panic mid-retire leaves whole records
/// behind, so a poisoned shard is still valid.
fn lock(shard: &ShardReservoirs) -> MutexGuard<'_, Option<Box<[Vec<OpRecord>; NOPS]>>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            recorded: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(None)),
        }
    }

    /// Operations retired into the reservoirs so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Inserts a finished record into the caller's reservoir shard,
    /// replacing that shard's fastest record once the op's K slots are
    /// full.
    pub(crate) fn retire(&self, rec: &OpRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock(&self.shards[thread_ordinal() % COLLECTION_SHARDS]);
        let slots = guard.get_or_insert_with(|| {
            Box::new(std::array::from_fn(|_| Vec::with_capacity(FLIGHT_TOPK)))
        });
        let v = &mut slots[rec.op as usize];
        if v.len() < FLIGHT_TOPK {
            v.push(*rec);
        } else if let Some(min) = v.iter_mut().min_by_key(|r| r.total_ns) {
            if rec.total_ns > min.total_ns {
                *min = *rec;
            }
        }
    }

    /// Drops every record and zeroes the retire counter (timeline
    /// rebasing, like `Histo::reset`).
    pub fn reset(&self) {
        for shard in &self.shards {
            *lock(shard) = None;
        }
        self.recorded.store(0, Ordering::Relaxed);
    }

    /// Merges the reservoir shards into a frozen snapshot: per op kind,
    /// the up-to-[`FLIGHT_MERGED_TOPK`] slowest records, slowest first,
    /// deterministically ordered.
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut per_op: Vec<Vec<OpRecord>> = vec![Vec::new(); NOPS];
        for shard in &self.shards {
            if let Some(slots) = lock(shard).as_ref() {
                for (op, v) in slots.iter().enumerate() {
                    per_op[op].extend_from_slice(v);
                }
            }
        }
        for v in &mut per_op {
            v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
            v.truncate(FLIGHT_MERGED_TOPK);
        }
        FlightSnapshot {
            per_op,
            recorded: self.recorded(),
        }
    }
}

/// A frozen copy of a [`FlightRecorder`]'s reservoirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    per_op: Vec<Vec<OpRecord>>,
    recorded: u64,
}

impl Default for FlightSnapshot {
    fn default() -> Self {
        FlightSnapshot {
            per_op: vec![Vec::new(); NOPS],
            recorded: 0,
        }
    }
}

impl FlightSnapshot {
    /// Operations retired when the snapshot was taken.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The kept records of one op kind, slowest first.
    pub fn records(&self, op: OpKind) -> &[OpRecord] {
        &self.per_op[op as usize]
    }

    /// Every kept record across all op kinds, slowest first.
    pub fn all(&self) -> Vec<&OpRecord> {
        let mut v: Vec<&OpRecord> = self.per_op.iter().flatten().collect();
        v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
        v
    }

    /// The exemplar cohort of a quantile: every kept record whose
    /// latency bucket is at (or above) the bucket `quantile_ns` falls
    /// in. With `quantile_ns` from the merged histogram's `quantile(q)`,
    /// these are the concrete anatomies behind the reported pXX.
    pub fn cohort(&self, quantile_ns: u64) -> Vec<&OpRecord> {
        let floor = bucket_of(quantile_ns);
        let mut v: Vec<&OpRecord> = self
            .per_op
            .iter()
            .flatten()
            .filter(|r| r.bucket() >= floor)
            .collect();
        v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
        v
    }
}

/// Aggregate anatomy of a set of records (an exemplar cohort): summed
/// phase and wait time, event counts, and the covering trace-seq range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailAnatomy {
    /// Records aggregated.
    pub count: u64,
    /// Summed total latency.
    pub total_ns: u64,
    /// Summed exclusive ns per [`Phase`].
    pub phase_ns: [u64; NPHASES],
    /// Summed blocked ns per [`Site`].
    pub wait_ns: [u64; NSITES],
    /// Summed fences issued.
    pub fences: u64,
    /// Summed fences saved by coalescing.
    pub fences_coalesced: u64,
    /// Summed stall events.
    pub stall_events: u64,
    /// Summed persisted bytes.
    pub persisted_bytes: u64,
    /// Largest group-commit batch seen.
    pub max_batch: u32,
    /// Smallest `seq_start` across the cohort.
    pub seq_lo: u64,
    /// Largest `seq_end` across the cohort.
    pub seq_hi: u64,
}

impl Default for TailAnatomy {
    fn default() -> Self {
        TailAnatomy {
            count: 0,
            total_ns: 0,
            phase_ns: [0; NPHASES],
            wait_ns: [0; NSITES],
            fences: 0,
            fences_coalesced: 0,
            stall_events: 0,
            persisted_bytes: 0,
            max_batch: 0,
            seq_lo: 0,
            seq_hi: 0,
        }
    }
}

impl TailAnatomy {
    /// Sums `records` into one anatomy.
    pub fn aggregate<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> TailAnatomy {
        let mut a = TailAnatomy {
            seq_lo: u64::MAX,
            ..TailAnatomy::default()
        };
        for r in records {
            a.count += 1;
            a.total_ns += r.total_ns;
            for p in 0..NPHASES {
                a.phase_ns[p] += r.phase_ns[p];
            }
            for s in 0..NSITES {
                a.wait_ns[s] += r.wait_ns[s];
            }
            a.fences += r.fences as u64;
            a.fences_coalesced += r.fences_coalesced as u64;
            a.stall_events += r.stall_events as u64;
            a.persisted_bytes += r.persisted_bytes();
            a.max_batch = a.max_batch.max(r.batch);
            a.seq_lo = a.seq_lo.min(r.seq_start);
            a.seq_hi = a.seq_hi.max(r.seq_end);
        }
        if a.count == 0 {
            a.seq_lo = 0;
        }
        a
    }

    /// The `k` largest nonzero phase sums, largest first.
    pub fn top_phases(&self, k: usize) -> Vec<(Phase, u64)> {
        top_k(&ALL_PHASES, &self.phase_ns, k)
    }

    /// The `k` largest nonzero wait sums, largest first.
    pub fn top_waits(&self, k: usize) -> Vec<(Site, u64)> {
        top_k(&ALL_SITES, &self.wait_ns, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::{bucket_lower, bucket_upper, Histo};

    // How records are assembled and when they retire is tested with the
    // op scope in `scope.rs`; these cover the reservoir itself.

    fn record_one(fl: &FlightRecorder, op: OpKind, at_ns: u64, total_ns: u64) {
        let mut rec = OpRecord {
            op,
            at_ns,
            total_ns,
            ..OpRecord::EMPTY
        };
        rec.phase_ns[Phase::Other as usize] = total_ns;
        fl.retire(&rec);
    }

    #[test]
    fn reservoir_keeps_topk_slowest_per_op() {
        let fl = FlightRecorder::new();
        for i in 0..100u64 {
            record_one(&fl, OpKind::Read, i, i + 1);
        }
        assert_eq!(fl.recorded(), 100);
        let snap = fl.snapshot();
        let recs = snap.records(OpKind::Read);
        assert_eq!(recs.len(), FLIGHT_TOPK.min(FLIGHT_MERGED_TOPK));
        assert_eq!(recs[0].total_ns, 100);
        assert!(recs.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        assert_eq!(recs.last().unwrap().total_ns, 100 - FLIGHT_TOPK as u64 + 1);
        fl.reset();
        assert_eq!(fl.recorded(), 0);
        assert!(fl.snapshot().all().is_empty());
    }

    #[test]
    fn exemplars_agree_with_histogram_buckets() {
        // The exemplar ↔ bucket contract: a record keyed to bucket b has
        // bucket_lower(b) <= total_ns <= bucket_upper(b), and the cohort
        // of the histogram's pXX contains exactly the records at or above
        // the quantile's bucket.
        let fl = FlightRecorder::new();
        let h = Histo::new();
        let samples: Vec<u64> = (1..=200u64).map(|i| i * 97).collect();
        for (i, &ns) in samples.iter().enumerate() {
            h.record(ns);
            record_one(&fl, OpKind::Write, i as u64, ns);
        }
        let snap = fl.snapshot();
        for r in snap.all() {
            let b = r.bucket();
            assert!(bucket_lower(b) <= r.total_ns && r.total_ns <= bucket_upper(b));
        }
        let p99 = h.snapshot().quantile(0.99);
        let cohort = snap.cohort(p99);
        assert!(!cohort.is_empty(), "top-K exemplars must cover the p99");
        for r in &cohort {
            assert!(
                r.bucket() >= bucket_of(p99),
                "cohort record below the p99 bucket"
            );
        }
        let a = TailAnatomy::aggregate(cohort.iter().copied());
        assert_eq!(a.count, cohort.len() as u64);
        assert_eq!(a.total_ns, cohort.iter().map(|r| r.total_ns).sum::<u64>());
        assert_eq!(a.phase_ns.iter().sum::<u64>(), a.total_ns);
    }
}
