//! Run metrics: per-op-type time and byte accounting.

use nvmm::ledger::Ledger;
use nvmm::stats::StatsSnapshot;

/// Syscall categories tracked by the runner (the Fig 12 breakdown uses
/// `Read`, `Write`, `Unlink` and `Fsync`). Re-exported from `obsv` so the
/// runner's accounting and the observability layer's histograms share one
/// enum.
pub use obsv::{OpKind, ALL_OPS, NOPS};

/// Metrics collected by one actor (merged into a [`RunReport`]).
#[derive(Debug, Clone, Default)]
pub struct ActorMetrics {
    /// Count per op kind.
    pub ops: [u64; NOPS],
    /// Simulated nanoseconds per op kind.
    pub ns: [u64; NOPS],
    /// Bytes read / written through the VFS.
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Bytes whose durability was explicitly requested: written bytes later
    /// covered by an fsync on the same descriptor (the Fig 2 metric).
    pub fsync_bytes: u64,
    /// Logical workload operations completed (one `step` = one op).
    pub steps: u64,
}

impl ActorMetrics {
    /// Records one syscall.
    pub fn record(&mut self, kind: OpKind, ns: u64) {
        self.ops[kind as usize] += 1;
        self.ns[kind as usize] += ns;
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &ActorMetrics) {
        for i in 0..NOPS {
            self.ops[i] += other.ops[i];
            self.ns[i] += other.ns[i];
        }
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.fsync_bytes += other.fsync_bytes;
        self.steps += other.steps;
    }
}

/// The aggregated result of one run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-op metrics across all actors.
    pub metrics: ActorMetrics,
    /// Elapsed simulated time (max actor clock; wall time in spin mode).
    pub elapsed_ns: u64,
    /// Ledger delta over the run (model-cost categories for Fig 1).
    pub ledger: Ledger,
    /// Device counter delta over the run (NVMM write bytes for Fig 9b).
    pub device: StatsSnapshot,
    /// Metrics-registry delta over the run, when a registry was attached
    /// via [`crate::runner::Runner::with_registry`].
    pub registry: Option<obsv::RegistrySnapshot>,
    /// Number of actors (threads).
    pub actors: usize,
    /// The first failed step as (actor index, error); that actor stopped
    /// there, the others ran on. Spin mode reports the lowest index.
    pub error: Option<(usize, fskit::FsError)>,
}

impl RunReport {
    /// Total syscalls issued.
    pub fn total_ops(&self) -> u64 {
        self.metrics.ops.iter().sum()
    }

    /// Workload throughput in logical operations per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.metrics.steps as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Time spent in one op kind, ns.
    pub fn op_ns(&self, kind: OpKind) -> u64 {
        self.metrics.ns[kind as usize]
    }

    /// Count of one op kind.
    pub fn op_count(&self, kind: OpKind) -> u64 {
        self.metrics.ops[kind as usize]
    }

    /// Total simulated time spent inside syscalls.
    pub fn syscall_ns(&self) -> u64 {
        self.metrics.ns.iter().sum()
    }

    /// Fraction of written bytes that were explicitly synchronized
    /// (Fig 2).
    pub fn fsync_byte_fraction(&self) -> f64 {
        if self.metrics.bytes_written == 0 {
            return 0.0;
        }
        self.metrics.fsync_bytes as f64 / self.metrics.bytes_written as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = ActorMetrics::default();
        a.record(OpKind::Read, 100);
        a.record(OpKind::Read, 50);
        a.record(OpKind::Fsync, 10);
        let mut b = ActorMetrics::default();
        b.record(OpKind::Read, 1);
        b.merge(&a);
        assert_eq!(b.ops[OpKind::Read as usize], 3);
        assert_eq!(b.ns[OpKind::Read as usize], 151);
        assert_eq!(b.ops[OpKind::Fsync as usize], 1);
    }

    #[test]
    fn report_ratios() {
        let mut r = RunReport::default();
        r.metrics.bytes_written = 1000;
        r.metrics.fsync_bytes = 900;
        r.metrics.steps = 500;
        r.elapsed_ns = 1_000_000_000;
        assert!((r.fsync_byte_fraction() - 0.9).abs() < 1e-9);
        assert!((r.throughput() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in ALL_OPS {
            assert!(seen.insert(op.label()));
        }
    }
}
