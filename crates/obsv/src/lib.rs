//! Unified observability layer for the HiNFS reproduction suite.
//!
//! One pipeline, dependency-free and cheap enough to thread through
//! every crate in the workspace:
//!
//! - every instrumented syscall runs inside [`FsObs::op`], which opens
//!   the calling thread's op frame; while it is open every hook
//!   (`note_*`, [`SpanTable::scope`], lock-wait samples) writes one
//!   [`OpRecord`];
//! - when the outermost scope closes, the record is folded once into
//!   the aggregations: [`Histo`] latency histograms per [`OpKind`], the
//!   [`SpanTable`] phase matrix, the [`LineageTable`] write-amplification
//!   ledger and the [`FlightRecorder`] tail reservoir;
//! - beside the per-op pipeline sit the event-driven pieces: the
//!   [`TraceRing`] of structured [`TraceEvent`]s, the [`ContentionTable`]
//!   lock/stall profiler, and [`MetricsRegistry`] / [`MetricSource`],
//!   which unify every counter struct behind one exposition.
//!
//! One [`Level`] switches all of it, **off by default**: the syscall
//! wrapper then costs one relaxed load and each `note_*` hook one
//! thread-local read.

mod contention;
mod coverage;
mod flight;
mod histo;
mod lineage;
mod registry;
mod scope;
mod snapshot;
mod span;
mod trace;

pub use contention::{
    ContentionSnapshot, ContentionTable, Site, SiteSnapshot, TrackedCondvar, TrackedMutex,
    TrackedMutexGuard, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard, WaitTimeoutResult,
    ALL_SITES, HINFS_SHARD_SITES, NSHARDS, NSITES, PMFS_ALLOC_SHARD_SITES, PMFS_INODE_SHARD_SITES,
    PMFS_NS_SHARD_SITES,
};
pub use coverage::{mag_bucket, CoverageDomain, CoverageMap, COVERAGE_DOMAINS};
pub use flight::{FlightRecorder, FlightSnapshot, TailAnatomy, FLIGHT_MERGED_TOPK, FLIGHT_TOPK};
pub use histo::{
    bucket_lower, bucket_of, bucket_upper, Histo, HistoSnapshot, N_BUCKETS, SUB_BUCKETS,
};
pub use lineage::{
    DrainKind, Layer, LineageSnap, LineageTable, Stamp, ALL_LAYERS, LINEAGE_ROWS, NLAYERS,
};
pub use registry::{Counter, MetricSource, MetricsRegistry, RegistrySnapshot, Visitor};
pub use scope::{
    detached, note_batch, note_buffered, note_fence, note_journaled, note_logical, note_persisted,
    note_shard, BgScope, OpRecord, NO_SHARD,
};
pub use snapshot::{
    dirty_line_bucket, invariant_label, lrw_age_bucket, AuditReport, AuditViolation, BufferSnap,
    CacheSnap, DeviceSnap, FsSnapshot, Introspect, JournalSnap, AUDIT_INVARIANTS,
    DIRTY_LINE_BUCKETS, LRW_AGE_BOUNDS_NS, LRW_AGE_BUCKETS, SNAPSHOT_SCHEMA_VERSION,
};
pub use span::{row_label, Phase, SpanSnapshot, SpanTable, ALL_PHASES, BG_ROW, NPHASES, SPAN_ROWS};
pub use trace::{TraceEvent, TraceRecord, TraceRing};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// The simulation clock the observability layer reads (simulated ns):
/// injected once by the environment, shared by every table of the
/// machine, only ever read — observing never advances time.
#[derive(Clone)]
pub struct Clock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl Clock {
    /// Wraps a time source.
    pub fn new(now: impl Fn() -> u64 + Send + Sync + 'static) -> Clock {
        Clock(Arc::new(now))
    }

    /// The current time.
    #[inline]
    pub fn now(&self) -> u64 {
        (self.0)()
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

/// How much the observability layer records — the one switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Level {
    /// Nothing: every hook is one load.
    #[default]
    Off = 0,
    /// Event counters only, no clock reads: the trace ring, and lock
    /// acquisition/contention counts.
    Counts = 1,
    /// Everything: per-op records and all their folds (latency
    /// histograms, span matrix, lineage ledger, tail reservoir), plus
    /// lock wait/hold histograms and the site × op matrix.
    Full = 2,
}

impl Level {
    pub(crate) fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Counts,
            _ => Level::Full,
        }
    }
}

/// Shards used by the per-thread collection structures (the tail
/// reservoir, the trace ring's segments). A power of two so `ordinal %
/// SHARDS` is a mask.
pub const COLLECTION_SHARDS: usize = 8;

static THREAD_COUNTER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small dense id for the calling thread: 0 for the first thread that
/// asks, 1 for the next, and so on for the life of the process. Cached
/// in a thread-local, so the steady-state cost is one TLS read. Shard
/// selectors take this modulo their shard count — single-threaded runs
/// therefore always land in shard 0, which keeps them bit-identical to
/// the unsharded layout.
#[inline]
pub fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|o| {
        let v = o.get();
        if v != usize::MAX {
            return v;
        }
        let v = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
        o.set(v);
        v
    })
}

/// Syscall categories tracked per file system (the Fig 12 breakdown uses
/// `Read`, `Write`, `Unlink` and `Fsync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    Open = 0,
    Close = 1,
    Read = 2,
    Write = 3,
    Fsync = 4,
    Unlink = 5,
    Mkdir = 6,
    Readdir = 7,
    Stat = 8,
    Rename = 9,
    Truncate = 10,
}

/// Number of [`OpKind`] variants.
pub const NOPS: usize = 11;

/// All op kinds in discriminant order.
pub const ALL_OPS: [OpKind; NOPS] = [
    OpKind::Open,
    OpKind::Close,
    OpKind::Read,
    OpKind::Write,
    OpKind::Fsync,
    OpKind::Unlink,
    OpKind::Mkdir,
    OpKind::Readdir,
    OpKind::Stat,
    OpKind::Rename,
    OpKind::Truncate,
];

impl OpKind {
    /// Stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Unlink => "unlink",
            OpKind::Mkdir => "mkdir",
            OpKind::Readdir => "readdir",
            OpKind::Stat => "stat",
            OpKind::Rename => "rename",
            OpKind::Truncate => "truncate",
        }
    }
}

/// Per-file-system observability bundle: the level switch, one latency
/// histogram per op kind, the trace ring, the lineage ledger and the tail
/// reservoir. [`FsObs::op`] and [`FsObs::bg_scope`] (the per-op scope)
/// are the only way records reach the accumulators.
#[derive(Debug)]
pub struct FsObs {
    level: AtomicU8,
    ops: [Histo; NOPS],
    /// The structured event ring, shared with subsystems (journal) that
    /// emit into the same timeline.
    pub trace: Arc<TraceRing>,
    /// The device's span matrix: finished frames fold their phase totals
    /// into it, its clock times the ops, and this bundle's exposition
    /// includes the OpKind × Phase breakdown.
    spans: Arc<SpanTable>,
    /// Invariant relations checked by the online auditor.
    audit_checks: AtomicU64,
    /// Invariants found broken. Non-zero means structural corruption.
    audit_violations: AtomicU64,
    /// The top-K tail reservoir (slowest finished op records).
    flight: FlightRecorder,
    /// The data-lifecycle provenance ledger (durability lag, per-layer
    /// write amplification).
    lineage: LineageTable,
}

impl Default for FsObs {
    /// A bundle attached to no device (a private span table on a stopped
    /// clock) — for tools and tests that only need the ledgers.
    fn default() -> Self {
        FsObs::new(Arc::new(SpanTable::new(Clock::new(|| 0))))
    }
}

impl FsObs {
    /// A bundle at [`Level::Off`] folding into `spans` (the table of the
    /// device the file system is mounted on) and reading its clock.
    pub fn new(spans: Arc<SpanTable>) -> FsObs {
        FsObs {
            level: AtomicU8::new(Level::Off as u8),
            ops: std::array::from_fn(|_| Histo::new()),
            trace: Arc::new(TraceRing::new(1024)),
            spans,
            audit_checks: AtomicU64::new(0),
            audit_violations: AtomicU64::new(0),
            flight: FlightRecorder::new(),
            lineage: LineageTable::new(),
        }
    }

    /// The recording level — one relaxed load, the whole cost of the
    /// syscall wrapper below [`Level::Full`].
    #[inline]
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Switches the recording level: the trace ring captures from
    /// [`Level::Counts`] up, per-op records exist at [`Level::Full`].
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
        self.trace.set_enabled(level != Level::Off);
    }

    /// Whether per-op records (and so lineage stamps and drains) are
    /// being kept.
    #[inline]
    pub fn full(&self) -> bool {
        self.level() == Level::Full
    }

    /// The tail reservoir bundled with this file system.
    #[inline]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The data-lifecycle provenance ledger bundled with this file
    /// system.
    #[inline]
    pub fn lineage(&self) -> &LineageTable {
        &self.lineage
    }

    /// Creates an ack stamp for data entering a volatile staging layer:
    /// captures the op in flight (provenance), `now`, and the trace
    /// ring's seq ticket. Returns the default stamp below
    /// [`Level::Full`] — stamps are pure observation, so callers store
    /// it unconditionally.
    pub fn stamp(&self, now_ns: u64) -> Stamp {
        if !self.full() {
            return Stamp::default();
        }
        self.lineage.count_stamp();
        Stamp {
            ack_ns: now_ns,
            seq: self.trace.emitted(),
            row: scope::stamp_row() as u8,
        }
    }

    /// Records one drain retiring a stamp: `bytes` drained to NVMM on
    /// behalf of the stamp's origin row, with the durability lag
    /// ([`DrainKind::Sync`] asserts 0; [`DrainKind::Lazy`] records
    /// `now - ack`). Returns the recorded lag so call sites can put it
    /// on the trace ring.
    pub fn record_drain(&self, stamp: &Stamp, kind: DrainKind, now_ns: u64, bytes: u64) -> u64 {
        if !self.full() {
            return 0;
        }
        self.lineage.record_drain(stamp, kind, now_ns, bytes)
    }

    /// Records an in-op synchronous persist that never touched a staging
    /// layer (PMFS data writes, HiNFS eager writes, DAX stores): a drain
    /// with lag 0 attributed to the op in flight.
    pub fn record_inline_drain(&self, bytes: u64) {
        let stamp = Stamp {
            row: scope::stamp_row() as u8,
            ..Stamp::default()
        };
        self.record_drain(&stamp, DrainKind::Sync, 0, bytes);
    }

    /// Folds an auditor pass into this bundle: counts the checks, counts
    /// and traces every violation. Violations bypass the tracing switch —
    /// a broken invariant must never go unrecorded just because the ring
    /// is off.
    pub fn record_audit(&self, report: &AuditReport) {
        self.audit_checks
            .fetch_add(report.checks, Ordering::Relaxed);
        self.audit_violations
            .fetch_add(report.violations.len() as u64, Ordering::Relaxed);
        for v in &report.violations {
            self.trace.push(report.at_ns, v.event());
        }
    }

    /// Total invariant relations checked by recorded audit passes.
    pub fn audit_checks(&self) -> u64 {
        self.audit_checks.load(Ordering::Relaxed)
    }

    /// Total invariant violations recorded.
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations.load(Ordering::Relaxed)
    }

    /// The span matrix this file system folds into.
    pub fn spans(&self) -> &Arc<SpanTable> {
        &self.spans
    }

    /// The latency histogram of one op kind.
    pub fn op_histo(&self, op: OpKind) -> &Histo {
        &self.ops[op as usize]
    }
}

impl MetricSource for FsObs {
    fn collect(&self, out: &mut dyn Visitor) {
        for op in ALL_OPS {
            let snap = self.ops[op as usize].snapshot();
            if snap.count() > 0 {
                out.histo(&format!("obsv_op_{}_ns", op.label()), snap);
            }
        }
        out.counter("obsv_trace_events", self.trace.emitted());
        out.counter("obsv_trace_dropped", self.trace.dropped());
        out.counter("obsv_audit_checks", self.audit_checks());
        out.counter("obsv_audit_violations", self.audit_violations());
        if self.flight.recorded() > 0 {
            out.counter("obsv_flight_records", self.flight.recorded());
        }
        let lin = self.lineage.snap();
        if self.full() || !lin.is_empty() {
            for layer in ALL_LAYERS {
                out.counter(
                    &format!("obsv_lineage_{}_bytes", layer.label()),
                    lin.layer(layer),
                );
            }
            out.counter("obsv_lineage_fences", lin.fences);
            out.counter("obsv_lineage_stamps", lin.stamps);
            out.counter("obsv_lineage_drains_sync", lin.drains_sync);
            out.counter("obsv_lineage_drains_lazy", lin.drains_lazy);
            out.gauge("obsv_lineage_max_lag_ns", lin.max_lag_ns);
            if lin.lag.count() > 0 {
                out.histo("obsv_lineage_lag_ns", lin.lag);
            }
        }
        self.spans.collect(out);
    }
}

/// Defines a struct of relaxed `AtomicU64` counters together with its
/// plain-`u64` snapshot type, `new`/`snapshot`/`since`, and a
/// [`MetricSource`] impl that reports every field as
/// `<prefix><field>` (or `<prefix><override>` with `field as "override"`).
///
/// ```
/// obsv::counter_set! {
///     /// Example counters.
///     pub struct DemoStats, snapshot DemoSnapshot, prefix "demo_" {
///         /// Cache hits.
///         pub hits,
///         pub misses as "lookup_misses",
///     }
/// }
/// let s = DemoStats::new();
/// s.hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(s.snapshot().hits, 2);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$smeta:meta])*
        $vis:vis struct $name:ident, snapshot $snap:ident, prefix $prefix:literal {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident $(as $mname:literal)?
            ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $name {
            /// Zeroed counters.
            $vis fn new() -> Self {
                Self::default()
            }

            /// Copies the current counter values.
            $vis fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $snap {
            /// Per-counter difference `self - earlier`, saturating at zero.
            $vis fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }
        }

        impl $crate::MetricSource for $name {
            fn collect(&self, out: &mut dyn $crate::Visitor) {
                $(
                    out.counter(
                        $crate::counter_set!(@name $prefix, $field $(, $mname)?),
                        self.$field.load(::std::sync::atomic::Ordering::Relaxed),
                    );
                )+
            }
        }
    };
    (@name $prefix:literal, $field:ident) => {
        concat!($prefix, stringify!($field))
    };
    (@name $prefix:literal, $field:ident, $mname:literal) => {
        concat!($prefix, $mname)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// Test counters.
        pub struct TStats, snapshot TSnapshot, prefix "t_" {
            /// Plain counter.
            pub alpha,
            /// Renamed counter.
            pub beta as "renamed_beta",
        }
    }

    struct Collect(Vec<(String, u64)>);

    impl Visitor for Collect {
        fn counter(&mut self, name: &str, value: u64) {
            self.0.push((name.to_string(), value));
        }
        fn gauge(&mut self, _: &str, _: u64) {}
        fn histo(&mut self, _: &str, _: HistoSnapshot) {}
    }

    #[test]
    fn counter_set_generates_everything() {
        let s = TStats::new();
        s.alpha.fetch_add(3, Ordering::Relaxed);
        s.beta.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.alpha, 3);
        assert_eq!(snap.beta, 1);
        s.alpha.fetch_add(2, Ordering::Relaxed);
        let d = s.snapshot().since(&snap);
        assert_eq!(d.alpha, 2);
        assert_eq!(d.beta, 0);
        let mut c = Collect(Vec::new());
        s.collect(&mut c);
        assert_eq!(
            c.0,
            vec![
                ("t_alpha".to_string(), 5),
                ("t_renamed_beta".to_string(), 1)
            ]
        );
    }

    #[test]
    fn fsobs_records_and_collects() {
        let now = Arc::new(AtomicU64::new(0));
        let now2 = now.clone();
        let clock = Clock::new(move || now2.load(Ordering::Relaxed));
        let obs = FsObs::new(Arc::new(SpanTable::new(clock)));
        assert_eq!(obs.level(), Level::Off);
        assert!(!obs.trace.enabled());
        obs.set_level(Level::Full);
        assert!(obs.trace.enabled(), "the ring captures from Counts up");
        for (op, ns) in [
            (OpKind::Read, 100),
            (OpKind::Read, 300),
            (OpKind::Fsync, 5000),
        ] {
            obs.op(op, || now.fetch_add(ns, Ordering::Relaxed));
        }
        assert_eq!(obs.op_histo(OpKind::Read).snapshot().count(), 2);
        let slow = obs.flight().snapshot();
        assert_eq!(slow.all()[0].op, OpKind::Fsync);
        assert_eq!(slow.all()[0].total_ns, 5000);
        let reg = MetricsRegistry::new();
        reg.register("", Arc::new(obs));
        let snap = reg.snapshot();
        assert_eq!(snap.histo("obsv_op_read_ns").unwrap().count(), 2);
        assert_eq!(snap.counter("obsv_flight_records"), 3);
        assert!(
            snap.histo("obsv_op_write_ns").is_none(),
            "empty ops are omitted"
        );
    }

    #[test]
    fn record_audit_counts_and_traces_violations() {
        let obs = FsObs::default();
        let mut rep = AuditReport::new(77);
        rep.check_eq(2, 0, 0, 5, 5);
        rep.check_eq(4, 1, 3, 0b11, 0b01);
        obs.record_audit(&rep);
        assert_eq!(obs.audit_checks(), 2);
        assert_eq!(obs.audit_violations(), 1);
        // The violation reached the ring even though tracing is off.
        let tail = obs.trace.tail(8);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].at_ns, 77);
        assert_eq!(tail[0].ev.kind(), "audit.violation");
        // And the counters surface under the obsv_ prefix.
        let reg = MetricsRegistry::new();
        reg.register("", Arc::new(obs));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obsv_audit_checks"), 2);
        assert_eq!(snap.counter("obsv_audit_violations"), 1);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in ALL_OPS {
            assert!(seen.insert(op.label()));
            assert_eq!(ALL_OPS[op as usize], op);
        }
    }
}
