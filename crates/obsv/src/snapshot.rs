//! Structured state introspection: live, serializable snapshots of a
//! mounted file system plus the online invariant auditor's report types.
//!
//! A [`FsSnapshot`] answers "what is in
//! the write buffer, how full is the journal, where did device time go"
//! at one instant, in a schema-versioned shape that serializes to JSON by
//! hand (no serde in the workspace) and is deterministic under the virtual
//! clock: every collection is a fixed-order struct, so two identical runs
//! produce byte-identical snapshots.
//!
//! The [`Introspect`] trait is implemented by each file system (`hinfs`,
//! `pmfs`, `extfs`) and by the NVMM device; a concrete system fills only
//! the sections it owns and callers [`FsSnapshot::merge`] the rest in.
//! [`AuditReport`] carries the result of an `audit()` pass — every checked
//! invariant has a stable code into [`AUDIT_INVARIANTS`], so violations
//! are machine-readable both here and as `audit.violation` trace events.

use crate::trace::TraceEvent;

/// Version of the snapshot JSON schema. Bump on any field change.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Upper bounds (exclusive, in ns) of the LRW age histogram buckets; the
/// final bucket collects everything older. The 5 s / 30 s edges line up
/// with the paper's periodic-writeback and dirty-age parameters.
pub const LRW_AGE_BOUNDS_NS: [u64; 6] = [
    1_000_000,      // 1 ms
    10_000_000,     // 10 ms
    100_000_000,    // 100 ms
    1_000_000_000,  // 1 s
    5_000_000_000,  // 5 s
    30_000_000_000, // 30 s
];

/// Number of LRW age buckets (one per bound plus the overflow bucket).
pub const LRW_AGE_BUCKETS: usize = LRW_AGE_BOUNDS_NS.len() + 1;

/// Buckets of the per-block dirty-cacheline population histogram: bucket 0
/// holds occupied-but-clean blocks, then 8-line-wide bands up to the full
/// 64-line block.
pub const DIRTY_LINE_BUCKETS: usize = 9;

/// Bucket index for a buffered block's age.
pub fn lrw_age_bucket(age_ns: u64) -> usize {
    LRW_AGE_BOUNDS_NS
        .iter()
        .position(|&b| age_ns < b)
        .unwrap_or(LRW_AGE_BOUNDS_NS.len())
}

/// Bucket index for a block's dirty-cacheline population (0..=64).
pub fn dirty_line_bucket(dirty_lines: u32) -> usize {
    if dirty_lines == 0 {
        0
    } else {
        (1 + (dirty_lines as usize - 1) / 8).min(DIRTY_LINE_BUCKETS - 1)
    }
}

/// A section field's JSON value (arrays and vectors of `u64` reach the
/// slice impl by auto-deref).
trait Json {
    fn json(&self) -> String;
}

impl Json for u64 {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Json for [u64] {
    fn json(&self) -> String {
        let vals: Vec<String> = self.iter().map(u64::to_string).collect();
        format!("[{}]", vals.join(","))
    }
}

impl Json for Vec<(String, u64)> {
    fn json(&self) -> String {
        let vals: Vec<String> = self.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", vals.join(","))
    }
}

/// Declares a snapshot section struct, naming each field once: the
/// struct field is also its JSON key, in declaration order. `, gauge`
/// exports it as a gauge too (`, gauge "name"` under another name), and
/// `, after "key" = EXPR` writes the constant `"key":EXPR` just before
/// it in the JSON.
macro_rules! section {
    (
        $(#[$meta:meta])*
        pub struct $name:ident in $key:literal {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty
                $(, gauge $($gauge:literal)?)?
                $(, after $ckey:literal = $cval:expr)?;
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl $name {
            /// Writes `"<key>":{<fields>},`.
            fn push_json(&self, out: &mut String) {
                out.push_str(concat!("\"", $key, "\":{"));
                $(
                    $( push_json(out, $ckey, $cval.json()); )?
                    push_json(out, stringify!($field), self.$field.json());
                )+
                close_obj(out);
                out.push(',');
            }

            /// Reports the gauge fields as `<prefix><key>_<name>`.
            #[allow(unused_variables)] // a section may export no gauge
            fn gauges(&self, prefix: &str, out: &mut dyn crate::Visitor) {
                $($(
                    let name = crate::counter_set!(@name "", $field $(, $gauge)?);
                    out.gauge(&format!("{prefix}{}_{name}", $key), self.$field);
                )?)+
            }
        }
    };
}

fn push_json(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("\"{key}\":{value},"));
}

section! {
    /// State of the HiNFS NVMM-aware write buffer (paper §3.2/§3.3).
    pub struct BufferSnap in "buffer" {
        /// DRAM buffer slots configured.
        pub capacity_blocks: u64, gauge;
        /// Free slots right now.
        pub free_blocks: u64, gauge;
        /// Occupied slots (LRW-linked).
        pub occupied_blocks: u64;
        /// Occupied slots holding unflushed lines.
        pub dirty_blocks: u64, gauge;
        /// `Low_f` reclaim trigger, in blocks.
        pub low_blocks: u64, gauge;
        /// `High_f` reclaim target, in blocks.
        pub high_blocks: u64, gauge;
        /// Blocks the Buffer Benefit Model currently holds Eager-Persistent.
        pub eager_blocks: u64, gauge;
        /// Occupied slots not marked eager (the lazy-buffered population).
        pub lazy_buffered_blocks: u64, gauge "lazy_blocks";
        /// Ghost-buffer entries: BBM-tracked blocks with no resident slot.
        pub ghost_blocks: u64, gauge;
        /// Total blocks with Buffer Benefit Model history.
        pub bbm_tracked_blocks: u64;
        /// Model evaluations so far (mirror of `hinfs_bbm_evals`).
        pub bbm_evals: u64;
        /// Evaluations that confirmed the previous prediction (`hinfs_bbm_accurate`).
        pub bbm_accurate: u64;
        /// Files with buffer state tracked.
        pub files_tracked: u64, gauge;
        /// Open (deferred-commit) transactions across every file.
        pub open_txs: u64, gauge;
        /// Age of the LRW victim candidate (tail), ns.
        pub lrw_oldest_age_ns: u64;
        /// Occupied slots per buffer shard — who holds the budget.
        pub shard_occupied_blocks: Vec<u64>;
        /// Per-block dirty-cacheline population histogram from the Cacheline
        /// Bitmaps (see [`dirty_line_bucket`]).
        pub dirty_line_histo: [u64; DIRTY_LINE_BUCKETS];
        /// Ages of buffered blocks since their last write (see
        /// [`lrw_age_bucket`]), serialized after their bucket bounds.
        pub lrw_age_histo: [u64; LRW_AGE_BUCKETS], after "lrw_age_bounds_ns" = LRW_AGE_BOUNDS_NS;
    }
}

section! {
    /// State of the PMFS undo journal.
    pub struct JournalSnap in "journal" {
        /// Total undo-entry slots in the journal area.
        pub capacity_entries: u64, gauge;
        /// Entries logged in the current generation (the log tail).
        pub fill_entries: u64, gauge;
        /// Entries reserved by uncommitted transactions.
        pub reserved_entries: u64, gauge;
        /// Entries still available to `begin`/`log_range`.
        pub free_entries: u64, gauge;
        /// Transactions begun and not yet resolved.
        pub open_txs: u64, gauge;
        /// Journal generation counter.
        pub generation: u64, gauge;
    }
}

section! {
    /// State of the ext-family DRAM page cache.
    pub struct CacheSnap in "cache" {
        /// Page slots configured.
        pub capacity_pages: u64, gauge;
        /// Pages currently cached.
        pub cached_pages: u64, gauge;
        /// Cached pages holding unwritten data.
        pub dirty_pages: u64, gauge;
        /// Lookup hits so far.
        pub hits: u64;
        /// Lookup misses so far.
        pub misses: u64;
    }
}

section! {
    /// Traffic totals of the emulated NVMM device plus the calling thread's
    /// latency-ledger breakdown.
    pub struct DeviceSnap in "device" {
        /// Device size in bytes.
        pub capacity_bytes: u64;
        /// Bytes persisted to the media (cacheline granularity).
        pub bytes_written: u64;
        /// Bytes read from the media.
        pub bytes_read: u64;
        /// Cachelines persisted via `clflush`.
        pub flush_lines: u64;
        /// Store fences issued.
        pub fences: u64;
        /// Bytes stored into the volatile domain.
        pub cached_store_bytes: u64;
        /// Sum of the ledger categories.
        pub ledger_total_ns: u64;
        /// `(category label, ns)` pairs of the calling thread's analytic time
        /// ledger, in category order.
        pub ledger_ns: Vec<(String, u64)>;
    }
}

/// One schema-versioned, point-in-time state snapshot. Sections a system
/// does not own stay `None` and are omitted from the JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsSnapshot {
    /// Label of the system that produced the snapshot.
    pub system: String,
    /// Simulated time of collection.
    pub at_ns: u64,
    /// HiNFS write-buffer state.
    pub buffer: Option<BufferSnap>,
    /// PMFS journal state.
    pub journal: Option<JournalSnap>,
    /// ext page-cache state.
    pub cache: Option<CacheSnap>,
    /// NVMM device traffic and ledger.
    pub device: Option<DeviceSnap>,
    /// Data-lifecycle provenance ledger (present when lineage tracking
    /// was enabled on the mount).
    pub lineage: Option<crate::LineageSnap>,
}

fn close_obj(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

impl FsSnapshot {
    /// Compact single-object JSON form of the snapshot. Field order is
    /// fixed, so identical state serializes byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"system\":\"{}\",\"at_ns\":{},",
            SNAPSHOT_SCHEMA_VERSION,
            self.system.replace(['"', '\\'], "_"),
            self.at_ns
        );
        self.buffer.iter().for_each(|s| s.push_json(&mut out));
        self.journal.iter().for_each(|s| s.push_json(&mut out));
        self.cache.iter().for_each(|s| s.push_json(&mut out));
        self.device.iter().for_each(|s| s.push_json(&mut out));
        if let Some(l) = &self.lineage {
            let layers: Vec<String> = crate::ALL_LAYERS
                .iter()
                .map(|&layer| format!("\"{}\":{}", layer.label(), l.layer(layer)))
                .collect();
            out.push_str(&format!(
                "\"lineage\":{{\"layers\":{{{}}},",
                layers.join(",")
            ));
            for (k, v) in l.totals() {
                push_json(&mut out, k, v.json());
            }
            out.push_str(&format!("\"fences_per_kib\":{:.3},", l.fences_per_kib()));
            out.push_str(&format!(
                "\"lag\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}}},",
                l.lag.count(),
                l.lag.quantile(0.50),
                l.lag.quantile(0.99),
                l.lag.max()
            ));
        }
        close_obj(&mut out);
        out
    }

    /// Fills this snapshot's empty sections from `other` (a snapshot of
    /// another layer of the same system, e.g. the backing device).
    pub fn merge(&mut self, other: FsSnapshot) {
        self.buffer = self.buffer.take().or(other.buffer);
        self.journal = self.journal.take().or(other.journal);
        self.cache = self.cache.take().or(other.cache);
        self.device = self.device.take().or(other.device);
        self.lineage = self.lineage.take().or(other.lineage);
    }

    /// Pushes every section's headline numbers as registry gauges under
    /// `prefix` (e.g. `hinfs_`), so the snapshot and the exposition can
    /// never disagree — they are the same collection.
    pub fn visit_gauges(&self, prefix: &str, out: &mut dyn crate::Visitor) {
        self.buffer.iter().for_each(|s| s.gauges(prefix, out));
        self.journal.iter().for_each(|s| s.gauges(prefix, out));
        self.cache.iter().for_each(|s| s.gauges(prefix, out));
        self.device.iter().for_each(|s| s.gauges(prefix, out));
        if let Some(l) = &self.lineage {
            l.visit(&format!("{prefix}lineage_"), out, |out, name, v| {
                out.gauge(name, v)
            });
        }
    }
}

/// Stable labels of the audited invariants; a violation's `code` indexes
/// this table. Appending is fine, reordering is a schema break.
pub const AUDIT_INVARIANTS: &[&str] = &[
    "index.slot_owner",          // 0: index entry -> slot with matching (ino, iblk)
    "index.coverage",            // 1: occupied slots and index entries are a bijection
    "lrw.accounting",            // 2: linked + idle == slots per shard; Σ linked + free == capacity
    "lrw.order",                 // 3: LRW tail-to-head chain complete and ends at head
    "bitmap.dirty_subset_valid", // 4: dirty cachelines are a subset of valid ones
    "buffer.dirty_count",        // 5: dirty-block gauge == count of dirty slots
    "config.watermarks",         // 6: low < high <= capacity
    "tx.pending_buffered",       // 7: pending blocks of open txs are buffered dirty
    "tx.accounting",             // 8: txs_opened - txs_committed == open txs
    "journal.reserved",          // 9: journal reservations == open transactions
    "journal.capacity",          // 10: fill + reserved <= capacity
    "journal.stats",             // 11: begins - commits - aborts == open txs
    "cache.accounting",          // 12: dirty <= cached <= capacity
    "device.accounting",         // 13: persisted bytes are cacheline-granular
    "lineage.sync_decay_bound",  // 14: max durability lag <= the mount's sync-decay bound
    "namei.index",               // 15: directory name index == on-media entries
    "alloc.zeroed_pool",         // 16: parked blocks are used once, parked once, all-zero
    "inode.carrier",             // 17: an unpersisted inode update has a dirty hole block
    "buffer.hole_count",         // 18: per-file dirty-hole count == count of such slots
];

/// Label of an invariant code (`"unknown"` for out-of-range codes).
pub fn invariant_label(code: u64) -> &'static str {
    AUDIT_INVARIANTS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// One broken invariant found by an audit pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditViolation {
    /// Index into [`AUDIT_INVARIANTS`].
    pub code: u64,
    /// Offending inode for per-block invariants, 0 otherwise.
    pub ino: u64,
    /// Offending block for per-block invariants, 0 otherwise.
    pub iblk: u64,
    /// Observed value.
    pub got: u64,
    /// Expected value (or bound).
    pub want: u64,
}

impl AuditViolation {
    /// The violated invariant's label.
    pub fn invariant(&self) -> &'static str {
        invariant_label(self.code)
    }

    /// The trace-ring form of this violation.
    pub fn event(&self) -> TraceEvent {
        TraceEvent::AuditViolation {
            code: self.code,
            ino: self.ino,
            iblk: self.iblk,
            got: self.got,
            want: self.want,
        }
    }
}

impl std::fmt::Display for AuditViolation {
    /// The `audit.violation` event's rendering, from its invariant on.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ev = self.event().to_string();
        f.write_str(ev.strip_prefix("audit.violation invariant=").unwrap_or(&ev))
    }
}

/// Result of one `audit()` pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Simulated time the pass ran at.
    pub at_ns: u64,
    /// Individual relations checked.
    pub checks: u64,
    /// The invariants that did not hold.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty report stamped at `at_ns`.
    pub fn new(at_ns: u64) -> AuditReport {
        AuditReport {
            at_ns,
            ..AuditReport::default()
        }
    }

    /// Checks `got == want` for invariant `code`.
    pub fn check_eq(&mut self, code: u64, ino: u64, iblk: u64, got: u64, want: u64) {
        self.record(code, ino, iblk, got, want, got == want);
    }

    /// Checks `got <= want` for invariant `code`.
    pub fn check_le(&mut self, code: u64, ino: u64, iblk: u64, got: u64, want: u64) {
        self.record(code, ino, iblk, got, want, got <= want);
    }

    /// Checks `got < want` for invariant `code`.
    pub fn check_lt(&mut self, code: u64, ino: u64, iblk: u64, got: u64, want: u64) {
        self.record(code, ino, iblk, got, want, got < want);
    }

    fn record(&mut self, code: u64, ino: u64, iblk: u64, got: u64, want: u64, ok: bool) {
        self.checks += 1;
        if !ok {
            self.violations.push(AuditViolation {
                code,
                ino,
                iblk,
                got,
                want,
            });
        }
    }

    /// Whether every checked invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another pass (e.g. a lower layer's) into this report.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// Compact JSON form: `{"at_ns":..,"checks":..,"violations":[..]}`.
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"invariant\":\"{}\",\"ino\":{},\"iblk\":{},\"got\":{},\"want\":{}}}",
                    v.invariant(),
                    v.ino,
                    v.iblk,
                    v.got,
                    v.want
                )
            })
            .collect();
        format!(
            "{{\"at_ns\":{},\"checks\":{},\"violations\":[{}]}}",
            self.at_ns,
            self.checks,
            violations.join(",")
        )
    }
}

/// Live state introspection: a point-in-time [`FsSnapshot`] plus an online
/// invariant [`AuditReport`]. Implemented by every mounted file system and
/// by the NVMM device; both calls must be safe at any instant (they take
/// the subsystem's own locks) and must not change any observable result.
pub trait Introspect: Send + Sync {
    /// Collects the sections this layer owns.
    fn snapshot(&self) -> FsSnapshot;

    /// Checks this layer's structural invariants.
    fn audit(&self) -> AuditReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_domains() {
        assert_eq!(lrw_age_bucket(0), 0);
        assert_eq!(lrw_age_bucket(999_999), 0);
        assert_eq!(lrw_age_bucket(1_000_000), 1);
        assert_eq!(lrw_age_bucket(4_999_999_999), 4);
        assert_eq!(lrw_age_bucket(u64::MAX), LRW_AGE_BUCKETS - 1);
        assert_eq!(dirty_line_bucket(0), 0);
        assert_eq!(dirty_line_bucket(1), 1);
        assert_eq!(dirty_line_bucket(8), 1);
        assert_eq!(dirty_line_bucket(9), 2);
        assert_eq!(dirty_line_bucket(64), DIRTY_LINE_BUCKETS - 1);
    }

    #[test]
    fn json_is_flat_per_section_and_deterministic() {
        let snap = FsSnapshot {
            system: "hinfs".into(),
            at_ns: 42,
            buffer: Some(BufferSnap {
                capacity_blocks: 256,
                free_blocks: 200,
                occupied_blocks: 56,
                dirty_blocks: 10,
                low_blocks: 12,
                high_blocks: 51,
                ..BufferSnap::default()
            }),
            journal: Some(JournalSnap {
                capacity_entries: 100,
                fill_entries: 5,
                reserved_entries: 2,
                free_entries: 93,
                open_txs: 2,
                generation: 1,
            }),
            cache: None,
            device: Some(DeviceSnap {
                capacity_bytes: 1 << 20,
                ledger_ns: vec![("persist".into(), 9)],
                ledger_total_ns: 9,
                ..DeviceSnap::default()
            }),
            lineage: None,
        };
        let j = snap.to_json();
        assert_eq!(j, snap.to_json(), "serialization is deterministic");
        assert!(j.starts_with(&format!("{{\"schema\":{SNAPSHOT_SCHEMA_VERSION},")));
        assert!(j.contains("\"system\":\"hinfs\""));
        assert!(j.contains("\"buffer\":{\"capacity_blocks\":256"));
        assert!(j.contains("\"journal\":{\"capacity_entries\":100"));
        assert!(j.contains("\"ledger_ns\":{\"persist\":9}"));
        assert!(!j.contains("\"cache\""), "absent sections are omitted");
        assert!(j.ends_with('}'));
        // Balanced braces: a paste-into-jq smoke check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn merge_fills_only_missing_sections() {
        let mut fs_snap = FsSnapshot {
            system: "pmfs".into(),
            journal: Some(JournalSnap::default()),
            ..FsSnapshot::default()
        };
        let dev_snap = FsSnapshot {
            system: "nvmm".into(),
            journal: Some(JournalSnap {
                capacity_entries: 7,
                ..JournalSnap::default()
            }),
            device: Some(DeviceSnap::default()),
            ..FsSnapshot::default()
        };
        fs_snap.merge(dev_snap);
        assert!(fs_snap.device.is_some());
        assert_eq!(
            fs_snap.journal.as_ref().unwrap().capacity_entries,
            0,
            "existing sections win"
        );
    }

    #[test]
    fn audit_report_records_checks_and_violations() {
        let mut rep = AuditReport::new(5);
        rep.check_eq(2, 0, 0, 10, 10);
        rep.check_le(10, 0, 0, 4, 8);
        assert!(rep.is_clean());
        rep.check_eq(4, 3, 9, 0b111, 0b101);
        assert_eq!(rep.checks, 3);
        assert!(!rep.is_clean());
        let v = rep.violations[0];
        assert_eq!(v.invariant(), "bitmap.dirty_subset_valid");
        assert_eq!((v.ino, v.iblk), (3, 9));
        let ev = v.event();
        assert_eq!(ev.kind(), "audit.violation");
        let s = format!("{v}");
        assert!(s.contains("bitmap.dirty_subset_valid"), "{s}");
        let j = rep.to_json();
        assert!(j.contains("\"checks\":3"));
        assert!(j.contains("\"invariant\":\"bitmap.dirty_subset_valid\""));
    }

    #[test]
    fn invariant_codes_are_stable_and_labeled() {
        assert_eq!(invariant_label(0), "index.slot_owner");
        assert_eq!(invariant_label(9), "journal.reserved");
        assert_eq!(invariant_label(10_000), "unknown");
        let mut seen = std::collections::HashSet::new();
        for l in AUDIT_INVARIANTS {
            assert!(seen.insert(*l), "duplicate invariant label {l}");
        }
    }
}
