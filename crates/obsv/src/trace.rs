//! A bounded queue of structured trace events.
//!
//! One mutex guards the newest `capacity` records; a push past capacity
//! drops the oldest. Each event takes its seq ticket under that lock, so
//! the queue is always in seq order and a reader copies whole records.
//!
//! When disabled — the default — [`TraceRing::emit`] is a single relaxed
//! load and the event-constructing closure is never run, so instrumented
//! hot paths cost nothing measurable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Declares [`TraceEvent`] from one entry per kind — variant, dotted
/// label, fields. The kind's index is its declaration position. A field
/// marked `=> mag` (log₂-bucketed) or `=> raw` is part of the kind's
/// coverage feature.
macro_rules! trace_events {
    (
        $(
            $(#[$meta:meta])*
            $kind:ident = $label:literal { $($field:ident: $ty:ty $(=> $cov:ident)?),+ $(,)? }
        )+
    ) => {
        /// One structured event.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$meta])* $kind { $($field: $ty),+ }, )+
        }

        /// Kind indices: the kinds in declaration order.
        enum Tag {
            $( $kind, )+
        }

        /// Dotted label per kind index.
        const KINDS: &[&str] = &[$($label),+];

        impl TraceEvent {
            /// The kind's index (its declaration position).
            pub(crate) fn tag(&self) -> u64 {
                match self {
                    $( TraceEvent::$kind { .. } => Tag::$kind as u64, )+
                }
            }

            /// `(name, value)` fields in declaration order (flags are
            /// 0/1).
            fn fields(&self) -> Vec<(&'static str, u64)> {
                match *self {
                    $( TraceEvent::$kind { $($field),+ } => {
                        vec![$((stringify!($field), u64::from($field))),+]
                    } )+
                }
            }

            /// The coverage sub-feature: the marked fields packed 8 bits
            /// apart, the first one highest.
            #[allow(unused_variables)] // unmarked fields
            pub(crate) fn coverage_feature(&self) -> u64 {
                let mut f = 0;
                match *self {
                    $( TraceEvent::$kind { $($field),+ } => {
                        $($( f = (f << 8) | coverage_part!($cov, u64::from($field)); )?)+
                    } )+
                }
                f
            }
        }
    };
}

/// One field's share of a coverage feature.
macro_rules! coverage_part {
    (mag, $v:expr) => {
        crate::coverage::mag_bucket($v)
    };
    (raw, $v:expr) => {
        $v
    };
}

trace_events! {
    /// A reclaim pass started: `free` blocks left, aiming for `target`.
    ReclaimBegin = "reclaim.begin" { free: u64 => mag, target: u64 }
    /// The pass ended after evicting `victims` blocks.
    ReclaimEnd = "reclaim.end" { victims: u64 => mag, free: u64 }
    /// The pool crossed the `Low_f` watermark on the write path.
    WatermarkLow = "watermark.low" { free: u64 => mag, low: u64 }
    /// A foreground write had to reclaim a block itself.
    ForegroundStall = "foreground.stall" { ino: u64 }
    /// The Buffer Benefit Model changed a block's state, with every
    /// Inequality-1 input that drove the decision: the epoch's cacheline
    /// writes (`n_cw`) and sync flushes (`n_cf`), the latencies the model
    /// compared (`l_dram`, `l_nvmm`), and the age of the epoch itself
    /// (`sync_age_ns`, time since the file's previous synchronization —
    /// the clock the Eager→Lazy decay runs on). Each decision is
    /// replayable from this one record.
    BbmFlip = "bbm.flip" {
        ino: u64,
        iblk: u64,
        to_lazy: bool => raw,
        n_cw: u64 => mag,
        n_cf: u64 => mag,
        l_dram: u64,
        l_nvmm: u64,
        sync_age_ns: u64,
    }
    /// A journal transaction committed; `log_entries` is the live entry
    /// count (log tail) at commit time.
    JournalCommit = "journal.commit" { txid: u64, log_entries: u64 => mag }
    /// One periodic writeback pass; `age_flushed` blocks hit the 30 s
    /// dirty-age rule.
    PeriodicPass = "writeback.periodic" { age_flushed: u64 => mag }
    /// Journal recovery started on a mount; `gen` is the journal
    /// generation being scanned.
    RecoveryBegin = "recovery.begin" { gen: u64 }
    /// Journal recovery finished: `txs_undone` uncommitted transactions
    /// rolled back using `entries_undone` undo records.
    RecoveryEnd = "recovery.end" { txs_undone: u64 => mag, entries_undone: u64 => mag }
    /// A fault-injection plan fired: `kind` 0 = crash (power loss), 1 =
    /// journal-full, 2 = ENOSPC, 3 = writeback stall; `at_boundary` is the
    /// persistence-boundary count when it fired.
    FaultInjected = "fault.injected" { kind: u64 => raw, at_boundary: u64 }
    /// The online invariant auditor found a broken invariant. `code`
    /// indexes [`crate::AUDIT_INVARIANTS`]; `ino`/`iblk` locate the
    /// offender when the invariant is per-block (0 otherwise); `got` and
    /// `want` are the two sides of the violated relation.
    AuditViolation = "audit.violation" {
        code: u64 => raw,
        ino: u64,
        iblk: u64,
        got: u64,
        want: u64,
    }
    /// A drain made stamped data durable: the causal link from a
    /// foreground op's ring events to the pass that persisted its data.
    /// `row` is the origin lineage row (op discriminant, or the
    /// background row); `seq_lo..=seq_hi` is the origin seq window — the
    /// ring ticket at the ack stamp through the ticket at the drain —
    /// so a dump can stitch the op's full life back together. `lazy`
    /// distinguishes background drains (real lag) from synchronous ones
    /// (lag asserted 0).
    LineageDrained = "lineage.drained" {
        row: u64 => raw,
        lazy: bool => raw,
        bytes: u64,
        lag_ns: u64 => mag,
        seq_lo: u64,
        seq_hi: u64,
    }
}

/// Names of `FaultInjected::kind` codes.
const FAULT_KINDS: [&str; 4] = ["crash", "journal_full", "enospc", "writeback_stall"];

impl TraceEvent {
    /// Stable dotted kind label.
    pub fn kind(&self) -> &'static str {
        KINDS[self.tag() as usize]
    }
}

impl std::fmt::Display for TraceEvent {
    /// `kind name=value …`, with codes and flags spelled out: the BBM's
    /// direction, the fault kind, the invariant, the drain's origin row
    /// and kind, and the seq window as one `seq=[lo, hi]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())?;
        let pick = |v: u64, yes: &'static str, no: &'static str| if v != 0 { yes } else { no };
        for (name, v) in self.fields() {
            match name {
                "to_lazy" => write!(f, " to={}", pick(v, "lazy", "eager")),
                "kind" => write!(
                    f,
                    " kind={}",
                    FAULT_KINDS.get(v as usize).unwrap_or(&"unknown")
                ),
                "code" => write!(f, " invariant={}", crate::snapshot::invariant_label(v)),
                "row" => write!(
                    f,
                    " origin={}",
                    crate::span::row_label((v as usize).min(crate::BG_ROW))
                ),
                "lazy" => write!(f, " kind={}", pick(v, "lazy", "sync")),
                // `seq_hi` follows `seq_lo`: together one window.
                "seq_lo" => write!(f, " seq=[{v}, "),
                "seq_hi" => write!(f, "{v}]"),
                _ => write!(f, " {name}={v}"),
            }?;
        }
        Ok(())
    }
}

/// An event as read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emit order (0-based ticket).
    pub seq: u64,
    /// Simulated time the event was emitted at.
    pub at_ns: u64,
    /// The event itself.
    pub ev: TraceEvent,
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12} ns] #{:<6} {}", self.at_ns, self.seq, self.ev)
    }
}

/// The ring: the newest `capacity` events, oldest first.
pub struct TraceRing {
    enabled: AtomicBool,
    /// Seq tickets handed out; taken under `events`' lock.
    next: AtomicU64,
    capacity: usize,
    events: Mutex<VecDeque<TraceRecord>>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("emitted", &self.emitted())
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A disabled ring holding up to `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceRing {
            enabled: AtomicBool::new(false),
            next: AtomicU64::new(0),
            capacity,
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns event capture on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are being captured. Use to gate work that only
    /// exists to build an event (e.g. taking a lock to read a gauge).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Emits an event if capture is on. `ev` is only evaluated when it is,
    /// so a disabled ring costs one relaxed load per call site.
    #[inline]
    pub fn emit(&self, at_ns: u64, ev: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.push(at_ns, ev());
        }
    }

    /// Unconditionally records an event (even while disabled), dropping
    /// the oldest once the ring is full. A panic elsewhere cannot leave a
    /// half-written record, so a poisoned lock is still valid.
    pub fn push(&self, at_ns: u64, ev: TraceEvent) {
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(TraceRecord { seq, at_ns, ev });
    }

    /// Total events recorded so far (the next seq ticket).
    pub fn emitted(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// How many events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most recent `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let skip = events.len().saturating_sub(n);
        events.iter().skip(skip).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ReclaimBegin {
                free: 3,
                target: 51,
            },
            TraceEvent::ReclaimEnd {
                victims: 48,
                free: 51,
            },
            TraceEvent::WatermarkLow { free: 11, low: 12 },
            TraceEvent::ForegroundStall { ino: 42 },
            TraceEvent::BbmFlip {
                ino: 7,
                iblk: 9,
                to_lazy: true,
                n_cw: 120,
                n_cf: 8,
                l_dram: 40,
                l_nvmm: 200,
                sync_age_ns: 1_500_000,
            },
            TraceEvent::BbmFlip {
                ino: 7,
                iblk: 9,
                to_lazy: false,
                n_cw: 8,
                n_cf: 8,
                l_dram: 40,
                l_nvmm: 200,
                sync_age_ns: 9_000_000_000,
            },
            TraceEvent::JournalCommit {
                txid: 77,
                log_entries: 5,
            },
            TraceEvent::PeriodicPass { age_flushed: 2 },
            TraceEvent::RecoveryBegin { gen: 4 },
            TraceEvent::RecoveryEnd {
                txs_undone: 1,
                entries_undone: 3,
            },
            TraceEvent::FaultInjected {
                kind: 2,
                at_boundary: 17,
            },
            TraceEvent::AuditViolation {
                code: 2,
                ino: 0,
                iblk: 0,
                got: 63,
                want: 64,
            },
            TraceEvent::LineageDrained {
                row: 3,
                lazy: true,
                bytes: 4096,
                lag_ns: 5_000_000_000,
                seq_lo: 17,
                seq_hi: 29,
            },
            TraceEvent::LineageDrained {
                row: 4,
                lazy: false,
                bytes: 64,
                lag_ns: 0,
                seq_lo: 30,
                seq_hi: 30,
            },
        ]
    }

    #[test]
    fn disabled_ring_skips_closure() {
        let ring = TraceRing::new(4);
        let mut called = false;
        ring.emit(0, || {
            called = true;
            TraceEvent::ForegroundStall { ino: 1 }
        });
        assert!(!called);
        assert_eq!(ring.emitted(), 0);
        assert!(ring.tail(10).is_empty());
    }

    #[test]
    fn wraparound_keeps_the_newest_events() {
        let ring = TraceRing::new(8);
        ring.set_enabled(true);
        for i in 0..20u64 {
            ring.emit(i * 10, || TraceEvent::ForegroundStall { ino: i });
        }
        let tail = ring.tail(8);
        assert_eq!(tail.len(), 8);
        let seqs: Vec<u64> = tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        for r in &tail {
            assert_eq!(r.ev, TraceEvent::ForegroundStall { ino: r.seq });
            assert_eq!(r.at_ns, r.seq * 10);
        }
        // A shorter tail keeps only the newest.
        assert_eq!(ring.tail(3).first().unwrap().seq, 17);
        assert_eq!(ring.emitted(), 20);
    }

    #[test]
    fn display_renders_every_variant() {
        for ev in all_variants() {
            let s = format!("{ev}");
            assert!(!s.is_empty());
        }
        let rec = TraceRecord {
            seq: 3,
            at_ns: 1234,
            ev: TraceEvent::PeriodicPass { age_flushed: 0 },
        };
        let s = format!("{rec}");
        assert!(
            s.contains("1234") && s.contains("writeback.periodic"),
            "{s}"
        );
    }
}
