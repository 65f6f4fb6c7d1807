//! The NVMM write-bandwidth gate.
//!
//! The paper emulates NVMM's limited write bandwidth by capping the number
//! of concurrently writing threads at `N_w` and queueing the rest (§5.1).
//! This gate enforces the same limit as a *utilization calendar*, one
//! for both time modes: time is split into 1 µs buckets, each with room
//! for `bandwidth × 1 µs` worth of cachelines. A line written at time `t`
//! occupies the first bucket at or after `t` with spare room; when demand
//! exceeds the device bandwidth the next free bucket moves into the
//! future and the writer's completion is pushed along — the queueing the
//! paper's `N_w` model produces, but fair at cacheline granularity and
//! insensitive to the discrete-event scheduler's actor-clock skew (an
//! actor whose clock lags may fill a past bucket that genuinely had
//! bandwidth to spare). In virtual time the writer's clock jumps to the
//! completion time; in spin mode it busy-waits until the wall clock
//! reaches it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use obsv::{ContentionTable, Site, TrackedMutex};

/// Width of one calendar bucket, ns.
const BUCKET_NS: u64 = 1_000;

/// Keep at most this many µs of calendar history behind the newest bucket.
const PRUNE_WINDOW: u64 = 100_000;

/// The calendar is pruned once per this many admitted lines.
const PRUNE_EVERY: u64 = 8192;

/// Buckets per calendar chunk. A 4 KiB persist at the default cost model
/// spans 13 buckets: one chunk, sometimes two.
const CHUNK: u64 = 64;

/// Lines booked in `CHUNK` consecutive buckets.
type Chunk = [u32; CHUNK as usize];

/// Hasher for chunk numbers: small consecutive integers the gate itself
/// computes, so one multiplication spreads them; the default SipHash
/// would cost more than the booking itself.
#[derive(Default)]
struct ChunkHasher(u64);

impl Hasher for ChunkHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("chunk numbers hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Calendar {
    /// Lines booked per bucket, stored as chunks keyed by `bucket / CHUNK`:
    /// sparse between chunks, so a clock that jumps by hours costs one
    /// chunk and a lagging actor still finds the old ones; dense inside,
    /// so a run of back-to-back lines looks the map up once or twice.
    chunks: HashMap<u64, Chunk, BuildHasherDefault<ChunkHasher>>,
    /// Buckets below this are forgotten (always considered full).
    floor: u64,
    /// Lowest bucket *requested* since the last prune. Pruning follows the
    /// slowest admitter, never the fastest: a lagging actor must not queue
    /// behind forgotten history just because another actor's clock runs
    /// far ahead.
    low: u64,
    admits: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            chunks: HashMap::default(),
            floor: 0,
            low: u64::MAX,
            admits: 0,
        }
    }
}

/// The NVMM write-bandwidth gate: one calendar of 1 µs buckets.
#[derive(Debug)]
pub struct BandwidthGate {
    cal: TrackedMutex<Calendar>,
    /// Lines that fit in one bucket (device bandwidth × bucket width).
    lines_per_bucket: u32,
}

impl BandwidthGate {
    /// Creates a gate sustaining `bandwidth_bytes_per_sec`, its calendar
    /// lock recording into `table`.
    pub fn new(table: &Arc<ContentionTable>, bandwidth_bytes_per_sec: u64) -> Self {
        let bytes_per_bucket = bandwidth_bytes_per_sec as u128 * BUCKET_NS as u128 / 1_000_000_000;
        let lines_per_bucket = (bytes_per_bucket / crate::CACHELINE as u128).max(1) as u32;
        BandwidthGate {
            cal: TrackedMutex::new(table, Site::NvmmGate, Calendar::default()),
            lines_per_bucket,
        }
    }

    /// Cacheline capacity of one 1 µs calendar bucket.
    pub fn lines_per_bucket(&self) -> u32 {
        self.lines_per_bucket
    }

    /// Admits `lines` back-to-back cacheline writes, the first issued at
    /// `now` (on either clock), each with service time `line_ns` and
    /// each issued when the one before completes; returns the completion
    /// time of the last. A line takes the first bucket at or after its
    /// issue time with room. The whole run is booked under one hold of
    /// the calendar lock, a bucket's share of it at a time, and books
    /// exactly what `lines` chained one-line admissions would.
    pub fn admit(&self, now: u64, line_ns: u64, lines: usize) -> u64 {
        let mut guard = self.cal.lock();
        let cal = &mut *guard;
        let (mut now, mut left) = (now, lines as u64);
        while left > 0 {
            // The chunk the run is booking into, looked up again only when
            // the run leaves it (or a prune rewrote the map).
            let mut key = (now / BUCKET_NS).max(cal.floor) / CHUNK;
            let mut chunk = cal.chunks.entry(key).or_insert([0; CHUNK as usize]);
            while left > 0 {
                let want = now / BUCKET_NS;
                cal.low = cal.low.min(want);
                let mut b = want.max(cal.floor);
                let used = loop {
                    if b / CHUNK != key {
                        key = b / CHUNK;
                        chunk = cal.chunks.entry(key).or_insert([0; CHUNK as usize]);
                    }
                    let used = &mut chunk[(b % CHUNK) as usize];
                    if *used < self.lines_per_bucket {
                        break used;
                    }
                    b += 1;
                };
                // The next line of the run joins this one in bucket `b`
                // while it is issued before the bucket ends and the bucket
                // has room; a batch also stops where a prune is due.
                let room = ((self.lines_per_bucket - *used) as u64)
                    .min(left)
                    .min(PRUNE_EVERY - cal.admits % PRUNE_EVERY);
                let end = (b + 1) * BUCKET_NS;
                now = now.max(b * BUCKET_NS);
                let mut booked = 0;
                while booked < room && now < end {
                    now += line_ns;
                    booked += 1;
                }
                *used += booked as u32;
                left -= booked;
                cal.admits += booked;
                if cal.admits.is_multiple_of(PRUNE_EVERY) {
                    let cutoff = cal.low.saturating_sub(PRUNE_WINDOW);
                    cal.low = u64::MAX;
                    if cutoff > cal.floor {
                        // A chunk straddling the cutoff stays; its buckets
                        // below the floor are never looked at again.
                        cal.chunks.retain(|&k, _| k >= cutoff / CHUNK);
                        cal.floor = cutoff;
                        break;
                    }
                }
            }
        }
        now
    }

    /// The calendar as `(floor, low, admits, booked buckets in order)` —
    /// what two gates must agree on to have the same future.
    #[cfg(test)]
    fn calendar(&self) -> (u64, u64, u64, Vec<(u64, u32)>) {
        let cal = self.cal.lock();
        let mut booked: Vec<(u64, u32)> = cal
            .chunks
            .iter()
            .flat_map(|(&k, c)| (0..CHUNK).map(move |i| (k * CHUNK + i, c[i as usize])))
            .filter(|&(b, used)| b >= cal.floor && used > 0)
            .collect();
        booked.sort_unstable();
        (cal.floor, cal.low, cal.admits, booked)
    }

    /// Resets the calendar to empty (used when re-basing a timeline).
    pub fn reset(&self) {
        let mut cal = self.cal.lock();
        *cal = Calendar::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gate_at(bandwidth: u64) -> BandwidthGate {
        let table = Arc::new(ContentionTable::new(obsv::Clock::new(|| 0)));
        BandwidthGate::new(&table, bandwidth)
    }

    fn gate() -> BandwidthGate {
        // 1 GiB/s: 16 lines per µs bucket.
        gate_at(1 << 30)
    }

    #[test]
    fn bucket_capacity_matches_bandwidth() {
        let g = gate();
        // (1 GiB/s × 1 µs) / 64 B = 16.7 -> 16 lines.
        assert_eq!(g.lines_per_bucket(), 16);
        // A tiny-bandwidth device still admits at least one line.
        let tiny = gate_at(1);
        assert_eq!(tiny.lines_per_bucket(), 1);
    }

    #[test]
    fn sequential_writer_never_queues() {
        let g = gate();
        // One line per 200 ns = 5 per bucket, below the 16-line capacity.
        let mut now = 0;
        for _ in 0..100 {
            now = g.admit(now, 200, 1);
        }
        assert_eq!(now, 100 * 200);
    }

    #[test]
    fn saturation_pushes_completions_out() {
        let g = gate();
        // 64 lines all issued at t=0 (e.g. four threads writing a block
        // each): 16 fit in bucket 0, the rest spill into later buckets.
        let mut last = 0;
        for _ in 0..64 {
            last = last.max(g.admit(0, 200, 1));
        }
        // The 64th line lands in bucket 3: starts at 3 µs.
        assert_eq!(last, 3_000 + 200);
    }

    #[test]
    fn lagging_clock_backfills_idle_buckets() {
        let g = gate();
        // A fast actor books far in the future.
        let mut now = 1_000_000;
        for _ in 0..32 {
            now = g.admit(now, 200, 1);
        }
        // A lagging actor at t=0 does not wait behind those bookings: the
        // early buckets were idle.
        assert_eq!(g.admit(0, 200, 1), 200);
    }

    #[test]
    fn reset_clears_the_calendar() {
        let g = gate();
        for _ in 0..64 {
            g.admit(0, 200, 1);
        }
        g.reset();
        assert_eq!(g.admit(0, 200, 1), 200);
    }

    /// The calendar as first written: one map entry per bucket, one
    /// admission per line. The reference the batched gate must match.
    #[derive(Default)]
    struct PerLine {
        used: std::collections::HashMap<u64, u32>,
        floor: u64,
        low: Option<u64>,
        admits: u64,
    }

    impl PerLine {
        fn admit(&mut self, cap: u32, now: u64, line_ns: u64) -> u64 {
            let want = now / BUCKET_NS;
            self.low = Some(self.low.map_or(want, |l| l.min(want)));
            let mut b = want.max(self.floor);
            loop {
                let used = self.used.entry(b).or_insert(0);
                if *used < cap {
                    *used += 1;
                    break;
                }
                b += 1;
            }
            self.admits += 1;
            if self.admits.is_multiple_of(8192) {
                let cutoff = self.low.unwrap().saturating_sub(PRUNE_WINDOW);
                if cutoff > self.floor {
                    self.used.retain(|&k, _| k >= cutoff);
                    self.floor = cutoff;
                }
                self.low = None;
            }
            now.max(b * BUCKET_NS) + line_ns
        }

        fn calendar(&self) -> (u64, u64, u64, Vec<(u64, u32)>) {
            let mut booked: Vec<(u64, u32)> = self.used.iter().map(|(&b, &u)| (b, u)).collect();
            booked.sort_unstable();
            (
                self.floor,
                self.low.unwrap_or(u64::MAX),
                self.admits,
                booked,
            )
        }
    }

    proptest! {
        /// Random schedules of runs from several actor clocks — clocks that
        /// lag and back-fill, bursts that saturate buckets, enough lines to
        /// cross prunes, zero-latency lines, resets — book exactly what the
        /// per-line calendar booked: same completion times, same calendar.
        #[test]
        fn batched_admission_matches_the_per_line_calendar((bandwidth_mib, line_ns, steps) in (
            64u64..2048,
            prop_oneof![Just(0u64), 1u64..400, 900u64..2500],
            // (actor, clock advance before the run in ns, lines, kind)
            prop::collection::vec((0usize..4, 0u64..30_000, 1usize..700, 0u8..60), 1..400),
        )) {
            let g = gate_at(bandwidth_mib << 20);
            let cap = g.lines_per_bucket();
            let mut model = PerLine::default();
            let mut clocks = [0u64; 4];
            for (i, (actor, advance, lines, kind)) in steps.into_iter().enumerate() {
                match kind {
                    // Rarely: rebase, as between a harness's setup and run.
                    0 => {
                        g.reset();
                        model = PerLine::default();
                        clocks = [0; 4];
                    }
                    // Sometimes the actor's clock jumps far ahead, so the
                    // others lag behind its bookings — and, if they stay
                    // idle across a prune, behind the floor it drags along.
                    1..=6 => clocks[actor] += advance * 10_000,
                    // Sometimes everyone catches up with the fastest.
                    7..=9 => clocks = [clocks.into_iter().max().unwrap(); 4],
                    _ => clocks[actor] += advance,
                }
                let got = g.admit(clocks[actor], line_ns, lines);
                let mut want = clocks[actor];
                for _ in 0..lines {
                    want = model.admit(cap, want, line_ns);
                }
                prop_assert_eq!(got, want);
                clocks[actor] = got;
                // (Walking both calendars is the expensive part: sampled,
                // and always once at the end.)
                if i % 16 == 0 {
                    prop_assert_eq!(g.calendar(), model.calendar());
                }
            }
            prop_assert_eq!(g.calendar(), model.calendar());
        }
    }

    #[test]
    fn an_hour_long_clock_jump_costs_one_chunk_and_moves_no_booking() {
        let g = gate();
        const HOUR: u64 = 3_600_000_000_000;
        // Saturate the first microsecond, jump an hour, then back-fill at
        // 1 ms and at 0: the early bookings are still there, nothing in
        // between was materialised.
        for _ in 0..16 {
            assert_eq!(g.admit(0, 200, 1), 200);
        }
        assert_eq!(g.admit(HOUR, 200, 1), HOUR + 200);
        assert_eq!(g.admit(1_000_000, 200, 1), 1_000_200);
        assert_eq!(g.admit(0, 200, 1), 1_000 + 200, "bucket 0 is still full");
        assert_eq!(g.cal.lock().chunks.len(), 3);
        assert_eq!(
            g.calendar().3,
            vec![(0, 16), (1, 1), (1_000, 1), (HOUR / BUCKET_NS, 1)]
        );
    }

    #[test]
    fn throughput_is_capped_at_bandwidth() {
        let g = gate();
        // Hammer 10,000 lines from t=0: total span must reflect ~16
        // lines/us.
        let mut last = 0u64;
        for _ in 0..10_000 {
            last = last.max(g.admit(0, 200, 1));
        }
        let expect_us = 10_000 / 16;
        let got_us = last / 1_000;
        assert!(
            (got_us as i64 - expect_us as i64).abs() <= 2,
            "span {got_us} us vs expected {expect_us} us"
        );
    }
}
