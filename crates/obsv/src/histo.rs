//! Lock-free log-bucketed latency histograms.
//!
//! [`Histo::record`] is three relaxed atomic RMWs (bucket, sum, max), so
//! many threads can record concurrently without coordination. Buckets are
//! logarithmic with [`SUB_BUCKETS`] sub-buckets per power of two, which
//! bounds the relative quantile error at `1/SUB_BUCKETS` (12.5%) while
//! keeping the table small enough (496 buckets, ~4 KiB) to embed one
//! histogram per op kind per file system.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 3;

/// Sub-buckets per power of two; also the count of exact buckets at the
/// low end (values `< SUB_BUCKETS` get a bucket each).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count: every `u64` maps to exactly one bucket.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_BUCKETS as usize;

/// Maps a value to its bucket index.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
    let sub = (v >> (h - SUB_BITS)) - SUB_BUCKETS;
    (((h - SUB_BITS + 1) as u64 * SUB_BUCKETS) + sub) as usize
}

/// The largest value that maps into bucket `b` (quantiles report this
/// upper edge, so they never under-estimate).
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    if b < SUB_BUCKETS as usize {
        return b as u64;
    }
    let h = (b as u32 >> SUB_BITS) + SUB_BITS - 1;
    let sub = b as u64 & (SUB_BUCKETS - 1);
    ((SUB_BUCKETS + sub + 1) << (h - SUB_BITS)).wrapping_sub(1)
}

/// The smallest value that maps into bucket `b` — with [`bucket_upper`],
/// the bounds an exemplar attached to bucket `b` must fall within.
#[inline]
pub fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        bucket_upper(b - 1).saturating_add(1)
    }
}

/// A concurrent histogram of `u64` samples (latencies in ns, sizes, ...).
#[derive(Debug)]
pub struct Histo {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Histo::new()
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Histo {
        Histo {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Zeroes every bucket, the sum and the max. For quiescent rebasing
    /// (timeline resets); racing recorders are not torn, merely split
    /// across the reset.
    pub fn reset(&self) {
        for a in self.buckets.iter().chain([&self.sum, &self.max]) {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistoSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistoSnapshot {
            buckets: buckets.into_boxed_slice(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histo`], with quantile/merge/diff math.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: vec![0; N_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistoSnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// bucket the rank lands in and clamped to the exact max. Exact for
    /// the low sub-bucket range; elsewhere within one bucket width
    /// (relative error ≤ `1/SUB_BUCKETS`). Returns 0 for an empty
    /// histogram and is monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).clamp(1.0, self.count as f64);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= rank {
                let upper = bucket_upper(b).min(self.max);
                let lower = bucket_lower(b).min(upper);
                let frac = (rank - cum as f64) / n as f64;
                let v = lower as f64 + frac * (upper - lower) as f64;
                return (v.round() as u64).min(self.max);
            }
            cum += n;
        }
        self.max
    }

    /// Common quantiles, for reports: (p50, p90, p99, p999).
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }

    /// Merges `other` into `self` (e.g. combining per-thread histograms).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The samples recorded between `earlier` and `self` (`self` must be
    /// the later snapshot of the same histogram).
    ///
    /// The window's `max` is exact when it can be (0 for an empty
    /// window; the running max when a sample inside the window set a new
    /// one). When only the bucket deltas are known — the old max's value
    /// was matched or undercut inside the window — it falls back to the
    /// upper edge of the highest bucket that gained samples, clamped to
    /// the running max, so it never reports a stale maximum from outside
    /// the window or a value no sample could have had.
    pub fn since(&self, earlier: &HistoSnapshot) -> HistoSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = buckets.iter().sum();
        let max = if count == 0 {
            0
        } else if self.max > earlier.max {
            self.max
        } else {
            buckets
                .iter()
                .rposition(|&n| n > 0)
                .map(|b| bucket_upper(b).min(self.max))
                .unwrap_or(0)
        };
        HistoSnapshot {
            buckets: buckets.into_boxed_slice(),
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_map_is_total_and_monotone() {
        // Every boundary-adjacent value maps into range, and bucket_upper
        // is a true upper bound with bounded relative error.
        let probes: Vec<u64> = (0..=1025)
            .chain((1..64).flat_map(|s| {
                let p = 1u64 << s;
                [p - 1, p, p + 1]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut last_bucket = 0usize;
        let mut last_v = 0u64;
        for &v in &probes {
            let b = bucket_of(v);
            assert!(b < N_BUCKETS, "v={v} bucket {b}");
            if v >= last_v {
                assert!(b >= last_bucket, "bucket map not monotone at {v}");
            }
            let upper = bucket_upper(b);
            assert!(upper >= v, "upper({b})={upper} < v={v}");
            // Relative error bound: upper <= v * (1 + 1/SUB_BUCKETS).
            assert!(
                upper as u128 <= v as u128 + v as u128 / SUB_BUCKETS as u128 + 1,
                "v={v} upper={upper}"
            );
            last_bucket = b;
            last_v = v;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histo::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..SUB_BUCKETS {
            assert_eq!(s.buckets[v as usize], 1);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn quantiles_match_exact_reference() {
        // Uniform 1..=1000, recorded once each: the exact pXX is XX0.
        let h = Histo::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        for (q, exact) in [
            (0.50, 500u64),
            (0.90, 900),
            (0.95, 950),
            (0.99, 990),
            (0.999, 999),
        ] {
            let got = s.quantile(q);
            // Interpolation lands within one bucket width of the exact
            // quantile, on either side.
            let tol = exact / SUB_BUCKETS + 1;
            assert!(
                got.abs_diff(exact) <= tol,
                "q={q}: {got} vs exact {exact} (tol {tol})"
            );
        }
        assert_eq!(s.quantile(1.0), 1000, "p100 is the exact max");
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histo::new();
        for v in [3u64, 90, 90, 4000, 123_456, 123_456, 123_456, 9_999_999] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut last = 0;
        for i in 0..=100 {
            let v = s.quantile(i as f64 / 100.0);
            assert!(v >= last, "quantile not monotone at q={i}%");
            last = v;
        }
        assert_eq!(last, s.max());
    }

    #[test]
    fn overflow_bucket_quantiles_clamp_to_max() {
        // Samples in the topmost bucket, where the nominal upper edge
        // wraps: quantiles must clamp to the exact recorded max.
        let h = Histo::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 5);
        let s = h.snapshot();
        assert_eq!(s.max(), u64::MAX);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = s.quantile(q);
            assert!(got >= u64::MAX - (u64::MAX / SUB_BUCKETS), "q={q}: {got}");
        }
        assert_eq!(s.quantile(1.0), u64::MAX);
        // Single-sample overflow bucket is exact-by-clamp at p100.
        let h2 = Histo::new();
        h2.record(u64::MAX - 1);
        assert_eq!(h2.snapshot().quantile(1.0), u64::MAX - 1);
    }

    #[test]
    fn quantile_degenerate_cases() {
        let h = Histo::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 7);
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    fn bucket_lower_partitions_the_value_space() {
        for b in 0..N_BUCKETS {
            assert!(bucket_lower(b) <= bucket_upper(b), "bucket {b} inverted");
            assert_eq!(bucket_of(bucket_lower(b)), b, "lower edge of {b}");
            assert_eq!(bucket_of(bucket_upper(b)), b, "upper edge of {b}");
            if b > 0 {
                assert_eq!(bucket_lower(b), bucket_upper(b - 1) + 1, "gap at {b}");
            }
        }
    }

    #[test]
    fn empty_histogram_every_quantile_is_zero() {
        let s = Histo::new().snapshot();
        assert_eq!(s.count(), 0);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), 0, "q={q}");
        }
        assert_eq!(s.percentiles(), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_bucket_quantiles_stay_inside_the_bucket() {
        // Many samples of one value: every quantile must land inside
        // that value's bucket bounds and at or below the exact max.
        let h = Histo::new();
        let v = 12_345u64;
        for _ in 0..1000 {
            h.record(v);
        }
        let s = h.snapshot();
        let b = bucket_of(v);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let got = s.quantile(q);
            assert!(got >= bucket_lower(b), "q={q}: {got} below bucket");
            assert!(got <= v, "q={q}: {got} above exact max");
        }
        assert_eq!(s.quantile(1.0), v);
    }

    #[test]
    fn p999_on_sparse_buckets() {
        // 999 fast samples and one extreme outlier: rank 999 of 1000
        // still lands in the fast bucket, so p999 must NOT jump to the
        // outlier...
        let h = Histo::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000_000);
        let s = h.snapshot();
        let p999 = s.quantile(0.999);
        assert!(
            p999 <= bucket_upper(bucket_of(100)),
            "p999={p999} overshoots the fast bucket"
        );
        assert_eq!(s.quantile(1.0), 1_000_000_000);
        // ...but with >0.1% of samples in the outlier bucket, p999 must
        // land inside the outlier's bucket bounds despite the huge gap
        // of empty buckets in between.
        let h2 = Histo::new();
        for _ in 0..995 {
            h2.record(100);
        }
        for _ in 0..5 {
            h2.record(1_000_000_000);
        }
        let s2 = h2.snapshot();
        let p999 = s2.quantile(0.999);
        let ob = bucket_of(1_000_000_000);
        assert!(
            p999 >= bucket_lower(ob) && p999 <= 1_000_000_000,
            "p999={p999} outside the outlier bucket [{}..=1e9]",
            bucket_lower(ob)
        );
        assert!(s2.quantile(0.99) <= bucket_upper(bucket_of(100)));
    }

    #[test]
    fn merge_and_since_roundtrip() {
        let h = Histo::new();
        h.record(10);
        h.record(100);
        let early = h.snapshot();
        h.record(1000);
        h.record(1000);
        let late = h.snapshot();
        let delta = late.since(&early);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 2000);
        let mut merged = early.clone();
        merged.merge(&delta);
        assert_eq!(merged.count(), late.count());
        assert_eq!(merged.sum(), late.sum());
        assert_eq!(merged.quantile(0.5), late.quantile(0.5));
    }

    #[test]
    fn windowed_max_is_zero_for_an_empty_window() {
        let h = Histo::new();
        h.record(5_000_000);
        let s = h.snapshot();
        let d = s.since(&s);
        assert_eq!(d.count(), 0);
        assert_eq!(d.max(), 0, "empty window must not report a stale max");
        assert_eq!(d.quantile(0.99), 0);
    }

    #[test]
    fn windowed_max_is_exact_when_the_window_sets_a_new_max() {
        let h = Histo::new();
        h.record(100);
        let early = h.snapshot();
        h.record(777_777);
        let d = h.snapshot().since(&early);
        assert_eq!(d.count(), 1);
        assert_eq!(d.max(), 777_777, "new running max is the window's max");
    }

    #[test]
    fn windowed_max_is_bounded_when_the_old_max_still_stands() {
        // A huge sample before the window, small samples inside it: the
        // window max must stay inside the small samples' bucket instead
        // of reporting the pre-window outlier.
        let h = Histo::new();
        h.record(1_000_000_000);
        let early = h.snapshot();
        h.record(100);
        h.record(120);
        let d = h.snapshot().since(&early);
        assert_eq!(d.count(), 2);
        assert!(
            d.max() <= bucket_upper(bucket_of(120)),
            "window max {} leaked the pre-window outlier",
            d.max()
        );
        assert!(d.max() >= 120, "window max under-reports the window");
        // Re-recording exactly the old max inside the window clamps to
        // the true value (the max's own bucket gained a sample).
        let early2 = h.snapshot();
        h.record(1_000_000_000);
        let d2 = h.snapshot().since(&early2);
        assert_eq!(d2.count(), 1);
        assert_eq!(d2.max(), 1_000_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histo::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 80_000);
        assert_eq!(s.max(), 7 * 10_000 + 9_999);
    }
}
