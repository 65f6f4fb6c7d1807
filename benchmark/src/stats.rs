//! Exact order statistics for the benchmark's two kinds of sample sets:
//! per-syscall virtual latencies (tens of thousands of `u64`s, exact
//! nearest-rank percentiles) and per-repetition host timings (a handful
//! of `f64`s, median and quartiles).

/// A percentile as an exact fraction, so `rank` needs no float rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    pub num: u64,
    pub den: u64,
    /// As it appears in metric names.
    pub label: &'static str,
}

pub const P50: Pct = Pct {
    num: 1,
    den: 2,
    label: "p50",
};
pub const P99: Pct = Pct {
    num: 99,
    den: 100,
    label: "p99",
};
pub const P999: Pct = Pct {
    num: 999,
    den: 1000,
    label: "p999",
};

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the value is one outlier's latency, not a
/// property of the distribution.
pub const MIN_BEYOND: u64 = 10;

impl Pct {
    /// 1-based nearest rank in a set of `n`: the smallest `k` with
    /// `k / n >= num / den`. `n` must be at least 1.
    pub fn rank(self, n: u64) -> u64 {
        (n * self.num).div_ceil(self.den).max(1)
    }

    /// Samples strictly beyond the percentile's rank.
    pub fn beyond(self, n: u64) -> u64 {
        n - self.rank(n)
    }

    /// Whether a set of `n` samples supports this percentile.
    pub fn supported(self, n: u64) -> bool {
        n > 0 && self.beyond(n) >= MIN_BEYOND
    }

    /// The exact percentile of an ascending-sorted, non-empty slice.
    pub fn of(self, sorted: &[u64]) -> u64 {
        sorted[(self.rank(sorted.len() as u64) - 1) as usize]
    }
}

/// Median of a small sample (mean of the two middle values when even).
/// Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        // Position i*(n+1)/4, clamped into the sample, linear between
        // neighbours.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (the spread the driver
/// compares against a metric's bound).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(P50.of(&v), 500);
        assert_eq!(P99.of(&v), 990);
        assert_eq!(P999.of(&v), 999);
        assert_eq!(P50.of(&[7]), 7);
        assert_eq!(P999.of(&[1, 2, 3]), 3);
        // Even count: the lower middle (nearest rank, no interpolation).
        assert_eq!(P50.of(&[1, 2, 3, 4]), 2);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p999 of 10 000 leaves exactly 10 beyond; 9 999 leaves 9.
        assert_eq!(P999.beyond(10_000), 10);
        assert!(P999.supported(10_000));
        assert_eq!(P999.beyond(9_999), 9);
        assert!(!P999.supported(9_999));
        assert!(P99.supported(1_000));
        assert!(!P99.supported(999));
        assert!(P50.supported(20));
        assert!(!P50.supported(19));
        assert!(!P50.supported(0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
