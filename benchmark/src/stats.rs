//! Order statistics used by every report line: the median with its quartiles
//! for host timings, and the "highest percentile the sample supports" rule
//! for latency tails.

/// First quartile, median and third quartile of `values`, by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive): position
/// `k·(n+1)/4` on the sorted sample, linearly interpolated between (or, at the
/// ends of a small sample, extrapolated from) the two neighbouring values.
/// A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(1), at(2), at(3))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// comparison rule measures a bound against.
pub fn spread(q1: f64, median: f64, q3: f64) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / median.abs()
    }
}

/// `num / den`, 0 where there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The candidate tail percentiles, in thousandths, lowest first.
const TAILS: [(u64, &str); 4] = [(500, "p50"), (900, "p90"), (990, "p99"), (999, "p99.9")];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`per_mille` thousandths) of an ascending sample:
/// the value at rank `ceil(p·n)`, and how many samples lie beyond that rank.
pub fn nearest_rank(sorted: &[u64], per_mille: u64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n) as usize;
    (sorted[rank - 1], sorted.len() - rank)
}

/// A latency tail: which percentile was reported, its value, the sample size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tail {
    pub percentile: &'static str,
    pub value: u64,
    pub n: usize,
}

/// The highest of p50 / p90 / p99 / p99.9 that has at least [`MIN_BEYOND`]
/// samples beyond it. A sample too small for any of them reports its p50 and
/// says so through `percentile`.
pub fn tail(samples: &[u64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mut best = TAILS[0];
    for t in TAILS {
        if nearest_rank(&sorted, t.0).1 >= MIN_BEYOND {
            best = t;
        }
    }
    Tail {
        percentile: best.1,
        value: nearest_rank(&sorted, best.0).0,
        n: sorted.len(),
    }
}

/// Median of an integer sample by nearest rank (an observed value, so exact
/// metrics stay bit-comparable).
pub fn p50(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, 500).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(9.0, 10.0, 11.0), 0.2);
        assert_eq!(spread(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 500), (50, 50));
        assert_eq!(nearest_rank(&s, 900), (90, 10));
        assert_eq!(nearest_rank(&s, 990), (99, 1));
        assert_eq!(nearest_rank(&s, 999), (100, 0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 24 samples (one per rank of a domain cell): only p50 qualifies.
        let s: Vec<u64> = (1..=24).collect();
        assert_eq!(tail(&s).percentile, "p50");
        assert_eq!(tail(&s).value, 12);
        // 100 samples: p90 has exactly ten beyond it, p99 has one.
        let s: Vec<u64> = (1..=100).collect();
        let t = tail(&s);
        assert_eq!((t.percentile, t.value, t.n), ("p90", 90, 100));
        // 99 samples: p90 -> rank 90, nine beyond -> falls back to p50.
        let s: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&s).percentile, "p50");
        // 1000 samples: p99 has ten beyond; p99.9 has one.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s).percentile, "p99");
        assert_eq!(tail(&s).value, 990);
        // 10 000 samples: p99.9 qualifies.
        let s: Vec<u64> = (1..=10_000).collect();
        let t = tail(&s);
        assert_eq!((t.percentile, t.value), ("p99.9", 9990));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        let t = tail(&[7, 3, 5]);
        assert_eq!((t.percentile, t.value, t.n), ("p50", 5, 3));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut s: Vec<u64> = (1..=200).collect();
        s.reverse();
        assert_eq!(tail(&s).value, 180);
        assert_eq!(p50(&s), 100);
    }
}
