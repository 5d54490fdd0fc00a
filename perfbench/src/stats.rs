//! Order statistics shared by the run summary and `compare`.

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A tail percentile is reported only from this many ops up, so that at
/// least ten samples lie beyond p90.
pub const MIN_OPS_FOR_P90: usize = 100;

/// p90 of the op latencies, or `None` when the run is too short for it.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_OPS_FOR_P90 {
        return None;
    }
    percentile(samples, 90.0)
}

/// Share of attempted ops whose checks passed. Errors count as failed.
pub fn pass_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (attempted - failed.min(attempted)) as f64 / attempted as f64
}

/// The median, the mean of the middle two samples on even counts (as
/// Python's `statistics.median`). Every median the benchmark reports,
/// and every median `compare` prints, is this one.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), which is how run-to-run spread
/// is judged. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_fixed_vector() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let shuffled = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(percentile(&shuffled, 50.0), Some(35.0));
        // Even count: nearest rank takes the lower middle sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn the_median_interpolates_on_even_counts() {
        assert_eq!(median(&[40.0, 15.0, 50.0, 35.0, 20.0]), Some(35.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_omitted_below_one_hundred_ops() {
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&short), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough), Some(90.0));
        let more: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p90(&more), Some(900.0));
    }

    #[test]
    fn pass_share_counts_failures_against_attempts() {
        assert_eq!(pass_share(10, 0), 1.0);
        assert_eq!(pass_share(10, 1), 0.9);
        assert_eq!(pass_share(4, 4), 0.0);
        assert_eq!(pass_share(0, 0), 0.0);
        assert_eq!(pass_share(3, 7), 0.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
