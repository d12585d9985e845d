//! Order statistics for timings: median, quartiles, spread, percentiles.

/// Median of `xs` (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads printed here match the ones
/// `record.py` computes from the same samples. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound is compared against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

/// The percentiles worth reporting for `n` samples: the median plus each of
/// p90/p99/p99.9 that has at least ten samples beyond it. A rarer
/// percentile would be set by a handful of samples, i.e. by noise.
pub fn reportable_percentiles(n: usize) -> Vec<f64> {
    [50.0, 90.0, 99.0, 99.9]
        .into_iter()
        .filter(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .collect()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values (`NaN` when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // The exclusive method extrapolates past two samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).expect("ten samples");
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn only_percentiles_with_ten_samples_beyond_are_reported() {
        assert!(reportable_percentiles(19).is_empty());
        assert_eq!(reportable_percentiles(20), vec![50.0]);
        assert_eq!(reportable_percentiles(99), vec![50.0]);
        assert_eq!(reportable_percentiles(100), vec![50.0, 90.0]);
        assert_eq!(reportable_percentiles(1000), vec![50.0, 90.0, 99.0]);
        assert_eq!(reportable_percentiles(10_000), vec![50.0, 90.0, 99.0, 99.9]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
