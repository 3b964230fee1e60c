//! The statistics every metric goes through: a percentile that refuses to
//! report a tail it has not sampled, the median of per-round values, and
//! the quartile spread that says how far two medians may be trusted.

/// Samples that must lie beyond a percentile before it is reported. With
/// fewer, the "percentile" is the maximum under another name.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Median; the mean of the two middle values for an even count. `NaN`
/// for an empty slice, which no caller produces.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), because the pipeline that judges this benchmark uses exactly
/// that. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when it cannot be computed (one value, or a zero median).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let Some([q1, _, q3]) = quartiles(values) else {
        return 0.0;
    };
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<u64> = (1..=100).collect();
        // p90 of 100: rank 90, ten samples beyond — the smallest sample
        // that supports it
        assert_eq!(percentile(&hundred, 0.90), Some(90));
        assert_eq!(percentile(&hundred, 0.50), Some(50));
        // p99 of 100 has one sample beyond it
        assert_eq!(percentile(&hundred, 0.99), None);
        let ninety_nine: Vec<u64> = (1..=99).collect();
        assert_eq!(percentile(&ninety_nine, 0.90), None);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[8.0]), 8.0);
        // one slow round does not move the median of five
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 2.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 12, 11, 15, 9], n=4) == [9.5, 11.0, 13.5]
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 15.0, 9.0]),
            Some([9.5, 11.0, 13.5])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = quartile_spread(&[10.0, 12.0, 11.0, 15.0, 9.0]);
        assert!((s - 4.0 / 11.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[3.0]), 0.0);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
