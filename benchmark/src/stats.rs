//! Order statistics for latency samples and for values across runs.

/// A workload must supply this many samples before `p99` is reported:
/// twice what the "ten samples beyond" rule alone would ask, so the
/// percentile does not sit on the last few outliers of a short run.
pub const MIN_P99_SAMPLES: usize = 2_000;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// A tail percentile is reported only with at least ten samples beyond
/// it; `p99` additionally needs [`MIN_P99_SAMPLES`].
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    tail_percentile_of(sorted, p, MIN_P99_SAMPLES)
}

/// As [`tail_percentile`], for one of several samples whose percentiles
/// are combined afterwards: `p99` needs `min_p99_samples` in this one.
pub fn tail_percentile_of(sorted: &[u64], p: f64, min_p99_samples: usize) -> Option<u64> {
    if samples_beyond(sorted.len(), p) < 10 {
        return None;
    }
    if p >= 99.0 && sorted.len() < min_p99_samples {
        return None;
    }
    percentile(sorted, p)
}

/// Median of latency samples (nearest rank), sorting in place.
pub fn median_ns(samples: &mut [u64]) -> Option<u64> {
    samples.sort_unstable();
    percentile(samples, 50.0)
}

/// Median of values across runs or rounds (mean of the middle two for
/// an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile of values over rounds.
pub fn percentile_f64(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// Arithmetic mean of values over rounds or engines.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Quartiles across runs, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, len) = (4usize, v.len());
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let s = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&s, 5.0), Some(15));
        assert_eq!(percentile(&s, 30.0), Some(20));
        assert_eq!(percentile(&s, 40.0), Some(20));
        assert_eq!(percentile(&s, 50.0), Some(35));
        assert_eq!(percentile(&s, 100.0), Some(50));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&s, 101.0), None);
    }

    #[test]
    fn p0_is_the_minimum() {
        assert_eq!(percentile(&[7, 9], 0.0), Some(7));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let s: Vec<u64> = (0..999).collect();
        assert_eq!(tail_percentile(&s, 99.0), None);
        // p90 of 100 samples has exactly ten beyond it.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&s, 90.0), Some(90));
        assert_eq!(tail_percentile(&s[..99], 90.0), None);
    }

    #[test]
    fn a_round_needs_ten_beyond_for_its_own_p99() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile_of(&s, 99.0, 1), Some(990));
        assert_eq!(tail_percentile_of(&s[..999], 99.0, 1), None);
        assert_eq!(tail_percentile(&s, 99.0), None);
    }

    #[test]
    fn p99_is_refused_under_2000_samples() {
        let s: Vec<u64> = (1..=1999).collect();
        assert_eq!(tail_percentile(&s, 99.0), None);
        let s: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_percentile(&s, 99.0), Some(1980));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_ns(&mut [5, 1, 9]), Some(5));
    }

    #[test]
    fn quartile_of_rounds_is_nearest_rank() {
        let v = [6.0, 1.0, 5.0, 2.0, 4.0, 3.0];
        assert_eq!(percentile_f64(&v, 25.0), Some(2.0));
        assert_eq!(percentile_f64(&v, 75.0), Some(5.0));
        assert_eq!(percentile_f64(&[], 25.0), None);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
