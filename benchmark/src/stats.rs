//! Order statistics for the benchmark's samples.

/// The fewest samples that must lie beyond a reported percentile. A tail
/// percentile resting on fewer is one outlier away from any value, so the
/// helpers below refuse it rather than report noise as a measurement.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` sorted samples. The
/// small epsilon keeps `0.99 × 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    if n - r < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// The highest quantile at most `want` that [`percentile`] will report
/// for `samples`, with its value; `None` when even that is refused. Short
/// smoke runs use this to keep their tail row, labelled with the quantile
/// actually reported.
pub fn highest_percentile(samples: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let q = want.min((n - MIN_BEYOND) as f64 / n as f64);
    percentile(samples, q).map(|v| (q, v))
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The middle value of repeated measurements (lower middle for an even
/// count), with no floor on the sample count. Used for set-up trials,
/// too few for [`percentile`], and for the per-request tracing overhead,
/// where the point is to drop outliers.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 above it; of 999, only 9.
        assert!(percentile(&ramp(1000), 0.99).is_some());
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // A median needs 20 samples: 10 at or below, 10 above.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_backs_off_to_what_the_sample_supports() {
        let (q, v) = highest_percentile(&ramp(200), 0.99).unwrap();
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(v, 190.0);
        assert_eq!(highest_percentile(&ramp(2000), 0.99), Some((0.99, 1980.0)));
        assert_eq!(highest_percentile(&ramp(10), 0.99), None);
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
