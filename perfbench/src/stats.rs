//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n` sorted
//! samples is the sample at 1-based rank `ceil(q * n)`. A percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie strictly
//! above that rank, so a tail figure never rests on a handful of
//! iterations.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-quantile of `samples` by nearest rank, or an error naming
/// the shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it but {n} samples leave {}",
            q * 100.0,
            beyond(n, q)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, q) - 1])
}

/// Median (mean of the two middle values for even counts); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert!(percentile(&vec![1.0; 199], 0.95).is_err());
        assert!(percentile(&vec![1.0; 200], 0.95).is_ok());
    }

    #[test]
    fn p50_needs_twenty_one_samples() {
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(19, 0.5), 9);
        assert!(percentile(&[0.0; 19], 0.5).is_err());
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95).unwrap(), 190.0);
        assert_eq!(percentile(&xs, 0.5).unwrap(), 100.0);
    }

    #[test]
    fn empty_sample_is_an_error() {
        assert_eq!(beyond(0, 0.5), 0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
