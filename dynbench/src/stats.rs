//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule on integer per-mille levels, so
//! `p99` of 1000 samples is exactly the 990th smallest — no floating
//! rounding decides which sample is reported. A percentile is only
//! reported when at least ten samples lie beyond it; the workloads keep
//! measuring until [`samples_needed`] holds for every percentile they
//! report.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` level in `n` samples:
/// `ceil(permille * n / 1000)`, at least 1.
pub fn rank(n: usize, permille: u32) -> usize {
    ((permille as usize * n).div_ceil(1000)).max(1)
}

/// Samples strictly beyond the nearest-rank `permille` level.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// `true` when `n` samples support reporting the `permille` level.
pub fn supports(n: usize, permille: u32) -> bool {
    n > 0 && beyond(n, permille) >= MIN_BEYOND
}

/// The smallest sample count that supports the `permille` level.
pub fn samples_needed(permille: u32) -> usize {
    (1..)
        .find(|&n| supports(n, permille))
        .expect("some n supports any level below 1000")
}

/// Nearest-rank percentile of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Sorts a sample ascending (timings are finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_integer_levels() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 990), 990.0);
        assert_eq!(nearest_rank(&v, 500), 500.0);
        assert_eq!(nearest_rank(&v, 1000), 1000.0);
        assert_eq!(nearest_rank(&[7.0], 990), 7.0);
        let three = sorted(vec![3.0, 1.0, 2.0]);
        assert_eq!(nearest_rank(&three, 500), 2.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 2.0);
    }

    #[test]
    fn a_reported_percentile_has_ten_samples_beyond_it() {
        assert_eq!(samples_needed(990), 1000);
        assert_eq!(samples_needed(900), 100);
        assert_eq!(samples_needed(500), 20);
        assert!(!supports(999, 990));
        assert_eq!(beyond(999, 990), 9);
        assert!(supports(1000, 990));
        assert_eq!(beyond(1000, 990), 10);
        assert!(!supports(0, 500));
        for level in [500, 900, 990] {
            let n = samples_needed(level);
            assert!(beyond(n, level) >= MIN_BEYOND);
            assert!(beyond(n - 1, level) < MIN_BEYOND);
        }
    }
}
