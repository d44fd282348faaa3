//! Order statistics for timing samples.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with
//! the sample count: a p99 over 40 samples would be one sample and
//! say nothing.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first, in tenths of a
/// percent so that the samples-beyond test is exact integer arithmetic.
const TAIL_CANDIDATES_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64))
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The geometric mean of positive values; 0 for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A timing summary: median, tail percentile and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The reported tail percentile (see [`tail_pct`]).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The highest of p99.9 / p99 / p90 / p50 with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it. Below 20 samples no
/// percentile qualifies, and the median (p50) is the whole report.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|p| n * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
        .map_or(50.0, |p| p as f64 / 10.0)
}

/// Summarises a non-empty sample; `None` when it is empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    let tail_pct = tail_pct(samples.len());
    Some(Summary {
        n: samples.len(),
        median,
        tail_pct,
        tail: percentile(samples, tail_pct)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 needs 100 samples (10 beyond), p99 1000, p99.9 10000.
        assert_eq!(tail_pct(0), 50.0);
        assert_eq!(tail_pct(19), 50.0);
        assert_eq!(tail_pct(99), 50.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(999), 90.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail_pct, 90.0);
        // Rank 0.9 × 99 = 89.1 → between the 90th and 91st values.
        assert!((s.tail - 90.1).abs() < 1e-9);
        // Exactly the required ten samples lie beyond the tail.
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), TAIL_MIN_BEYOND);
        let few = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (few.n, few.median, few.tail_pct, few.tail),
            (3, 2.0, 50.0, 2.0)
        );
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn geomean_of_positive_values() {
        assert_eq!(geomean(&[2.0, 8.0]), 4.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_ignores_input_order() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.5));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), Some(4.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }
}
