//! The benchmark's own arithmetic: medians, quartiles, the tail-percentile
//! rule and failure ratios.  Every reported timing goes through here.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the spread the benchmark reports is the spread its users
/// compute.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let m = s.len() as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let j = (i + 1) as f64 * m / 4.0;
        let lo = (j.floor() as usize).clamp(1, s.len() - 1);
        let delta = j - lo as f64;
        *q = s[lo - 1] + (s[lo] - s[lo - 1]) * delta;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q[2] - q[0]) / med)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it among `n` samples, or `None` when even the median has fewer than ten
/// beyond it (then only the median is reported).
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    // Largest p with n - ceil(p*n/100) >= 10.
    (50..=99).rev().find(|&p| n - rank(p, n) >= 10)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Value at percentile `p` by the nearest-rank rule.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    s[rank(p, s.len()) - 1]
}

/// A timing as the benchmark reports it: the median, the highest
/// percentile with at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the tail, when the sample count allows one.
    pub tail: Option<(u32, f64)>,
    /// Number of samples.
    pub n: usize,
    /// Inter-quartile distance as a share of the median.
    pub spread: Option<f64>,
}

impl Timing {
    /// Summarize `values`.
    pub fn of(values: &[f64]) -> Timing {
        Timing {
            median: median(values),
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
            n: values.len(),
            spread: iqr_share(values),
        }
    }

    /// One human-readable line: median, tail percentile, sample count and
    /// the inter-quartile spread as a share of the median.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let mut line = format!("{name}: median {:.6} {unit}", self.median);
        if let Some((p, v)) = self.tail {
            line += &format!(", p{p} {v:.6} {unit}");
        }
        line += &format!(", n={}", self.n);
        if let Some(spread) = self.spread {
            line += &format!(", iqr {:.2}% of median", spread * 100.0);
        }
        line
    }
}

/// Failed operations as a share of attempted ones (`0.0` when nothing was
/// attempted, which the output then reports as a failure in its own right).
pub fn failure_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&v, 50), 500.0);
        let t = Timing::of(&v);
        assert_eq!(t.tail, Some((99, 990.0)));
        assert_eq!(t.n, 1000);
        assert_eq!(Timing::of(&[1.0, 2.0, 3.0]).tail, None);
    }

    #[test]
    fn failure_ratio_counts_against_attempts() {
        assert_eq!(failure_ratio(0, 0), 0.0);
        assert_eq!(failure_ratio(40, 0), 0.0);
        assert_eq!(failure_ratio(40, 10), 0.25);
    }
}
