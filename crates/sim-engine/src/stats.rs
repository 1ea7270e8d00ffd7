//! Fixed-bucket histograms with an overflow bin.

use serde::{Deserialize, Serialize};

/// A histogram with uniformly sized buckets over `[0, bucket_width * buckets)`.
/// Values beyond the last bucket are collected in an overflow bin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be non-zero");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Record a value.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of buckets (excluding overflow).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Count of values beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile: the upper edge of the bucket containing the
    /// `q`-quantile (q in \[0,1\]). Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        Some(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 4); // [0,10) [10,20) [20,30) [30,40)
        for v in [0, 5, 9, 10, 25, 39, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 3);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(Histogram::new(1, 4).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_panics() {
        let _ = Histogram::new(0, 4);
    }
}
