//! A log₂-bucketed histogram for wall-time distributions.
//!
//! Figure-1 populations span five orders of magnitude (microseconds to
//! seconds), so percentiles over fixed-width buckets are useless; one
//! bucket per power of two of nanoseconds keeps relative error under 2×
//! at any scale with 64 counters of constant memory.

/// Histogram over `u64` samples with one bucket per power of two.
///
/// Bucket `b` holds samples `v` with `floor(log2(v)) == b` (bucket 0 also
/// holds `v == 0`). Percentile queries return the *upper bound* of the
/// bucket containing the requested rank — a conservative estimate, never
/// an underestimate by more than the bucket width.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`q` in `[0, 1]`): the top of
    /// the bucket holding the sample of that rank, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let top = match b {
                    0 => 1,
                    64 => u64::MAX,
                    _ => 1u64 << b,
                };
                return top.min(self.max).max(self.min_in_bucket_floor(b));
            }
        }
        self.max
    }

    fn min_in_bucket_floor(&self, b: usize) -> u64 {
        // Lower bound of bucket b, so percentile() of a single-bucket
        // histogram is at least the bucket's floor.
        if b <= 1 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Fraction of samples `<= threshold` as bounded by bucket edges:
    /// counts every bucket whose *upper* edge is `<= threshold`, plus the
    /// whole bucket containing `threshold` (conservative towards
    /// over-counting "fast" samples by at most one bucket width).
    pub fn fraction_le(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let b = Self::bucket(threshold);
        let fast: u64 = self.buckets[..=b].iter().sum();
        fast as f64 / self.count as f64
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` rows, for
    /// rendering.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| {
                let lo = if b <= 1 { 0 } else { 1u64 << (b - 1) };
                let hi = match b {
                    0 => 1,
                    64 => u64::MAX,
                    _ => 1u64 << b,
                };
                (lo, hi, n)
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_le(10), 1.0);
        assert!(h.rows().is_empty());
    }

    #[test]
    fn basic_stats() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 203.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_a_bucketed_upper_bound() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(1_000_000);
        let p50 = h.percentile(0.50);
        assert!((64..=128).contains(&p50), "{p50}");
        let p99 = h.percentile(0.99);
        assert!((64..=128).contains(&p99), "{p99}");
        let p100 = h.percentile(1.0);
        assert!((1_000_000 / 2..=1_000_000).contains(&p100), "{p100}");
    }

    #[test]
    fn fraction_le_counts_fast_buckets() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(1_000); // ~2^10
        }
        for _ in 0..10 {
            h.record(1 << 30);
        }
        let f = h.fraction_le(10_000_000);
        assert!((f - 0.9).abs() < 1e-9, "{f}");
        assert_eq!(h.fraction_le(u64::MAX), 1.0);
    }

    #[test]
    fn rows_cover_all_samples_and_bound_them() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 3, 700, 700, 1 << 40] {
            h.record(v);
        }
        let rows = h.rows();
        let total: u64 = rows.iter().map(|r| r.2).sum();
        assert_eq!(total, h.count());
        for (lo, hi, _) in rows {
            assert!(lo < hi);
        }
    }

    #[test]
    fn extreme_samples_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), u64::MAX);
        let rows = h.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].1, u64::MAX);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples_a = [5u64, 9, 1 << 20];
        let samples_b = [0u64, 77, 3];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in samples_a {
            a.record(v);
            both.record(v);
        }
        for v in samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.percentile(0.5), both.percentile(0.5));
    }
}
