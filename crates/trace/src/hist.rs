//! Lock-free log2-bucket latency histograms.
//!
//! A [`Log2Histogram`] is 64 atomic counters, one per power-of-two
//! bucket: a recorded value `v` lands in the bucket of its bit length,
//! so bucket `i` covers `[2^(i-1), 2^i - 1]` (bucket 0 holds zeros).
//! Recording is a single `Relaxed` `fetch_add` — safe from any worker
//! with no coordination — and a [`HistogramSnapshot`] freezes the
//! counters for percentile math and Prometheus exposition.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one per possible bit length of a `u64`.
const BUCKETS: usize = 64;

/// A concurrent histogram with power-of-two buckets.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index of a value: its bit length, so doubling a value
    /// moves it one bucket up.
    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one observation (three `Relaxed` adds; callable from
    /// any thread).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the counters into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Log2Histogram`]'s counters, trimmed of
/// trailing empty buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers values whose
    /// bit length is `i` (see [`HistogramSnapshot::bucket_bound`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i`: `2^i - 1` (so bucket 0 is
    /// exactly zero).
    pub fn bucket_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation (`q` in `[0, 1]`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(self.buckets.len().saturating_sub(1))
    }

    /// The observations recorded *since* `earlier` was taken, assuming
    /// `earlier` is an older snapshot of the same monotone histogram —
    /// how a sampler turns lifetime counters into a rate-over-window
    /// view (e.g. "p99 run latency over the last minute"). Differences
    /// saturate at zero, so a mismatched or newer `earlier` degrades to
    /// an empty window instead of garbage.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        let h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.buckets.len(), 12); // trailing zeros trimmed
    }

    #[test]
    fn bounds_and_percentiles() {
        assert_eq!(HistogramSnapshot::bucket_bound(0), 0);
        assert_eq!(HistogramSnapshot::bucket_bound(3), 7);
        assert_eq!(HistogramSnapshot::bucket_bound(64), u64::MAX);

        let h = Log2Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 1);
        assert_eq!(s.percentile(1.0), 1023);
        assert!((s.mean() - 100.9).abs() < 1e-9);

        assert_eq!(HistogramSnapshot::default().percentile(0.99), 0);
    }

    #[test]
    fn extreme_values_saturate_into_the_last_bucket() {
        let h = Log2Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 64);
        assert_eq!(s.buckets[63], 1);
    }

    #[test]
    fn delta_isolates_the_window() {
        let h = Log2Histogram::new();
        for v in [1u64, 1, 2] {
            h.record(v);
        }
        let earlier = h.snapshot();
        for v in [1u64, 900] {
            h.record(v);
        }
        let window = h.snapshot().delta(&earlier);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum, 901);
        assert_eq!(window.buckets[1], 1);
        assert_eq!(window.percentile(1.0), 1023);
        // A reversed (newer) baseline degrades to empty, not garbage.
        let empty = earlier.delta(&h.snapshot());
        assert_eq!(empty.count, 0);
        assert!(empty.buckets.is_empty());
    }
}
