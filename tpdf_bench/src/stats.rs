//! Sample arithmetic: percentiles, the windowed medians the end-to-end
//! latency metrics are defined as, and the spread used to set bounds.

/// One op as the generator saw it, in ns since the measurement began.
/// `start_ns` is the due time in an open loop and the send time in a
/// closed one. These are also the outermost spans of a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl OpSample {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Latency figures of one measured window, in ns.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub p50: f64,
    /// Supported only from 1 000 ops on, so that at least ten samples
    /// lie beyond it.
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

pub fn summarize(samples: &[OpSample]) -> LatencySummary {
    let mut latencies: Vec<u64> = samples.iter().map(OpSample::latency_ns).collect();
    latencies.sort_unstable();
    LatencySummary {
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        p999: percentile(&latencies, 0.999),
        max: percentile(&latencies, 1.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the README's bound table is built from. The
/// quartiles follow Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so the numbers match the driver's.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let position = (k * (n + 1)) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    (quartile(3) - quartile(1)) / median_f64(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_reads_percentiles_of_the_latencies() {
        let samples: Vec<OpSample> = (1..=1000u64)
            .map(|op| OpSample {
                op,
                start_ns: 5_000,
                end_ns: 5_000 + op,
            })
            .collect();
        let summary = summarize(&samples);
        assert_eq!(
            (summary.p50, summary.p99, summary.p999, summary.max),
            (500.0, 990.0, 999.0, 1000.0)
        );
    }

    #[test]
    fn median_ignores_one_stalled_window() {
        assert_eq!(median_f64(&[10.0, 12.0, 11.0, 900.0, 1.0]), 11.0);
        assert_eq!(median_f64(&[3.0, 5.0]), 4.0);
        assert!(median_f64(&[]).is_nan());
    }

    #[test]
    fn relative_iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
