//! The metric primitives: atomics-based counters, gauges, and log-bucketed
//! latency histograms. Hand-rolled — the workspace takes no new
//! dependencies for observability.
//!
//! All three types are lock-free on the write path; snapshots are
//! internally consistent by construction (a histogram snapshot derives its
//! count from the bucket array it just read, so `count == Σ buckets` holds
//! even while writers race the reader).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time value that can go up or down, computed at read time —
/// used to export live state (journal depth, breaker state) and to mirror
/// pre-existing stats structs without double-counting.
pub(crate) struct Gauge {
    read: Box<dyn Fn() -> i64 + Send + Sync>,
}

impl Gauge {
    pub(crate) fn callback(f: impl Fn() -> i64 + Send + Sync + 'static) -> Gauge {
        Gauge { read: Box::new(f) }
    }

    pub(crate) fn get(&self) -> i64 {
        (self.read)()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Number of log2 buckets. Bucket `i` (for `i > 0`) holds values whose bit
/// length is `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 0 holds 0.
/// 50 buckets cover up to ~2^49 ns ≈ 6.5 days of latency — beyond that the
/// last bucket absorbs everything.
pub const BUCKETS: usize = 50;

/// Upper bound (inclusive) of bucket `i` in recorded units.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// A log-bucketed histogram of nanosecond latencies (or any u64 sample).
/// Writers touch two atomics; readers assemble a consistent
/// [`HistogramSnapshot`] with p50/p95/p99.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile sample (1-based), then the upper bound
            // of the bucket containing it.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, p95={}, p99={}, max={})",
            s.count, s.p50, s.p95, s.p99, s.max
        )
    }
}

/// A consistent point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Upper bound of the bucket holding the median sample (capped at max).
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// Raw bucket counts (`count == buckets.iter().sum()` by construction).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_reads_its_callback() {
        let cb = Gauge::callback(|| 123);
        assert_eq!(cb.get(), 123);
    }

    #[test]
    fn bucket_index_and_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(3), 7);
        // Everything past the last bucket folds in.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_order_and_totals() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500500);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // Rank 500 falls in the bucket [256, 511] (cumulative 511 ≥ 500).
        assert_eq!(s.p50, 511);
        // Rank 950 falls in [512, 1023], capped at the observed max.
        assert_eq!(s.p95, 1000);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
    }

    #[test]
    fn empty_histogram_snapshot_is_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            (s.count, s.sum, s.max, s.p50, s.p95, s.p99),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
    }
}
