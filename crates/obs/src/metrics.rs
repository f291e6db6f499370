//! The metric primitives: atomics-based counters, gauges, and log-linear
//! latency histograms. Hand-rolled — the workspace takes no new
//! dependencies for observability.
//!
//! All three types are lock-free on the write path; snapshots are
//! internally consistent by construction (a histogram snapshot derives its
//! count from the bucket array it just read, so `count == Σ buckets` holds
//! even while writers race the reader).

use std::sync::atomic::{AtomicU64, Ordering};

/// A named `u64` the registry reads: one event, one `add`. It derefs to
/// its [`AtomicU64`], so code written against a plain atomic field
/// (`stats.errors.load(Ordering::SeqCst)`, `fetch_sub` on a level such as
/// open connections) keeps working on the handle.
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

impl std::ops::Deref for Counter {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.v
    }
}

/// A point-in-time value computed at read time — only for state derived
/// when read (a device's dropped legs, the tree's footprint, a sum over
/// devices), never a copy of a [`Counter`].
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

/// Linear sub-buckets per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two split into [`SUB`] sub-buckets above the exact range:
/// bit lengths 6 through 35, so values up to 2^35 ns (~34 s) are bucketed
/// within 1/32 of their size.
const OCTAVES: usize = 30;
/// The first value the overflow bucket holds.
const OVERFLOW_FROM: u64 = 1 << (SUB_BITS as usize + OCTAVES);

/// Number of buckets: 32 exact ones (values 0..=31), 30 × 32
/// log-linear ones, and one overflow bucket for everything from 2^35 up.
/// 993 buckets of 8 bytes keep a histogram under 8 KiB.
pub const BUCKETS: usize = SUB + OCTAVES * SUB + 1;

/// Upper bound (inclusive) of bucket `i` in recorded units. A bucket
/// below the overflow one is at most 1/32 of its lower bound wide, so the
/// upper bound over-reports any value in it by less than 3.2 %.
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    if i >= BUCKETS - 1 {
        return u64::MAX;
    }
    let (shift, m) = ((i - SUB) / SUB, (i - SUB) % SUB);
    (((SUB + m) as u64) << shift) + (1u64 << shift) - 1
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    if v >= OVERFLOW_FROM {
        return BUCKETS - 1;
    }
    // v has bit length SUB_BITS + 1 + shift; its top SUB_BITS + 1 bits
    // pick the sub-bucket.
    let shift = (63 - v.leading_zeros() - SUB_BITS) as usize;
    SUB + shift * SUB + ((v >> shift) as usize - SUB)
}

/// A log-linear histogram of nanosecond latencies (or any u64 sample).
/// Writers touch three atomics; readers assemble a consistent
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

/// A consistent point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Upper bound of the bucket holding the median sample (capped at max):
    /// never below the true sample quantile, and above it by less than
    /// 3.2 % up to 2^35.
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// Raw bucket counts (`count == buckets.iter().sum()` by construction).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
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
        // Exact below 32.
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // 32..=63 are still one value per bucket; 64 starts pairs.
        assert_eq!(bucket_index(63), 63);
        assert_eq!((bucket_index(64), bucket_index(65)), (64, 64));
        assert_eq!(bucket_upper(64), 65);
        // Every bucket's range is contiguous with the next one's.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i);
            assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1);
        }
        assert_eq!(bucket_upper(BUCKETS - 2), OVERFLOW_FROM - 1);
        // Everything from 2^35 folds into the overflow bucket.
        assert_eq!(bucket_index(OVERFLOW_FROM), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert!(std::mem::size_of::<Histogram>() <= 8 * 1024);
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
        // Rank 500 falls in [496, 503] (8 wide from 2^8).
        assert_eq!(s.p50, 503);
        // Rank 950 falls in [944, 959] (16 wide from 2^9).
        assert_eq!(s.p95, 959);
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
