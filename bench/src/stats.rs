//! Percentile, median and quartile arithmetic shared by the workloads,
//! `--compare` and the ledger.

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so this tool and the driver agree.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One round's latencies of one op class, in nanoseconds, and the wall
/// time from the clients' release to the last one's finish.
pub struct Round {
    pub wall_s: f64,
    pub lat_ns: Vec<u64>,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ns.len() as f64 / self.wall_s
    }
}

/// Figures for one op class, each the median over the rounds.
pub struct ClassStats {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// Each round gives one throughput and one of each percentile; the figure
/// reported is the median of the rounds' figures, axis by axis.
pub fn reduce_rounds(rounds: &mut [Round]) -> ClassStats {
    let mut rate = Vec::new();
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for r in rounds.iter_mut() {
        r.lat_ns.sort_unstable();
        rate.push(r.ops_per_s());
        p50.push(percentile(&r.lat_ns, 50.0) as f64 / 1e3);
        p95.push(percentile(&r.lat_ns, 95.0) as f64 / 1e3);
        p99.push(percentile(&r.lat_ns, 99.0) as f64 / 1e3);
    }
    ClassStats {
        ops_per_s: median(&rate),
        p50_us: median(&p50),
        p95_us: median(&p95),
        p99_us: median(&p99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 51.0), 30);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn rounds_reduce_to_the_median_round_axis_by_axis() {
        // Five rounds of 100 ops, each twice as slow as the one before, out
        // of order: the middle one is the median on every axis.
        let mut rounds: Vec<Round> = [(4.0, 40u64), (1.0, 10), (16.0, 160), (2.0, 20), (8.0, 80)]
            .iter()
            .map(|&(wall_s, step)| Round {
                wall_s,
                lat_ns: (1..=100).rev().map(|i| i * step * 1_000).collect(),
            })
            .collect();
        let s = reduce_rounds(&mut rounds);
        assert_eq!(s.ops_per_s, 25.0);
        assert_eq!(s.p50_us, 50.0 * 40.0);
        assert_eq!(s.p95_us, 95.0 * 40.0);
        assert_eq!(s.p99_us, 99.0 * 40.0);
    }
}
