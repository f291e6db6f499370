//! Property tests for the observability layer.
//!
//! Three tiers:
//! 1. the metric primitives in isolation — counters are monotonic, a
//!    histogram snapshot's `count` always equals the sum of its buckets,
//!    and the bucketed percentiles bound the true sample quantiles;
//! 2. a whole instrumented deployment under randomized workloads mixing
//!    successful updates, aborted updates, and device outages — the
//!    registry snapshot must agree exactly with the long-standing
//!    `UmStats` atomics it mirrors, and the stage histograms must be
//!    consistent with the counters;
//! 3. a multithreaded stress test: writers hammer one registry while a
//!    reader snapshots — no snapshot may ever be torn.

use metacomm::obs::{bucket_upper, Counter, Histogram, BUCKETS};
use metacomm::{BreakerPolicy, FaultPlan, MetaCommBuilder, RetryPolicy};
use pbx::{DialPlan, Store as PbxStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Latency-like samples spanning the interesting magnitudes: zeros,
/// sub-microsecond, realistic nanosecond latencies, and pathological
/// near-overflow values that must still land in the last bucket.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0u64),
            1u64..1_000,
            1_000u64..1_000_000_000,
            any::<u64>(),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn counter_is_monotonic_under_any_increment_sequence(
        incs in proptest::collection::vec(0u64..1_000_000, 0..100)
    ) {
        let c = Counter::new();
        let mut last = 0u64;
        let mut total = 0u64;
        for n in incs {
            c.add(n);
            let v = c.get();
            prop_assert!(v >= last, "counter went backwards: {last} -> {v}");
            last = v;
            total += n;
        }
        prop_assert_eq!(c.get(), total);
    }

    #[test]
    fn histogram_count_always_equals_bucket_sum(vs in samples()) {
        let h = Histogram::new();
        let mut expected_sum = 0u64;
        for &v in &vs {
            h.record(v);
            expected_sum = expected_sum.wrapping_add(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, vs.len() as u64);
        prop_assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        prop_assert_eq!(s.sum, expected_sum);
        prop_assert_eq!(s.max, vs.iter().copied().max().unwrap_or(0));
        prop_assert!(
            s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max,
            "percentile order violated: p50={} p95={} p99={} max={}",
            s.p50, s.p95, s.p99, s.max
        );
    }

    /// Log bucketing loses precision but never direction: every reported
    /// percentile is an upper bound on the true sample quantile (the
    /// bucket's upper edge), capped at the observed max.
    #[test]
    fn percentiles_bound_the_true_quantiles(
        vs in proptest::collection::vec(0u64..1_000_000_000, 1..200)
    ) {
        let h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let s = h.snapshot();
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            prop_assert!(
                got >= truth,
                "p{} = {got} under-reports the true quantile {truth}",
                (q * 100.0) as u32
            );
            prop_assert!(got <= s.max);
        }
    }

    /// With a single sample every statistic collapses to that sample — the
    /// max cap makes the bucket upper edge exact — except beyond the last
    /// bucket's range (≈ 6.5 days of latency), where percentiles saturate
    /// at that bucket's upper edge while count/sum/max stay exact.
    #[test]
    fn single_sample_is_reported_exactly(v in any::<u64>()) {
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        let expected_pct = v.min(bucket_upper(BUCKETS - 1));
        prop_assert_eq!(
            (s.count, s.sum, s.max, s.p50, s.p95, s.p99),
            (1, v, v, expected_pct, expected_pct, expected_pct)
        );
    }
}

/// One step of a randomized whole-system workload. The small name pool
/// makes duplicate adds (which abort with `entryAlreadyExists`) and
/// modifies of absent people (`noSuchObject`) likely; `Outage` journals a
/// burst of updates against a down device, then reconnects and drains.
#[derive(Debug, Clone)]
enum Step {
    Add(u8),
    Room(u8, u8),
    Outage(u8),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..6).prop_map(Step::Add),
        (0u8..6, 0u8..100).prop_map(|(p, r)| Step::Room(p, r)),
        (1u8..5).prop_map(Step::Outage),
    ]
}

fn run_workload(steps: &[Step]) -> Result<(), TestCaseError> {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .with_retry_policy(RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            deadline: Duration::from_millis(50),
        })
        .with_breaker_policy(BreakerPolicy {
            degraded_after: 1,
            offline_after: 1,
            journal_cap: 64,
            probe_interval: Duration::from_secs(3600),
        })
        .with_fault_plan("pbx-west", FaultPlan::default())
        .build()
        .expect("build");
    let wba = system.wba();
    let handle = system.fault_handle("pbx-west").expect("fault handle");
    let mut next_ext = 0u32;
    for s in steps {
        match s {
            Step::Add(p) => {
                let ext = format!("1{next_ext:03}");
                next_ext += 1;
                // Duplicate names abort; that is part of the workload.
                let _ = wba.add_person_with_extension(&format!("Person {p}"), "Person", &ext, "R0");
            }
            Step::Room(p, r) => {
                let _ = wba.assign_room(&format!("Person {p}"), &format!("R{r}"));
            }
            Step::Outage(k) => {
                handle.set_down(true);
                for i in 0..*k {
                    let _ = wba.assign_room(&format!("Person {}", i % 6), &format!("RX{i}"));
                }
                system.settle();
                handle.set_down(false);
                let _ = system.probe_device("pbx-west");
            }
        }
    }
    system.settle();

    // The snapshot and the UmStats atomics are two views of one truth; on
    // an idle system they must agree exactly, name for name.
    let stats = system.um_stats();
    let snap = system.metrics_snapshot();
    let mirrored: &[(&str, usize)] = &[
        ("updates", stats.updates.load(Ordering::SeqCst)),
        ("deviceOps", stats.device_ops.load(Ordering::SeqCst)),
        ("reapplied", stats.reapplied.load(Ordering::SeqCst)),
        ("skipped", stats.skipped.load(Ordering::SeqCst)),
        (
            "generatedMerges",
            stats.generated_merges.load(Ordering::SeqCst),
        ),
        ("errors", stats.errors.load(Ordering::SeqCst)),
        ("undone", stats.undone.load(Ordering::SeqCst)),
        ("retried", stats.retried.load(Ordering::SeqCst)),
        ("queued", stats.queued.load(Ordering::SeqCst)),
        ("breakerTrips", stats.breaker_trips.load(Ordering::SeqCst)),
        (
            "journalDrained",
            stats.journal_drained.load(Ordering::SeqCst),
        ),
        ("fullResyncs", stats.full_resyncs.load(Ordering::SeqCst)),
    ];
    for (name, want) in mirrored {
        prop_assert_eq!(
            snap.value("um", name),
            Some(*want as u64),
            "um/{} diverged from UmStats",
            name
        );
    }

    // Every trapped update lands in exactly one of the two total-latency
    // histograms: `update` on success, `abort` on the §4.4 abort path.
    let um = snap.component("um").expect("um component");
    let update = um.histogram("update").expect("update histogram");
    let abort = um.histogram("abort").expect("abort histogram");
    prop_assert_eq!(
        update.count + abort.count,
        stats.updates.load(Ordering::SeqCst) as u64,
        "update/abort histograms must partition the trapped updates"
    );
    prop_assert_eq!(update.count, update.buckets.iter().sum::<u64>());
    prop_assert_eq!(abort.count, abort.buckets.iter().sum::<u64>());

    // One worker times one update: its stages are consecutive stretches of
    // that worker's wall time, on every path (ok, abort, journaled).
    for t in &system.recent_traces() {
        let staged: u64 = t.stage_ns.iter().map(|(_, ns)| ns).sum();
        prop_assert!(
            staged <= t.total_ns,
            "Σ stage {} > total {} in {:?}",
            staged,
            t.total_ns,
            t
        );
    }

    // bumps exactly one of applies/failures; journal accounting matches
    // the global stats (this deployment has a single device).
    let dev = snap.component("device-pbx-west").expect("device component");
    let apply = dev.histogram("apply").expect("apply histogram");
    let applies = dev.value("applies").expect("applies");
    let failures = dev.value("failures").expect("failures");
    prop_assert_eq!(
        apply.count,
        applies + failures,
        "apply histogram vs applies({}) + failures({})",
        applies,
        failures
    );
    prop_assert_eq!(dev.value("queuedTotal"), snap.value("um", "queued"));
    prop_assert_eq!(
        dev.value("drainedTotal"),
        snap.value("um", "journalDrained")
    );
    prop_assert_eq!(dev.value("breakerTrips"), snap.value("um", "breakerTrips"));
    prop_assert_eq!(dev.value("fullResyncs"), snap.value("um", "fullResyncs"));

    // Live gauges agree with the health report they are computed from.
    let health = system.device_health("pbx-west").expect("health");
    prop_assert_eq!(dev.value("journalDepth"), Some(health.queued_ops as u64));
    prop_assert_eq!(dev.value("droppedOps"), Some(health.dropped_ops as u64));

    system.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn snapshot_agrees_with_um_stats_after_random_workload(
        steps in proptest::collection::vec(step(), 1..20)
    ) {
        run_workload(&steps)?;
    }
}

/// Regression: the exact phases the outage satellite cares about, as a
/// fixed workload (fast; runs even when proptest shrinks elsewhere).
#[test]
fn fixed_success_abort_outage_workload_stays_consistent() {
    let steps = vec![
        Step::Add(0),
        Step::Add(0), // duplicate -> abort
        Step::Room(0, 1),
        Step::Room(5, 2), // absent -> abort
        Step::Outage(3),
        Step::Room(0, 3),
    ];
    run_workload(&steps).expect("workload invariants");
}

/// Hammer one registry from several writer threads while a reader takes
/// snapshots: every snapshot must be internally consistent (count equals
/// the bucket sum, percentiles ordered) and counters never move backwards
/// between consecutive snapshots.
#[test]
fn snapshots_are_never_torn_under_concurrent_writers() {
    let registry = metacomm::Registry::system();
    let comp = registry.component("stress");
    let hist = comp.histogram("lat");
    let ctr = comp.counter("ops");
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let h = hist.clone();
            let c = ctr.clone();
            let s = stop.clone();
            std::thread::spawn(move || {
                let mut v = t + 1;
                while !s.load(Ordering::Relaxed) {
                    h.record(v);
                    c.inc();
                    // Cheap xorshift so samples cover many buckets.
                    v ^= v << 13;
                    v ^= v >> 7;
                    v ^= v << 17;
                }
            })
        })
        .collect();
    let mut last_ops = 0u64;
    let mut last_count = 0u64;
    for _ in 0..2000 {
        let s = registry.snapshot();
        let c = s.component("stress").expect("component");
        let h = c.histogram("lat").expect("histogram");
        assert_eq!(
            h.count,
            h.buckets.iter().sum::<u64>(),
            "torn histogram snapshot"
        );
        assert!(
            h.p50 <= h.p95 && h.p95 <= h.p99,
            "percentile order violated mid-race"
        );
        assert!(h.count >= last_count, "histogram count went backwards");
        last_count = h.count;
        let ops = c.value("ops").expect("ops");
        assert!(ops >= last_ops, "counter went backwards");
        last_ops = ops;
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
    assert_eq!(hist.count(), ctr.get(), "one sample per increment");
}
