//! Property tests for the observability layer.
//!
//! Three tiers:
//! 1. the metric primitives in isolation — counters are monotonic, a
//!    histogram snapshot's `count` always equals the sum of its buckets,
//!    and the log-linear percentiles bound the exact sample quantiles from
//!    above, within 5 %;
//! 2. a whole instrumented two-device deployment under randomized
//!    workloads mixing successful updates, aborted updates, and device
//!    outages — each `um` outage total is the sum of the matching
//!    `device-*` counters, one journaled op moves each by exactly one, and
//!    the stage histograms are consistent with the counters;
//! 3. a multithreaded stress test: writers hammer one registry while a
//!    reader snapshots — no snapshot may ever be torn.

use metacomm::obs::{Counter, Histogram};
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

    /// Log-linear bucketing loses precision but never direction: every
    /// reported percentile is an upper bound on the exact sample quantile
    /// (the bucket's upper edge, capped at the observed max) and exceeds
    /// it by at most 5 % below the overflow bucket (2^35 ns, ~34 s).
    #[test]
    fn percentiles_bound_the_true_quantiles(
        vs in proptest::collection::vec(
            prop_oneof![0u64..1_000, 1_000u64..1_000_000, 1_000_000u64..(1 << 35)],
            1..200,
        )
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
            prop_assert!(
                (got - truth) as f64 <= 0.05 * truth as f64,
                "p{} = {got} is more than 5 % above the true quantile {truth}",
                (q * 100.0) as u32
            );
            prop_assert!(got <= s.max);
        }
    }

    /// With a single sample every statistic collapses to that sample: the
    /// max cap makes the bucket upper edge exact, the overflow bucket's
    /// included.
    #[test]
    fn single_sample_is_reported_exactly(v in any::<u64>()) {
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        prop_assert_eq!(
            (s.count, s.sum, s.max, s.p50, s.p95, s.p99),
            (1, v, v, v, v, v)
        );
    }
}

/// One step of a randomized whole-system workload. The small name pool
/// makes duplicate adds (which abort with `entryAlreadyExists`) and
/// modifies of absent people (`noSuchObject`) likely. Even-numbered people
/// live on `pbx-west`, odd ones on `pbx-east`. `Outage(k)` takes device
/// `k % 2` down, journals a burst of updates against it, then reconnects
/// and drains.
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

const DEVICES: [&str; 2] = ["pbx-west", "pbx-east"];

/// Each `um` outage total and the per-device counter it adds up.
const OUTAGE_TOTALS: [(&str, &str); 4] = [
    ("queued", "queuedTotal"),
    ("breakerTrips", "breakerTrips"),
    ("journalDrained", "drainedTotal"),
    ("fullResyncs", "fullResyncs"),
];

fn two_pbx_system() -> metacomm::MetaComm {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let east = Arc::new(PbxStore::new("pbx-east", DialPlan::with_prefix("2", 4)));
    MetaCommBuilder::new("o=Lucent")
        .add_pbx(west, "1???")
        .add_pbx(east, "2???")
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
        .with_fault_plan("pbx-east", FaultPlan::default())
        .build()
        .expect("build")
}

/// `(um total, Σ device counters)` for every outage total.
fn outage_totals(system: &metacomm::MetaComm) -> Vec<(&'static str, u64, u64)> {
    let snap = system.metrics_snapshot();
    OUTAGE_TOTALS
        .iter()
        .map(|&(total, per_device)| {
            let sum = DEVICES
                .iter()
                .map(|d| {
                    snap.value(&format!("device-{d}"), per_device)
                        .expect("device counter")
                })
                .sum();
            (total, snap.value("um", total).expect("um total"), sum)
        })
        .collect()
}

fn run_workload(steps: &[Step]) -> Result<(), TestCaseError> {
    let system = two_pbx_system();
    let wba = system.wba();
    let mut next_ext = 0u32;
    for s in steps {
        match s {
            Step::Add(p) => {
                let ext = format!("{}{next_ext:03}", 1 + p % 2);
                next_ext += 1;
                // Duplicate names abort; that is part of the workload.
                let _ = wba.add_person_with_extension(&format!("Person {p}"), "Person", &ext, "R0");
            }
            Step::Room(p, r) => {
                let _ = wba.assign_room(&format!("Person {p}"), &format!("R{r}"));
            }
            Step::Outage(k) => {
                let device = DEVICES[usize::from(k % 2)];
                let handle = system.fault_handle(device).expect("fault handle");
                handle.set_down(true);
                for i in 0..*k {
                    let _ = wba.assign_room(&format!("Person {}", i % 6), &format!("RX{i}"));
                }
                system.settle();
                handle.set_down(false);
                let _ = system.probe_device(device);
            }
        }
    }
    system.settle();

    // An outage event is counted once, on its device; the `um` total is
    // their sum, whatever mix of devices the workload touched.
    for (total, um, devices) in outage_totals(&system) {
        prop_assert_eq!(um, devices, "um/{} vs the device-* counters", total);
    }
    let stats = system.um_stats();
    prop_assert_eq!(
        stats.journal_drained.load(Ordering::SeqCst),
        outage_totals(&system)[2].1,
        "UmStats reads the same sum as cn=monitor"
    );

    // Every trapped update lands in exactly one of the two total-latency
    // histograms: `update` on success, `abort` on the §4.4 abort path.
    let snap = system.metrics_snapshot();
    let um = snap.component("um").expect("um component");
    let update = um.histogram("update").expect("update histogram");
    let abort = um.histogram("abort").expect("abort histogram");
    prop_assert_eq!(
        update.count + abort.count,
        stats.updates.load(Ordering::SeqCst),
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

    for device in DEVICES {
        // A live apply bumps exactly one of applies/failures.
        let dev = snap
            .component(&format!("device-{device}"))
            .expect("device component");
        let apply = dev.histogram("apply").expect("apply histogram");
        let applies = dev.value("applies").expect("applies");
        let failures = dev.value("failures").expect("failures");
        prop_assert_eq!(
            apply.count,
            applies + failures,
            "{}: apply histogram vs applies({}) + failures({})",
            device,
            applies,
            failures
        );
        // Live gauges agree with the health report they are computed from.
        let health = system.device_health(device).expect("health");
        prop_assert_eq!(dev.value("journalDepth"), Some(health.queued_ops as u64));
        prop_assert_eq!(dev.value("droppedOps"), Some(health.dropped_ops as u64));
    }

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
        Step::Add(1),
        Step::Add(0), // duplicate -> abort
        Step::Room(0, 1),
        Step::Room(5, 2), // absent -> abort
        Step::Outage(3),  // pbx-east: Person 1 journals
        Step::Outage(2),  // pbx-west: Person 0 journals
        Step::Room(0, 3),
    ];
    run_workload(&steps).expect("workload invariants");
}

/// One journaled op raises `um/queued` and its device's `queuedTotal` by
/// exactly one each: the op is counted once, and the total is read from
/// that one count.
#[test]
fn one_journaled_op_moves_the_um_total_and_its_device_by_one() {
    let system = two_pbx_system();
    let wba = system.wba();
    wba.add_person_with_extension("Person 0", "Person", "1000", "R0")
        .expect("add");
    system.settle();
    let queued = |system: &metacomm::MetaComm| {
        let snap = system.metrics_snapshot();
        let value = |c: &str, m: &str| snap.value(c, m).expect("metric");
        (
            value("um", "queued"),
            value("device-pbx-west", "queuedTotal"),
            value("device-pbx-east", "queuedTotal"),
        )
    };
    assert_eq!(queued(&system), (0, 0, 0));
    system
        .fault_handle("pbx-west")
        .expect("fault handle")
        .set_down(true);
    // The first op trips the breaker and is journaled; the second finds
    // the device offline and is journaled straight away.
    for (i, want) in [(1, (1, 1, 0)), (2, (2, 2, 0))] {
        wba.assign_room("Person 0", &format!("R{i}"))
            .expect("journaled update succeeds");
        system.settle();
        assert_eq!(queued(&system), want, "after journaled op {i}");
        assert_eq!(system.um_stats().queued.load(Ordering::SeqCst), want.0);
    }
    system.shutdown();
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
