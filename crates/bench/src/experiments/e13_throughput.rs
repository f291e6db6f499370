//! E13 — hot-path throughput: indexed search and the pipelined UM.
//!
//! Paper anchor: §2's scale target ("serves heavy traffic from millions of
//! users"). Claims under test: (1) equality searches served from the DIT's
//! equality indexes beat the subtree scan by ≥3× in ops/sec at identical
//! results; (2) the key-ordered N-worker executor beats the
//! single-coordinator schedule by ≥1.5× on a mixed multi-DN update
//! workload whose cost is dominated by (injected) device latency — the
//! realistic regime, since a real switch answers in milliseconds.
//!
//! Both ablations run from this same binary (`with_indexed_attrs([])`,
//! `with_um_workers(1)`).

use super::{Report, Scale};
use crate::workload::Workload;
use crate::{rig_with, Rig};
use ldap::{Directory, Filter, Scope};
use metacomm::obs::Histogram;
use metacomm::{FaultPlan, MetaCommBuilder};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured configuration.
struct Sample {
    ops: usize,
    wall: Duration,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

impl Sample {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Run `threads` client threads, each invoking `op(thread_idx, i)` for
/// `ops_per_thread` iterations; per-op latency lands in a histogram and the
/// batch wall time is measured across all threads.
fn drive(threads: usize, ops_per_thread: usize, op: impl Fn(usize, usize) + Sync) -> Sample {
    let hist = Arc::new(Histogram::new());
    let start = Instant::now();
    std::thread::scope(|sc| {
        for t in 0..threads {
            let hist = hist.clone();
            let op = &op;
            sc.spawn(move || {
                for i in 0..ops_per_thread {
                    let t0 = Instant::now();
                    op(t, i);
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    let wall = start.elapsed();
    let s = hist.snapshot();
    Sample {
        ops: threads * ops_per_thread,
        wall,
        p50_us: s.p50 as f64 / 1000.0,
        p95_us: s.p95 as f64 / 1000.0,
        p99_us: s.p99 as f64 / 1000.0,
    }
}

/// The indexed-equality-search ablation: identical population and query
/// stream against an indexed and a scan-only deployment.
fn search_ablation(scale: Scale, table: &mut String) -> f64 {
    // One switch holds 1000 extensions, so the full-scale population
    // spreads over four switches.
    let (n_people, n_pbx, per_thread) = match scale {
        Scale::Quick => (800, 1, 150),
        Scale::Full => (3000, 4, 600),
    };
    let mut speedup_t1 = 0.0;
    let mut scan_baseline: std::collections::HashMap<usize, f64> = Default::default();
    for (mode, indexed) in [("scan", false), ("indexed", true)] {
        let r = rig_with(n_pbx, false, |b: MetaCommBuilder| {
            if indexed {
                b // default: DEFAULT_INDEXED_ATTRS
            } else {
                b.with_indexed_attrs(Vec::<String>::new())
            }
        });
        let mut w = Workload::new(13);
        let people = w.people(n_people, n_pbx);
        crate::workload::populate(&r, &people);
        let dir = r.system.directory();
        let base = r.system.suffix().clone();
        for threads in [1usize, 4] {
            let sample = drive(threads, per_thread, |t, i| {
                let p = &people[(t * 7919 + i * 31) % people.len()];
                let filter = Filter::parse(&format!("(&(objectClass=person)(cn={}))", p.cn))
                    .expect("filter");
                let hits = dir
                    .search(&base, Scope::Sub, &filter, &[], 0)
                    .expect("search");
                assert_eq!(hits.len(), 1, "every query targets one person");
            });
            writeln!(
                table,
                "search {mode:>7}  T={threads}  {:>9.0} ops/s  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs",
                sample.ops_per_sec(),
                sample.p50_us,
                sample.p95_us,
                sample.p99_us
            )
            .unwrap();
            if indexed {
                if let Some(base_rate) = scan_baseline.get(&threads) {
                    let ratio = sample.ops_per_sec() / base_rate;
                    if threads == 1 {
                        speedup_t1 = ratio;
                    }
                }
            } else {
                scan_baseline.insert(threads, sample.ops_per_sec());
            }
        }
        // The ablation only means something if each side really took its
        // intended path.
        let (served, scanned) = r.system.dit().index_stats();
        if indexed {
            assert!(served > 0, "indexed rig must answer from the index");
        } else {
            assert!(scanned > 0 && served == 0, "scan rig must never index");
        }
        r.system.shutdown();
    }
    speedup_t1
}

/// The pipelined-UM ablation: a mixed multi-DN update workload against
/// devices with injected per-apply latency (a slow switch link), at 1
/// worker (the paper's single coordinator) vs. N workers (the key-ordered
/// executor: distinct DNs overlap, one update's legs stay in filter order).
fn update_ablation(scale: Scale, table: &mut String) -> f64 {
    let (n_people, rounds, latency_ms) = match scale {
        Scale::Quick => (48, 2, 2u64),
        Scale::Full => (200, 4, 2u64),
    };
    let threads = 4usize;
    let mut baseline = 0.0;
    let mut speedup = 0.0;
    for workers in [1usize, 4] {
        let plan = FaultPlan {
            latency: Some(Duration::from_millis(latency_ms)),
            ..FaultPlan::default()
        };
        let r: Rig = rig_with(2, true, |b: MetaCommBuilder| {
            b.with_um_workers(workers)
                .with_fault_plan("pbx-1", plan.clone())
                .with_fault_plan("pbx-2", plan.clone())
                .with_fault_plan("mp", plan.clone())
        });
        assert_eq!(r.system.um_workers(), workers);
        let mut w = Workload::new(17);
        let people = w.people(n_people, 2);
        crate::workload::populate(&r, &people);
        let wba = r.system.wba();
        let chunk = people.len() / threads;
        let sample = drive(threads, chunk * rounds, |t, i| {
            let p = &people[t * chunk + (i % chunk)];
            wba.assign_room(&p.cn, &format!("R-{t}-{i}"))
                .expect("modify");
        });
        r.system.settle();
        writeln!(
            table,
            "update  w={workers}     T={threads}  {:>9.0} ops/s  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs",
            sample.ops_per_sec(),
            sample.p50_us,
            sample.p95_us,
            sample.p99_us
        )
        .unwrap();
        if workers == 1 {
            baseline = sample.ops_per_sec();
        } else if baseline > 0.0 {
            speedup = sample.ops_per_sec() / baseline;
        }
        r.system.shutdown();
    }
    speedup
}

pub fn run(scale: Scale) -> Report {
    let mut table = String::new();
    let search_speedup = search_ablation(scale, &mut table);
    let update_speedup = update_ablation(scale, &mut table);

    Report {
        id: "E13",
        title: "hot-path throughput (indexed search, pipelined UM)",
        claim: "equality searches served from the DIT index and updates \
                pipelined across key-ordered UM workers beat the scan / \
                single-coordinator baselines on the same workloads, from the \
                same binary",
        table,
        observations: vec![
            format!(
                "indexed equality search: {search_speedup:.1}x ops/sec over \
                 the full subtree scan at T=1 (identical result sets)"
            ),
            format!(
                "pipelined UM (4 key-ordered workers): {update_speedup:.1}x \
                 ops/sec over the single coordinator on a mixed multi-DN \
                 update workload with 2 ms device latency"
            ),
        ],
        failed: None,
    }
}
