//! E16 — day-in-the-life soak: synthetic population + churn model +
//! system-wide invariant oracle.
//!
//! Claim under test: under sustained realistic churn (hires, departures,
//! moves, renames, bulk re-orgs, scheduled device outages) across a
//! multi-device fleet, MetaComm holds every whole-system invariant —
//! directory↔device consistency, drained journals, no leaked locks,
//! monotone counters — and a mid-soak kill -9 +
//! restart converges to the bit-identical fixpoint an uninterrupted run
//! reaches.

use super::{Report, Scale};
use crate::churn::{ChurnOp, ChurnScript, ChurnSpec, Executor};
use crate::oracle::{fixpoint_digest, SoakOracle, SweepStats, Violation};
use crate::population::{deploy, Population, PopulationSpec};
use crate::timed;
use ldap::FsyncPolicy;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 1966; // the year of the first Definity ancestor, why not

struct Sizes {
    population: usize,
    initial: usize,
    ops: usize,
    check_every: usize,
    sweep_sample: usize,
    crash_population: usize,
    crash_initial: usize,
    crash_ops: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Quick => Sizes {
            population: 600,
            initial: 450,
            ops: 700,
            check_every: 100,
            sweep_sample: 32,
            crash_population: 260,
            crash_initial: 200,
            crash_ops: 320,
        },
        Scale::Full => Sizes {
            population: 12_000,
            initial: 10_000,
            ops: 8_000,
            check_every: 500,
            sweep_sample: 256,
            crash_population: 2_400,
            crash_initial: 2_000,
            crash_ops: 2_400,
        },
    }
}

/// Pick a crash point with no outage window open (a crash mid-outage
/// restarts the device stale and resyncs it, which
/// `tests/outage_resilience.rs` covers; this arm isolates convergence).
fn healthy_crash_index(script: &ChurnScript, want: usize) -> usize {
    let mut open = false;
    let mut best = 0;
    for (i, op) in script.ops.iter().enumerate() {
        match op {
            ChurnOp::Outage(_) => open = true,
            ChurnOp::Recover(_) => open = false,
            _ => {}
        }
        if !open {
            if i + 1 >= want {
                return i + 1;
            }
            best = i + 1;
        }
    }
    best
}

fn state_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metacomm-e16-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The main soak: load the initial roster, run the scripted day, check the
/// oracle at intervals. Returns the population, what the oracle found in
/// how many checks, the load and churn rates, and the sweep timings.
fn soak(
    s: &Sizes,
    table: &mut String,
) -> (Population, Vec<Violation>, usize, f64, f64, SweepStats) {
    let pop = Population::generate(PopulationSpec::new(SEED, s.population));
    let rig = deploy(&pop, |b| b);
    let script = ChurnScript::generate(&pop, &ChurnSpec::new(SEED, s.ops, s.initial));
    let mut exec = Executor::new(&rig);
    let (load, load_t) = timed(|| exec.run_initial(&script));
    load.expect("initial roster");
    let load_rate = s.initial as f64 / load_t.as_secs_f64().max(1e-9);
    writeln!(
        table,
        "load   {:>6} subscribers ({} stationed) across {} devices  {:>8}  {:>9.0} hires/s",
        s.population,
        pop.stationed().count(),
        rig.device_names().len(),
        crate::fmt_dur(load_t),
        load_rate,
    )
    .unwrap();

    let mut oracle = SoakOracle::new(SEED).with_sweep_sample(s.sweep_sample);
    let mut violations = Vec::new();
    let churn_t0 = Instant::now();
    for (i, op) in script.ops.iter().enumerate() {
        exec.apply(op).expect("churn op");
        if (i + 1) % s.check_every == 0 || i + 1 == script.ops.len() {
            let skip = exec.outage_open.map(|d| rig.device_names()[d].clone());
            violations.extend(oracle.check(&rig, i, skip.as_deref()));
        }
    }
    let churn_secs = churn_t0.elapsed().as_secs_f64();
    let churn_rate = s.ops as f64 / churn_secs.max(1e-9);
    writeln!(
        table,
        "churn  {:>6} ops  {:>8}  {:>9.0} ops/s  oracle checks {}  violations {}",
        s.ops,
        crate::fmt_dur(churn_t0.elapsed()),
        churn_rate,
        oracle.checks,
        violations.len(),
    )
    .unwrap();
    for v in &violations {
        writeln!(table, "  !! {v}").unwrap();
    }
    let sweeps = oracle.sweep_stats.clone();
    writeln!(
        table,
        "sweep  sample {}  full x{} {:>8} mean  sampled x{} {:>8} mean",
        s.sweep_sample,
        sweeps.full_sweeps,
        crate::fmt_dur(std::time::Duration::from_nanos(sweeps.mean_full_ns())),
        sweeps.sampled_sweeps,
        crate::fmt_dur(std::time::Duration::from_nanos(sweeps.mean_sampled_ns())),
    )
    .unwrap();
    let checks = oracle.checks;
    rig.system.shutdown();
    (pop, violations, checks, load_rate, churn_rate, sweeps)
}

/// The crash arm: the same scripted day run twice on durable deployments —
/// once uninterrupted, once killed (no shutdown) mid-day, restarted,
/// devices resynchronized from the recovered directory, the day replayed
/// tolerantly and finished. Both must land on the same fixpoint digest.
fn crash_arm(s: &Sizes, table: &mut String) -> (bool, usize, usize, usize) {
    let pop = Population::generate(PopulationSpec::new(SEED + 1, s.crash_population));
    let script = ChurnScript::generate(
        &pop,
        &ChurnSpec::new(SEED + 1, s.crash_ops, s.crash_initial),
    );
    let crash_at = healthy_crash_index(&script, s.crash_ops / 2);

    // Uninterrupted reference run.
    let dir_a = state_dir("ref");
    let rig_a = deploy(&pop, |b| {
        b.with_durability(dir_a.clone())
            .with_fsync_policy(FsyncPolicy::Group)
    });
    let mut exec_a = Executor::new(&rig_a);
    exec_a.run_initial(&script).expect("reference roster");
    for op in &script.ops {
        exec_a.apply(op).expect("reference day");
    }
    rig_a.system.settle();
    let digest_a = fixpoint_digest(&rig_a);
    rig_a.system.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);

    // Crashed run: same day, killed cold at `crash_at`.
    let dir_b = state_dir("crash");
    let rig_b = deploy(&pop, |b| {
        b.with_durability(dir_b.clone())
            .with_fsync_policy(FsyncPolicy::Group)
    });
    let mut exec_b = Executor::new(&rig_b);
    exec_b.run_initial(&script).expect("crash-run roster");
    for op in &script.ops[..crash_at] {
        exec_b.apply(op).expect("pre-crash day");
    }
    rig_b.system.settle();
    // kill -9: never shut down, never flushed beyond what group commit
    // already acked. (`soak_rig --crash-at` does this with a real signal.)
    std::mem::forget(rig_b.system);

    let (rig_c, restart_t) = timed(|| {
        deploy(&pop, |b| {
            b.with_durability(dir_b.clone())
                .with_fsync_policy(FsyncPolicy::Group)
        })
    });
    // The directory recovered from snapshot+WAL; the device fleet is brand
    // new and empty — resynchronize it from the recovered directory (§5.4).
    for name in rig_c.device_names() {
        rig_c
            .system
            .resynchronize_device_from_directory(&name)
            .expect("post-restart resync");
    }
    let mut exec_c = Executor::tolerant(&rig_c);
    exec_c.run_initial(&script).expect("replay roster");
    for op in &script.ops[..crash_at] {
        exec_c.apply(op).expect("replay pre-crash day");
    }
    for op in &script.ops[crash_at..] {
        exec_c.apply(op).expect("finish the day");
    }
    rig_c.system.settle();
    let mut oracle = SoakOracle::new(SEED + 1);
    let post_violations = oracle.check(&rig_c, script.ops.len(), None);
    let digest_b = fixpoint_digest(&rig_c);
    let report = rig_c.system.recovery_report().expect("durable restart");
    rig_c.system.shutdown();
    let _ = std::fs::remove_dir_all(&dir_b);

    let matched = digest_a == digest_b;
    writeln!(
        table,
        "crash  kill -9 at op {crash_at}/{}  restart {:>8}  wal {} records  fixpoint {}  violations {}",
        s.crash_ops,
        crate::fmt_dur(restart_t),
        report.wal_records_applied,
        if matched { "identical" } else { "DIVERGED" },
        post_violations.len(),
    )
    .unwrap();
    (
        matched,
        crash_at,
        post_violations.len(),
        report.wal_records_applied,
    )
}

pub fn run(scale: Scale) -> Report {
    let s = sizes(scale);
    let mut table = String::new();
    let (pop, violations, checks, load_rate, churn_rate, sweeps) = soak(&s, &mut table);
    let (fixpoint_match, crash_at, post_violations, wal_records) = crash_arm(&s, &mut table);

    let mut observations = vec![
        format!(
            "{} ops of mixed churn over {} subscribers / {} devices: {} oracle checks, {} violations",
            s.ops,
            s.population,
            pop.blocks.len() + 1,
            checks,
            violations.len()
        ),
        format!(
            "kill -9 at op {crash_at} + restart + tolerant replay converges to {} fixpoint ({} WAL records replayed)",
            if fixpoint_match { "the identical" } else { "a DIVERGENT" },
            wal_records
        ),
        format!("sustained {churn_rate:.0} churn ops/s after a {load_rate:.0} hires/s bulk load"),
        format!(
            "sampled oracle sweeps ({} subscribers/check) mean {} vs {} for the periodic full sweep",
            s.sweep_sample,
            crate::fmt_dur(std::time::Duration::from_nanos(sweeps.mean_sampled_ns())),
            crate::fmt_dur(std::time::Duration::from_nanos(sweeps.mean_full_ns())),
        ),
    ];
    for v in &violations {
        observations.push(format!("VIOLATION: {v}"));
    }

    Report {
        id: "E16",
        title: "day-in-the-life soak (population, churn, invariant oracle)",
        claim: "under sustained realistic churn with scheduled outages, every \
                whole-system invariant holds, and a mid-soak crash converges \
                to the uninterrupted run's fixpoint",
        table,
        observations,
        failed: (!fixpoint_match || !violations.is_empty() || post_violations > 0).then(|| {
            format!(
                "fixpoint identical: {fixpoint_match}; {} violations during the day, \
                 {post_violations} after the restart",
                violations.len()
            )
        }),
    }
}
