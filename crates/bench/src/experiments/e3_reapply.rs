//! E3 — the cost of the reapplication (conditional-update) machinery.
//!
//! Paper anchor: §5.4. Claim: reapplying an update at its originating
//! device is cheap because lexpress marks it *conditional* (apply as
//! modify, fall back to add) instead of blindly re-adding and recovering
//! from the duplicate-key error. We measure the DDU round trip (device →
//! directory → reapply at device) and compare the conditional path against
//! the naive apply-then-recover path at the filter level.

use super::{mean_us, Report, Scale};
use crate::workload::{populate, Workload};
use crate::{rig, timed};
use lexpress::{Image, OpKind, TargetOp};
use metacomm::filter;
use pbx::{DialPlan, Store};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

pub fn run(scale: Scale) -> Report {
    let iters = match scale {
        Scale::Quick => 200,
        Scale::Full => 2000,
    };
    let mut table = String::new();

    // --- (a) filter-level: conditional add vs naive duplicate-add -------
    let store = Arc::new(Store::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let filter = filter::for_pbx(store);
    let op = |conditional| TargetOp {
        kind: OpKind::Add,
        conditional,
        old_key: None,
        new_key: Some("9123".to_string()),
        attrs: Image::from_pairs([("Name", "Doe, John"), ("CoveragePath", "1")]),
        old_attrs: Image::new(),
    };
    filter.apply(&op(false)).expect("seed");
    let mut cond = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (out, d) = timed(|| filter.apply(&op(true)).expect("conditional"));
        assert!(out.reapplied);
        cond.push(d);
    }
    let mut naive = Vec::with_capacity(iters);
    for _ in 0..iters {
        // Naive reapplication: try the add, eat the duplicate error, then
        // recover by issuing the modify — two device operations.
        let (_, d) = timed(|| {
            let err = filter.apply(&op(false)).expect_err("duplicate");
            let _ = err;
            filter.apply(&op(true)).expect("recovery modify");
        });
        naive.push(d);
    }
    writeln!(table, "{:<34} {:>12}", "filter-level reapplication", "mean").unwrap();
    writeln!(
        table,
        "{:<34} {:>9.2} µs",
        "  conditional modify (lexpress)",
        mean_us(&cond)
    )
    .unwrap();
    writeln!(
        table,
        "{:<34} {:>9.2} µs",
        "  naive add + error recovery",
        mean_us(&naive)
    )
    .unwrap();

    // --- (b) system-level: full DDU round trip --------------------------
    let r = rig(1, false);
    let mut w = Workload::new(3);
    let people = w.people(1, 1);
    populate(&r, &people);
    let p = &people[0];
    let mut round = Vec::with_capacity(iters.min(300));
    for i in 0..iters.min(300) {
        let target = format!("T{i:03}");
        let ddus_before = r
            .system
            .relay_stats()
            .ddus
            .load(std::sync::atomic::Ordering::SeqCst);
        let (_, d) = timed(|| {
            pbx::ossi::execute(
                r.switch_for(&p.extension),
                &format!("change station {} room {target}", p.extension),
            )
            .expect("craft");
            // Wait until the directory reflects the DDU.
            let wba = r.system.wba();
            let start = std::time::Instant::now();
            while start.elapsed() < Duration::from_secs(5) {
                if wba
                    .person(&p.cn)
                    .ok()
                    .flatten()
                    .and_then(|e| e.first("roomNumber").map(str::to_string))
                    .as_deref()
                    == Some(target.as_str())
                {
                    return;
                }
                std::thread::yield_now();
            }
            panic!("DDU never propagated");
        });
        round.push(d);
        let _ = ddus_before;
    }
    let reapplied = r
        .system
        .um_stats()
        .reapplied
        .load(std::sync::atomic::Ordering::SeqCst);
    writeln!(table).unwrap();
    writeln!(
        table,
        "{:<34} {:>9.2} µs   ({} conditional ops over {} DDUs)",
        "full DDU round trip (mean)",
        mean_us(&round),
        reapplied,
        round.len(),
    )
    .unwrap();
    r.system.shutdown();

    let speedup = mean_us(&naive) / mean_us(&cond).max(1e-9);
    Report {
        id: "E3",
        title: "Reapplication (conditional update) overhead",
        claim: "conditional operations make echo suppression cheap: one \
                device op instead of an error + recovery pair",
        table,
        observations: vec![
            format!(
                "the conditional path is {speedup:.1}× cheaper than \
                 naive apply-and-recover at the filter level"
            ),
            "every DDU round trip includes exactly one conditional reapply \
             at the originating switch"
                .to_string(),
        ],
        failed: None,
    }
}
