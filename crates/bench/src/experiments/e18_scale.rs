//! E18 — million-entry scale: interned store + streaming cold start.
//!
//! Paper anchor: §3's claim that the meta-directory holds the *whole*
//! enterprise (every subscriber across every switch and messaging
//! platform) in one logical tree. At that population the in-memory
//! representation and the restart path become the bottleneck, so this
//! experiment loads a million-subscriber roster, checkpoints, leaves a
//! tail in the WAL, kills the deployment and restarts it, and reports:
//!
//!   * load throughput (validated adds/s through the WAL'd front door),
//!   * restart wall time (streamed snapshot, bulk index build, WAL tail),
//!   * peak RSS (`VmHWM`, in a child process so the counter is honest),
//!   * and a search-stream digest that must be equal across the crash.
//!
//! The legacy string-keyed store this experiment used to run beside it was
//! deleted once parity was recorded; its last measured rows are in
//! EXPERIMENTS.md.

use super::{Report, Scale};
use crate::scale;
use std::fmt::Write as _;

pub fn run(scale_knob: Scale) -> Report {
    let entries: usize = match scale_knob {
        Scale::Quick => 10_000,
        Scale::Full => 1_000_000,
    };
    let state_dir = std::env::temp_dir().join(format!("metacomm-e18-{}", std::process::id()));
    let run = scale::run_isolated(entries, 42, &state_dir);
    let _ = std::fs::remove_dir_all(&state_dir);

    let rss = run.peak_rss_text();
    let isolation = if run.in_process {
        "in-process"
    } else {
        "child process"
    };
    let mut table = String::new();
    writeln!(
        table,
        "load     {:>9} entries  {:>9.0} adds/s  peak rss {rss:>10}  [{isolation}]",
        run.entries,
        run.load_ops_per_sec(),
    )
    .unwrap();
    writeln!(
        table,
        "restart  snapshot {:>9}  wal {:>5}  wall {:>8.2}s  digest {}",
        run.snapshot_entries,
        run.wal_records_applied,
        run.restart_secs,
        if run.parity() {
            "identical"
        } else {
            "DIVERGED"
        },
    )
    .unwrap();
    writeln!(table, "at rest  B/entry: {}", run.at_rest_text()).unwrap();

    let observations = vec![
        format!(
            "{} entries restart in {:.2}s from snapshot + WAL tail (streamed \
             snapshot, parallel parse, one bulk index build instead of \
             per-entry maintenance)",
            run.entries, run.restart_secs
        ),
        match run.peak_rss_kb {
            Some(kb) => format!(
                "peak RSS {rss}, {} B per entry with the crashed deployment's \
                 tree still resident beside the restarted one",
                kb * 1024 / run.entries.max(1) as u64
            ),
            None => "peak RSS unavailable on this platform (VmHWM is Linux-only)".to_string(),
        },
        format!(
            "the search-stream digest is equal across the crash (parity={}): \
             recovery rebuilt the tree that was loaded",
            run.parity()
        ),
    ];

    Report {
        id: "E18",
        title: "million-entry scale (interned store, streaming cold start)",
        claim: "the interned store holds an enterprise-scale (million-entry) \
                directory in a commodity footprint and restarts it from \
                snapshot+WAL into a tree that serves the same search stream",
        table,
        observations,
        failed: (!run.parity())
            .then(|| "the restarted tree's search digest differs from the loaded one's".into()),
    }
}
