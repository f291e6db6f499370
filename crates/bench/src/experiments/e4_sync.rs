//! E4 — synchronization: initial load and resynchronization vs. size.
//!
//! Paper anchor: §4.4 / §5.1. Claims: the UM supports populating the
//! directory from pre-existing devices and recovering after disconnects;
//! synchronization executes *in isolation* (quiesce) so its cost matters;
//! resync of an already-consistent pair is cheap (diff-only).

use super::{median, Report, Scale};
use crate::workload::{preload_devices, Workload};
use crate::{rig, timed};
use std::fmt::Write as _;

/// Switches in the rig, the same at every size so the sizes compare: each
/// owns 1,000 extensions, which is what lets the largest size be 8,000.
const SWITCHES: usize = 8;
/// Fresh rigs per size; the median run is the one reported.
const REPEATS: usize = 3;
/// Largest/smallest per-record cost up to which the scaling is called linear.
const LINEAR_WITHIN: f64 = 1.5;

/// Seconds the initial load of `n` records and the no-op resync after it
/// took, on a rig of its own.
fn load_and_resync(n: usize) -> (f64, f64) {
    let r = rig(SWITCHES, false);
    let mut w = Workload::new(11);
    let people = w.people(n, SWITCHES);
    preload_devices(&r, &people);
    let (report, initial) = timed(|| r.system.synchronize_all().expect("initial"));
    assert_eq!(report.added, n);
    let (report2, resync) = timed(|| r.system.synchronize_all().expect("resync"));
    assert_eq!(report2.added, 0);
    assert_eq!(report2.repaired, 0);
    r.system.shutdown();
    (initial.as_secs_f64(), resync.as_secs_f64())
}

pub fn run(scale: Scale) -> Report {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[100, 300, 1000],
        Scale::Full => &[100, 500, 1000, 2000, 4000, 8000],
    };
    let mut table = String::new();
    writeln!(
        table,
        "{:>8} {:>14} {:>14} {:>14} {:>12}",
        "records", "initial load", "rec/s", "resync (noop)", "resync rec/s"
    )
    .unwrap();
    // Seconds per record at each size: (initial load, no-op resync).
    let mut per_record = Vec::new();
    for &n in sizes {
        let (loads, resyncs): (Vec<f64>, Vec<f64>) =
            (0..REPEATS).map(|_| load_and_resync(n)).unzip();
        let (initial, resync) = (median(loads), median(resyncs));
        writeln!(
            table,
            "{:>8} {:>11.1} ms {:>14.0} {:>11.1} ms {:>12.0}",
            n,
            initial * 1e3,
            n as f64 / initial,
            resync * 1e3,
            n as f64 / resync,
        )
        .unwrap();
        per_record.push((initial / n as f64, resync / n as f64));
    }
    let (smallest, largest) = (per_record[0], per_record[per_record.len() - 1]);
    let (load_ratio, resync_ratio) = (largest.0 / smallest.0, largest.1 / smallest.1);
    let (first, last) = (sizes[0], sizes[sizes.len() - 1]);
    writeln!(table).unwrap();
    writeln!(
        table,
        "per-record cost ratio, {last} records against {first}: \
         load {load_ratio:.2}x, resync {resync_ratio:.2}x \
         ({SWITCHES} switches, median of {REPEATS} fresh rigs per size)"
    )
    .unwrap();

    // Isolation check: updates stall during a sync, resume after.
    let r = rig(1, false);
    let mut w = Workload::new(12);
    let people = w.people(50, 1);
    preload_devices(&r, &people);
    let gw = r.system.directory();
    let sync_in_progress = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let flag = sync_in_progress.clone();
    let wba = r.system.wba();
    let writer = std::thread::spawn(move || {
        // Issued while the sync holds the quiesce: must block, then apply.
        let t0 = std::time::Instant::now();
        wba.add_person_with_extension("Late Arrival", "Arrival", "1999", "2B")
            .expect("post-quiesce add");
        (t0.elapsed(), flag.load(std::sync::atomic::Ordering::SeqCst))
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (_, sync_d) = timed(|| r.system.synchronize_all().expect("sync"));
    sync_in_progress.store(false, std::sync::atomic::Ordering::SeqCst);
    let (blocked_for, _was_during) = writer.join().expect("writer");
    writeln!(table).unwrap();
    writeln!(
        table,
        "isolation: a concurrent update blocked ~{:.1} ms while the quiesced \
         sync ran ({:.1} ms), then applied",
        blocked_for.as_secs_f64() * 1e3,
        sync_d.as_secs_f64() * 1e3,
    )
    .unwrap();
    let _ = gw;
    r.system.shutdown();

    Report {
        id: "E4",
        title: "Synchronization time vs. directory size",
        claim: "initial load and post-disconnect resync scale linearly; \
                no-op resync is diff-only; sync runs in isolation under \
                the LTAP quiesce",
        table,
        observations: vec![format!(
            "initial load sustains ~{:.0} records/s at {last} records; per record it costs \
             {load_ratio:.2}x what it does at {first} (no-op resync {resync_ratio:.2}x) — {}",
            1.0 / largest.0,
            if load_ratio.max(resync_ratio) <= LINEAR_WITHIN {
                "linear"
            } else {
                "NOT linear: the per-record cost grows with the population"
            }
        )],
        failed: None,
    }
}
