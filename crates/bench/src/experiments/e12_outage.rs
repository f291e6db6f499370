//! E12 — device-outage resilience: store-and-forward and recovery.
//!
//! Paper anchors: §4.4 (a failed device update "aborts the update … logs
//! the error … and alerts the administrator", with synchronization as the
//! recovery procedure) and §5.4 (reapplied operations are *conditional*).
//! This experiment measures the robustness layer built on those anchors:
//! during an outage the per-device circuit breaker opens and translated
//! device ops queue in an outage journal while clients keep updating the
//! directory; on reconnect the journal drains as conditional reapplies, or
//! — once the journal overflows its bound — a full directory→device
//! resynchronization runs. Either way no client update may be lost.
//!
//! A second arm prices the two recovery paths against each other: the
//! same outage, recovered by journal drain and by a forced resync
//! (`journal_cap: 0`), on a switch holding 1,000 stations (one dial-plan
//! block, the benchmark's partition) and 10,000. Any lost update fails the
//! experiment.

use super::{Report, Scale};
use metacomm::{BreakerPolicy, FaultPlan, MetaComm, MetaCommBuilder, RecoveryOutcome, RetryPolicy};
use pbx::{DialPlan, Store as PbxStore};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Stations on the switch the drain-vs-resync arm reconnects.
const PARTITIONS: [usize; 2] = [1_000, 10_000];
/// Ops queued during each of that arm's outages.
const QUEUED: [usize; 2] = [16, 256];

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(1),
        deadline: Duration::from_millis(20),
    }
}

fn breaker(journal_cap: usize) -> BreakerPolicy {
    BreakerPolicy {
        degraded_after: 1,
        offline_after: 1,
        journal_cap,
        probe_interval: Duration::from_secs(3600), // driven manually
    }
}

pub fn run(scale: Scale) -> Report {
    let (people, journal_cap, sweep): (usize, usize, &[usize]) = match scale {
        Scale::Quick => (12, 64, &[8, 32, 128]),
        Scale::Full => (32, 256, &[16, 64, 256, 512, 1024]),
    };
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Full => 5,
    };
    let mut table = String::new();
    writeln!(
        table,
        "{:>8} {:>8} {:>9} {:>14} {:>12} {:>6}",
        "updates", "queued", "dropped", "mechanism", "recovery", "lost"
    )
    .unwrap();
    let mut observations = Vec::new();
    let mut any_drain = false;
    let mut any_resync = false;
    let mut total_lost = 0usize;
    for &updates in sweep {
        let switch = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 4)));
        let system = MetaCommBuilder::new("o=Lucent")
            .add_pbx(switch.clone(), "1???")
            .with_retry_policy(retry())
            .with_breaker_policy(breaker(journal_cap))
            .with_fault_plan("pbx-1", FaultPlan::default())
            .build()
            .expect("build");
        let wba = system.wba();
        for i in 0..people {
            wba.add_person_with_extension(
                &format!("Outage Person {i:02}"),
                "Person",
                &format!("1{i:03}"),
                "R0",
            )
            .expect("seed");
        }
        system.settle();

        // Outage: clients keep updating the directory the whole time.
        let handle = system.fault_handle("pbx-1").expect("fault handle");
        handle.set_down(true);
        for u in 0..updates {
            wba.assign_room(
                &format!("Outage Person {:02}", u % people),
                &format!("R{u}"),
            )
            .expect("client update during outage");
        }
        system.settle();
        let health = system.device_health("pbx-1").expect("health");
        let (queued, dropped) = (health.queued_ops, health.dropped_ops);

        // Reconnect; recovery is one probe (drain or full resync).
        handle.set_down(false);
        let (outcome, recovery) = crate::timed(|| system.probe_device("pbx-1").expect("recover"));
        let mechanism = match &outcome {
            RecoveryOutcome::Drained(n) => {
                any_drain = true;
                format!("drain({n})")
            }
            RecoveryOutcome::Resynchronized(_) => {
                any_resync = true;
                "resync".to_string()
            }
            other => format!("{other:?}"),
        };

        // Lost updates: people whose device room disagrees with the
        // directory after recovery.
        let lost = (0..people)
            .filter(|i| {
                let dir_room = wba
                    .person(&format!("Outage Person {i:02}"))
                    .unwrap()
                    .and_then(|e| e.first("roomNumber").map(str::to_string));
                let dev_room = switch
                    .get(&format!("1{i:03}"))
                    .and_then(|r| r.get("Room").map(str::to_string));
                dir_room != dev_room
            })
            .count();
        total_lost += lost;
        writeln!(
            table,
            "{:>8} {:>8} {:>9} {:>14} {:>12} {:>6}",
            updates,
            queued,
            dropped,
            mechanism,
            crate::fmt_dur(recovery),
            lost
        )
        .unwrap();
        system.shutdown();
    }
    table.push_str(&drain_vs_resync(reps, &mut total_lost));
    observations.push(format!(
        "zero lost updates across the sweep (total lost = {total_lost})"
    ));
    if any_drain && any_resync {
        observations.push(
            "bounded outages drain the journal; past the journal cap recovery \
             switches to full directory->device resynchronization"
                .to_string(),
        );
    }
    observations.push(
        "every client update during the outage succeeded against the directory \
         (store-and-forward; the directory stays authoritative)"
            .to_string(),
    );
    Report {
        id: "E12",
        title: "device-outage resilience (breaker, journal, recovery)",
        claim: "client updates survive device outages: the directory absorbs \
                them while the breaker is open and the device converges on \
                reconnect with zero lost updates",
        table,
        observations,
        failed: (total_lost > 0).then(|| format!("{total_lost} client updates lost")),
    }
}

/// The drain-vs-resync arm: per partition, one deployment per recovery
/// path, outages alternating between them. Returns the table rows, ending
/// in the `drain vs resync` line; lost updates are added to `lost`.
fn drain_vs_resync(reps: usize, lost: &mut usize) -> String {
    let mut table = String::new();
    writeln!(
        table,
        "\n{:>9} {:>8} {:>12} {:>12} {:>13}",
        "partition", "queued", "drain", "resync", "resync/drain"
    )
    .unwrap();
    let mut ratios = Vec::new();
    for partition in PARTITIONS {
        let drain = partition_rig(partition, 512);
        let resync = partition_rig(partition, 0);
        for queued in QUEUED {
            let (mut drain_s, mut resync_s) = (Vec::new(), Vec::new());
            for rep in 0..reps {
                drain_s.push(outage(&drain, queued, rep, lost));
                resync_s.push(outage(&resync, queued, rep, lost));
            }
            let (d, r) = (super::median(drain_s), super::median(resync_s));
            ratios.push((partition, r / d));
            writeln!(
                table,
                "{partition:>9} {queued:>8} {:>12} {:>12} {:>12.1}x",
                crate::fmt_dur(Duration::from_secs_f64(d)),
                crate::fmt_dur(Duration::from_secs_f64(r)),
                r / d
            )
            .unwrap();
        }
        drain.0.shutdown();
        resync.0.shutdown();
    }
    let span = |p: usize| {
        let of_p = ratios.iter().filter(|(q, _)| *q == p).map(|(_, r)| *r);
        let lo = of_p.clone().fold(f64::INFINITY, f64::min);
        format!("{lo:.1}x-{:.1}x", of_p.fold(0.0, f64::max))
    };
    writeln!(
        table,
        "drain vs resync: a forced resync takes {} the drain's time at {} stations and {} \
         at {} (median of {reps} reconnects, {} and {} queued ops)",
        span(PARTITIONS[0]),
        PARTITIONS[0],
        span(PARTITIONS[1]),
        PARTITIONS[1],
        QUEUED[0],
        QUEUED[1],
    )
    .unwrap();
    table
}

/// A switch holding `partition` stations with five-digit extensions, put
/// in the directory by an initial synchronization. The hub rules derive
/// four-digit extensions, so they are off.
fn partition_rig(partition: usize, journal_cap: usize) -> (MetaComm, Arc<PbxStore>) {
    let switch = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 5)));
    for i in 0..partition {
        let station = pbx::Record::from_pairs([
            ("Extension", format!("1{i:04}")),
            ("Name", format!("Station {i:05}, Arm")),
            ("Room", "R0".to_string()),
            ("CoveragePath", "1".to_string()),
            ("Cor", "1".to_string()),
        ]);
        switch
            .add(station, pbx::Channel::Metacomm)
            .expect("preload station");
    }
    let system = MetaCommBuilder::new("o=Lucent")
        .without_hub_rules()
        .add_pbx(switch.clone(), "1????")
        .with_retry_policy(retry())
        .with_breaker_policy(breaker(journal_cap))
        .with_fault_plan("pbx-1", FaultPlan::default())
        .build()
        .expect("build");
    let load = system.synchronize_all().expect("initial load");
    assert_eq!(load.added, partition, "initial load: {load:?}");
    (system, switch)
}

/// One outage: `queued` client updates while the switch is down, then the
/// reconnect. Returns the recovery's seconds; updates the switch does not
/// show afterwards are added to `lost`.
fn outage(rig: &(MetaComm, Arc<PbxStore>), queued: usize, rep: usize, lost: &mut usize) -> f64 {
    let (system, switch) = rig;
    let wba = system.wba();
    let handle = system.fault_handle("pbx-1").expect("fault handle");
    handle.set_down(true);
    for u in 0..queued {
        wba.assign_room(&format!("Arm Station {u:05}"), &format!("R{rep}-{u}"))
            .expect("client update during outage");
    }
    handle.set_down(false);
    let (outcome, took) = crate::timed(|| system.probe_device("pbx-1").expect("recover"));
    assert!(
        matches!(
            outcome,
            RecoveryOutcome::Drained(_) | RecoveryOutcome::Resynchronized(_)
        ),
        "{outcome:?}"
    );
    *lost += (0..queued)
        .filter(|u| {
            let room = switch
                .get(&format!("1{u:04}"))
                .and_then(|r| r.get("Room").map(str::to_string));
            room != Some(format!("R{rep}-{u}"))
        })
        .count();
    took.as_secs_f64()
}
