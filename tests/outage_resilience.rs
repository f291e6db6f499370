//! Device-outage resilience, end to end: a device that stops answering
//! trips its circuit breaker and goes `Offline`; client updates during the
//! outage still succeed against the directory (their legs skip the device,
//! which is logged stale); on reconnect the device is resynchronized from
//! the directory under the §5.1 quiesce, with zero lost updates, and only a
//! resync that finishes brings it back `Up`. Administrator alerts fire at
//! every transition (§4.4).

use metacomm::{
    BreakerPolicy, FaultPlan, HealthState, MetaCommBuilder, RecoveryOutcome, RetryPolicy,
};
use pbx::{DialPlan, Store as PbxStore};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fast-failing retry so outage tests don't sit in backoff sleeps.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        deadline: Duration::from_millis(50),
    }
}

/// Breaker that opens on the first failure; huge probe interval so tests
/// drive recovery deterministically through `probe_device`.
fn manual_breaker() -> BreakerPolicy {
    BreakerPolicy {
        degraded_after: 1,
        offline_after: 1,
        probe_interval: Duration::from_secs(3600),
    }
}

struct Rig {
    system: metacomm::MetaComm,
    switch: Arc<PbxStore>,
}

fn rig(breaker: BreakerPolicy) -> Rig {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(test_retry())
        .with_breaker_policy(breaker)
        .with_fault_plan("pbx-west", FaultPlan::default())
        .build()
        .expect("build");
    Rig { system, switch }
}

fn room_at(switch: &PbxStore, ext: &str) -> Option<String> {
    switch.get(ext)?.get("Room").map(str::to_string)
}

/// A `device-pbx-west` metric out of the live registry snapshot.
fn dev_metric(system: &metacomm::MetaComm, name: &str) -> u64 {
    system
        .metrics_snapshot()
        .value("device-pbx-west", name)
        .unwrap_or_else(|| panic!("device-pbx-west has no metric `{name}`"))
}

/// A `um` metric out of the live registry snapshot.
fn um_metric(system: &metacomm::MetaComm, name: &str) -> u64 {
    system
        .metrics_snapshot()
        .value("um", name)
        .unwrap_or_else(|| panic!("um has no metric `{name}`"))
}

/// Poll until `cond` holds (the relay threads run asynchronously).
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn outage_skips_the_device_and_resync_converges_with_zero_loss() {
    let r = rig(manual_breaker());
    let wba = r.system.wba();
    let alerts = r.system.alerts();
    wba.add_person_with_extension("John Doe", "Doe", "1100", "R0")
        .expect("seed");
    r.system.settle();
    assert_eq!(room_at(&r.switch, "1100").as_deref(), Some("R0"));

    // Healthy phase: the monitor shows live applies, no outage machinery.
    assert!(dev_metric(&r.system, "applies") >= 1);
    assert_eq!(dev_metric(&r.system, "breakerTrips"), 0);
    assert_eq!(dev_metric(&r.system, "droppedOps"), 0);

    // Cut the link. The first client update trips the breaker (offline
    // after 1 failure) and skips the device — the client still sees
    // success, and so do the nine after it.
    let handle = r.system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    for i in 1..=10 {
        wba.assign_room("John Doe", &format!("R{i}"))
            .expect("update during outage must succeed against the directory");
    }
    r.system.settle();

    // Directory is authoritative and current; the device never saw the ops.
    let person = wba.person("John Doe").unwrap().expect("person");
    assert_eq!(person.first("roomNumber"), Some("R10"));
    assert_eq!(
        room_at(&r.switch, "1100").as_deref(),
        Some("R0"),
        "device must not see updates during the outage"
    );
    let health = r.system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Offline);
    assert_eq!(health.dropped_ops, 10);
    assert!(health.last_error.is_some());

    // Outage phase, as the metrics tell it: one breaker trip, ten skipped
    // legs on the live `droppedOps` gauge, at least one post-retry apply
    // failure, no resync yet, and the UM totals (sums over the devices'
    // counters) agree.
    assert_eq!(dev_metric(&r.system, "breakerTrips"), 1);
    assert_eq!(dev_metric(&r.system, "droppedOps"), 10);
    assert!(dev_metric(&r.system, "failures") >= 1);
    assert_eq!(dev_metric(&r.system, "fullResyncs"), 0);
    assert_eq!(um_metric(&r.system, "breakerTrips"), 1);
    assert_eq!(um_metric(&r.system, "fullResyncs"), 0);

    // While down, a probe finds the device still unreachable.
    assert!(matches!(
        r.system.probe_device("pbx-west").expect("probe"),
        RecoveryOutcome::StillDown
    ));

    // Reconnect and recover: one resync repairs the one station.
    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(&outcome, RecoveryOutcome::Resynchronized(rep) if rep.repaired == 1),
        "expected a resync repairing one station, got {outcome:?}"
    );

    // Converged, nothing lost, breaker closed.
    assert_eq!(room_at(&r.switch, "1100").as_deref(), Some("R10"));
    let health = r.system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Up);
    assert_eq!(health.dropped_ops, 0);
    let resync = r.system.synchronize_device("pbx-west").expect("resync");
    assert_eq!(
        (resync.added, resync.cleared),
        (0, 0),
        "recovery left nothing for a sync to fix: {resync:?}"
    );

    // Recovery phase: exactly one full resynchronization, and the
    // dropped-ops gauge it zeroed.
    assert_eq!(dev_metric(&r.system, "fullResyncs"), 1);
    assert_eq!(dev_metric(&r.system, "droppedOps"), 0);
    assert_eq!(um_metric(&r.system, "fullResyncs"), 1);

    // §4.4 alerts at the transitions: up -> offline, then offline -> up.
    let texts: Vec<String> = alerts.try_iter().map(|a| a.text).collect();
    assert!(
        texts
            .iter()
            .any(|t| t.contains("-> offline") && t.contains("skipped until a resync on reconnect")),
        "missing offline alert in {texts:?}"
    );
    assert!(
        texts.iter().any(|t| t.contains("offline -> up")),
        "missing recovery alert in {texts:?}"
    );
    r.system.shutdown();
}

#[test]
fn background_monitor_recovers_without_intervention() {
    // Same outage story, but recovery comes from the device's relay, which
    // probes the device on its own while it is not up.
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(test_retry())
        .with_breaker_policy(BreakerPolicy {
            degraded_after: 1,
            offline_after: 1,
            probe_interval: Duration::from_millis(10),
        })
        .with_fault_plan("pbx-west", FaultPlan::default())
        .build()
        .expect("build");
    let wba = system.wba();
    wba.add_person_with_extension("Ada Monitor", "Monitor", "1300", "R0")
        .expect("seed");
    system.settle();

    let handle = system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    for i in 1..=5 {
        wba.assign_room("Ada Monitor", &format!("R{i}"))
            .expect("update during outage");
    }
    wait_for("breaker to open", || {
        system.device_health("pbx-west").unwrap().state == HealthState::Offline
    });

    handle.set_down(false);
    wait_for("the relay to resync the device", || {
        let h = system.device_health("pbx-west").unwrap();
        h.state == HealthState::Up && h.dropped_ops == 0
    });
    wait_for("device to converge", || {
        room_at(&switch, "1300").as_deref() == Some("R5")
    });
    assert!(system.um_stats().full_resyncs.load(Ordering::SeqCst) >= 1);
    system.shutdown();
}

#[test]
fn retry_masks_flaky_device_faults() {
    // Every 3rd apply fails transiently; bounded retry hides it entirely.
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(RetryPolicy::default())
        .with_breaker_policy(BreakerPolicy::default())
        .with_fault_plan("pbx-west", FaultPlan::flaky(3))
        .build()
        .expect("build");
    let wba = system.wba();
    for i in 0..12 {
        wba.add_person_with_extension(
            &format!("Flaky Person {i:02}"),
            "Person",
            &format!("1{i:03}"),
            "2B",
        )
        .expect("updates succeed despite the flaky link");
    }
    system.settle();
    let handle = system.fault_handle("pbx-west").expect("fault handle");
    assert!(handle.faults_injected() > 0, "faults must actually fire");
    assert!(
        system.um_stats().retried.load(Ordering::SeqCst) > 0,
        "retries must be recorded"
    );
    // The stats field is the registry's `um/retried` counter itself.
    assert_eq!(
        um_metric(&system, "retried"),
        system.um_stats().retried.load(Ordering::SeqCst)
    );
    let health = system.device_health("pbx-west").expect("health");
    assert_eq!(
        health.state,
        HealthState::Up,
        "retry keeps the breaker closed"
    );
    assert_eq!(switch.len(), 12);
    system.shutdown();
}

#[test]
fn an_update_aborted_during_an_outage_never_reaches_the_device() {
    // An update whose pbx leg the open breaker skipped, but which then
    // fails at the directory, must not reach the device at recovery either:
    // the resync copies what the directory committed, and it never
    // committed this update.
    let r = rig(manual_breaker());
    let wba = r.system.wba();
    wba.add_person_with_extension("Jo Abort", "Abort", "1400", "R0")
        .expect("seed");
    wba.add_person_with_extension("Other Person", "Person", "1401", "R0")
        .expect("seed");
    r.system.settle();

    let handle = r.system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    // Trip the breaker with a clean update (skipped, succeeds).
    wba.assign_room("Jo Abort", "R1").expect("trip + skip");

    // Rename onto an existing person: the pbx leg is skipped, then the
    // directory rejects the ModifyRDN with EntryAlreadyExists — the whole
    // update aborts.
    let err = wba
        .rename_person("Jo Abort", "Other Person")
        .expect_err("rename onto an existing entry must fail");
    assert_eq!(err.code, ldap::ResultCode::EntryAlreadyExists);

    // Recover: only the room change reaches the device; the rename never
    // does, and both people survive with their original names.
    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Resynchronized(_)),
        "{outcome:?}"
    );
    assert_eq!(room_at(&r.switch, "1400").as_deref(), Some("R1"));
    assert_eq!(
        r.switch
            .get("1400")
            .and_then(|s| s.get("Name").map(str::to_string)),
        Some("Abort, Jo".to_string())
    );
    assert!(wba.person("Jo Abort").unwrap().is_some());
    assert!(wba.person("Other Person").unwrap().is_some());
    let resync = r.system.synchronize_device("pbx-west").expect("resync");
    assert_eq!((resync.added, resync.cleared), (0, 0), "{resync:?}");
    r.system.shutdown();
}

#[test]
fn concurrent_updates_preserve_outage_semantics() {
    // The whole outage story again, but with updates to distinct people in
    // flight at once, each run by the thread that issued it: a dead switch
    // must be skipped without aborting updates or poisoning its live
    // sibling (the messaging platform), an aborted update must not reach
    // the switch, and the reconnect resync must lose nothing — identical
    // semantics to the one-at-a-time updates the other tests exercise.
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(mp.clone(), "*")
        .with_retry_policy(test_retry())
        .with_breaker_policy(manual_breaker())
        .with_fault_plan("pbx-west", FaultPlan::default())
        .build()
        .expect("build");
    let wba = system.wba();
    for i in 0..8 {
        wba.add_person_with_extension(
            &format!("Fan Person {i}"),
            "Person",
            &format!("1{i:03}"),
            "R0",
        )
        .expect("seed");
        wba.assign_mailbox(&format!("Fan Person {i}"), &format!("9{i:03}"), "standard")
            .expect("seed mailbox");
    }
    system.settle();
    assert_eq!(switch.len(), 8);
    assert_eq!(mp.len(), 8, "every person gets a mailbox on the live leg");

    // Cut the switch and update all eight people concurrently, from eight
    // threads. Every update must still succeed
    // against the directory, skipping only its pbx leg.
    let handle = system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    std::thread::scope(|sc| {
        for i in 0..8 {
            let wba = system.wba();
            sc.spawn(move || {
                wba.assign_room(&format!("Fan Person {i}"), "R9")
                    .expect("update during outage must succeed");
            });
        }
    });
    system.settle();

    let health = system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Offline);
    assert_eq!(health.dropped_ops, 8, "one skipped pbx leg per update");
    assert!(dev_metric(&system, "breakerTrips") >= 1);
    assert_eq!(um_metric(&system, "breakerTrips"), 1);
    for i in 0..8 {
        assert_eq!(
            room_at(&switch, &format!("1{i:03}")).as_deref(),
            Some("R0"),
            "dead device must not see outage updates"
        );
    }

    // An aborted update (rename onto an existing person) skips its pbx
    // leg, then the directory rejects the ModifyRDN. The skipped leg is
    // counted; the resync copies only what the directory committed.
    let err = wba
        .rename_person("Fan Person 0", "Fan Person 1")
        .expect_err("rename onto an existing entry must fail");
    assert_eq!(err.code, ldap::ResultCode::EntryAlreadyExists);
    assert_eq!(
        system.device_health("pbx-west").unwrap().dropped_ops,
        9,
        "the aborted update's leg was skipped too"
    );

    // Reconnect: one resync repairs exactly the eight stations, both
    // devices converge, nothing is lost.
    handle.set_down(false);
    let outcome = system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(&outcome, RecoveryOutcome::Resynchronized(rep) if rep.repaired == 8),
        "expected a resync repairing 8 stations, got {outcome:?}"
    );
    for i in 0..8 {
        assert_eq!(room_at(&switch, &format!("1{i:03}")).as_deref(), Some("R9"));
    }
    assert_eq!(mp.len(), 8);
    let resync = system.synchronize_device("pbx-west").expect("resync");
    assert_eq!((resync.added, resync.cleared), (0, 0), "{resync:?}");
    assert_eq!(
        system.device_health("pbx-west").unwrap().state,
        HealthState::Up
    );
    system.shutdown();
}

#[test]
fn shutdown_drains_inflight_updates_cleanly() {
    // Shutdown refuses new traps and drains the updates already in flight
    // through the §5.1 quiesce: a write racing it is either processed or
    // answered "shut down", never "update manager crashed while processing".
    for round in 0..10 {
        let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
        let system = Arc::new(
            MetaCommBuilder::new("o=Lucent")
                .add_pbx(switch.clone(), "1???")
                .build()
                .expect("build"),
        );
        let wba = system.wba();
        wba.add_person_with_extension("Shut Down", "Down", "1500", "R0")
            .expect("seed");
        let sys2 = system.clone();
        let writer = std::thread::spawn(move || {
            let wba = sys2.wba();
            for i in 0..50 {
                match wba.assign_room("Shut Down", &format!("R{i}")) {
                    Ok(()) => {}
                    Err(e) => {
                        assert!(
                            !e.message.contains("crashed"),
                            "round {round}: shutdown must not report a crash: {e}"
                        );
                        break;
                    }
                }
            }
        });
        // Let the writer get going, then shut down mid-stream.
        std::thread::sleep(Duration::from_millis(2));
        system.shutdown();
        writer.join().expect("writer must not panic");
    }
}

/// A durable node that crashes while a device is offline keeps the fact
/// that the device is stale:
/// the device restarts `Offline` and recovers by resynchronization from
/// the directory, after which it is clean across further restarts.
#[test]
fn crash_mid_outage_restarts_the_device_stale_and_resyncs() {
    let dir = std::env::temp_dir().join(format!("metacomm-crash-outage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let boot = || {
        MetaCommBuilder::new("o=Lucent")
            .add_pbx(switch.clone(), "1???")
            .with_retry_policy(test_retry())
            .with_breaker_policy(manual_breaker())
            .with_fault_plan("pbx-west", FaultPlan::default())
            .with_durability(dir.clone())
            .build()
            .expect("build durable system")
    };

    let system = boot();
    let wba = system.wba();
    wba.add_person_with_extension("Cass Crash", "Crash", "1700", "R0")
        .expect("seed");
    system.settle();
    assert_eq!(room_at(&switch, "1700").as_deref(), Some("R0"));
    system
        .fault_handle("pbx-west")
        .expect("fault handle")
        .set_down(true);
    for i in 1..=5 {
        wba.assign_room("Cass Crash", &format!("R{i}"))
            .expect("update during outage");
    }
    assert_eq!(system.device_health("pbx-west").unwrap().dropped_ops, 5);
    std::mem::forget(system); // crash: no shutdown, no checkpoint

    // Same directory, same switch, link up.
    let system = boot();
    let health = system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Offline);
    assert_eq!(system.recovery_report().unwrap().stale_devices, 1);
    let outcome = system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Resynchronized(_)),
        "a stale device recovers by resync, got {outcome:?}"
    );
    let dir_room = system
        .wba()
        .person("Cass Crash")
        .unwrap()
        .and_then(|e| e.first("roomNumber").map(str::to_string));
    assert_eq!(dir_room.as_deref(), Some("R5"));
    assert_eq!(room_at(&switch, "1700"), dir_room);
    assert_eq!(
        system.device_health("pbx-west").unwrap().state,
        HealthState::Up
    );
    system.shutdown();
    drop(system);

    // The resync logged the device clean: a second boot finds nothing to do.
    let system = boot();
    assert_eq!(
        system.device_health("pbx-west").unwrap().state,
        HealthState::Up
    );
    assert_eq!(system.recovery_report().unwrap().stale_devices, 0);
    assert_eq!(
        system.probe_device("pbx-west").expect("probe"),
        RecoveryOutcome::Healthy
    );
    system.shutdown();
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A craft-terminal edit made on the device while MetaComm holds it
/// `Offline` reaches the directory by DDU, and the resync on reconnect does
/// not revert it: it finds directory and device already agreeing.
#[test]
fn craft_edit_during_outage_survives_the_resync() {
    let r = rig(manual_breaker());
    let wba = r.system.wba();
    wba.add_person_with_extension("Cora Craft", "Craft", "1600", "R0")
        .expect("seed");
    r.system.settle();
    let handle = r.system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    for i in 1..=5 {
        wba.assign_room("Cora Craft", &format!("R{i}"))
            .expect("update during outage");
    }
    assert_eq!(
        r.system.device_health("pbx-west").unwrap().state,
        HealthState::Offline
    );

    // A technician edits the station at the switch's own terminal.
    r.switch
        .change(
            "1600",
            pbx::Record::from_pairs([("Room", "CRAFT")]),
            pbx::Channel::Craft,
        )
        .expect("craft edit");
    let dir_room = || {
        wba.person("Cora Craft")
            .unwrap()
            .and_then(|e| e.first("roomNumber").map(str::to_string))
    };
    wait_for("the craft edit to reach the directory", || {
        dir_room().as_deref() == Some("CRAFT")
    });
    r.system.settle();

    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(&outcome, RecoveryOutcome::Resynchronized(rep) if rep.unchanged == 1),
        "{outcome:?}"
    );
    assert_eq!(dir_room().as_deref(), Some("CRAFT"));
    assert_eq!(room_at(&r.switch, "1600").as_deref(), Some("CRAFT"));
    r.system.shutdown();
}

const STATIONS: usize = 10;

fn station_cn(i: usize) -> String {
    format!("Late Person {i}")
}

/// Seed `STATIONS` people on pbx-west, then run an outage that moves every
/// one of them to room R1: the first update trips the breaker, every leg
/// after it skips the device, and the link comes back up.
fn outage_to_r1(system: &metacomm::MetaComm) {
    let wba = system.wba();
    for i in 0..STATIONS {
        wba.add_person_with_extension(&station_cn(i), "Person", &format!("1{i:03}"), "R0")
            .expect("seed");
    }
    system.settle();
    let handle = system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    for i in 0..STATIONS {
        wba.assign_room(&station_cn(i), "R1")
            .expect("update during outage");
    }
    system.settle();
    assert_eq!(
        system.device_health("pbx-west").unwrap().state,
        HealthState::Offline
    );
    handle.set_down(false);
}

fn rooms_at(switch: &PbxStore, room: &str) -> usize {
    (0..STATIONS)
        .filter(|i| room_at(switch, &format!("1{i:03}")).as_deref() == Some(room))
        .count()
}

/// The resync runs under the §5.1 quiesce: a client update that arrives
/// while it runs waits for it, then applies to a device that is `Up`
/// again. Without the quiesce the update commits to the directory, the
/// resync has already read the old room, and the device keeps it while
/// reported clean.
#[test]
fn an_update_committed_during_a_resync_reaches_the_device() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(RetryPolicy::none())
        .with_breaker_policy(manual_breaker())
        .with_fault_plan(
            "pbx-west",
            FaultPlan {
                latency: Some(Duration::from_millis(40)),
                ..FaultPlan::default()
            },
        )
        .build()
        .expect("build");
    outage_to_r1(&system);

    let before = switch.commits();
    let outcome = std::thread::scope(|sc| {
        let recovery = sc.spawn(|| system.probe_device("pbx-west"));
        // The resync has read the holders once the switch takes its first
        // station; the update goes in while the rest are still applying.
        wait_for("the resync to reach the switch", || {
            switch.commits() > before
        });
        system
            .wba()
            .assign_room(&station_cn(0), "LATE")
            .expect("update during the resync");
        recovery.join().expect("recovery thread")
    });
    assert!(
        matches!(outcome, Ok(RecoveryOutcome::Resynchronized(_))),
        "{outcome:?}"
    );
    system.settle();
    let dir_room = system
        .wba()
        .person(&station_cn(0))
        .unwrap()
        .and_then(|e| e.first("roomNumber").map(str::to_string));
    assert_eq!(dir_room.as_deref(), Some("LATE"));
    assert_eq!(room_at(&switch, "1000").as_deref(), Some("LATE"));
    let health = system.device_health("pbx-west").expect("health");
    assert_eq!((health.state, health.dropped_ops), (HealthState::Up, 0));
    system.shutdown();
}

/// A link lost mid-resync ends the resync: the device stays `Offline` and
/// logged stale, so a restart still finds it stale, and the next probe
/// that finds it answering resyncs it to the end. The script is the one
/// above without the latency: 10 seed applies, one failed outage apply,
/// then the link drops again after 3 resync applies.
#[test]
fn a_link_lost_mid_resync_leaves_the_device_offline_and_stale() {
    let dir = std::env::temp_dir().join(format!("metacomm-mid-resync-{}", std::process::id()));
    for durable in [false, true] {
        let _ = std::fs::remove_dir_all(&dir);
        let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
        let boot = || {
            let builder = MetaCommBuilder::new("o=Lucent")
                .add_pbx(switch.clone(), "1???")
                .with_retry_policy(RetryPolicy::none())
                .with_breaker_policy(manual_breaker())
                .with_fault_plan(
                    "pbx-west",
                    FaultPlan {
                        down_after: Some(14),
                        ..FaultPlan::default()
                    },
                );
            match durable {
                true => builder.with_durability(dir.clone()),
                false => builder,
            }
            .build()
            .expect("build")
        };
        let system = boot();
        let alerts = system.alerts();
        outage_to_r1(&system);

        assert_eq!(
            system.probe_device("pbx-west").expect("probe"),
            RecoveryOutcome::StillDown,
            "durable: {durable}"
        );
        assert_eq!(rooms_at(&switch, "R1"), 3, "three stations made it");
        let health = system.device_health("pbx-west").expect("health");
        assert_eq!(health.state, HealthState::Offline);
        assert_eq!(
            health.dropped_ops, STATIONS,
            "the resync did not cover them"
        );
        let texts: Vec<String> = alerts.try_iter().map(|a| a.text).collect();
        assert!(
            texts.iter().any(|t| t.contains("relapsed mid-resync")),
            "{texts:?}"
        );

        let system = if durable {
            // The device is still logged stale: a restart says so.
            system.shutdown();
            drop(system);
            let system = boot();
            assert_eq!(system.recovery_report().unwrap().stale_devices, 1);
            assert_eq!(
                system.device_health("pbx-west").unwrap().state,
                HealthState::Offline
            );
            system
        } else {
            system
                .fault_handle("pbx-west")
                .expect("fault handle")
                .set_down(false);
            system
        };
        let outcome = system.probe_device("pbx-west").expect("recover");
        assert!(
            matches!(&outcome, RecoveryOutcome::Resynchronized(rep)
                if (rep.repaired, rep.unchanged) == (7, 3)),
            "durable: {durable}: {outcome:?}"
        );
        assert_eq!(rooms_at(&switch, "R1"), STATIONS);
        assert_eq!(
            system.device_health("pbx-west").unwrap().state,
            HealthState::Up
        );
        system.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A link that answers probes but fails every apply fails each resync, and
/// each one holds every client update at the quiesce while it reads. The
/// device's relay backs off after each failure, doubling its wait:
/// after the first, it tries again a handful of times in 64 probe
/// intervals, not 64 times.
#[test]
fn the_monitor_backs_off_from_a_device_whose_resyncs_keep_failing() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let interval = Duration::from_millis(10);
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(RetryPolicy::none())
        .with_breaker_policy(BreakerPolicy {
            probe_interval: interval,
            ..manual_breaker()
        })
        .with_fault_plan("pbx-west", FaultPlan::flaky(1))
        .build()
        .expect("build");
    let alerts = system.alerts();
    // The leg fails, which opens the breaker, so the update goes on to the
    // directory and leaves the device behind.
    system
        .wba()
        .add_person_with_extension("John Doe", "Doe", "1100", "R0")
        .expect("the leg skips the device");
    let relapsed = |text: &str| text.contains("relapsed mid-resync");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !alerts
        .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        .is_ok_and(|a| relapsed(&a.text))
    {
        assert!(Instant::now() < deadline, "no resync relapsed");
    }
    std::thread::sleep(interval * 64);
    let again = alerts.try_iter().filter(|a| relapsed(&a.text)).count();
    // Waits of 2, 4, 8, 16 and 32 intervals fit in 64; a relay that did
    // not back off would relapse about once an interval.
    assert!(again <= 6, "{again} relapses in 64 probe intervals");
    let health = system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Offline);
    assert!(switch.get("1100").is_none());
    system.shutdown();
}
