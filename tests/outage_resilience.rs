//! Device-outage resilience, end to end: a device that stops answering
//! trips its circuit breaker and goes `Offline`; client updates during the
//! outage still succeed against the directory (their device ops queue in
//! the outage journal); on reconnect the backlog is reapplied — by journal
//! drain, or by full resynchronization when the journal overflowed — with
//! zero lost updates. Administrator alerts fire at every transition (§4.4).

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
fn manual_breaker(journal_cap: usize) -> BreakerPolicy {
    BreakerPolicy {
        degraded_after: 1,
        offline_after: 1,
        journal_cap,
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

/// Poll until `cond` holds (the monitor/relay threads run asynchronously).
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
fn outage_journals_updates_and_drain_converges_with_zero_loss() {
    let r = rig(manual_breaker(512));
    let wba = r.system.wba();
    let alerts = r.system.alerts();
    wba.add_person_with_extension("John Doe", "Doe", "1100", "R0")
        .expect("seed");
    r.system.settle();
    assert_eq!(room_at(&r.switch, "1100").as_deref(), Some("R0"));

    // Healthy phase: the monitor shows live applies, no outage machinery.
    assert!(dev_metric(&r.system, "applies") >= 1);
    assert_eq!(dev_metric(&r.system, "breakerTrips"), 0);
    assert_eq!(dev_metric(&r.system, "queuedTotal"), 0);
    assert_eq!(dev_metric(&r.system, "journalDepth"), 0);

    // Cut the link. The first client update trips the breaker (offline
    // after 1 failure) and is journaled — the client still sees success.
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
    assert_eq!(health.queued_ops, 10);
    assert!(!health.journal_overflowed);
    assert!(health.last_error.is_some());

    // Outage phase, as the metrics tell it: one breaker trip, ten ops
    // journaled (the `journalDepth` gauge reads the live queue), at least
    // one post-retry apply failure, and the UM totals (sums over the
    // devices' counters) agree.
    assert_eq!(dev_metric(&r.system, "breakerTrips"), 1);
    assert_eq!(dev_metric(&r.system, "queuedTotal"), 10);
    assert_eq!(dev_metric(&r.system, "journalDepth"), 10);
    assert!(dev_metric(&r.system, "failures") >= 1);
    assert_eq!(um_metric(&r.system, "queued"), 10);
    assert_eq!(um_metric(&r.system, "breakerTrips"), 1);
    assert_eq!(um_metric(&r.system, "journalDrained"), 0);

    // While down, a probe finds the device still unreachable.
    assert!(matches!(
        r.system.probe_device("pbx-west").expect("probe"),
        RecoveryOutcome::StillDown
    ));

    // Reconnect and recover: the journal drains as conditional reapplies.
    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Drained(10)),
        "expected Drained(10), got {outcome:?}"
    );

    // Converged, nothing lost, breaker closed.
    assert_eq!(room_at(&r.switch, "1100").as_deref(), Some("R10"));
    let health = r.system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Up);
    assert_eq!(health.queued_ops, 0);
    let resync = r.system.synchronize_device("pbx-west").expect("resync");
    assert_eq!(
        (resync.added, resync.cleared),
        (0, 0),
        "drain left nothing for resync to fix: {resync:?}"
    );

    // Recovery phase: all ten journaled ops drained (each timed by the
    // reapply histogram), the depth gauge fell back to zero, and the
    // journal never overflowed into a full resynchronization.
    assert_eq!(dev_metric(&r.system, "drainedTotal"), 10);
    assert_eq!(dev_metric(&r.system, "journalDepth"), 0);
    assert_eq!(dev_metric(&r.system, "fullResyncs"), 0);
    assert_eq!(um_metric(&r.system, "journalDrained"), 10);
    let snap = r.system.metrics_snapshot();
    let reapply = snap
        .component("device-pbx-west")
        .and_then(|c| c.histogram("reapply"))
        .expect("reapply histogram");
    assert_eq!(reapply.count, 10, "every drained op must be timed");

    // §4.4 alerts at the transitions: up -> offline, then offline -> up.
    let texts: Vec<String> = alerts.try_iter().map(|a| a.text).collect();
    assert!(
        texts.iter().any(|t| t.contains("-> offline")),
        "missing offline alert in {texts:?}"
    );
    assert!(
        texts.iter().any(|t| t.contains("offline -> up")),
        "missing recovery alert in {texts:?}"
    );
    r.system.shutdown();
}

#[test]
fn journal_overflow_falls_back_to_full_resynchronization() {
    // Tiny journal: 3 of the 8 outage updates overflow it.
    let r = rig(manual_breaker(5));
    let wba = r.system.wba();
    wba.add_person_with_extension("Jane Roe", "Roe", "1200", "R0")
        .expect("seed");
    r.system.settle();

    let handle = r.system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    for i in 1..=8 {
        wba.assign_room("Jane Roe", &format!("R{i}"))
            .expect("update during outage");
    }
    r.system.settle();

    let health = r.system.device_health("pbx-west").expect("health");
    assert!(health.journal_overflowed);
    assert_eq!(health.queued_ops, 0, "overflow abandons the journal");
    assert!(health.dropped_ops > 0);

    // The overflow is visible on the monitor: drops exported live, no
    // recovery yet.
    assert_eq!(
        dev_metric(&r.system, "droppedOps"),
        health.dropped_ops as u64
    );
    assert_eq!(dev_metric(&r.system, "fullResyncs"), 0);

    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Resynchronized(_)),
        "overflowed journal must recover via full resync, got {outcome:?}"
    );

    // The device converged to the directory's final state all the same.
    assert_eq!(room_at(&r.switch, "1200").as_deref(), Some("R8"));
    let health = r.system.device_health("pbx-west").expect("health");
    assert_eq!(health.state, HealthState::Up);
    assert_eq!(health.dropped_ops, 0);

    // Metrics after recovery: exactly one full resynchronization, the
    // dropped-ops gauge cleared with the journal, nothing drained.
    assert_eq!(dev_metric(&r.system, "fullResyncs"), 1);
    assert_eq!(dev_metric(&r.system, "droppedOps"), 0);
    assert_eq!(dev_metric(&r.system, "drainedTotal"), 0);
    assert_eq!(um_metric(&r.system, "fullResyncs"), 1);
    r.system.shutdown();
}

#[test]
fn background_monitor_recovers_without_intervention() {
    // Same outage story, but recovery comes from the monitor thread.
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_retry_policy(test_retry())
        .with_breaker_policy(BreakerPolicy {
            degraded_after: 1,
            offline_after: 1,
            journal_cap: 512,
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
    wait_for("monitor to drain the journal", || {
        let h = system.device_health("pbx-west").unwrap();
        h.state == HealthState::Up && h.queued_ops == 0
    });
    wait_for("device to converge", || {
        room_at(&switch, "1300").as_deref() == Some("R5")
    });
    assert!(system.um_stats().journal_drained.load(Ordering::SeqCst) >= 5);
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
fn aborted_update_withdraws_journaled_ops() {
    // An update that journals a device op but then fails at the directory
    // must withdraw the journaled op — the directory never saw the update,
    // so replaying it at recovery would make the device diverge.
    let r = rig(manual_breaker(512));
    let wba = r.system.wba();
    wba.add_person_with_extension("Jo Journal", "Journal", "1400", "R0")
        .expect("seed");
    wba.add_person_with_extension("Other Person", "Person", "1401", "R0")
        .expect("seed");
    r.system.settle();

    let handle = r.system.fault_handle("pbx-west").expect("fault handle");
    handle.set_down(true);
    // Trip the breaker with a clean update (journaled, succeeds).
    wba.assign_room("Jo Journal", "R1").expect("trip + journal");
    let before = r.system.device_health("pbx-west").unwrap().queued_ops;

    // Rename onto an existing person: the pbx op journals first, then the
    // directory rejects the ModifyRDN with EntryAlreadyExists — the whole
    // update aborts and the ticket must be withdrawn.
    let err = wba
        .rename_person("Jo Journal", "Other Person")
        .expect_err("rename onto an existing entry must fail");
    assert_eq!(err.code, ldap::ResultCode::EntryAlreadyExists);
    assert_eq!(
        r.system.device_health("pbx-west").unwrap().queued_ops,
        before,
        "aborted update left its op in the journal"
    );
    // `queuedTotal` is a monotonic counter — it remembers the withdrawn
    // op (2 journaled) while the live `journalDepth` gauge shows only the
    // one that survived the abort.
    assert_eq!(dev_metric(&r.system, "queuedTotal"), 2);
    assert_eq!(dev_metric(&r.system, "journalDepth"), before as u64);

    // Drain: only the room change replays; the rename never reaches the
    // device and both people survive with their original names.
    handle.set_down(false);
    let outcome = r.system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Drained(_)),
        "{outcome:?}"
    );
    assert_eq!(room_at(&r.switch, "1400").as_deref(), Some("R1"));
    assert!(wba.person("Jo Journal").unwrap().is_some());
    assert!(wba.person("Other Person").unwrap().is_some());
    let resync = r.system.synchronize_device("pbx-west").expect("resync");
    assert_eq!((resync.added, resync.cleared), (0, 0), "{resync:?}");
    r.system.shutdown();
}

#[test]
fn multi_worker_um_preserves_outage_semantics() {
    // The whole outage story again, but on a 4-worker UM with updates to
    // distinct people in flight at once: a dead switch must journal without
    // aborting updates or poisoning its live sibling (the messaging
    // platform), aborted updates must withdraw tickets from the journal,
    // and the reconnect drain must lose nothing — identical semantics to
    // the single coordinator the other tests exercise.
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(mp.clone(), "*")
        .with_um_workers(4)
        .with_retry_policy(test_retry())
        .with_breaker_policy(manual_breaker(512))
        .with_fault_plan("pbx-west", FaultPlan::default())
        .build()
        .expect("build");
    assert_eq!(system.um_workers(), 4);
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

    // Cut the switch and update all eight people concurrently (the DNs
    // spread over the worker shards). Every update must still succeed
    // against the directory, journaling only its pbx leg.
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
    assert_eq!(health.queued_ops, 8, "one journaled pbx op per update");
    assert!(dev_metric(&system, "breakerTrips") >= 1);
    assert_eq!(um_metric(&system, "queued"), 8);
    for i in 0..8 {
        assert_eq!(
            room_at(&switch, &format!("1{i:03}")).as_deref(),
            Some("R0"),
            "dead device must not see outage updates"
        );
    }

    // An aborted update (rename onto an existing person) journals its pbx
    // op on one fan-out leg, then the directory rejects the ModifyRDN —
    // the update's tickets must all be withdrawn.
    let err = wba
        .rename_person("Fan Person 0", "Fan Person 1")
        .expect_err("rename onto an existing entry must fail");
    assert_eq!(err.code, ldap::ResultCode::EntryAlreadyExists);
    assert_eq!(
        system.device_health("pbx-west").unwrap().queued_ops,
        8,
        "aborted update left a ticket in the journal"
    );

    // Reconnect: exactly the eight surviving ops drain, both devices
    // converge, nothing is lost.
    handle.set_down(false);
    let outcome = system.probe_device("pbx-west").expect("recover");
    assert!(
        matches!(outcome, RecoveryOutcome::Drained(8)),
        "expected Drained(8), got {outcome:?}"
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
    // Regression: a trigger blocked in its reply channel during shutdown
    // used to observe "update manager crashed while processing". Shutdown
    // must either process the in-flight update or answer "shut down".
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
