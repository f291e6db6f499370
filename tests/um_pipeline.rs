//! Concurrency semantics of the Update Manager, which runs each update on
//! the thread that issued it: updates to the same DN are strictly FIFO per
//! issuing thread (the LTAP entry lock), updates to distinct DNs from
//! distinct callers actually overlap (measured against the sequential
//! `ops × latency` floor with injected device latency). Within one update
//! the schedule is the paper's: the device filters are walked in order, no
//! thread is created, and the first failed leg ends the fan-out.

use ldap::dit::ChangeOp;
use ldap::dn::Dn;
use ldap::entry::{Entry, Modification};
use ldap::Directory;
use metacomm::{BreakerPolicy, Clock, FaultPlan, ManualClock, MetaCommBuilder, RetryPolicy};
use pbx::{DialPlan, Store as PbxStore};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Same-DN updates stay strictly FIFO under concurrent callers: every
/// client thread's writes commit in that thread's issue order (one DN = one
/// LTAP entry lock, held for the whole update). Runs on a ManualClock so
/// nothing depends on real timing.
#[test]
fn same_dn_updates_commit_in_per_thread_fifo_order() {
    let clock = ManualClock::new();
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .with_clock(clock)
        .build()
        .expect("build");
    let wba = system.wba();
    wba.add_person_with_extension("Solo Person", "Person", "1111", "R-0")
        .expect("add");

    // Record every committed description value, in commit order.
    let committed: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let committed = committed.clone();
        system.dit().observe(move |rec| {
            if let ChangeOp::Modify(mods) = &rec.op {
                for m in mods {
                    if m.attr.norm() == "description" {
                        if let Some(v) = m.values.first() {
                            committed.lock().unwrap().push(v.clone());
                        }
                    }
                }
            }
        });
    }

    let dir = system.directory();
    let dn = Dn::parse("cn=Solo Person,o=Lucent").unwrap();
    let threads = 4;
    let per_thread = 25;
    std::thread::scope(|sc| {
        for t in 0..threads {
            let dir = dir.clone();
            let dn = dn.clone();
            sc.spawn(move || {
                for i in 0..per_thread {
                    dir.modify(
                        &dn,
                        &[Modification::set("description", format!("t{t}-{i}"))],
                    )
                    .expect("modify");
                }
            });
        }
    });
    system.settle();

    let log = committed.lock().unwrap().clone();
    assert_eq!(
        log.len(),
        threads * per_thread,
        "every write committed once"
    );
    for t in 0..threads {
        let seen: Vec<usize> = log
            .iter()
            .filter_map(|v| v.strip_prefix(&format!("t{t}-")))
            .map(|i| i.parse::<usize>().unwrap())
            .collect();
        assert_eq!(
            seen,
            (0..per_thread).collect::<Vec<_>>(),
            "thread {t}'s writes reordered: {seen:?}"
        );
    }
    system.shutdown();
}

/// Distinct-DN updates from distinct callers overlap: with 20 ms of
/// injected device latency per apply, 8 callers each updating a different
/// person finish well under the sequential schedule's hard floor of
/// `ops × latency` = 160 ms.
#[test]
fn distinct_dn_updates_overlap_across_callers() {
    let latency = Duration::from_millis(20);
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .with_fault_plan(
            "pbx-west",
            FaultPlan {
                latency: Some(latency),
                ..FaultPlan::default()
            },
        )
        .build()
        .expect("build");
    let wba = system.wba();
    let names: Vec<String> = (0..8).map(|i| format!("Person {i:03}")).collect();
    for (j, cn) in names.iter().enumerate() {
        wba.add_person_with_extension(cn, "Person", &format!("1{j:03}"), "R-0")
            .expect("add");
    }
    let start = Instant::now();
    std::thread::scope(|sc| {
        for cn in &names {
            let wba = system.wba();
            sc.spawn(move || wba.assign_room(cn, "R-9").expect("modify"));
        }
    });
    let wall = start.elapsed();
    system.settle();
    for (j, _) in names.iter().enumerate() {
        let ext = format!("1{j:03}");
        assert_eq!(
            switch
                .get(&ext)
                .and_then(|s| s.get("Room").map(str::to_string)),
            Some("R-9".to_string()),
            "device converged for {ext}"
        );
    }
    system.shutdown();
    // Sequential floor: 8 ops × 20 ms = 160 ms. Concurrent callers should
    // land well under it; 0.7 leaves headroom for scheduler noise on loaded
    // machines.
    let floor = latency * names.len() as u32;
    assert!(
        wall < floor.mul_f64(0.7),
        "no overlap: {wall:?} against a sequential floor of {floor:?}"
    );
}

/// A person with a station and a mailbox: one add that fans out to a PBX
/// leg and then the platform leg.
fn station_and_mailbox(cn: &str, ext: &str) -> Entry {
    Entry::with_attrs(
        Dn::parse(&format!("cn={cn},o=Lucent")).unwrap(),
        [
            ("objectClass", "top"),
            ("objectClass", "person"),
            ("objectClass", "organizationalPerson"),
            ("objectClass", "definityUser"),
            ("objectClass", "messagingUser"),
            ("cn", cn),
            ("sn", "Person"),
            ("definityExtension", ext),
            ("roomNumber", "R-0"),
            ("mpMailbox", ext),
            ("mpClassOfService", "standard"),
        ],
    )
}

/// The first failed leg ends the fan-out: a hire whose PBX leg fails (transiently, breaker still closed) must not create
/// the mailbox on the platform leg behind it — the directory add aborts and,
/// with saga undo off, nothing would ever remove that orphan.
#[test]
fn failed_leg_ends_the_fan_out_at_every_worker_count() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(mp.clone(), "*")
        .with_retry_policy(RetryPolicy::none())
        .with_breaker_policy(BreakerPolicy {
            degraded_after: 1_000,
            offline_after: 1_000,
            ..BreakerPolicy::default()
        })
        .with_fault_plan("pbx-west", FaultPlan::flaky(1))
        .build()
        .expect("build");
    let mailboxes = mp.len();
    let errors = system.browse_errors().expect("browse").len();

    let err = system
        .directory()
        .add(station_and_mailbox("Hire One", "1001"))
        .expect_err("the PBX leg fails, so the update aborts");
    assert!(err.to_string().contains("pbx-west"), "{err}");
    system.settle();

    assert_eq!(
        mp.len(),
        mailboxes,
        "the platform leg ran after the PBX leg failed"
    );
    assert_eq!(switch.len(), 0);
    assert!(system.wba().person("Hire One").unwrap().is_none());
    assert_eq!(
        system.browse_errors().expect("browse").len(),
        errors + 1,
        "one error-log row per aborted update"
    );
    system.shutdown();
}

/// A clock that records which threads read it. Time itself never moves.
#[derive(Default)]
struct ReaderNames(Mutex<BTreeSet<Option<String>>>);

impl Clock for ReaderNames {
    fn now_ns(&self) -> u64 {
        let name = std::thread::current().name().map(str::to_string);
        self.0.lock().unwrap().insert(name);
        0
    }
}

/// An update creates no thread and hands off to none: every clock read of
/// a three-device deployment under mixed updates (the trigger's fire stamp,
/// the span's stage marks around every device leg, the relay's timing)
/// comes from the issuing thread, a DDU relay or the recovery monitor —
/// never from a per-update or pooled thread.
#[test]
fn an_update_creates_no_thread() {
    let me = std::thread::current()
        .name()
        .expect("the test harness names its threads")
        .to_string();
    let readers = Arc::new(ReaderNames::default());
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let east = Arc::new(PbxStore::new("pbx-east", DialPlan::with_prefix("2", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "1???")
        .add_pbx(east.clone(), "2???")
        .add_msgplat(mp.clone(), "*")
        .with_clock(readers.clone())
        .build()
        .expect("build");
    let wba = system.wba();
    let dir = system.directory();
    for i in 0..12 {
        let cn = format!("Person {i:02}");
        let (first, second) = if i % 2 == 0 { ("1", "2") } else { ("2", "1") };
        dir.add(station_and_mailbox(&cn, &format!("{first}{i:03}")))
            .expect("hire");
        wba.assign_room(&cn, "R-9").expect("move");
        // Renumber across switches: delete at one PBX, add at the other.
        wba.set_extension(&cn, &format!("{second}{i:03}"))
            .expect("renumber");
        if i % 3 == 0 {
            wba.rename_person(&cn, &format!("Renamed {i:02}"))
                .expect("rename");
        }
        if i % 3 == 1 {
            wba.remove_person(&cn).expect("remove");
        }
    }
    // One device-originated update through a relay as well.
    pbx::ossi::execute(&west, "change station 1005 room R-7").expect("craft change");
    system.settle();
    assert_eq!(west.len() + east.len(), 8);
    assert_eq!(mp.len(), 8);

    let seen = readers.0.lock().unwrap().clone();
    for expected in [me.as_str(), "ddu-relay-pbx-west"] {
        assert!(
            seen.contains(&Some(expected.to_string())),
            "`{expected}` never read the clock: {seen:?}"
        );
    }
    for name in &seen {
        let name = name
            .as_deref()
            .unwrap_or_else(|| panic!("an unnamed thread read the clock: {seen:?}"));
        assert!(
            name == me || name.starts_with("ddu-relay-") || name == "device-recovery-monitor",
            "unexpected thread `{name}` on the update path: {seen:?}"
        );
    }
    system.shutdown();
}
