//! One thread per device on the DDU path, a wire server whose threads do
//! not scale with its connections, and none left after shutdown — counted
//! from `/proc/self/task/*/comm`, not timed.
//!
//! A binary of its own with one test, so the census sees this deployment's
//! threads and nobody else's. Linux only: that is where the census is.
#![cfg(target_os = "linux")]

use ldap::client::TcpDirectory;
use metacomm::{BreakerPolicy, MetaCommBuilder};
use pbx::{DialPlan, Store as PbxStore};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The name of every thread of this process (as the kernel keeps it: the
/// first 15 bytes).
fn census() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    names.sort();
    names
}

fn family<'a>(names: &'a [String], prefix: &str) -> Vec<&'a str> {
    let of_family = names.iter().filter(|n| n.starts_with(prefix));
    of_family.map(String::as_str).collect()
}

/// The census once `settled` accepts it — taken again, for a bounded
/// while, when it does not: the kernel's list trails the program by a
/// moment at both ends of a thread's life.
fn census_when(settled: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = census();
        if settled(&names) || Instant::now() > deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The census once it reads `expected` threads. A joined thread can stay
/// listed for a moment (the join returns when the kernel clears the
/// thread's tid, just before it unlinks the task), so a census that is
/// still high is taken again, and never sooner than the threads are gone.
fn census_of(expected: usize) -> Vec<String> {
    census_when(|names| names.len() <= expected)
}

#[test]
fn one_relay_thread_per_device_and_none_left_after_shutdown() {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let east = Arc::new(PbxStore::new("pbx-east", DialPlan::with_prefix("2", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let before = census();

    for (round, surname) in [(1, "Doe"), (2, "Roe"), (3, "Poe")] {
        let system = MetaCommBuilder::new("o=Lucent")
            .add_pbx(west.clone(), "1???")
            .add_pbx(east.clone(), "2???")
            .add_msgplat(mp.clone(), "*")
            .build()
            .expect("build");
        // One change at a craft terminal and one at the console, relayed
        // all the way into the directory. pbx-east never speaks at all: its
        // relay has to stop on its inbox's close alone.
        let ext = format!("1{round:03}");
        let craft = format!("add station {ext} name \"{surname}, John\" room 2B-401");
        pbx::ossi::execute(&west, &craft).expect("craft add");
        system.settle();
        let console = format!("add subscriber {ext} name \"{surname}, John\"");
        msgplat::admin::execute(&mp, &console).expect("console add");
        system.settle();
        let relay = system.relay_stats();
        assert_eq!(relay.ddus.load(Ordering::SeqCst), 2, "round {round}");
        assert_eq!(relay.errors.load(Ordering::SeqCst), 0, "round {round}");
        let person = format!("cn=John {surname},o=Lucent");
        let entry = ldap::Directory::get(&*system.dit(), &ldap::Dn::parse(&person).expect("dn"))
            .expect("read")
            .unwrap_or_else(|| panic!("round {round}: {person} was not materialized"));
        assert_eq!(entry.first("definityExtension"), Some(ext.as_str()));
        assert_eq!(entry.first("mpMailbox"), Some(ext.as_str()));

        let running = census();
        assert_eq!(
            family(&running, "ddu-relay-"),
            ["ddu-relay-mp", "ddu-relay-pbx-e", "ddu-relay-pbx-w"],
            "round {round}: one relay thread per device"
        );
        for gone in ["pbx-filter-", "mp-filter-", "um-worker-", "device-recover"] {
            assert!(
                family(&running, gone).is_empty(),
                "round {round}: the `{gone}` thread family is back: {running:?}"
            );
        }

        // Served over TCP, the deployment runs one loop thread and its
        // worker pool (no pool when it resolves to one), at 1 connection
        // and at 32 alike, and no other thread of the `ldap-` family.
        let mut server = system.serve("127.0.0.1:0").expect("serve");
        let addr = server.addr().to_string();
        let pool = match server.wire_workers() {
            1 => 0,
            n => n,
        };
        let mut wire: Vec<String> = (0..pool).map(|i| format!("ldap-wire-{i}")).collect();
        wire.insert(0, "ldap-event".to_string());
        let mut clients = Vec::new();
        for connections in [1, 32] {
            while clients.len() < connections {
                clients.push(TcpDirectory::connect(&addr).expect("connect"));
            }
            for client in &clients {
                let read = ldap::Directory::get(client, &ldap::Dn::parse(&person).expect("dn"));
                assert!(read.expect("read over the wire").is_some());
            }
            // A thread names itself when it first runs: a pool worker no
            // request has reached yet is still listed under its spawner's
            // name. A thread per connection would stay for as long as
            // `clients` holds its connection, so waiting cannot hide one.
            let running = census_when(|names| family(names, "ldap-") == wire);
            assert_eq!(
                family(&running, "ldap-"),
                wire,
                "round {round}: wire threads at {connections} connection(s)"
            );
        }
        drop(clients);
        server.shutdown();

        system.shutdown();
        let after = census_of(before.len());
        assert_eq!(
            after, before,
            "round {round}: shutdown left threads resident"
        );
        // The devices keep their records from round to round; only the
        // deployment goes.
        drop(system);
    }
    assert_eq!((west.len(), east.len(), mp.len()), (3, 0, 3));

    // Last round: a craft terminal that keeps changing a station across the
    // shutdown, with a probe interval of an hour. The busy relay stops once
    // it has finished the change in hand, whatever is still waiting in its
    // inbox, so the shutdown returns while the craft is still typing.
    const CAP: usize = 20_000;
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "1???")
        .with_breaker_policy(BreakerPolicy {
            probe_interval: Duration::from_secs(3600),
            ..BreakerPolicy::default()
        })
        .build()
        .expect("build");
    let (changes, stop) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let craft = {
        let (changes, stop) = (changes.clone(), stop.clone());
        std::thread::spawn(move || {
            for i in 0..CAP {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let change = format!("change station 1001 room R{i}");
                pbx::ossi::execute(&west, &change).expect("craft change");
                changes.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let relaying = Instant::now() + Duration::from_secs(5);
    while system.relay_stats().ddus.load(Ordering::SeqCst) < 10 && Instant::now() < relaying {
        std::thread::sleep(Duration::from_millis(1));
    }
    system.shutdown();
    let typed = changes.load(Ordering::SeqCst);
    assert!(
        typed < CAP,
        "shutdown waited for the craft's {typed} changes"
    );
    stop.store(true, Ordering::SeqCst);
    craft.join().expect("craft thread");
    drop(system);
    let after = census_of(before.len());
    assert_eq!(after, before, "last round: shutdown left threads resident");
}
