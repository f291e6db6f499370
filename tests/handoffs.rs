//! How often each thread family gives up its CPU per operation, counted
//! rather than timed: voluntary context switches per op, per thread
//! family, read from this process's own `/proc/self/task/*/status`, on
//! three paths of a served, durable deployment with a PBX and the
//! messaging platform — a point search over the wire, a modify that fans
//! out to the switch, and a craft-terminal change through to its directory
//! commit — against committed ceilings. Each switch is a hand-off (a
//! thread that parks until another wakes it), so a hop added anywhere on
//! a path reads as one or two more switches per op in some family, where
//! a timing would drown it in the host's noise.
//!
//! The modify is gated under `FsyncPolicy::Never`, so that the fsync's own
//! sleeps do not count; its `Group` figures are printed, not gated.
//!
//! A binary of its own with one test, so the count sees this deployment's
//! threads and nobody else's. Linux only: that is where `/proc` is. Run it
//! in release too (CI does).
#![cfg(target_os = "linux")]

use ldap::client::TcpDirectory;
use ldap::entry::Modification;
use ldap::{Directory, Dn};
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use pbx::{DialPlan, Store as PbxStore};
use std::sync::Arc;

/// The thread families counted: the calling thread (the client, or the
/// craft terminal), the wire server's loop and its workers, the DDU relays
/// and the recovery monitor.
const FAMILIES: [&str; 5] = [
    "client",
    "ldap-event",
    "ldap-wire-*",
    "ddu-relay-*",
    "device-recovery",
];

/// The family of the thread named `comm` (the kernel keeps the first 15
/// bytes of a name), if it is one of the counted ones.
fn family(comm: &str) -> Option<usize> {
    (1..FAMILIES.len()).find(|&f| {
        let prefix = FAMILIES[f].trim_end_matches('*');
        comm.starts_with(prefix)
    })
}

fn voluntary(status: &str) -> u64 {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    line.map_or(0, |n| n.trim().parse().expect("a count"))
}

/// Voluntary switches so far, per family.
fn switches() -> [u64; 5] {
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap_or_default();
    let mut out = [0; FAMILIES.len()];
    out[0] = voluntary(&read("/proc/thread-self/status".into()));
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let task = task.expect("task").path();
        if let Some(f) = family(read(task.join("comm")).trim_end()) {
            out[f] += voluntary(&read(task.join("status")));
        }
    }
    out
}

type PerOp = [f64; 5];

/// Switches per op, per family, of `ops` runs of `op`.
fn per_op(ops: usize, mut op: impl FnMut(usize)) -> PerOp {
    let before = switches();
    (0..ops).for_each(&mut op);
    let after = switches();
    std::array::from_fn(|f| (after[f] - before[f]) as f64 / ops as f64)
}

fn show(path: &str, counts: &PerOp) {
    let cells: Vec<String> = (FAMILIES.iter().zip(counts))
        .map(|(family, n)| format!("{family} {n:.2}"))
        .collect();
    println!("{path:<28} {}", cells.join(", "));
}

/// Fail if any family is over its ceiling on `path`.
fn gate(path: &str, counts: &PerOp, ceilings: &PerOp) {
    show(path, counts);
    for ((family, n), ceiling) in FAMILIES.iter().zip(counts).zip(ceilings) {
        assert!(
            n <= ceiling,
            "{path}: {n:.2} voluntary switches per op in `{family}` (ceiling {ceiling})"
        );
    }
}

const PEOPLE: usize = 100;

fn cn(i: usize) -> String {
    format!("Pat Subscriber{i:03}")
}

fn dn(i: usize) -> Dn {
    Dn::parse(&format!("cn={},o=Lucent", cn(i))).expect("dn")
}

fn ext(i: usize) -> String {
    format!("{}", 1000 + i)
}

/// A durable deployment with one switch and the platform, `PEOPLE` people
/// with a station and a mailbox each, served over TCP.
fn deployment(policy: FsyncPolicy, state: &std::path::Path) -> (MetaComm, Arc<PbxStore>) {
    let _ = std::fs::remove_dir_all(state);
    let switch = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(Arc::new(msgplat::Store::new("mp")), "*")
        .with_durability(state)
        .with_fsync_policy(policy)
        .build()
        .expect("build");
    let wba = system.wba();
    for i in 0..PEOPLE {
        let surname = format!("Subscriber{i:03}");
        wba.add_person_with_extension(&cn(i), &surname, &ext(i), "2B-401")
            .expect("hire");
        wba.assign_mailbox(&cn(i), &ext(i), "standard")
            .expect("mailbox");
    }
    system.settle();
    (system, switch)
}

/// A one-attribute modify that fans out to the switch, `ops` times.
fn modifies(client: &TcpDirectory, ops: usize) -> PerOp {
    per_op(ops, |i| {
        let room = Modification::replace("roomNumber", vec![format!("R-{i:04}")]);
        client.modify(&dn(i % PEOPLE), &[room]).expect("modify");
    })
}

/// Ceilings per family, in `FAMILIES` order. A family that works on a
/// path gets its reading plus half a hand-off; one that only idles on it
/// (a relay or the monitor waking from its timed wait) gets 0.75, which
/// still catches a hand-off added to it. Measured on 2 vCPUs, release
/// (debug reads the same but for more idle wake-ups):
/// - point search: client 1.0, `ldap-event` 2.0, `ldap-wire-*` 1.0, and
///   the relays and the monitor 0.02 and 0.00;
/// - fan-out modify: client 1.0, `ldap-event` 2.0, `ldap-wire-*` 1.0,
///   `ddu-relay-*` 0.03. A relay has no work on this path; it made about
///   2 switches a modify while every write MetaComm made to a device came
///   back to it as an echo to drop and a nap;
/// - craft change: the craft terminal 1.0 (its `settle` waits for the
///   relay), `ddu-relay-*` 1.01 (it parks until the next change), the rest
///   idle.
const SEARCH_CEILINGS: PerOp = [1.5, 2.5, 1.5, 0.75, 0.75];
const MODIFY_CEILINGS: PerOp = [1.5, 2.5, 1.5, 0.75, 0.75];
const CRAFT_CEILINGS: PerOp = [1.5, 0.75, 0.75, 1.5, 0.75];

#[test]
fn hand_offs_per_op_stay_under_their_ceilings() {
    let state = std::env::temp_dir().join(format!("metacomm-handoffs-{}", std::process::id()));
    let (system, switch) = deployment(FsyncPolicy::Never, &state);
    let mut server = system.serve("127.0.0.1:0").expect("serve");
    let client = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    // Every thread of the pool has served once before counting starts.
    for i in 0..PEOPLE {
        assert!(client.get(&dn(i)).expect("read").is_some());
    }

    let searches = per_op(2_000, |i| {
        assert!(client.get(&dn(i % PEOPLE)).expect("read").is_some());
    });
    gate("point search", &searches, &SEARCH_CEILINGS);

    modifies(&client, 100);
    gate(
        "fan-out modify (Never)",
        &modifies(&client, 500),
        &MODIFY_CEILINGS,
    );

    let crafts = per_op(200, |i| {
        let change = format!("change station {} room C-{i:04}", ext(i % PEOPLE));
        pbx::ossi::execute(&switch, &change).expect("craft change");
        system.settle();
    });
    let last = system.wba().person(&cn(199 % PEOPLE)).expect("read");
    assert_eq!(
        last.expect("materialized").first("roomNumber"),
        Some("C-0199")
    );
    gate("craft change to commit", &crafts, &CRAFT_CEILINGS);
    drop(client);
    server.shutdown();
    system.shutdown();
    drop(system);

    // The same modify with the group commit: each fsync's sleeps count.
    let (system, _) = deployment(FsyncPolicy::Group, &state);
    let mut server = system.serve("127.0.0.1:0").expect("serve");
    let client = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    modifies(&client, 100);
    show("fan-out modify (Group)", &modifies(&client, 500));
    drop(client);
    server.shutdown();
    system.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}
