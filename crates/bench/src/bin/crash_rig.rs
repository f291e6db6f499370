//! Crash-recovery smoke rig: a separate process CI can `kill -9` mid-load.
//!
//! ```text
//! crash_rig load <dir>     # build a durable deployment, churn forever
//! crash_rig verify <dir>   # restart over <dir>, check the committed log
//! ```
//!
//! `load` appends one line to `<dir>/committed.log` (write + fdatasync)
//! *after* each update call returns — i.e. after the group-commit barrier
//! acknowledged it as durable. The log is therefore a subset of the
//! acknowledged updates at any kill point (modulo a torn final line, which
//! `verify` discards). `verify` restarts the meta-directory over the same
//! state directory and asserts every logged update is visible in the
//! recovered DIT: adds exist, and each person's room index is at least the
//! last acknowledged one (rooms are assigned in increasing order per
//! person, so recovery may only be *ahead* of the log, never behind).

use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use pbx::{DialPlan, Store as PbxStore};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

fn build(dir: &Path) -> (MetaComm, Arc<PbxStore>) {
    let west = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "1???")
        .with_durability(dir.to_path_buf())
        .with_fsync_policy(FsyncPolicy::Group)
        .build()
        .expect("build durable system");
    // Each process gets a fresh in-memory switch, but a real switch keeps
    // its stations across a meta-directory restart — recreate them for
    // every recovered person so updates don't hit "no station".
    let wba = system.wba();
    for e in wba.find("(objectClass=person)").expect("search") {
        if let Some(ext) = e.first("definityExtension") {
            let rec = pbx::Record::from_pairs([
                ("Extension", ext),
                ("Name", "P, Person"),
                ("Room", e.first("roomNumber").unwrap_or("2B")),
                ("CoveragePath", "1"),
            ]);
            let _ = west.add(rec, pbx::Channel::Metacomm);
        }
    }
    (system, west)
}

fn load(dir: &Path) -> ! {
    std::fs::create_dir_all(dir).expect("mkdir");
    let (system, _west) = build(dir);
    let wba = system.wba();
    // Resume after a previous (killed) load: pick the counters up from the
    // committed log so adds don't collide and room ops stay increasing.
    let (mut people, mut op) = (0usize, 0u64);
    if let Ok(log) = std::fs::read_to_string(dir.join("committed.log")) {
        for line in log.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
            match line.trim_end().split(' ').collect::<Vec<_>>().as_slice() {
                ["add", idx] => people = people.max(idx.parse::<usize>().expect("idx") + 1),
                ["room", _, o] => op = op.max(o.parse().expect("op")),
                other => panic!("malformed committed.log line: {other:?}"),
            }
        }
        // A torn line means its op may or may not have been acknowledged;
        // skip well past it so the next room index is unambiguously newer.
        op += 1;
    }
    let mut committed = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("committed.log"))
        .expect("open committed.log");
    // Churn until killed: grow the population to 500, then keep
    // reassigning rooms in increasing op order.
    loop {
        op += 1;
        if people < 500 && (people == 0 || op % 3 == 0) {
            let cn = format!("Person {people:04}");
            match wba.add_person_with_extension(&cn, "P", &format!("1{:03}", people % 1000), "2B") {
                Ok(_) => {}
                // A kill between the previous run's ack and its log write
                // leaves the person in the DIT (and its station on the
                // switch) but not in the log; the retried add is then a
                // no-op, not a failure.
                Err(e) if e.to_string().contains("already") => {}
                Err(e) => panic!("add: {e}"),
            }
            committed
                .write_all(format!("add {people}\n").as_bytes())
                .expect("log");
            people += 1;
        } else {
            let who = (op as usize * 7919) % people;
            wba.assign_room(&format!("Person {who:04}"), &format!("R-{op}"))
                .expect("room");
            committed
                .write_all(format!("room {who} {op}\n").as_bytes())
                .expect("log");
        }
        // The update call already passed the durability barrier; persist
        // the acknowledgment record itself before taking the next op.
        committed.sync_data().expect("sync committed.log");
    }
}

fn verify(dir: &Path) {
    let log = std::fs::read_to_string(dir.join("committed.log")).expect("read committed.log");
    let mut max_add: Option<usize> = None;
    let mut last_room: HashMap<usize, u64> = HashMap::new();
    let mut acked = 0usize;
    for line in log.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn final line: the op after it was never logged
        }
        let mut parts = line.trim_end().split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("add"), Some(idx), None) => {
                max_add = Some(idx.parse().expect("person index"));
            }
            (Some("room"), Some(who), Some(op)) => {
                last_room.insert(who.parse().expect("who"), op.parse().expect("op"));
            }
            other => panic!("malformed committed.log line: {other:?}"),
        }
        acked += 1;
    }

    let (system, _west) = build(dir);
    let report = system.recovery_report().expect("durable deployment");
    let wba = system.wba();
    let mut failures = 0usize;
    if let Some(max) = max_add {
        for i in 0..=max {
            if wba
                .person(&format!("Person {i:04}"))
                .expect("search")
                .is_none()
            {
                eprintln!("FAIL: acknowledged add of Person {i:04} lost");
                failures += 1;
            }
        }
    }
    for (who, op) in &last_room {
        let person = wba
            .person(&format!("Person {who:04}"))
            .expect("search")
            .unwrap_or_else(|| panic!("Person {who:04} missing"));
        let room = person.first("roomNumber").expect("room attr").to_string();
        let recovered: u64 = room
            .strip_prefix("R-")
            .map(|n| n.parse().expect("room op"))
            .unwrap_or(0); // initial "2B" room: no reassignment recovered
        if recovered < *op {
            eprintln!("FAIL: Person {who:04} room {room}, acknowledged op {op} lost");
            failures += 1;
        }
    }
    println!(
        "crash_rig verify: {acked} acknowledged ops checked, {failures} lost; \
         recovery replayed {} wal records over a {}-entry snapshot in {} µs",
        report.wal_records_applied, report.snapshot_entries, report.replay_micros
    );
    if let Some(kb) = bench::rss::peak_rss_kb() {
        println!(
            "crash_rig verify: peak rss {:.1} MB (VmHWM)",
            kb as f64 / 1024.0
        );
    }
    system.shutdown();
    if failures > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, dir] if cmd == "load" => load(Path::new(dir)),
        [cmd, dir] if cmd == "verify" => verify(Path::new(dir)),
        _ => {
            eprintln!("usage: crash_rig <load|verify> <state-dir>");
            std::process::exit(2);
        }
    }
}
