//! The paper's testable claims (§4-§5), one test each: E1-E12 of
//! EXPERIMENTS.md, with the claim-to-module map in DESIGN.md §3. Each test
//! asserts what its claim decides — counts, states, convergence, lost
//! updates, error codes — and none asserts a duration: the timings of
//! these paths are `bench/`'s per-layer metrics. A test prints its table,
//! which `cargo test --release --test paper_claims -- --nocapture
//! --test-threads=1` shows.

use bench::workload::{populate, preload_devices, Workload};
use bench::{rig, Rig};
use ldap::client::TcpDirectory;
use ldap::dit::Dit;
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::proto::{LdapMessage, ProtocolOp};
use ldap::{Directory, Filter, ResultCode, Scope};
use lexpress::{library, Closure, CompileError, Engine, Image, OpKind, TargetOp, UpdateDescriptor};
use metacomm::schema::{child_entry_schema, integrated_schema};
use metacomm::{
    BreakerPolicy, FaultPlan, MetaComm, MetaCommBuilder, MetaError, RecoveryOutcome, RetryPolicy,
};
use pbx::{DialPlan, Store as PbxStore};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Print an experiment's table under its title.
fn print_table(title: &str, table: &str) {
    println!("{title}\n{}\n", table.trim_end());
}

/// The room a person's station has on its switch.
fn device_room(r: &Rig, ext: &str) -> Option<String> {
    r.switch_for(ext)
        .get(ext)
        .and_then(|s| s.get("Room").map(str::to_string))
}

/// The room the directory holds for a person.
fn directory_room(system: &MetaComm, cn: &str) -> Option<String> {
    system
        .wba()
        .person(cn)
        .expect("read")
        .and_then(|e| e.first("roomNumber").map(str::to_string))
}

/// E1 (Fig. 1, §4.4): an LDAP update reaches every device it concerns
/// before the client call returns, and no other: partitioning skips the
/// switches that do not own the extension, so an update costs one device
/// apply however many devices are integrated. The latency is `bench/`'s
/// `um.total_us`.
#[test]
fn e1_an_update_reaches_its_devices_before_the_call_returns() {
    const PEOPLE: usize = 50;
    let mut table = format!(
        "{:<10} {:>8} {:>8} {:>8} {:>9}\n",
        "devices", "updates", "applies", "skips", "stations"
    );
    for (n_pbx, with_mp) in [(1, false), (1, true), (2, true), (4, true)] {
        let r = rig(n_pbx, with_mp);
        let devices = n_pbx + usize::from(with_mp);
        let wba = r.system.wba();
        let stats = r.system.um_stats();
        let (applies_before, skips_before) = (stats.device_ops.get(), stats.skipped.get());
        let people = Workload::new(42).people(PEOPLE, n_pbx);
        for p in &people {
            // No settle between a call and its check: when the call has
            // returned, the fan-out is over.
            wba.add_person_with_extension(&p.cn, &p.sn, &p.extension, &p.room)
                .expect("add");
            assert_eq!(device_room(&r, &p.extension), Some(p.room.clone()));
            wba.assign_room(&p.cn, "9Z-999").expect("modify");
            assert_eq!(device_room(&r, &p.extension).as_deref(), Some("9Z-999"));
        }
        let applies = stats.device_ops.get() - applies_before;
        let skips = stats.skipped.get() - skips_before;
        let updates = 2 * PEOPLE as u64;
        assert_eq!(applies, updates, "{devices} devices: one apply per update");
        assert_eq!(
            skips,
            updates * (devices as u64 - 1),
            "{devices} devices: every other device skipped"
        );
        let stations: usize = r.pbxes.iter().map(|s| s.len()).sum();
        assert_eq!(
            stations, PEOPLE,
            "one station per person, on its own switch"
        );
        writeln!(
            table,
            "{:<10} {:>8} {:>8} {:>8} {:>9}",
            format!("{n_pbx}pbx{}", if with_mp { "+mp" } else { "" }),
            updates,
            applies,
            skips,
            stations
        )
        .unwrap();
        r.system.shutdown();
    }
    print_table("E1 — update propagation vs. integrated devices", &table);
}

/// E2 (§4.4): a burst of craft-terminal changes (DDUs) and directory
/// updates to the same entries converges, whatever the DDU share: every DDU
/// is relayed once and reapplied at its switch as a conditional op, which
/// puts device and directory in one order. A DDU and a directory update to
/// different attributes of one entry, fired together, both survive.
#[test]
fn e2_concurrent_device_and_directory_updates_converge() {
    const PEOPLE: usize = 20;
    const ROUNDS: usize = 30;
    let mut table = format!(
        "{:>9} {:>8} {:>6} {:>10} {:>9}\n",
        "ddu share", "updates", "ddus", "reapplied", "diverged"
    );
    for ddu_share in [0.0, 0.1, 0.3, 0.5] {
        let r = rig(1, true);
        let mut w = Workload::new(7);
        let people = w.people(PEOPLE, 1);
        populate(&r, &people);
        let wba = r.system.wba();
        let (relay, um) = (r.system.relay_stats(), r.system.um_stats());
        let (ddus_before, reapplied_before) = (relay.ddus.get(), um.reapplied.get());
        let mut crafts = 0;
        for round in 0..ROUNDS {
            let p = &people[w.index(people.len())];
            let room = format!("R{round:03}");
            if w.flip(ddu_share) {
                pbx::ossi::execute(
                    r.switch_for(&p.extension),
                    &format!("change station {} room {room}", p.extension),
                )
                .expect("craft");
                crafts += 1;
            } else {
                wba.assign_room(&p.cn, &room).expect("wba");
            }
        }
        r.system.settle();
        let diverged = people
            .iter()
            .filter(|p| device_room(&r, &p.extension) != directory_room(&r.system, &p.cn))
            .count();
        let ddus = relay.ddus.get() - ddus_before;
        let reapplied = um.reapplied.get() - reapplied_before;
        writeln!(
            table,
            "{:>8.0}% {:>8} {:>6} {:>10} {:>9}",
            ddu_share * 100.0,
            ROUNDS,
            ddus,
            reapplied,
            diverged
        )
        .unwrap();
        assert_eq!(diverged, 0, "{ddu_share}: device and directory converge");
        assert_eq!(ddus, crafts, "{ddu_share}: every craft change relayed once");
        assert_eq!(reapplied, crafts, "{ddu_share}: one reapply per DDU");

        // A room change at the craft terminal while the directory assigns
        // a mailbox to the same person.
        let p = &people[0];
        let switch = r.switch_for(&p.extension).clone();
        let ext = p.extension.clone();
        let craft = std::thread::spawn(move || {
            pbx::ossi::execute(&switch, &format!("change station {ext} room 2Z-999"))
                .expect("craft");
        });
        wba.assign_mailbox(&p.cn, &p.extension, "executive")
            .expect("mailbox");
        craft.join().expect("craft thread");
        r.system.settle();
        let entry = wba.person(&p.cn).unwrap().expect("person");
        assert_eq!(entry.first("roomNumber"), Some("2Z-999"));
        assert_eq!(entry.first("mpMailbox"), Some(p.extension.as_str()));
        assert_eq!(device_room(&r, &p.extension).as_deref(), Some("2Z-999"));
        let mp = r.mp.as_ref().expect("platform");
        assert!(mp.get(&p.extension).is_some(), "mailbox on the platform");
        r.system.shutdown();
    }
    print_table(
        "E2 — convergence under concurrent DDU + LDAP updates",
        &table,
    );
}

/// E3 (§5.4): reapplying an update at the switch it came from is one
/// conditional device op. A blind re-add fails on the duplicate key and
/// needs a second op to recover. Through the whole system each DDU is
/// relayed once and reapplied once, before the directory shows it. The
/// device-side cost is `bench/`'s `devices.pbx_change_us`.
#[test]
fn e3_a_device_update_is_reapplied_once_as_a_conditional_op() {
    const DDUS: usize = 100;
    let store = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let filter = metacomm::filter::for_pbx(store.clone());
    let op = |conditional| TargetOp {
        kind: OpKind::Add,
        conditional,
        old_key: None,
        new_key: Some("9123".to_string()),
        attrs: Image::from_pairs([("Name", "Doe, John"), ("CoveragePath", "1")]),
        old_attrs: Image::new(),
    };
    filter.apply(&op(false)).expect("seed");
    let conditional = filter
        .apply(&op(true))
        .expect("a conditional add never fails");
    assert!(conditional.applied && conditional.reapplied);
    let collision = filter
        .apply(&op(false))
        .expect_err("a blind re-add collides");
    match &collision {
        MetaError::Device { repository, detail } => {
            assert_eq!(repository, "pbx-west");
            assert_eq!(
                *detail,
                pbx::PbxError::DuplicateStation("9123".into()).to_string()
            );
        }
        other => panic!("not the duplicate-key error: {other:?}"),
    }
    let recovery = filter.apply(&op(true)).expect("the recovery op");
    assert!(recovery.applied && recovery.reapplied);
    assert_eq!(store.len(), 1, "one station, whichever path");

    let r = rig(1, false);
    let people = Workload::new(3).people(1, 1);
    populate(&r, &people);
    let p = &people[0];
    let counts = || {
        (
            r.system.relay_stats().ddus.get(),
            r.system.um_stats().reapplied.get(),
        )
    };
    let mut last = counts();
    let (ddus_before, reapplied_before) = last;
    for i in 0..DDUS {
        let target = format!("T{i:03}");
        pbx::ossi::execute(
            r.switch_for(&p.extension),
            &format!("change station {} room {target}", p.extension),
        )
        .expect("craft");
        let start = Instant::now();
        while directory_room(&r.system, &p.cn).as_deref() != Some(target.as_str()) {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "DDU {i} never arrived"
            );
            std::thread::yield_now();
        }
        // Anything a DDU set off after its commit shows up in the next one's
        // count, or in the final one below.
        let now = counts();
        assert_eq!(
            now,
            (last.0 + 1, last.1 + 1),
            "DDU {i}: one relay and one conditional reapply"
        );
        last = now;
    }
    r.system.settle();
    assert_eq!(counts(), last, "nothing trails the last DDU");
    r.system.shutdown();

    let mut table = format!(
        "{:<32} {:>4}  outcome\n",
        "filter-level reapplication", "ops"
    );
    writeln!(
        table,
        "{:<32} {:>4}  reapplied",
        "  conditional modify (lexpress)", 1
    )
    .unwrap();
    writeln!(
        table,
        "{:<32} {:>4}  `{collision}`, then reapplied",
        "  naive add + error recovery", 2
    )
    .unwrap();
    writeln!(
        table,
        "\nfull DDU round trip: {} DDUs relayed, {} conditional reapplies",
        last.0 - ddus_before,
        last.1 - reapplied_before
    )
    .unwrap();
    print_table("E3 — reapplication (conditional update)", &table);
}

/// E4 (§4.4, §5.1): synchronization populates the directory from devices
/// that were there first, and a second pass over a consistent pair changes
/// nothing. It runs in isolation: an update issued while a device's sync
/// holds the LTAP quiesce waits, commits after the sync's last commit and
/// returns after it. The quiesce is per device session, so the isolation
/// arm has one switch. The sync rate is `bench/`'s `sync_records_per_s`.
#[test]
fn e4_synchronization_loads_devices_and_runs_in_isolation() {
    const SWITCHES: usize = 8;
    const STATIONS: usize = 1_000;
    const MAILBOXES: usize = 100;
    let r = rig(SWITCHES, true);
    let people = Workload::new(11).people(STATIONS, SWITCHES);
    preload_devices(&r, &people);
    let mp = r.mp.as_ref().expect("platform");
    for p in &people[..MAILBOXES] {
        mp.add(
            msgplat::record([
                ("Mailbox", p.extension.as_str()),
                ("Subscriber", &Workload::pbx_name(p)),
            ]),
            msgplat::Channel::Metacomm,
        )
        .expect("preload mailbox");
    }
    let load = r.system.synchronize_all().expect("initial load");
    assert_eq!(
        (load.added, load.repaired, load.cleared, load.failed),
        (STATIONS, MAILBOXES, 0, 0),
        "a person per station, enriched by their mailbox: {load:?}"
    );
    let wba = r.system.wba();
    let with_mailbox = wba.person(&people[0].cn).unwrap().expect("loaded");
    assert_eq!(
        with_mailbox.first("definityExtension"),
        Some(people[0].extension.as_str())
    );
    assert_eq!(
        with_mailbox.first("mpMailbox"),
        Some(people[0].extension.as_str())
    );
    let without = wba.person(&people[MAILBOXES].cn).unwrap().expect("loaded");
    assert!(!without.has_attr("mpMailbox"));
    let resync = r.system.synchronize_all().expect("resync");
    assert_eq!(
        (resync.added, resync.repaired, resync.cleared, resync.failed),
        (0, 0, 0, 0),
        "{resync:?}"
    );
    assert_eq!(resync.unchanged, STATIONS + MAILBOXES);
    r.system.shutdown();

    let isolation = sync_isolation();
    let mut table = format!(
        "{:>8} {:>9} {:>6} {:>9} {:>8}\n",
        "records", "pass", "added", "repaired", "unchanged"
    );
    for (pass, report) in [("initial", &load), ("resync", &resync)] {
        writeln!(
            table,
            "{:>8} {:>9} {:>6} {:>9} {:>8}",
            STATIONS + MAILBOXES,
            pass,
            report.added,
            report.repaired,
            report.unchanged
        )
        .unwrap();
    }
    writeln!(table, "\n{isolation}").unwrap();
    print_table(
        "E4 — synchronization: initial load, resync, isolation",
        &table,
    );
}

/// The isolation arm of E4: the sync is held inside its first commit until
/// a writer has been let go and has had time to reach the gateway, so the
/// writer's update is issued while the quiesce is in force. Returns the
/// table line.
fn sync_isolation() -> String {
    const STATIONS: usize = 50;
    let r = rig(1, false);
    preload_devices(&r, &Workload::new(12).people(STATIONS, 1));
    let gateway_updates = r.system.directory().stats().updates.clone();
    let updates_before = gateway_updates.get();
    // Every commit in sequence order, with the number of ordinary updates
    // the gateway had let through at the time.
    let commits: Arc<Mutex<Vec<(u64, Dn, u64)>>> = Arc::default();
    let writer_go = Arc::new(Barrier::new(2));
    {
        let (commits, writer_go) = (commits.clone(), writer_go.clone());
        r.system.dit().observe(move |rec| {
            let first = {
                let mut c = commits.lock().unwrap();
                c.push((rec.seq, rec.dn.clone(), gateway_updates.get()));
                c.len() == 1
            };
            if first {
                writer_go.wait();
                // Nothing signals that the writer is parked at the gate, so
                // give it time to get there. A working quiesce holds it
                // however long this is; a broken one lets it commit now.
                std::thread::sleep(Duration::from_millis(50));
            }
        });
    }
    let late = Dn::parse("cn=Late Arrival,o=Lucent").unwrap();
    let writer = {
        let (wba, commits) = (r.system.wba(), commits.clone());
        std::thread::spawn(move || {
            writer_go.wait();
            let issued_after = commits.lock().unwrap().len();
            wba.add_person_with_extension("Late Arrival", "Arrival", "1999", "2B")
                .expect("the update applies once the quiesce lifts");
            let returned_after = commits.lock().unwrap().len();
            (issued_after, returned_after)
        })
    };
    let load = r.system.synchronize_all().expect("sync");
    let (issued_after, returned_after) = writer.join().expect("writer");
    r.system.shutdown();
    assert_eq!(load.added, STATIONS);

    assert!(
        (1..STATIONS).contains(&issued_after),
        "the update was issued after {issued_after} of the sync's {STATIONS} commits, \
         not during the sync"
    );
    let mut commits = commits.lock().unwrap().clone();
    commits.sort_by_key(|(seq, ..)| *seq);
    let late_at = commits
        .iter()
        .position(|(_, dn, _)| *dn == late)
        .expect("the update committed");
    assert_eq!(
        late_at,
        commits.len() - 1,
        "the update committed before the sync's last commit"
    );
    assert!(
        commits[..late_at]
            .iter()
            .all(|(.., through)| *through == updates_before),
        "an ordinary update passed the gateway while the sync held the quiesce"
    );
    assert_eq!(late_at, STATIONS, "the sync's adds, then the update");
    assert_eq!(
        returned_after,
        STATIONS + 1,
        "the update returned before the sync's commits were all in"
    );
    format!(
        "isolation: an update issued after sync commit {issued_after} of {STATIONS} \
         committed as commit {} and returned after all {STATIONS}",
        STATIONS + 1
    )
}

/// E5 (§5.5): reads never reach the Update Manager, whether they come in
/// process (library deployment) or over TCP (gateway deployment); each is
/// one pass-through read at the gateway, and each update one UM update.
/// What the gateway adds to a read is `bench/`'s `ltap.read_overhead_us`.
#[test]
fn e5_reads_never_reach_the_update_manager_in_either_deployment() {
    const PEOPLE: usize = 100;
    const READERS: usize = 4;
    const READS: usize = 200;
    const WRITES: usize = 50;
    let r = rig(1, false);
    let people = Workload::new(23).people(PEOPLE, 1);
    populate(&r, &people);
    let filter = Filter::parse("(&(objectClass=person)(definityExtension=1*))").unwrap();
    let gateway = r.system.directory();
    let suffix = r.system.suffix();
    let um_updates = || r.system.um_stats().updates.get();
    let gateway_reads = || gateway.stats().reads.get();
    let mut table = format!(
        "{:<22} {:>6} {:>10} {:>7} {:>11}\n",
        "deployment", "reads", "gw reads", "writes", "UM updates"
    );
    let mut row = |deployment: &str, reads: u64, writes: u64| {
        writeln!(
            table,
            "{deployment:<22} {READS:>6} {reads:>10} {WRITES:>7} {writes:>11}"
        )
        .unwrap();
    };

    // Library: concurrent in-process readers, then in-process updates.
    let (updates_before, reads_before) = (um_updates(), gateway_reads());
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..READS / READERS {
                    let hits = gateway.search(suffix, Scope::Sub, &filter, &[], 0);
                    assert_eq!(hits.expect("read").len(), PEOPLE);
                }
            });
        }
    });
    assert_eq!(um_updates(), updates_before, "library reads reached the UM");
    let reads = gateway_reads() - reads_before;
    assert_eq!(reads, READS as u64);
    let wba = r.system.wba();
    for (i, p) in people.iter().take(WRITES).enumerate() {
        wba.assign_room(&p.cn, &format!("L{i:03}")).expect("write");
    }
    let writes = um_updates() - updates_before;
    assert_eq!(writes, WRITES as u64);
    row("library (in-process)", reads, writes);

    // Gateway: one LDAP client over TCP.
    let mut server = r.system.serve("127.0.0.1:0").expect("serve");
    let client = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    let (updates_before, reads_before) = (um_updates(), gateway_reads());
    for _ in 0..READS {
        let hits = client.search(suffix, Scope::Sub, &filter, &[], 0);
        assert_eq!(hits.expect("read").len(), PEOPLE);
    }
    assert_eq!(um_updates(), updates_before, "TCP reads reached the UM");
    let reads = gateway_reads() - reads_before;
    assert_eq!(reads, READS as u64);
    for (i, p) in people.iter().take(WRITES).enumerate() {
        let dn = suffix.child(Rdn::new("cn", &p.cn));
        client
            .modify(&dn, &[Modification::set("roomNumber", format!("N{i:03}"))])
            .expect("write");
    }
    let writes = um_updates() - updates_before;
    assert_eq!(writes, WRITES as u64);
    row("gateway (TCP)", reads, writes);
    server.shutdown();
    r.system.shutdown();
    print_table("E5 — LTAP as gateway vs. bound-in library", &table);
}

/// E6 (§4.2): a mapping description compiles at run time, translates a
/// device record into the directory's terms, and the transitive closure
/// carries a change down a rule chain of any length; a cycle that would
/// never converge is rejected when it is compiled. Translation cost is
/// `bench/`'s `lexpress.translate_us`.
#[test]
fn e6_lexpress_compiles_translates_closes_and_rejects_divergent_cycles() {
    let src = library::pbx_mappings("pbx-west", "9???", "o=Lucent");
    let engine = Engine::from_source(&src).expect("the PBX mapping pair compiles");
    let record = Image::from_pairs([
        ("Extension", "9123"),
        ("Name", "Doe, John"),
        ("Room", "2B-401"),
        ("CoveragePath", "1"),
        ("Cor", "1"),
    ]);
    let top = engine
        .translate(
            "pbx-west_to_ldap",
            &UpdateDescriptor::add("9123", record, "pbx-west"),
        )
        .expect("translate");
    assert_eq!(top.kind, OpKind::Add);
    assert_eq!(top.new_key.as_deref(), Some("cn=John Doe,o=Lucent"));
    assert_eq!(top.attrs.first("definityExtension"), Some("9123"));
    assert_eq!(top.attrs.first("roomNumber"), Some("2B-401"));
    let mut table = format!(
        "translate one station add (device → LDAP): {:?} {}\n",
        top.kind,
        top.new_key.as_deref().unwrap_or_default()
    );

    writeln!(table, "\ntransitive closure: chain length sweep").unwrap();
    for len in [1usize, 2, 4, 8] {
        let rules: String = (0..len)
            .map(|i| format!("    map a{i} -> a{} : concat(a{i}, \"\");\n", i + 1))
            .collect();
        let closure = Closure::from_source(&format!(
            "mapping chain {{ source ldap; target ldap; key source dn; key target dn;\n{rules}}}"
        ))
        .expect("chain compiles");
        let mut old = Image::new();
        for i in 0..=len {
            old.set(format!("a{i}"), vec!["seed".into()]);
        }
        let mut new = old.clone();
        new.set("a0", vec!["changed".into()]);
        let mut desc = UpdateDescriptor::modify("k", old, new, "wba");
        closure.augment(&mut desc).expect("augment");
        let derived = (1..=len)
            .filter(|i| desc.new.first(&format!("a{i}")) == Some("changed"))
            .count();
        assert_eq!(derived, len, "the change reaches the end of the chain");
        writeln!(table, "  chain length {len:<2}  derived {derived}").unwrap();
    }

    Closure::from_source(&library::hub_rules()).expect("the hub rules pass cycle analysis");
    let bad = "mapping b { source l; target l; key source d; key target d; \
               map a -> b : concat(a, \"x\"); map b -> a : b; }";
    let err = Closure::from_source(bad).expect_err("a growing cycle never converges");
    assert!(
        matches!(err, CompileError::NonConvergentCycle { .. }),
        "{err:?}"
    );
    writeln!(
        table,
        "\nnon-convergent cycle rejected at compile time: true"
    )
    .unwrap();
    print_table("E6 — lexpress compile / translate / closure", &table);
}

/// E7 (§4.2): one logical modify becomes, per switch, the op its
/// partitioning constraint calls for — add, modify, delete or skip by which
/// of the old and new images it claims — so a phone-number change is a
/// delete at the old switch and an add at the new one.
#[test]
fn e7_partitioning_routes_each_update_per_switch() {
    let r = rig(2, false); // pbx-1 owns 1xxx, pbx-2 owns 2xxx
    let wba = r.system.wba();
    let skipped_before = r.system.um_stats().skipped.get();
    let mut table = format!(
        "{:<34} {:>6} {:>6} {:>8} {:>8}\n",
        "scenario (old → new)", "pbx-1", "pbx-2", "@pbx-1", "@pbx-2"
    );
    let mut step = |scenario: &str, expected: [&str; 2]| {
        r.system.settle();
        let trace = r.system.recent_traces().pop().expect("a trace");
        let routed: Vec<(&str, &str)> = trace
            .device_ops
            .iter()
            .map(|(device, kind, ..)| (device.as_str(), kind.as_str()))
            .collect();
        assert_eq!(
            routed,
            [("pbx-1", expected[0]), ("pbx-2", expected[1])],
            "{scenario}"
        );
        writeln!(
            table,
            "{scenario:<34} {:>6} {:>6} {:>8} {:>8}",
            r.pbxes[0].len(),
            r.pbxes[1].len(),
            expected[0],
            expected[1]
        )
        .unwrap();
    };

    wba.add_person_with_extension("John Doe", "Doe", "1100", "2B")
        .expect("add");
    step("create (none → 1xxx)", ["Add", "Skip"]);
    wba.assign_room("John Doe", "3F-100").expect("modify");
    step("room change (1xxx → 1xxx)", ["Modify", "Skip"]);
    wba.set_phone("John Doe", "+1 908 582 2200").expect("move");
    step("renumber (1xxx → 2xxx)", ["Delete", "Add"]);
    wba.add_person("Mail Only", "Only").expect("person");
    step("create, no extension (none)", ["Skip", "Skip"]);
    wba.assign_room("Mail Only", "1A-1").expect("modify");
    step("room change, no ext (none → none)", ["Skip", "Skip"]);

    assert!(r.pbxes[0].get("1100").is_none(), "gone from the old switch");
    let station = r.pbxes[1].get("2200").expect("on the new switch");
    assert_eq!(station.get("Name"), Some("Doe, John"));
    let entry = wba.person("John Doe").unwrap().expect("person");
    assert_eq!(
        entry.first("definityExtension"),
        Some("2200"),
        "the closure derived the extension from the number"
    );
    let skipped = r.system.um_stats().skipped.get() - skipped_before;
    assert_eq!(skipped, 6, "one skip per leg routed as skip");
    r.system.shutdown();
    print_table("E7 — partitioning-constraint routing", &table);
}

/// E8 (§5.1, §4.4): a crash between the ModifyRDN and the Modify of a
/// renaming DDU leaves the entry renamed with its old room, readable as
/// such, and logged; resynchronizing with the device repairs it. An update
/// the switch rejects aborts with `unwillingToPerform`, is logged under
/// `ou=errors` and alerts the administrator, and never reaches the
/// directory.
#[test]
fn e8_a_crash_inside_the_rename_pair_is_repaired_by_resync() {
    const TRIALS: usize = 5;
    let mut table = format!(
        "{:>6} {:>13} {:>7} {:>7} {:>9} {:>11}\n",
        "trial", "inconsistent", "alerts", "logged", "repaired", "consistent"
    );
    for t in 0..TRIALS {
        let r = rig(1, false);
        let wba = r.system.wba();
        let alerts = r.system.alerts();
        wba.add_person_with_extension("John Doe", "Doe", "1100", "OLD")
            .expect("seed");
        r.system.settle();

        r.system.inject_crash_between_pair();
        pbx::ossi::execute(
            &r.pbxes[0],
            &format!(r#"change station 1100 name "Doe, Jack" room NEW{t}"#),
        )
        .expect("craft");
        r.system.settle();
        assert!(wba.person("John Doe").unwrap().is_none(), "renamed away");
        let inconsistent = directory_room(&r.system, "Jack Doe");
        assert_eq!(
            inconsistent.as_deref(),
            Some("OLD"),
            "the Modify half is lost"
        );
        assert_eq!(r.system.relay_stats().injected_crashes.get(), 1);
        let alerted = alerts.try_iter().count();
        let logged = r.system.browse_errors().unwrap().len();
        assert_eq!((alerted, logged), (1, 1));

        let report = r.system.synchronize_device("pbx-1").expect("resync");
        assert_eq!(report.repaired, 1);
        let consistent = directory_room(&r.system, "Jack Doe");
        assert_eq!(consistent, Some(format!("NEW{t}")));
        writeln!(
            table,
            "{t:>6} {:>13} {alerted:>7} {logged:>7} {:>9} {:>11}",
            true, report.repaired, true
        )
        .unwrap();
        r.system.shutdown();
    }

    let r = rig(1, false);
    let wba = r.system.wba();
    let alerts = r.system.alerts();
    let err = wba
        .add_person_with_extension("Bad Person", "Person", "1x2z", "2B")
        .expect_err("the switch rejects a malformed extension");
    assert_eq!(err.code, ResultCode::UnwillingToPerform);
    assert!(wba.person("Bad Person").unwrap().is_none(), "aborted");
    let errors = r.system.browse_errors().unwrap();
    assert_eq!(errors.len(), 1);
    let text = errors[0].first("metacommErrorText").expect("error text");
    assert!(text.contains("pbx-1"), "{text}");
    let alerted = alerts.try_iter().count();
    assert_eq!(alerted, 1);
    r.system.shutdown();
    writeln!(
        table,
        "\ninvalid update: client error `{}`, aborted=true, errors logged={}, \
         admin alerts={alerted}",
        err.code,
        errors.len()
    )
    .unwrap();
    print_table(
        "E8 — failure injection: crash window + invalid updates",
        &table,
    );
}

/// E9 (§5.2): without multi-entry transactions, storing a person's device
/// data in a child entry leaves one torn person for every crash between
/// the two writes; the auxiliary-class design writes one entry and leaves
/// none, at the price of accepting a device class without its attribute.
#[test]
fn e9_auxiliary_classes_leave_no_torn_state() {
    const PERSONS: usize = 300;
    const CRASH_RATE: f64 = 0.10;
    let suffix = Dn::parse("o=Lucent").unwrap();
    let directory = |schema| {
        let dit = Dit::with_schema(Arc::new(schema));
        let org = Entry::with_attrs(
            suffix.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "organization"),
                ("o", "Lucent"),
            ],
        );
        Dit::add(&dit, org).expect("suffix");
        dit
    };
    let persons = |dit: &Dit| {
        let filter = Filter::parse("(objectClass=person)").unwrap();
        Dit::search(dit, &suffix, Scope::One, &filter, &[], 0).expect("search")
    };

    // The rejected design: the person, then a device child — two writes.
    let dit = directory(child_entry_schema());
    let mut w = Workload::new(99);
    let (mut child_ops, mut child_crashes) = (0, 0);
    for p in w.people(PERSONS, 1) {
        let person_dn = suffix.child(Rdn::new("cn", &p.cn));
        let person = Entry::with_attrs(
            person_dn.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", p.cn.as_str()),
                ("sn", p.sn.as_str()),
            ],
        );
        Dit::add(&dit, person).expect("person");
        child_ops += 1;
        if w.flip(CRASH_RATE) {
            child_crashes += 1; // the child write is lost
            continue;
        }
        let child = Entry::with_attrs(
            person_dn.child(Rdn::new("deviceName", "pbx-west")),
            [
                ("objectClass", "top"),
                ("objectClass", "deviceProfile"),
                ("deviceName", "pbx-west"),
                ("deviceKey", p.extension.as_str()),
            ],
        );
        Dit::add(&dit, child).expect("child");
        child_ops += 1;
    }
    let torn_children = persons(&dit)
        .iter()
        .filter(|p| {
            Dit::search(&dit, p.dn(), Scope::One, &Filter::match_all(), &[], 0)
                .map(|kids| kids.is_empty())
                .unwrap_or(true)
        })
        .count();

    // The paper's design: one atomic add per person, on the same schedule.
    let dit = directory(integrated_schema());
    let mut w = Workload::new(99);
    let (mut aux_ops, mut aux_crashes) = (0, 0);
    for p in w.people(PERSONS, 1) {
        let person = Entry::with_attrs(
            suffix.child(Rdn::new("cn", &p.cn)),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("objectClass", "definityUser"),
                ("cn", p.cn.as_str()),
                ("sn", p.sn.as_str()),
                ("definityExtension", p.extension.as_str()),
            ],
        );
        Dit::add(&dit, person).expect("person");
        aux_ops += 1;
        if w.flip(CRASH_RATE) {
            aux_crashes += 1; // there is no second write to lose
        }
    }
    let torn_aux = persons(&dit)
        .iter()
        .filter(|p| p.has_object_class("definityUser") && !p.has_attr("definityExtension"))
        .count();

    assert!(child_crashes > 0, "the schedule crashes");
    assert_eq!(aux_crashes, child_crashes, "one crash schedule for both");
    assert_eq!(torn_children, child_crashes, "one torn person per crash");
    assert_eq!(child_ops, 2 * PERSONS - child_crashes);
    assert_eq!((torn_aux, aux_ops), (0, PERSONS));

    // The anomaly §5.2 accepts: an off-the-shelf browser may create a
    // device class without its attribute.
    let anomaly = Entry::with_attrs(
        Dn::parse("cn=Browser Made,o=Lucent").unwrap(),
        [
            ("objectClass", "top"),
            ("objectClass", "person"),
            ("objectClass", "definityUser"),
            ("cn", "Browser Made"),
            ("sn", "Made"),
        ],
    );
    Dit::add(&dit, anomaly).expect("class without attribute is legal");

    let mut table = format!(
        "{:<26} {:>8} {:>9} {:>8} {:>12}\n",
        "design", "persons", "ldap ops", "crashes", "torn states"
    );
    for (design, ops, crashes, torn) in [
        (
            "child entry per device",
            child_ops,
            child_crashes,
            torn_children,
        ),
        ("auxiliary classes (paper)", aux_ops, aux_crashes, torn_aux),
    ] {
        writeln!(
            table,
            "{design:<26} {PERSONS:>8} {ops:>9} {crashes:>8} {torn:>12}"
        )
        .unwrap();
    }
    writeln!(
        table,
        "\nresidual §5.2 anomaly (class present, attribute absent) accepted: true"
    )
    .unwrap();
    print_table(
        "E9 — schema ablation: auxiliary classes vs. child entries",
        &table,
    );
}

/// E10 (§2, Fig. 2): the LDAP substrate — names normalize, filters match,
/// a subtree search returns exactly its matches, "it is straightforward to
/// move an arbitrary sub-tree", and a BER message survives the wire. The
/// costs are `bench/`'s `dit.point_search_us`, `filter.parse_us` and
/// `proto.*`.
#[test]
fn e10_the_ldap_substrate_searches_moves_and_encodes_exactly() {
    const PERSONS: usize = 2_000;
    const DEPTS: usize = 10;
    assert_eq!(
        Dn::parse("cn=John Doe, ou=dept3, o=Lucent")
            .unwrap()
            .norm_key(),
        Dn::parse("CN=john doe,OU=Dept3,O=lucent")
            .unwrap()
            .norm_key()
    );
    let f = Filter::parse("(&(objectClass=person)(|(cn=J*)(telephoneNumber=*9123)))").unwrap();
    let entry = |cn: &str, phone: &str| {
        Entry::with_attrs(
            Dn::parse("cn=X,o=L").unwrap(),
            [
                ("objectClass", "person"),
                ("cn", cn),
                ("telephoneNumber", phone),
            ],
        )
    };
    assert!(f.matches(&entry("John Doe", "+1 908 582 0000")));
    assert!(f.matches(&entry("Pat Smith", "+1 908 582 9123")));
    assert!(!f.matches(&entry("Pat Smith", "+1 908 582 0000")));

    let dit = Dit::new();
    let org = Entry::with_attrs(
        Dn::parse("o=Lucent").unwrap(),
        [
            ("objectClass", "top"),
            ("objectClass", "organization"),
            ("o", "Lucent"),
        ],
    );
    Dit::add(&dit, org).expect("suffix");
    for ou in 0..DEPTS {
        let ou = format!("dept{ou}");
        let e = Entry::with_attrs(
            Dn::parse(&format!("ou={ou},o=Lucent")).unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "organizationalUnit"),
                ("ou", ou.as_str()),
            ],
        );
        Dit::add(&dit, e).expect("ou");
    }
    for i in 0..PERSONS {
        let dn = format!("cn=Person {i:05},ou=dept{},o=Lucent", i % DEPTS);
        let e = Entry::with_attrs(
            Dn::parse(&dn).unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", format!("Person {i:05}").as_str()),
                ("sn", "Person"),
                ("telephoneNumber", format!("+1 908 582 {i:04}").as_str()),
            ],
        );
        Dit::add(&dit, e).expect("person");
    }
    let base = Dn::parse("o=Lucent").unwrap();
    let search = |base: &Dn, filter: &str| {
        let f = Filter::parse(filter).unwrap();
        Dit::search(&dit, base, Scope::Sub, &f, &[], 0)
            .expect("search")
            .len()
    };
    let mut table = String::new();
    for (label, filter, expected) in [
        ("subtree search, 1 hit", "(cn=Person 00042)", 1),
        (
            "subtree search, 10% hits",
            "(telephoneNumber=*1)",
            PERSONS / 10,
        ),
        (
            "subtree search, all entries",
            "(objectClass=person)",
            PERSONS,
        ),
    ] {
        let hits = search(&base, filter);
        assert_eq!(hits, expected, "{label}");
        writeln!(table, "{label:<32} {hits:>5} hits / {PERSONS} entries").unwrap();
    }

    let dept3 = Dn::parse("ou=dept3,o=Lucent").unwrap();
    let dept4 = Dn::parse("ou=dept4,o=Lucent").unwrap();
    Dit::modify_rdn(&dit, &dept3, &Rdn::new("ou", "dept3"), false, Some(&dept4)).expect("move");
    let moved = search(&dept4.child(Rdn::new("ou", "dept3")), "(objectClass=*)");
    assert_eq!(moved, PERSONS / DEPTS + 1, "the department and its people");
    assert!(!Dit::exists(&dit, &dept3), "nothing left at the old name");
    assert!(Dit::exists(
        &dit,
        &Dn::parse("cn=Person 00003,ou=dept3,ou=dept4,o=Lucent").unwrap()
    ));
    assert_eq!(search(&base, "(objectClass=person)"), PERSONS);
    writeln!(
        table,
        "{:<32} {moved:>5} entries relocated",
        "move a subtree"
    )
    .unwrap();

    let msg = LdapMessage {
        id: 7,
        op: ProtocolOp::SearchResultEntry {
            dn: "cn=Person 00042,ou=dept2,o=Lucent".into(),
            attrs: vec![
                ("objectClass".into(), vec!["top".into(), "person".into()]),
                ("cn".into(), vec!["Person 00042".into()]),
                ("telephoneNumber".into(), vec!["+1 908 582 0042".into()]),
            ],
        },
    };
    let bytes = msg.encode();
    assert_eq!(LdapMessage::decode(&bytes).expect("decode"), msg);
    writeln!(
        table,
        "{:<32} {:>5} bytes, decoded equal",
        "BER search entry",
        bytes.len()
    )
    .unwrap();
    print_table("E10 — LDAP substrate", &table);
}

/// One phone-number change on two switches, with or without the hub
/// rules: did the station move, and did the extension follow the number?
fn phone_change_migrates(with_hub: bool) -> (bool, bool) {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let east = Arc::new(PbxStore::new("pbx-east", DialPlan::with_prefix("2", 4)));
    let mut builder = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "1???")
        .add_pbx(east.clone(), "2???");
    if !with_hub {
        builder = builder.without_hub_rules();
    }
    let system = builder.build().expect("build");
    let wba = system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "1100", "2B")
        .expect("add");
    wba.set_phone("John Doe", "+1 908 582 2200")
        .expect("renumber");
    system.settle();
    let migrated = west.get("1100").is_none() && east.get("2200").is_some();
    let person = wba.person("John Doe").unwrap().expect("person");
    let ext_updated = person.first("definityExtension") == Some("2200");
    system.shutdown();
    (migrated, ext_updated)
}

/// A hire whose second device leg fails, with or without saga undo: is the
/// first leg's station left behind, and how many ops were compensated?
fn partial_failure(with_saga: bool) -> (bool, u64) {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    // A squatter on mailbox 9123 makes the platform leg's add fail.
    mp.add(
        msgplat::record([("Mailbox", "9123"), ("Subscriber", "Squatter, Sam")]),
        msgplat::Channel::Metacomm,
    )
    .unwrap();
    let mut builder = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "9???")
        .add_msgplat(mp, "*");
    if with_saga {
        builder = builder.with_saga_undo();
    }
    let system = builder.build().expect("build");
    let entry = Entry::with_attrs(
        Dn::parse("cn=John Doe,o=Lucent").unwrap(),
        [
            ("objectClass", "top"),
            ("objectClass", "person"),
            ("objectClass", "organizationalPerson"),
            ("objectClass", "definityUser"),
            ("objectClass", "messagingUser"),
            ("cn", "John Doe"),
            ("sn", "Doe"),
            ("definityExtension", "9123"),
            ("mpMailbox", "9123"),
        ],
    );
    let err = system
        .directory()
        .add(entry)
        .expect_err("the platform leg fails");
    assert_eq!(err.code, ResultCode::UnwillingToPerform);
    system.settle();
    assert!(
        system.wba().person("John Doe").unwrap().is_none(),
        "the aborted hire never reached the directory"
    );
    let orphan_station = west.get("9123").is_some();
    let undone = system.um_stats().undone.get();
    system.shutdown();
    (orphan_station, undone)
}

/// E11 (§4.2, §4.4): the two mechanisms, switched off. Without the hub
/// rules a phone-number change no longer moves the extension or the
/// station; without saga undo an update that fails at its second device
/// leaves the first device's station behind, and with it that station is
/// compensated.
#[test]
fn e11_closure_and_saga_ablations() {
    let (mig_on, ext_on) = phone_change_migrates(true);
    let (mig_off, ext_off) = phone_change_migrates(false);
    assert_eq!((mig_on, ext_on), (true, true), "hub closure on");
    assert_eq!((mig_off, ext_off), (false, false), "hub closure off");
    let (orphan_off, undone_off) = partial_failure(false);
    let (orphan_on, undone_on) = partial_failure(true);
    assert_eq!((orphan_off, undone_off), (true, 0), "saga undo off");
    assert_eq!((orphan_on, undone_on), (false, 1), "saga undo on");

    let mut table = format!(
        "{:<34} {:>12} {:>14}\n",
        "phone-change pipeline", "migrated", "ext updated"
    );
    for (arm, migrated, ext) in [
        ("  hub closure ON (paper)", mig_on, ext_on),
        ("  hub closure OFF", mig_off, ext_off),
    ] {
        writeln!(table, "{arm:<34} {migrated:>12} {ext:>14}").unwrap();
    }
    writeln!(
        table,
        "\n{:<34} {:>14} {:>14}",
        "partial multi-device failure", "orphan station", "compensations"
    )
    .unwrap();
    for (arm, orphan, undone) in [
        ("  saga undo OFF (paper prototype)", orphan_off, undone_off),
        ("  saga undo ON (planned version)", orphan_on, undone_on),
    ] {
        writeln!(table, "{arm:<34} {orphan:>14} {undone:>14}").unwrap();
    }
    print_table("E11 — ablations: transitive closure and saga undo", &table);
}

fn outage_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(1),
        deadline: Duration::from_millis(20),
    }
}

/// Open at the first failure; probed by hand, never by the monitor.
fn outage_breaker() -> BreakerPolicy {
    BreakerPolicy {
        degraded_after: 1,
        offline_after: 1,
        probe_interval: Duration::from_secs(3600),
    }
}

/// E12 (§4.4, §5.4): client updates survive a device outage. The directory
/// takes them while the breaker is open and their legs skip the switch; on
/// reconnect one resynchronization from the directory, of conditional
/// upserts, repairs each station the outage touched, and the switch ends
/// up with every update.
#[test]
fn e12_client_updates_survive_a_device_outage() {
    const PEOPLE: usize = 12;
    let mut table = format!(
        "{:>8} {:>8} {:>9} {:>14} {:>5}\n",
        "updates", "dropped", "repaired", "mechanism", "lost"
    );
    for updates in [8, 32, 128] {
        let switch = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 4)));
        let system = MetaCommBuilder::new("o=Lucent")
            .add_pbx(switch.clone(), "1???")
            .with_retry_policy(outage_retry())
            .with_breaker_policy(outage_breaker())
            .with_fault_plan("pbx-1", FaultPlan::default())
            .build()
            .expect("build");
        let wba = system.wba();
        let cn = |i: usize| format!("Outage Person {:02}", i % PEOPLE);
        for i in 0..PEOPLE {
            wba.add_person_with_extension(&cn(i), "Person", &format!("1{i:03}"), "R0")
                .expect("seed");
        }
        system.settle();

        let handle = system.fault_handle("pbx-1").expect("fault handle");
        handle.set_down(true);
        for u in 0..updates {
            wba.assign_room(&cn(u), &format!("R{}", u + 1))
                .expect("the directory takes client updates during the outage");
        }
        system.settle();
        let health = system.device_health("pbx-1").expect("health");
        assert_eq!(health.dropped_ops, updates, "every leg skipped the switch");
        handle.set_down(false);
        let outcome = system.probe_device("pbx-1").expect("recover");
        let RecoveryOutcome::Resynchronized(report) = &outcome else {
            panic!("{updates} skipped updates recovered by {outcome:?}");
        };
        assert_eq!(report.repaired, updates.min(PEOPLE), "{report:?}");
        let lost = (0..PEOPLE)
            .filter(|&i| {
                let device = switch
                    .get(&format!("1{i:03}"))
                    .and_then(|r| r.get("Room").map(str::to_string));
                device != directory_room(&system, &cn(i))
            })
            .count();
        assert_eq!(lost, 0, "{updates} updates: the switch missed some");
        writeln!(
            table,
            "{updates:>8} {:>8} {:>9} {:>14} {lost:>5}",
            health.dropped_ops, report.repaired, "resync"
        )
        .unwrap();
        system.shutdown();
    }

    print_table(
        "E12 — device-outage resilience (breaker, resync on reconnect)",
        &table,
    );
}
