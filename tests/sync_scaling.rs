//! What a synchronization costs and what it decides, counted rather than
//! timed: heap allocations per device record stay flat from 500 to 8,000
//! records (initial load and no-op resync), one translation allocates little
//! beyond the strings it produces, a switch's stale sweep runs the
//! full delete probe only for entries its own partition claims, an orphan
//! is cleared once and by the switch whose range it is in, colliding names
//! are logged against the first claimant, and a fold-back that fails after
//! the device took the record is counted and logged.
//!
//! Linux only (the footprint test's reason: one allocator to reason about).
//! Run it in release too (CI does): the figures are about the algorithm,
//! not the build.
#![cfg(target_os = "linux")]

use bench::Rig;
use ldap::{Directory, Dn};
use lexpress::{Image, OpKind, TargetOp, UpdateDescriptor};
use metacomm::filter::DirectUpdates;
use metacomm::image::image_to_entry;
use metacomm::sync::{resynchronize_device_from_directory, synchronize_device, SyncReport};
use metacomm::{ApplyOutcome, DeviceFilter, ErrorLog, RetryPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Blocks the calling thread asked the allocator for. Per thread: a
    /// synchronization runs on its caller's thread, and what the relays and
    /// the test harness allocate meanwhile is not its cost.
    static ASKED_HERE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread that is being torn down allocates without its counter.
    let _ = ASKED_HERE.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// observes that it happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ASKED_HERE.with(Cell::get);
    let out = f();
    (out, ASKED_HERE.with(Cell::get) - before)
}

const SWITCHES: usize = 4;

/// The repo benchmark's deployment: four switches that split the dial plan
/// by leading digit, and one messaging platform.
fn rig() -> Rig {
    bench::rig(SWITCHES, true)
}

fn filter(r: &Rig, name: &str) -> Arc<dyn DeviceFilter> {
    let device = r.system.device(name).expect("a device of that name");
    device.filter.clone()
}

fn platform(r: &Rig) -> &msgplat::Store {
    r.mp.as_ref().expect("the rig has a messaging platform")
}

/// Put a station on the switch whose range `ext` is in, through MetaComm's
/// own channel so no device event fires.
fn station(r: &Rig, ext: &str, name: &str) {
    r.switch_for(ext)
        .add(
            pbx::Record::from_pairs([("Extension", ext), ("Name", name), ("Room", "2B-401")]),
            pbx::Channel::Metacomm,
        )
        .expect("preload station");
}

fn mailbox(r: &Rig, mailbox: &str, name: &str) {
    platform(r)
        .add(
            msgplat::store::record([("Mailbox", mailbox), ("Subscriber", name)]),
            msgplat::Channel::Metacomm,
        )
        .expect("preload mailbox");
}

/// `people` stations dealt round the switches, and as many mailboxes.
fn preload(r: &Rig, people: usize) {
    for serial in 0..people {
        let ext = format!("{}{:03}", serial % SWITCHES + 1, serial / SWITCHES);
        let name = format!("Subscriber {serial:05}, Pat");
        station(r, &ext, &name);
        mailbox(r, &ext, &name);
    }
}

fn person(r: &Rig, cn: &str) -> Option<ldap::Entry> {
    let dn = Dn::parse(&format!("cn={cn},o=Lucent")).expect("dn");
    r.system.dit().get(&dn).expect("read")
}

/// A filter that behaves as `inner` does and runs `after_apply` after each
/// operation the device took.
struct Hooked {
    inner: Arc<dyn DeviceFilter>,
    after_apply: Box<dyn Fn() + Send + Sync>,
}

impl DeviceFilter for Hooked {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn mapping_to_ldap(&self) -> &str {
        self.inner.mapping_to_ldap()
    }
    fn mapping_from_ldap(&self) -> &str {
        self.inner.mapping_from_ldap()
    }
    fn key_attr(&self) -> &str {
        self.inner.key_attr()
    }
    fn ldap_owned_attrs(&self) -> &[&str] {
        self.inner.ldap_owned_attrs()
    }
    fn ldap_presence_attr(&self) -> &str {
        self.inner.ldap_presence_attr()
    }
    fn apply(&self, op: &TargetOp) -> metacomm::Result<ApplyOutcome> {
        let outcome = self.inner.apply(op)?;
        (self.after_apply)();
        Ok(outcome)
    }
    fn probe(&self) -> metacomm::Result<()> {
        self.inner.probe()
    }
    fn dump(&self) -> Vec<Image> {
        self.inner.dump()
    }
    fn subscribe(&self) -> DirectUpdates {
        self.inner.subscribe()
    }
}

/// Allocations per device record of the initial load and of the no-op
/// resync that follows it, with `people` stations and as many mailboxes.
fn allocations_per_record(people: usize) -> (f64, f64) {
    let r = rig();
    preload(&r, people);
    let records = (2 * people) as f64;
    let (report, load) = allocations(|| r.system.synchronize_all().expect("initial load"));
    assert_eq!(
        (report.added, report.repaired, report.failed),
        (people, people, 0),
        "a station makes the person, the mailbox joins it: {report:?}"
    );
    let (again, resync) = allocations(|| r.system.synchronize_all().expect("resync"));
    assert_eq!(again.unchanged, 2 * people, "{again:?}");
    assert_eq!(
        again.cleared + again.failed + again.added + again.repaired,
        0
    );
    r.system.shutdown();
    (load as f64 / records, resync as f64 / records)
}

#[test]
fn allocations_per_record_stay_flat_from_500_to_8000_records() {
    let (small_load, small_resync) = allocations_per_record(250);
    let (large_load, large_resync) = allocations_per_record(4_000);
    println!(
        "allocations per record: load {small_load:.2} / {large_load:.2}, \
         resync {small_resync:.2} / {large_resync:.2} (500 / 8,000 records)"
    );
    for (what, small, large) in [
        ("initial load", small_load, large_load),
        ("no-op resync", small_resync, large_resync),
    ] {
        assert!(
            large <= small * 1.15,
            "{what}: {large:.1} allocations per record at 8,000 records against \
             {small:.1} at 500 — synchronization is no longer linear"
        );
    }
    // Flat, and no dearer than committed: translate + entry build + one
    // directory write a record (485 before the write was made cheap, 261
    // before translation borrowed, 61 before short values lived in their
    // slot, 47.3 while a name was an RDN vector over RDN blocks, 43.3 while
    // a device dump copied every record before converting it, 36.8 before
    // device records were packed; 35.28 measured).
    assert!(
        large_load <= 36.0,
        "initial load: {large_load:.1} allocations per record (ceiling 36)"
    );
}

/// Allocations of one translation of `d` through `mapping`, the descriptor
/// built beforehand.
fn translation_allocations(r: &Rig, mapping: &str, d: &UpdateDescriptor) -> u64 {
    let engine = r.system.engine();
    let (op, cost) = allocations(|| engine.translate(mapping, d));
    assert_ne!(op.expect("translates").kind, OpKind::Skip);
    cost
}

/// A translation allocates the strings it produces — each target value, the
/// key — plus the value stack, the output image's vector and a name
/// transform's inner `concat`: nothing per attribute read or looked up.
#[test]
fn one_translation_allocates_little_more_than_what_it_produces() {
    let r = rig();
    station(&r, "1001", "Doe, John");
    let record = filter(&r, "pbx-1").dump().pop().expect("the station");
    let to_ldap = UpdateDescriptor::add("1001", record, "pbx-1");
    let station_cost = translation_allocations(&r, "pbx-1_to_ldap", &to_ldap);
    r.system.synchronize_all().expect("load");
    let john = person(&r, "John Doe").expect("materialized");
    let image = metacomm::image::entry_to_image(&john);
    let to_device = UpdateDescriptor::add(john.dn().to_string(), image, "wba");
    let person_cost = translation_allocations(&r, "ldap_to_pbx-1", &to_device);
    println!("translation allocations: station {station_cost}, person {person_cost}");
    // 157 and 75 while every value was copied onto the VM's stack and every
    // name lowercased per lookup; 10 and 8 measured.
    assert!(
        station_cost <= 12,
        "pbx-1_to_ldap of a station: {station_cost} allocations (ceiling 12)"
    );
    assert!(
        person_cost <= 10,
        "ldap_to_pbx-1 of a person: {person_cost} allocations (ceiling 10)"
    );
    r.system.shutdown();
}

/// One switch's synchronization on its own.
fn sync_switch(r: &Rig, name: &str) -> SyncReport {
    synchronize_device(
        &r.system.directory(),
        r.system.engine(),
        &filter(r, name),
        r.system.suffix(),
        None,
    )
    .expect("sync")
}

#[test]
fn a_sweep_probes_only_what_its_partition_claims_and_clears_an_orphan_once() {
    let r = rig();
    for serial in 0..400 {
        let ext = format!("{}{:03}", serial % SWITCHES + 1, serial / SWITCHES);
        station(&r, &ext, &format!("Subscriber {serial:05}, Pat"));
    }
    // pbx-1's no-op resync while the tree holds only its own 100 people,
    // and again once the other switches' 300 are there: the difference is
    // what the sweep spends on a holder that is another switch's.
    sync_switch(&r, "pbx-1");
    let (alone, alone_cost) = allocations(|| sync_switch(&r, "pbx-1"));
    r.system.synchronize_all().expect("load the other switches");
    let (among, among_cost) = allocations(|| sync_switch(&r, "pbx-1"));
    for report in [&alone, &among] {
        assert_eq!(report.unchanged, 100, "{report:?}");
        assert_eq!(report.cleared + report.failed + report.added, 0);
    }
    let per_foreign_holder = (among_cost - alone_cost) as f64 / 300.0;
    // What the sweep must not spend there: the full delete probe.
    let foreign = person(&r, "Pat Subscriber 00001").expect("a pbx-2 person");
    let from_ldap = filter(&r, "pbx-1").mapping_from_ldap().to_string();
    let (probed, probe_cost) = allocations(|| {
        let probe = UpdateDescriptor::delete(
            foreign.dn().to_string(),
            metacomm::image::entry_to_image(&foreign),
            "pbx-1",
        );
        r.system.engine().translate(&from_ldap, &probe)
    });
    assert_eq!(probed.expect("translates").kind, OpKind::Skip);
    assert!(
        per_foreign_holder < probe_cost as f64,
        "{per_foreign_holder:.1} allocations per foreign holder, a full delete probe is \
         {probe_cost}: the sweep probes entries outside its partition"
    );

    // A person whose station left pbx-2 while nobody was looking.
    let orphan = Dn::parse("cn=Gone Away,o=Lucent").expect("dn");
    let claim = Image::from_pairs([
        ("cn", "Gone Away"),
        ("definityExtension", "2999"),
        ("telephoneNumber", "+1 908 582 2999"),
        ("lastUpdater", "pbx-2"),
    ]);
    r.system
        .dit()
        .add(image_to_entry(orphan.clone(), &claim))
        .expect("plant the orphan");
    let mut cleared_by = Vec::new();
    for i in 1..=SWITCHES {
        let name = format!("pbx-{i}");
        let report = sync_switch(&r, &name);
        assert_eq!(report.unchanged, 100, "{name}: {report:?}");
        assert_eq!(report.added + report.repaired + report.failed, 0);
        if report.cleared > 0 {
            cleared_by.push((name, report.cleared));
        }
    }
    assert_eq!(
        cleared_by,
        [("pbx-2".to_string(), 1)],
        "cleared once, by its own switch"
    );
    let left = r.system.dit().get(&orphan).expect("read").expect("entry");
    assert!(!left.has_attr("definityExtension"), "{left:?}");
    assert_eq!(left.first("lastUpdater"), Some("pbx-2"));
    assert_eq!(left.first("telephoneNumber"), Some("+1 908 582 2999"));
    r.system.shutdown();
}

#[test]
fn three_records_colliding_on_one_name_fail_twice_against_the_first_claimant() {
    let r = rig();
    for ext in ["1100", "1200", "1300"] {
        station(&r, ext, "Doe, John");
    }
    station(&r, "1400", "Roe, Jane");
    let report = r.system.synchronize_all().expect("sync");
    assert_eq!((report.added, report.failed), (2, 2), "{report:?}");
    let errors = r.system.browse_errors().expect("browse");
    let mut texts: Vec<&str> = errors
        .iter()
        .filter_map(|e| e.first("metacommErrorText"))
        .collect();
    texts.sort_unstable();
    assert_eq!(texts.len(), 2, "{texts:?}");
    // The switch dumps in extension order, so 1100 claimed the name first.
    for (text, loser) in texts.iter().zip(["1200", "1300"]) {
        assert!(
            text.contains(&format!("device records 1100 and {loser} both map to")),
            "{text}"
        );
    }
    let john = person(&r, "John Doe").expect("materialized");
    assert_eq!(john.first("definityExtension"), Some("1100"));
    // Stable: a resync neither flaps the winner nor clears it.
    let again = r.system.synchronize_all().expect("resync");
    assert_eq!(
        (again.unchanged, again.failed, again.cleared),
        (2, 2, 0),
        "{again:?}"
    );
    r.system.shutdown();
}

#[test]
fn a_fold_back_that_fails_is_counted_and_logged() {
    let r = rig();
    mailbox(&r, "1001", "Doe, John");
    mailbox(&r, "1002", "Roe, Jane");
    r.system.synchronize_all().expect("initial load");
    // The platform lost both mailboxes during an outage; re-adding them
    // generates new mailbox ids, which must be folded back.
    for mailbox in ["1001", "1002"] {
        platform(&r)
            .remove(mailbox, msgplat::Channel::Metacomm)
            .expect("lose the mailbox");
    }
    // John's entry is deleted after the holders were read and before his
    // fold-back: here, when the platform takes the first record.
    let dit = r.system.dit();
    let john = Dn::parse("cn=John Doe,o=Lucent").expect("dn");
    let filter: Arc<dyn DeviceFilter> = Arc::new(Hooked {
        inner: filter(&r, "mp"),
        after_apply: Box::new(move || {
            let _ = dit.delete(&john);
        }),
    });
    let log = ErrorLog::install(r.system.dit().as_ref(), r.system.suffix()).expect("log");
    let alerts = log.subscribe();
    let report = resynchronize_device_from_directory(
        &r.system.directory(),
        r.system.engine(),
        &filter,
        r.system.suffix(),
        Some(&log),
        &RetryPolicy::default(),
        r.system.um_stats(),
    )
    .expect("resync");
    assert_eq!((report.added, report.failed), (1, 1), "{report:?}");
    let alert = alerts.try_recv().expect("the administrator is told");
    for part in ["1001", "mp", "cn=John Doe,o=Lucent", "folding"] {
        assert!(alert.text.contains(part), "{part} missing: {}", alert.text);
    }
    assert!(alerts.try_recv().is_err(), "one failure, one alert");
    // Jane's went through: the directory carries the id the platform made.
    let jane = person(&r, "Jane Roe").expect("entry");
    let made = platform(&r)
        .get("1002")
        .expect("mailbox")
        .get("MbId")
        .cloned();
    assert_eq!(jane.first("mpMailboxId"), made.as_deref());
    r.system.shutdown();
}
