//! What one directory or device write costs, counted rather than timed:
//! heap allocations per `Schema::validate_entry`, per `Dit::add` (volatile,
//! and logged by a durable deployment's WAL), per one-attribute `Dit::modify` and per entry
//! a search visitor reads whole, on the repo benchmark's person shape under
//! the integrated schema, and per
//! `pbx::Store::change` and `msgplat::Store::change` on the benchmark's
//! station and mailbox shapes, against committed ceilings (none for a
//! same-length change through MetaComm's own channel, which feeds no
//! event); and a modify of an unindexed attribute leaves the equality index
//! as it was.
//!
//! Linux only (the footprint test's reason: one allocator to reason about).
//! Run it in release too (CI does): the figures are about the write path,
//! not the build.
#![cfg(target_os = "linux")]

use ldap::dit::{Dit, Scope};
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use metacomm::{FsyncPolicy, MetaCommBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Blocks the calling thread asked the allocator for.
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

// --- the repo benchmark's person shape (bench/src/gen.rs) -------------------

const INDEXED: &[&str] = &["objectClass", "cn", "telephoneNumber", "l", "lastUpdater"];
const WARM_UP: usize = 500;
const MEASURED: usize = 1_000;

fn unit_dn() -> Dn {
    Dn::parse("ou=dept-000,o=Bench").expect("dn")
}

fn cn(serial: usize) -> String {
    const GIVEN: &[&str] = &["Ana", "Bram", "Chen", "Dara", "Emre", "Femi"];
    const SURNAMES: &[&str] = &["Adeyemi", "Bauer", "Castillo", "Dubois", "Eriksen"];
    format!(
        "{} {} {serial:06}",
        GIVEN[serial % GIVEN.len()],
        SURNAMES[(serial / 7) % SURNAMES.len()]
    )
}

fn phone(serial: usize) -> String {
    format!("+1 908 200 {serial:04}")
}

fn site(serial: usize) -> String {
    format!("site-{:02}", serial % 50)
}

fn person_dn(serial: usize) -> Dn {
    unit_dn().child(Rdn::new("cn", cn(serial)))
}

fn person(serial: usize) -> Entry {
    Entry::with_attrs(
        person_dn(serial),
        [
            ("objectClass", "top".to_string()),
            ("objectClass", "person".to_string()),
            ("objectClass", "organizationalPerson".to_string()),
            ("cn", cn(serial)),
            ("sn", "Bauer".to_string()),
            ("telephoneNumber", phone(serial)),
            ("roomNumber", format!("2B-{:03}", 1 + serial % 399)),
            ("l", site(serial)),
        ],
    )
}

/// A tree under the integrated schema holding the suffix, the unit and the
/// warm-up people (serials `0..WARM_UP`), so tables and slabs have grown
/// past their first doublings before anything is counted.
fn warm_tree() -> Arc<Dit> {
    let dit = Dit::with_schema_indexed(Arc::new(metacomm::schema::integrated_schema()), INDEXED);
    dit.add(Entry::with_attrs(
        Dn::parse("o=Bench").expect("dn"),
        [
            ("objectClass", "top"),
            ("objectClass", "organization"),
            ("o", "Bench"),
        ],
    ))
    .expect("suffix");
    warm_up(&dit);
    dit
}

/// Add the unit and the warm-up people under the suffix `o=Bench`.
fn warm_up(dit: &Dit) {
    dit.add(Entry::with_attrs(
        unit_dn(),
        [
            ("objectClass", "top"),
            ("objectClass", "organizationalUnit"),
            ("ou", "dept-000"),
        ],
    ))
    .expect("unit");
    for serial in 0..WARM_UP {
        dit.add(person(serial)).expect("warm-up add");
    }
}

/// The serials counted after the warm-up.
fn measured() -> std::ops::Range<usize> {
    WARM_UP..WARM_UP + MEASURED
}

/// Allocations per entry of adding the measured people to `dit`.
fn per_add(dit: &Dit) -> f64 {
    let people: Vec<Entry> = measured().map(person).collect();
    let ((), asked) = allocations(|| {
        for e in people {
            dit.add(e).expect("add");
        }
    });
    asked as f64 / MEASURED as f64
}

/// Ceiling on the blocks the first entry of a class list allocates for
/// the list's plan (its `must` names, its allowed types and the tables the
/// plan and the names are filed in): 9 measured.
const PLAN_CEILING: u64 = 12;

#[test]
fn validating_a_conforming_entry_allocates_nothing() {
    let schema = metacomm::schema::integrated_schema();
    let people: Vec<Entry> = measured().map(person).collect();
    let (first, rest) = people.split_first().expect("people");
    let ((), planned) = allocations(|| schema.validate_entry(first).expect("conforms"));
    assert!(
        planned <= PLAN_CEILING,
        "{planned} allocations for the first validation of a class list (ceiling {PLAN_CEILING})"
    );
    let ((), asked) = allocations(|| {
        for e in rest {
            schema.validate_entry(e).expect("conforms");
        }
    });
    assert_eq!(
        asked,
        0,
        "{asked} allocations over {} validations once the class list's plan exists: \
         the schema is being re-derived per entry",
        rest.len()
    );
}

/// Ceilings: the counts measured once a name was one chain block whose
/// clone is a reference count (1.1 / 4.1 / 2.0 for an add, a WAL'd add and
/// a modify), plus one allocation of headroom; 0.11 / 3.11 / 1.00 since an
/// entry's attributes are one block, a modify's private copy the only block
/// it allocates; 0.06 / 2.06 / 1.00 since a commit's record is rendered
/// straight into its WAL frame (the record's copy of the entry and the
/// frame are a WAL'd add's two blocks). 1.1 / 6.1 / 3.0 while the
/// commit record copied an RDN vector for each name it held; 1.1 / 14.1 /
/// 9.0 while every value was a heap string of its own; 12 / 24 / 11 while
/// the store built a key string per name and a posting key per value.
const ADD_CEILING: f64 = 2.0;
const WAL_ADD_CEILING: f64 = 3.0;
const MODIFY_CEILING: f64 = 3.0;

#[test]
fn an_unobserved_add_stays_within_two_allocations() {
    let dit = warm_tree();
    let per_entry = per_add(&dit);
    println!("{per_entry:.2} allocations per unobserved Dit::add");
    assert_eq!(dit.len(), 2 + WARM_UP + MEASURED);
    assert!(
        per_entry <= ADD_CEILING,
        "{per_entry:.1} allocations per unobserved Dit::add (ceiling {ADD_CEILING})"
    );
}

/// The add is made on the directory of a durable deployment, so what is
/// counted is the commit observer that logs every commit in production.
#[test]
fn an_add_with_a_wal_attached_stays_within_three_allocations() {
    let dir = std::env::temp_dir().join(format!("metacomm-write-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let system = MetaCommBuilder::new("o=Bench")
        .with_durability(&dir)
        .with_fsync_policy(FsyncPolicy::Never)
        .with_indexed_attrs(INDEXED.iter().copied())
        .build()
        .expect("build");
    let dit = system.dit();
    warm_up(&dit);
    let logged =
        || (system.metrics_snapshot().value("durability", "walAppends")).expect("walAppends");
    let before = logged();
    let per_entry = per_add(&dit);
    let appends = logged() - before;
    system.shutdown();
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
    println!("{per_entry:.2} allocations per Dit::add with a WAL attached");
    assert_eq!(appends, MEASURED as u64, "one frame per commit");
    assert!(
        per_entry <= WAL_ADD_CEILING,
        "{per_entry:.1} allocations per Dit::add with a WAL attached (ceiling {WAL_ADD_CEILING})"
    );
}

/// What the equality index answers for every indexed value of the measured
/// people, in one comparable piece.
fn index_answers(dit: &Dit) -> Vec<Vec<Entry>> {
    use ldap::Directory;
    let (served_before, _) = dit.index_stats();
    let mut answers = Vec::new();
    let mut ask = |attr: &str, value: String| {
        let hits = dit
            .search(&Dn::root(), Scope::Sub, &Filter::eq(attr, value), &[], 0)
            .expect("search");
        answers.push(hits);
    };
    for serial in measured() {
        ask("cn", cn(serial));
        ask("telephoneNumber", phone(serial));
    }
    for s in 0..50 {
        ask("l", site(s));
    }
    ask("objectClass", "organizationalPerson".to_string());
    let asked = answers.len() as u64;
    assert_eq!(
        dit.index_stats().0 - served_before,
        asked,
        "every probe is served from the index"
    );
    answers
}

#[test]
fn a_room_change_stays_within_three_allocations_and_touches_no_posting() {
    let dit = warm_tree();
    per_add(&dit);
    let postings_before = dit.footprint().postings_bytes;
    let mut answers_before = index_answers(&dit);
    let changes: Vec<(Dn, [Modification; 1])> = measured()
        .map(|serial| {
            let room = format!("4D-{:03}", 1 + serial % 399);
            (person_dn(serial), [Modification::set("roomNumber", room)])
        })
        .collect();
    let ((), asked) = allocations(|| {
        for (dn, mods) in &changes {
            dit.modify(dn, mods).expect("modify");
        }
    });
    let per_entry = asked as f64 / MEASURED as f64;
    println!("{per_entry:.2} allocations per one-attribute Dit::modify");
    assert!(
        per_entry <= MODIFY_CEILING,
        "{per_entry:.1} allocations per unobserved one-attribute Dit::modify (ceiling {MODIFY_CEILING})"
    );
    assert_eq!(
        dit.footprint().postings_bytes,
        postings_before,
        "roomNumber is not indexed: the postings hold what they held"
    );
    // The same entries under the same values, but for the room itself.
    let mut answers_after = index_answers(&dit);
    for hits in answers_before.iter_mut().chain(answers_after.iter_mut()) {
        for e in hits {
            e.remove_attr("roomNumber");
        }
    }
    assert_eq!(answers_after, answers_before);
    let changed = dit.get(&person_dn(WARM_UP)).expect("entry");
    assert_eq!(
        changed.first("roomNumber"),
        Some(format!("4D-{:03}", 1 + WARM_UP % 399).as_str())
    );
}

#[test]
fn reading_every_name_and_value_of_a_visited_entry_allocates_nothing() {
    let dit = warm_tree();
    per_add(&dit);
    let people: Vec<Dn> = measured().map(person_dn).collect();
    let all = Filter::match_all();
    let (mut visited, mut bytes_read) = (0, 0);
    let mut read = |e: &Entry| {
        visited += 1;
        for a in e.attributes() {
            bytes_read += a.name.as_str().len() + a.name.norm().len();
            for v in a.values {
                bytes_read += v.len();
            }
        }
    };
    let ((), asked) = allocations(|| {
        for dn in &people {
            (dit.search_visit(dn, Scope::Base, &all, &[], 0, &mut read)).expect("search");
        }
    });
    assert_eq!(visited, MEASURED);
    assert!(bytes_read > 70 * MEASURED, "{bytes_read} bytes read");
    let per_entry = asked as f64 / visited as f64;
    println!("{per_entry:.2} allocations per visited entry read whole");
    assert_eq!(
        asked, 0,
        "{asked} allocations over {visited} visited entries: a read copies the block out"
    );
}

// --- device changes: the benchmark's station and mailbox shapes ------------

fn extension(serial: usize) -> String {
    (1000 + serial).to_string()
}

fn device_name(serial: usize) -> String {
    let cn = cn(serial);
    let (given, surname) = cn.split_once(' ').expect("given name and surname");
    format!("{surname}, {given}")
}

/// Ceilings for a change at the device's own terminal, which the store
/// feeds as an event: the event's old and new images, one block each, while
/// the stored record is patched in place, where a value of another length
/// resizes its block (the platform's classes of service differ in length,
/// the switch's rooms do not). 2.03 measured at the switch and 3.03 at the
/// platform, each ceiling about one allocation above. The
/// platform's was 30 (29.03 measured) while its API record was a map of
/// strings, built three times a change; 60.03 and 59.03 while a change
/// built a new record, swapped it in and copied the event for every
/// subscriber.
const PBX_CHANGE_CEILING: f64 = 3.0;
const MP_CHANGE_CEILING: f64 = 4.0;

/// A sink for a store's terminal commits, and the channel it sends them
/// into.
fn feed() -> (
    impl FnMut(pbx::DeviceEvent) -> bool + Send + 'static,
    std::sync::mpsc::Receiver<pbx::DeviceEvent>,
) {
    let (tx, events) = std::sync::mpsc::channel();
    (move |ev| tx.send(ev).is_ok(), events)
}

#[test]
fn a_room_change_at_a_switch_patches_the_stored_station() {
    let switch = pbx::Store::new("pbx-1", pbx::DialPlan::with_prefix("1", 4));
    let (sink, events) = feed();
    switch.subscribe(sink);
    for serial in 0..MEASURED {
        let station = pbx::Record::from_pairs([
            ("Extension", extension(serial)),
            ("Name", device_name(serial)),
            ("Room", format!("2B-{:03}", 1 + serial % 399)),
            ("CoveragePath", "1".to_string()),
            ("Cor", "1".to_string()),
        ]);
        switch
            .add(station, pbx::Channel::Metacomm)
            .expect("add station");
    }
    let patches: Vec<(String, pbx::Record)> = (0..MEASURED)
        .map(|serial| {
            let room = format!("4D-{:03}", 1 + serial % 399);
            (extension(serial), pbx::Record::from_pairs([("Room", room)]))
        })
        .collect();
    let ((), asked) = allocations(|| {
        for (ext, patch) in patches {
            switch
                .change(&ext, patch, pbx::Channel::Craft)
                .expect("change");
        }
    });
    let per_change = asked as f64 / MEASURED as f64;
    println!("{per_change:.2} allocations per pbx::Store::change");
    assert!(
        per_change <= PBX_CHANGE_CEILING,
        "{per_change:.1} allocations per pbx::Store::change (ceiling {PBX_CHANGE_CEILING})"
    );
    assert_eq!(
        events.try_iter().count(),
        MEASURED,
        "one event per terminal commit"
    );
    let changed = switch.get(&extension(7)).expect("station");
    assert_eq!(changed.get("Room"), Some("4D-008"));
    assert_eq!(changed.get("Name"), Some(device_name(7).as_str()));
}

#[test]
fn a_class_of_service_change_at_the_platform_patches_the_stored_mailbox() {
    const COS: [&str; 3] = ["standard", "executive", "restricted"];
    let platform = msgplat::Store::new("mp");
    let (sink, events) = feed();
    platform.subscribe(sink);
    for serial in 0..MEASURED {
        let mailbox = msgplat::store::record([
            ("Mailbox", extension(serial)),
            ("Subscriber", device_name(serial)),
            ("Cos", COS[serial % 3].to_string()),
        ]);
        platform
            .add(mailbox, msgplat::Channel::Metacomm)
            .expect("add mailbox");
    }
    let patches: Vec<(String, msgplat::Record)> = (0..MEASURED)
        .map(|serial| {
            let cos = COS[(serial + 1) % 3];
            (extension(serial), msgplat::store::record([("Cos", cos)]))
        })
        .collect();
    let ((), asked) = allocations(|| {
        for (mailbox, patch) in patches {
            platform
                .change(&mailbox, patch, msgplat::Channel::Console)
                .expect("change");
        }
    });
    let per_change = asked as f64 / MEASURED as f64;
    println!("{per_change:.2} allocations per msgplat::Store::change");
    assert!(
        per_change <= MP_CHANGE_CEILING,
        "{per_change:.1} allocations per msgplat::Store::change (ceiling {MP_CHANGE_CEILING})"
    );
    assert_eq!(
        events.try_iter().count(),
        MEASURED,
        "one event per terminal commit"
    );
    let changed = platform.get(&extension(7)).expect("mailbox");
    assert_eq!(changed["Cos"], COS[8 % 3]);
    assert_eq!(changed["Subscriber"], device_name(7));
}

/// A change MetaComm makes through its own channel is a commit the device
/// does not feed: no event key and no images are built, and a value of the
/// same length is written over the stored bytes. So it asks the allocator
/// for nothing, at a switch and at the platform.
#[test]
fn a_same_length_change_through_metacomms_channel_allocates_nothing() {
    let switch = pbx::Store::new("pbx-1", pbx::DialPlan::with_prefix("1", 4));
    let platform = msgplat::Store::new("mp");
    let ((to_stations, stations), (to_mailboxes, mailboxes)) = (feed(), feed());
    switch.subscribe(to_stations);
    platform.subscribe(to_mailboxes);
    for serial in 0..MEASURED {
        let station = pbx::Record::from_pairs([
            ("Extension", extension(serial)),
            ("Name", device_name(serial)),
            ("Room", format!("2B-{:03}", 1 + serial % 399)),
            ("CoveragePath", "1".to_string()),
            ("Cor", "1".to_string()),
        ]);
        (switch.add(station, pbx::Channel::Metacomm)).expect("add station");
        let mailbox = msgplat::store::record([
            ("Mailbox", extension(serial)),
            ("Subscriber", device_name(serial)),
            ("Cos", "standard".to_string()),
        ]);
        (platform.add(mailbox, msgplat::Channel::Metacomm)).expect("add mailbox");
    }
    let patches: Vec<(String, pbx::Record, msgplat::Record)> = (0..MEASURED)
        .map(|serial| {
            let room = pbx::Record::from_pairs([("Room", format!("4D-{:03}", 1 + serial % 399))]);
            let cos = msgplat::store::record([("Cos", "platinum")]);
            (extension(serial), room, cos)
        })
        .collect();
    let ((), asked) = allocations(|| {
        for (key, room, cos) in patches {
            (switch.change(&key, room, pbx::Channel::Metacomm)).expect("change station");
            (platform.change(&key, cos, msgplat::Channel::Metacomm)).expect("change mailbox");
        }
    });
    println!("{asked} allocations over {MEASURED} station and {MEASURED} mailbox changes");
    assert_eq!(
        asked, 0,
        "a same-length change through MetaComm's channel allocated"
    );
    assert_eq!(
        stations.try_iter().count() + mailboxes.try_iter().count(),
        0,
        "MetaComm's own commits are not fed"
    );
    assert_eq!((switch.commits(), platform.commits()), (2_000, 2_000));
    assert_eq!(
        switch.get(&extension(7)).expect("station").get("Room"),
        Some("4D-008")
    );
    assert_eq!(
        platform.get(&extension(7)).expect("mailbox")["Cos"],
        "platinum"
    );
}
