//! What the directory costs at rest, measured by a counting global
//! allocator (`malloc_usable_size`, so the figure is what the allocator
//! really set aside): DN construction leaves no slack, a tree in the repo
//! benchmark's shape stays under a committed bytes-per-entry budget, a tree
//! restored from a snapshot costs what the live-loaded one does,
//! [`Dit::footprint`] accounts for the bytes by structure, an entry's name
//! links to its parent entry's and entries share their class's
//! `objectClass` list whatever path took them into the tree, and neither pool keeps what an
//! unauthenticated socket could make arbitrarily large.
//!
//! Linux/glibc only. Run it in release too (CI does): the budget is about
//! the data structures, not the build.
#![cfg(target_os = "linux")]

use ldap::backup::SnapshotStore;
use ldap::dit::{Dit, Scope};
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::schema::Schema;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

extern "C" {
    fn malloc_usable_size(ptr: *mut std::ffi::c_void) -> usize;
}

/// Heap bytes the process holds, as the allocator set them aside.
static LIVE: AtomicIsize = AtomicIsize::new(0);
thread_local! {
    /// Heap bytes the calling thread holds, as it asked for them: exact
    /// where `LIVE` moves by up to 16 bytes a block with the state of the
    /// heap, and blind to what the test harness prints from its own thread.
    static ASKED_HERE: Cell<isize> = const { Cell::new(0) };
    /// Heap blocks the calling thread holds.
    static BLOCKS_HERE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(ptr: *mut u8, asked: usize, sign: isize) {
    if ptr.is_null() {
        return;
    }
    // SAFETY: `ptr` is a live block of the system allocator: just returned
    // by it, or about to be handed back to it by the caller.
    let set_aside = unsafe { malloc_usable_size(ptr.cast()) };
    LIVE.fetch_add(sign * set_aside as isize, Ordering::Relaxed);
    // A thread that is being torn down frees without its counters.
    let _ = ASKED_HERE.try_with(|c| c.set(c.get() + sign * asked as isize));
    let _ = BLOCKS_HERE.try_with(|c| c.set(c.get() + sign));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        count(p, layout.size(), 1);
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        count(p, layout.size(), -1);
        System.dealloc(p, layout)
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let before = malloc_usable_size(p.cast());
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(before as isize, Ordering::Relaxed);
            let _ = BLOCKS_HERE.try_with(|c| c.set(c.get() - 1));
            let _ = ASKED_HERE.try_with(|c| c.set(c.get() - layout.size() as isize));
            count(q, new_size, 1);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One measuring test at a time: the process-wide counter must not see a
/// neighbour's tree.
fn alone() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `build` built, and the bytes this thread asked for and still holds
/// because of it.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, isize) {
    let before = ASKED_HERE.with(Cell::get);
    let built = build();
    (built, ASKED_HERE.with(Cell::get) - before)
}

// --- the repo benchmark's tree shape (bench/src/gen.rs) ---------------------

const SUFFIX: &str = "o=Bench";
const INDEXED: &[&str] = &["objectClass", "cn", "telephoneNumber", "l", "lastUpdater"];
const PER_OU: usize = 1_000;
const GIVEN: &[&str] = &["Alice", "Bertrand", "Chandra", "Dolores", "Emeka", "Fiona"];
const SURNAMES: &[&str] = &[
    "Abbott",
    "Brennan",
    "Castellanos",
    "Dimitrov",
    "Eze",
    "Fitzgerald",
];

fn unit_dn(unit: usize) -> Dn {
    Dn::parse(SUFFIX)
        .unwrap()
        .child(Rdn::new("ou", format!("dept-{unit:03}")))
}

fn person_cn(serial: usize) -> String {
    format!(
        "{} {} {serial:06}",
        GIVEN[serial % GIVEN.len()],
        SURNAMES[(serial / 7) % SURNAMES.len()]
    )
}

fn person(serial: usize) -> Entry {
    Entry::with_attrs(
        unit_dn(serial / PER_OU).child(Rdn::new("cn", person_cn(serial))),
        [
            ("objectClass", "top".to_string()),
            ("objectClass", "person".to_string()),
            ("objectClass", "organizationalPerson".to_string()),
            ("cn", person_cn(serial)),
            ("sn", SURNAMES[(serial / 7) % SURNAMES.len()].to_string()),
            (
                "telephoneNumber",
                format!("+1 908 {:03} {:04}", serial / 10_000, serial % 10_000),
            ),
            ("roomNumber", format!("2C-{:03}", 1 + serial % 399)),
            ("l", format!("site-{:02}", serial % 20)),
        ],
    )
}

fn empty_tree() -> Arc<Dit> {
    Dit::with_schema_indexed(Arc::new(Schema::permissive()), INDEXED)
}

/// Suffix, `people / PER_OU` units, `people` persons.
fn load(dit: &Dit, people: usize) {
    dit.add(Entry::with_attrs(
        Dn::parse(SUFFIX).unwrap(),
        [
            ("objectClass", "top"),
            ("objectClass", "organization"),
            ("o", "Bench"),
        ],
    ))
    .unwrap();
    for unit in 0..people.div_ceil(PER_OU) {
        dit.add(Entry::with_attrs(
            unit_dn(unit),
            [
                ("objectClass", "top".to_string()),
                ("objectClass", "organizationalUnit".to_string()),
                ("ou", format!("dept-{unit:03}")),
            ],
        ))
        .unwrap();
    }
    for serial in 0..people {
        dit.add(person(serial)).unwrap();
    }
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("metacomm-footprint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Bytes per entry the compact store may cost in this shape, five indexes
/// included: 307 measured (the reading plus 7 % is the budget), 446 while
/// every attribute was a 32-byte slot in a vector of them, 517 while
/// every name was an RDN vector over shared RDN blocks that kept a
/// lowercased copy of each value, 622 while the id tables took 24 bytes a
/// hash and every node carried a children vector, 749 while every value
/// was a heap string of its own, 924 while the store kept a key string per
/// DN and a copy of every indexed value, 1,304 before the 32-byte attribute
/// slot and the shared class list, 2,050 before the shared-RDN layout
/// (2,950 for a tree restored from a snapshot).
const BUDGET_BYTES_PER_ENTRY: usize = 329;

/// Heap blocks per entry at rest: 2.48 measured (the chain block that ends
/// the name, the attribute block, and for the common names longer than an
/// RDN value's 22-byte slot the name's value), 2.96 while the attribute
/// vector kept such a `cn` value in a block of its own, 4.43 with an RDN
/// vector, a leaf RDN block and a lowercased copy of long names, 10 while
/// every value was a heap string, 13 with the DN key and two posting keys,
/// 17 while every entry held its own class list.
const BUDGET_BLOCKS_PER_ENTRY: f64 = 2.65;

/// `dn` built anew through the constructors, root first.
fn rebuilt(dn: &Dn) -> Dn {
    let Some(rdn) = dn.rdn() else {
        return Dn::root();
    };
    let rdn = match rdn.avas() {
        [one] => Rdn::new(one.attr(), one.value()),
        many => Rdn::multi(
            many.iter()
                .map(|a| ldap::Ava::new(a.attr(), a.value()))
                .collect(),
        )
        .unwrap(),
    };
    rebuilt(&dn.parent().unwrap()).child(rdn)
}

#[test]
fn parsed_and_built_dns_occupy_the_same_bytes() {
    // Warm the name pool: its first sight of a type is the pool's cost.
    drop(Dn::parse("cn=x+l=y,ou=z,o=w"));
    for text in [
        "cn=Alice Abbott 000123,ou=dept-017,o=Bench",
        "cn=a,ou=b,ou=c,ou=d,o=e",
        "cn=Doe\\, John+l=Murray Hill,o=Lucent",
        "o=Bench",
    ] {
        let (parsed, parsed_bytes) = held_by(|| Dn::parse(text).unwrap());
        let (built, built_bytes) = held_by(|| rebuilt(&parsed));
        assert_eq!(built, parsed);
        assert_eq!(built.to_string(), parsed.to_string());
        assert_eq!(
            parsed_bytes, built_bytes,
            "`{text}`: parsed holds {parsed_bytes} B, built {built_bytes} B"
        );
        // A parent is a block the name already points at.
        let (parent, parent_bytes) = held_by(|| parsed.parent());
        assert_eq!(parent_bytes, 0, "parent of `{text}`");
        drop(parent);
    }
}

#[test]
fn bytes_per_entry_stay_under_budget_and_footprint_accounts_for_them() {
    let _alone = alone();
    const PEOPLE: usize = 20_000;
    // The pools' first sight of a name or a class list is the pools' cost.
    load(&empty_tree(), 1);
    let before = (LIVE.load(Ordering::Relaxed), BLOCKS_HERE.with(Cell::get));
    let dit = empty_tree();
    load(&dit, PEOPLE);
    let live_loaded = LIVE.load(Ordering::Relaxed) - before.0;
    let blocks = (BLOCKS_HERE.with(Cell::get) - before.1) as usize;
    let entries = dit.len();
    let per_entry = live_loaded as usize / entries;
    let fp = dit.footprint();
    println!(
        "live-loaded: {per_entry} B/entry in {:.4} blocks over {entries} entries",
        blocks as f64 / entries as f64
    );
    for (row, bytes) in fp.rows() {
        println!("  {row:<14} {:>6} B/entry", bytes / entries);
    }
    assert!(
        per_entry <= BUDGET_BYTES_PER_ENTRY,
        "{per_entry} B/entry exceeds the {BUDGET_BYTES_PER_ENTRY} B budget"
    );
    assert!(
        blocks as f64 <= BUDGET_BLOCKS_PER_ENTRY * entries as f64,
        "{blocks} live blocks for {entries} entries exceed {BUDGET_BLOCKS_PER_ENTRY} apiece"
    );
    assert_eq!(fp.entries, entries);
    let accounted = fp.total() as f64 / live_loaded as f64;
    assert!(
        (0.9..=1.1).contains(&accounted),
        "footprint rows sum to {} B, the allocator holds {live_loaded} B",
        fp.total()
    );
    // Per structure, where this change aimed.
    assert!(
        fp.dn_bytes / entries <= 85,
        "DN {} B/entry",
        fp.dn_bytes / entries
    );
    let attrs = fp.attr_bytes / entries;
    assert!(attrs <= 94, "attribute blocks {attrs} B/entry");
    assert!(
        fp.postings_bytes / entries <= 75,
        "postings {} B/entry",
        fp.postings_bytes / entries
    );
    assert!(
        fp.key_arena_bytes / entries <= 20,
        "DN table {} B/entry",
        fp.key_arena_bytes / entries
    );
    assert!(
        fp.slab_bytes / entries <= 70,
        "node slab {} B/entry",
        fp.slab_bytes / entries
    );

    // The same tree through checkpoint and cold start.
    let dir = scratch_dir("restore");
    let store = SnapshotStore::new(&dir);
    store.write_snapshot_streamed(&dit, 1).expect("snapshot");
    let before = LIVE.load(Ordering::Relaxed);
    let restored = empty_tree();
    let (_, _, n) = store
        .restore_latest(&restored)
        .expect("restore")
        .expect("a snapshot");
    let restored_bytes = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(n, entries);
    println!("restored:    {} B/entry", restored_bytes as usize / entries);
    let ratio = restored_bytes as f64 / live_loaded as f64;
    assert!(
        (0.97..=1.03).contains(&ratio),
        "restored tree holds {restored_bytes} B, live-loaded {live_loaded} B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The repo benchmark's person at its longest (a 22-byte common name, held
/// in its RDN value's slot) is two heap blocks at rest: the chain block that
/// ends its name and the attribute block. Its ancestors are its parent's
/// name, and its attribute names and class list are the pools'.
#[test]
fn a_benchmark_person_at_rest_is_two_heap_blocks() {
    let unit = unit_dn(0);
    let build = || {
        Entry::with_attrs(
            unit.child(Rdn::new("cn", "Ximena Castillo 000123")),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("cn", "Ximena Castillo 000123"),
                ("sn", "Castillo"),
                ("telephoneNumber", "+1 908 200 0123"),
                ("roomNumber", "3F-123"),
                ("l", "site-23"),
            ],
        )
    };
    // The pools' first sight of a name or a class list is the pools' cost.
    drop(build());
    let before = BLOCKS_HERE.with(Cell::get);
    let person = build();
    let blocks = BLOCKS_HERE.with(Cell::get) - before;
    assert_eq!(person.first("cn"), Some("Ximena Castillo 000123"));
    assert_eq!(blocks, 2, "a benchmark person holds {blocks} heap blocks");
}

/// `dn`'s parent link is the very block its parent entry's name is.
fn assert_shares_with_parent(dit: &Dit, dn: &Dn, after: &str) {
    let entry = dit
        .get(dn)
        .unwrap_or_else(|| panic!("{after}: `{dn}` exists"));
    let parent = dit.get(&dn.parent().unwrap()).expect("parent exists");
    assert!(
        entry.dn().parent().unwrap().shares_storage(parent.dn()),
        "{after}: `{dn}` holds its own copy of `{}`",
        parent.dn()
    );
}

#[test]
fn entries_share_their_parents_name() {
    let dit = empty_tree();
    load(&dit, 4);
    let kids: Vec<Dn> = (0..4).map(|s| person(s).dn().clone()).collect();
    for dn in &kids {
        assert_shares_with_parent(&dit, dn, "add");
    }
    assert_shares_with_parent(&dit, &unit_dn(0), "add");
    // Siblings therefore share with each other.
    let (a, b) = (dit.get(&kids[0]).unwrap(), dit.get(&kids[1]).unwrap());
    assert!(a
        .dn()
        .parent()
        .unwrap()
        .shares_storage(&b.dn().parent().unwrap()));

    // Bulk load (the snapshot path), freshly parsed names.
    dit.begin_bulk();
    let late = Dn::parse("cn=Late Joiner,ou=dept-000,o=Bench").unwrap();
    dit.bulk_add(
        Entry::with_attrs(late.clone(), [("cn", "Late Joiner")]),
        true,
    )
    .unwrap();
    dit.finish_bulk();
    assert_shares_with_parent(&dit, &late, "bulk_add");

    // Rename in place.
    let renamed = kids[0].with_rdn(Rdn::new("cn", "Renamed")).unwrap();
    dit.modify_rdn(&kids[0], &Rdn::new("cn", "Renamed"), true, None)
        .unwrap();
    assert_shares_with_parent(&dit, &renamed, "modify_rdn");

    // Move a unit, and the people in it, under another unit.
    let target = unit_dn(7);
    dit.add(Entry::with_attrs(target.clone(), [("ou", "dept-007")]))
        .unwrap();
    dit.modify_rdn(
        &unit_dn(0),
        &Rdn::new("ou", "dept-000"),
        false,
        Some(&target),
    )
    .unwrap();
    let moved_unit = target.child(Rdn::new("ou", "dept-000"));
    assert_shares_with_parent(&dit, &moved_unit, "subtree move");
    for dn in [
        moved_unit.child(Rdn::new("cn", "Renamed")),
        moved_unit.child(kids[1].rdn().unwrap().clone()),
        moved_unit.child(Rdn::new("cn", "Late Joiner")),
    ] {
        assert_shares_with_parent(&dit, &dn, "subtree move");
    }

    // A name whose parent is written in another case keeps its own chain
    // and its bytes: what a search returns is what the client stored.
    let shouting = Dn::parse("cn=Loud,OU=DEPT-007,O=BENCH").unwrap();
    dit.add(Entry::with_attrs(shouting.clone(), [("cn", "Loud")]))
        .unwrap();
    let stored = dit.get(&shouting).unwrap();
    assert_eq!(stored.dn().to_string(), "cn=Loud,OU=DEPT-007,O=BENCH");
    let unit = dit.get(&target).unwrap();
    assert!(!stored.dn().parent().unwrap().shares_storage(unit.dn()));
    assert_eq!(stored.dn().parent().unwrap(), *unit.dn());
}

/// Where the entry at `dn` keeps its class list.
fn class_list(dit: &Dit, dn: &Dn) -> (*const u8, Vec<String>) {
    let entry = dit.get(dn).unwrap_or_else(|| panic!("`{dn}` exists"));
    let classes = entry.values("objectClass");
    (classes.as_ptr(), classes.to_vec())
}

#[test]
fn entries_of_a_class_share_one_class_list_and_an_edit_copies_it() {
    let dit = empty_tree();
    load(&dit, 2);
    let (pat, sam) = (person(0).dn().clone(), person(1).dn().clone());
    let shared = class_list(&dit, &pat);
    assert_eq!(shared.1, ["top", "person", "organizationalPerson"]);
    assert_eq!(class_list(&dit, &sam), shared, "add");

    dit.begin_bulk();
    dit.bulk_add(person(2), true).unwrap();
    dit.finish_bulk();
    assert_eq!(class_list(&dit, person(2).dn()), shared, "bulk_add");

    let dir = scratch_dir("classes");
    let store = SnapshotStore::new(&dir);
    store.write_snapshot_streamed(&dit, 1).expect("snapshot");
    let restored = empty_tree();
    store
        .restore_latest(&restored)
        .expect("restore")
        .expect("a snapshot");
    for serial in 0..3 {
        assert_eq!(
            class_list(&restored, person(serial).dn()),
            shared,
            "restore"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A writer copies: the other holders keep the pool's list, untouched.
    dit.modify(
        &pat,
        &[Modification::add(
            "objectClass",
            vec!["definityUser".into()],
        )],
    )
    .unwrap();
    let edited = class_list(&dit, &pat);
    assert_ne!(edited.0, shared.0);
    assert_eq!(
        edited.1,
        ["top", "person", "organizationalPerson", "definityUser"]
    );
    assert_eq!(class_list(&dit, &sam), shared);
    assert_eq!(class_list(&restored, &pat), shared);
    let users = dit
        .search(
            &Dn::root(),
            Scope::Sub,
            &Filter::parse("(objectClass=definityUser)").unwrap(),
            &[],
            0,
        )
        .unwrap();
    assert_eq!(users.len(), 1);
    assert_eq!(users[0].dn(), &pat);
    assert_eq!(dit.index_stats().1, 0, "answered by the equality index");
}

/// The name pool never frees and `Dn::parse` feeds it from any request's
/// base DN: a type longer than any real schema's is parsed, compared and
/// dropped like any other, and never pooled.
#[test]
fn a_flood_of_long_attribute_types_leaves_nothing_behind() {
    drop(Dn::parse("x=v,o=Bench"));
    let ((), held) = held_by(|| {
        for i in 0..5_000 {
            let long = format!("t{i:04}{}", "x".repeat(1_019));
            let dn = Dn::parse(&format!("{long}=v,o=Bench")).expect("a legal type");
            assert_eq!(dn.rdn().unwrap().first().attr(), long);
        }
    });
    assert_eq!(held, 0, "5,000 dropped names left {held} B behind");
}

/// A deployment that is shut down and dropped gives its tree back: nothing
/// inside it (commit observers, the durability engine's alert route, the
/// gauges) may keep the DIT alive. In-process restarts used to cost one
/// tree of RSS each.
#[test]
fn a_dropped_deployment_leaves_no_tree_behind() {
    let _alone = alone();
    let dir = scratch_dir("shutdown");
    for durable in [false, true] {
        let switch = Arc::new(pbx::Store::new(
            "pbx-west",
            pbx::DialPlan::with_prefix("1", 4),
        ));
        let mut builder = metacomm::MetaCommBuilder::new("o=Lucent")
            .add_pbx(switch, "1???")
            .add_msgplat(Arc::new(msgplat::Store::new("mp")), "*");
        if durable {
            builder = builder.with_durability(&dir);
        }
        let system = builder.build().expect("build");
        let server = system.serve("127.0.0.1:0").expect("serve");
        let gateway = system.directory();
        ldap::Directory::add(
            gateway.as_ref(),
            Entry::with_attrs(
                Dn::parse("cn=Pat Smith,o=Lucent").unwrap(),
                [
                    ("objectClass", "top"),
                    ("objectClass", "person"),
                    ("cn", "Pat Smith"),
                    ("sn", "Smith"),
                ],
            ),
        )
        .expect("add through the gateway");
        let tree = Arc::downgrade(&system.dit());
        system.shutdown();
        drop((server, gateway, system));
        assert!(
            tree.upgrade().is_none(),
            "the DIT outlives its {} deployment",
            if durable { "durable" } else { "volatile" }
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
