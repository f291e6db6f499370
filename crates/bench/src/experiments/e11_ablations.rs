//! E11 — ablations of MetaComm's design choices.
//!
//! Two mechanisms the paper's design depends on are switched off to show
//! what they buy:
//!
//! * **Transitive-closure hub rules** (§4.2): without them, a telephone
//!   number change no longer updates the dependent extension, so the
//!   station never migrates and the directory silently diverges from the
//!   paper's intended semantics.
//! * **Saga-style undo** (§4.4's planned extension): without it, a
//!   partially applied multi-device update leaves the first device changed
//!   after the second rejects; with it, the first device is compensated.

use super::{Report, Scale};
use ldap::{Directory, Dn, Entry};
use metacomm::MetaCommBuilder;
use msgplat::Store as MpStore;
use pbx::{DialPlan, Store as PbxStore};
use std::fmt::Write as _;
use std::sync::Arc;

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
    system.settle();
    wba.set_phone("John Doe", "+1 908 582 2200")
        .expect("renumber");
    system.settle();
    let migrated = west.get("1100").is_none() && east.get("2200").is_some();
    let ext_updated = wba
        .person("John Doe")
        .unwrap()
        .unwrap()
        .first("definityExtension")
        == Some("2200");
    system.shutdown();
    (migrated, ext_updated)
}

fn partial_failure_outcome(with_saga: bool) -> (bool, usize) {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let mp = Arc::new(MpStore::new("mp"));
    // Poison the platform so the second device op fails.
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
    let mut entry = Entry::new(Dn::parse("cn=John Doe,o=Lucent").unwrap());
    for (k, v) in [
        ("objectClass", "top"),
        ("objectClass", "person"),
        ("objectClass", "organizationalPerson"),
        ("objectClass", "definityUser"),
        ("objectClass", "messagingUser"),
        ("cn", "John Doe"),
        ("sn", "Doe"),
        ("definityExtension", "9123"),
        ("mpMailbox", "9123"),
    ] {
        entry.add_value(k, v);
    }
    let _ = system.directory().add(entry); // fails at the platform
    system.settle();
    let orphan_station = west.get("9123").is_some();
    let undone = system
        .um_stats()
        .undone
        .load(std::sync::atomic::Ordering::SeqCst);
    system.shutdown();
    (orphan_station, undone)
}

pub fn run(_scale: Scale) -> Report {
    let mut table = String::new();
    writeln!(
        table,
        "{:<34} {:>12} {:>14}",
        "phone-change pipeline", "migrated", "ext updated"
    )
    .unwrap();
    let (mig_on, ext_on) = phone_change_migrates(true);
    let (mig_off, ext_off) = phone_change_migrates(false);
    writeln!(
        table,
        "{:<34} {:>12} {:>14}",
        "  hub closure ON (paper)", mig_on, ext_on
    )
    .unwrap();
    writeln!(
        table,
        "{:<34} {:>12} {:>14}",
        "  hub closure OFF", mig_off, ext_off
    )
    .unwrap();
    writeln!(table).unwrap();
    writeln!(
        table,
        "{:<34} {:>14} {:>14}",
        "partial multi-device failure", "orphan station", "compensations"
    )
    .unwrap();
    let (orphan_off, undone_off) = partial_failure_outcome(false);
    let (orphan_on, undone_on) = partial_failure_outcome(true);
    writeln!(
        table,
        "{:<34} {:>14} {:>14}",
        "  saga undo OFF (paper prototype)", orphan_off, undone_off
    )
    .unwrap();
    writeln!(
        table,
        "{:<34} {:>14} {:>14}",
        "  saga undo ON (planned version)", orphan_on, undone_on
    )
    .unwrap();
    Report {
        id: "E11",
        title: "Ablations: transitive closure and saga undo",
        claim: "the closure is what makes one logical phone change consistent \
                across dependent attributes/devices; saga compensation is what \
                the paper's error-log-only prototype leaves to the administrator",
        table,
        observations: vec![
            format!(
                "without hub rules the station migration silently stops \
                 (migrated={mig_off}); the paper's admin would be left with a \
                 stale extension"
            ),
            format!(
                "without saga undo the aborted update leaves an orphan station \
                 (orphan={orphan_off}) plus an error-log entry — exactly the \
                 prototype behaviour §4.4 describes; with it the station is \
                 compensated ({undone_on} undo)"
            ),
        ],
        failed: None,
    }
}
