//! A deployment that is shut down and dropped frees its directory: nothing
//! it started (observers, the durability engine, the relays, the Update
//! Manager, the wire server) keeps the `Dit` alive once the last handle
//! goes. Resident memory a dropped deployment leaves behind is the heap
//! arenas' retention, not a reference cycle.
//!
//! A binary of its own, not a second test in `thread_census`: that file's
//! census counts every thread of its process, and a test running beside it
//! would be counted.

use ldap::client::TcpDirectory;
use ldap::{Directory, Dn};
use metacomm::MetaCommBuilder;
use pbx::{DialPlan, Store as PbxStore};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

const PEOPLE: usize = 500;

#[test]
fn a_durable_served_deployment_with_both_devices_frees_its_directory_when_dropped() {
    let dir = std::env::temp_dir().join(format!("metacomm-teardown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let switch = Arc::new(PbxStore::new("pbx-1", DialPlan::with_prefix("1", 4)));
    let platform = Arc::new(msgplat::Store::new("mp"));
    for i in 0..PEOPLE {
        let ext = (1000 + i).to_string();
        let name = format!("Doe{i:03}, John");
        let station = pbx::Record::from_pairs([("Extension", ext.as_str()), ("Name", &name)]);
        switch
            .add(station, pbx::Channel::Metacomm)
            .expect("station");
        let mailbox = msgplat::store::record([("Mailbox", ext.as_str()), ("Subscriber", &name)]);
        platform
            .add(mailbox, msgplat::Channel::Metacomm)
            .expect("mailbox");
    }

    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(platform.clone(), "*")
        .with_durability(&dir)
        .build()
        .expect("build");
    let report = system.synchronize_all().expect("initial load");
    assert_eq!((report.added, report.failed), (PEOPLE, 0), "{report:?}");

    // A change at the craft terminal, relayed into the directory, and a
    // read of its result over the wire.
    pbx::ossi::execute(&switch, "change station 1007 room 4D-17").expect("craft change");
    system.settle();
    assert_eq!(system.relay_stats().ddus.load(Ordering::SeqCst), 1);
    let mut server = system.serve("127.0.0.1:0").expect("serve");
    let client = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    let person = Dn::parse("cn=John Doe007,o=Lucent").expect("dn");
    let entry = client.get(&person).expect("read").expect("materialized");
    assert_eq!(entry.first("roomNumber"), Some("4D-17"));

    let dit: Weak<ldap::Dit> = Arc::downgrade(&system.dit());
    drop(client);
    server.shutdown();
    drop(server);
    system.shutdown();
    drop(system);
    assert!(
        dit.upgrade().is_none(),
        "a dropped deployment still holds its directory ({} strong handles)",
        dit.strong_count()
    );
    // The devices outlive the deployment.
    assert_eq!((switch.len(), platform.len()), (PEOPLE, PEOPLE));
    let _ = std::fs::remove_dir_all(&dir);
}
