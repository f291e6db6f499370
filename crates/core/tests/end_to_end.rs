//! End-to-end tests of the MetaComm system: the flows of the paper's
//! Figure 1 — directory-originated updates, direct device updates,
//! cross-device propagation, security, traces and resynchronization. The
//! paper's numbered claims (propagation, convergence, partitioning, the
//! crash window, saga undo, initial load, read isolation) are checked once,
//! in the root `tests/paper_claims.rs`.

use ldap::dn::Dn;
use ldap::entry::Modification;
use ldap::Directory;
use metacomm::{MetaComm, MetaCommBuilder};
use msgplat::Store as MpStore;
use pbx::{DialPlan, Store as PbxStore};
use std::sync::Arc;

struct Rig {
    system: MetaComm,
    west: Arc<PbxStore>,
    east: Arc<PbxStore>,
    mp: Arc<MpStore>,
}

fn rig() -> Rig {
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let east = Arc::new(PbxStore::new("pbx-east", DialPlan::with_prefix("3", 4)));
    let mp = Arc::new(MpStore::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "9???")
        .add_pbx(east.clone(), "3???")
        .add_msgplat(mp.clone(), "*")
        .build()
        .expect("build system");
    Rig {
        system,
        west,
        east,
        mp,
    }
}

#[test]
fn wba_add_person_reaches_all_relevant_devices() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    wba.assign_mailbox("John Doe", "9123", "executive").unwrap();
    r.system.settle();

    // Station on the west switch (extension 9xxx), not the east one.
    let station = r.west.get("9123").expect("station exists");
    assert_eq!(station.get("Name"), Some("Doe, John"));
    assert_eq!(station.get("Room"), Some("2B-401"));
    assert!(r.east.get("9123").is_none());

    // Mailbox on the messaging platform, with a generated id…
    let mbx = r.mp.get("9123").expect("mailbox exists");
    let mbid = mbx.get("MbId").expect("generated id").clone();
    assert!(mbid.starts_with("MB-"));

    // …which flowed back into the directory (§5.5 generated info).
    let entry = wba.person("John Doe").unwrap().expect("entry");
    assert_eq!(entry.first("mpMailboxId"), Some(mbid.as_str()));
    assert_eq!(entry.first("telephoneNumber"), Some("+1 908 582 9123"));
}

#[test]
fn ddu_station_add_materializes_in_directory() {
    let r = rig();
    // A craft terminal adds a station directly at the switch (a DDU).
    r.west
        .plan()
        .check("9200", "pbx-west")
        .expect("valid extension");
    pbx::ossi::execute(
        &r.west,
        r#"add station 9200 name "Smith, Pat" room 2C-115 cov 2"#,
    )
    .unwrap();
    r.system.settle();

    let wba = r.system.wba();
    let entry = wba.person("Pat Smith").unwrap().expect("materialized");
    assert_eq!(entry.first("definityExtension"), Some("9200"));
    assert_eq!(entry.first("telephoneNumber"), Some("+1 908 582 9200"));
    assert_eq!(entry.first("roomNumber"), Some("2C-115"));
    assert_eq!(entry.first("definityCoveragePath"), Some("2"));
    assert_eq!(entry.first("sn"), Some("Smith"));
    // Origin recorded.
    assert_eq!(entry.first("lastUpdater"), Some("pbx-west"));
    // The DDU was reapplied to the originating switch without error and the
    // record still exists exactly once.
    assert_eq!(r.west.get("9200").unwrap().get("Name"), Some("Smith, Pat"));
}

#[test]
fn ddu_console_mailbox_add_flows_to_directory_with_id() {
    let r = rig();
    msgplat::admin::execute(&r.mp, r#"add subscriber 9333 name "Lu, Jill" cos standard"#).unwrap();
    r.system.settle();
    let wba = r.system.wba();
    let entry = wba.person("Jill Lu").unwrap().expect("materialized");
    assert_eq!(entry.first("mpMailbox"), Some("9333"));
    assert!(entry.first("mpMailboxId").unwrap().starts_with("MB-"));
    assert_eq!(entry.first("mpClassOfService"), Some("standard"));
}

#[test]
fn ddu_change_propagates_to_directory_fields() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    r.system.settle();
    // Craft changes the room.
    pbx::ossi::execute(&r.west, "change station 9123 room 2C-115").unwrap();
    r.system.settle();
    let entry = wba.person("John Doe").unwrap().unwrap();
    assert_eq!(entry.first("roomNumber"), Some("2C-115"));
}

#[test]
fn complex_ddu_name_change_uses_modifyrdn_modify_pair() {
    // Paper §5.1: a direct PBX update changing name (RDN) and another field
    // becomes a ModifyRDN/Modify pair.
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    r.system.settle();
    pbx::ossi::execute(
        &r.west,
        r#"change station 9123 name "Doe, Jack" room 2D-001"#,
    )
    .unwrap();
    r.system.settle();

    let wba = r.system.wba();
    assert!(wba.person("John Doe").unwrap().is_none(), "renamed away");
    let entry = wba.person("Jack Doe").unwrap().expect("renamed entry");
    assert_eq!(entry.first("roomNumber"), Some("2D-001"));
    assert_eq!(
        r.system
            .relay_stats()
            .rename_pairs
            .load(std::sync::atomic::Ordering::SeqCst),
        1
    );
}

#[test]
fn station_remove_clears_device_attributes_only() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    wba.assign_mailbox("John Doe", "9123", "standard").unwrap();
    r.system.settle();

    pbx::ossi::execute(&r.west, "remove station 9123").unwrap();
    r.system.settle();

    let entry = wba.person("John Doe").unwrap().expect("person survives");
    assert!(
        !entry.has_attr("definityExtension"),
        "PBX attributes cleared"
    );
    assert_eq!(
        entry.first("mpMailbox"),
        Some("9123"),
        "mailbox data untouched"
    );
    // The paper's §5.2 anomaly: the auxiliary class may remain; only the
    // attribute signals device use.
    assert!(r.mp.get("9123").is_some(), "mailbox survives at device");
}

#[test]
fn directory_delete_removes_person_everywhere() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    wba.assign_mailbox("John Doe", "9123", "standard").unwrap();
    r.system.settle();
    assert!(r.west.get("9123").is_some());
    assert!(r.mp.get("9123").is_some());

    wba.remove_person("John Doe").unwrap();
    r.system.settle();
    assert!(wba.person("John Doe").unwrap().is_none());
    assert!(r.west.get("9123").is_none(), "station removed");
    assert!(r.mp.get("9123").is_none(), "mailbox removed");
}

#[test]
fn resync_clears_stale_directory_data() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    r.system.settle();
    // Simulate a lost notification: the station disappears while the link
    // is down (remove via the Metacomm channel so no DDU event fires).
    r.west.remove("9123", pbx::Channel::Metacomm).unwrap();
    let entry = wba.person("John Doe").unwrap().unwrap();
    assert!(entry.has_attr("definityExtension"), "directory is stale");

    let report = r.system.synchronize_device("pbx-west").unwrap();
    assert_eq!(report.cleared, 1);
    let entry = wba.person("John Doe").unwrap().unwrap();
    assert!(!entry.has_attr("definityExtension"));
}

#[test]
fn network_gateway_deployment_end_to_end() {
    // §5.5 gateway mode: an ordinary LDAP client over TCP administers the
    // telecom devices.
    let r = rig();
    let server = r.system.serve("127.0.0.1:0").unwrap();
    let client = ldap::client::TcpDirectory::connect(&server.addr().to_string()).unwrap();
    let mut entry = ldap::Entry::new(Dn::parse("cn=Net Person,o=Lucent").unwrap());
    for (k, v) in [
        ("objectClass", "top"),
        ("objectClass", "person"),
        ("objectClass", "organizationalPerson"),
        ("objectClass", "definityUser"),
        ("cn", "Net Person"),
        ("sn", "Person"),
        ("definityExtension", "9777"),
    ] {
        entry.add_value(k, v);
    }
    client.add(entry).unwrap();
    r.system.settle();
    assert!(r.west.get("9777").is_some(), "station via TCP client");

    // And the closure works over the wire too.
    client
        .modify(
            &Dn::parse("cn=Net Person,o=Lucent").unwrap(),
            &[Modification::set("telephoneNumber", "+1 908 582 3777")],
        )
        .unwrap();
    r.system.settle();
    assert!(r.west.get("9777").is_none());
    assert!(
        r.east.get("3777").is_some(),
        "migrated via closure + partition"
    );
}

#[test]
fn security_policy_blocks_clients_but_not_relays() {
    // Paper §7: "the current system uses a very simple security mechanism
    // (based on the security model of LTAP)". The platform-generated
    // mailbox id is read-only for clients, yet it still flows in from the
    // device through the relay.
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let mp = Arc::new(MpStore::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west, "9???")
        .add_msgplat(mp.clone(), "*")
        .with_security(
            ltap::SecurityPolicy::new()
                .readonly_attr("mpMailboxId")
                .protect_subtree(Dn::parse("ou=errors,o=Lucent").unwrap()),
        )
        .build()
        .unwrap();
    let wba = system.wba();

    // Clients cannot forge the platform id…
    let dn = Dn::parse("cn=Forger,o=Lucent").unwrap();
    let mut e = ldap::Entry::new(dn);
    for (k, v) in [
        ("objectClass", "top"),
        ("objectClass", "person"),
        ("objectClass", "messagingUser"),
        ("cn", "Forger"),
        ("sn", "Forger"),
        ("mpMailboxId", "MB-999999"),
    ] {
        e.add_value(k, v);
    }
    let err = system.directory().add(e).unwrap_err();
    assert_eq!(err.code, ldap::ResultCode::InsufficientAccessRights);

    // …but a console-created mailbox still materializes WITH its id.
    msgplat::admin::execute(&mp, r#"add subscriber 9123 name "Doe, John""#).unwrap();
    system.settle();
    let john = wba.person("John Doe").unwrap().expect("materialized");
    assert!(john.first("mpMailboxId").unwrap().starts_with("MB-"));

    // The error-log subtree is protected from clients.
    let err = system
        .directory()
        .delete(&Dn::parse("ou=errors,o=Lucent").unwrap())
        .unwrap_err();
    assert_eq!(err.code, ldap::ResultCode::InsufficientAccessRights);
    system.shutdown();
}

#[test]
fn update_traces_explain_the_pipeline() {
    let r = rig();
    let wba = r.system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
        .unwrap();
    wba.set_phone("John Doe", "+1 908 582 3456").unwrap(); // west → east
    r.system.settle();

    let traces = r.system.recent_traces();
    assert!(traces.len() >= 2);
    // The add: routed to pbx-west, skipped at pbx-east and the platform.
    let add = &traces[0];
    assert!(add.op.starts_with("Add"), "{}", add.op);
    assert_eq!(add.origin, "wba");
    assert_eq!(add.outcome, "ok");
    let west_op = add
        .device_ops
        .iter()
        .find(|(name, ..)| name == "pbx-west")
        .expect("west op traced");
    assert_eq!(west_op.1, "Add");
    assert!(west_op.3, "applied");
    assert!(add
        .device_ops
        .iter()
        .any(|(name, kind, ..)| name == "pbx-east" && kind == "Skip"));

    // The renumber: closure derived the extension; delete@west + add@east.
    let renumber = traces
        .iter()
        .find(|t| t.op.starts_with("Modify"))
        .expect("modify trace");
    assert!(
        renumber
            .derived_attrs
            .iter()
            .any(|a| a == "definityextension"),
        "closure derivation must be traced: {:?}",
        renumber.derived_attrs
    );
    assert!(renumber
        .device_ops
        .iter()
        .any(|(name, kind, ..)| name == "pbx-west" && kind == "Delete"));
    assert!(renumber
        .device_ops
        .iter()
        .any(|(name, kind, ..)| name == "pbx-east" && kind == "Add"));

    // A failed update's trace carries the error.
    let _ = wba.add_person_with_extension("Bad", "Bad", "9x1z", "2B");
    let traces = r.system.recent_traces();
    let failed = traces.last().unwrap();
    assert!(failed.outcome.contains("pbx-west"), "{}", failed.outcome);

    // Stages are consecutive stretches of the one worker's wall time.
    for t in &traces {
        let staged: u64 = t.stage_ns.iter().map(|(_, ns)| ns).sum();
        assert!(staged <= t.total_ns, "Σ stage > total: {t:?}");
    }
}

#[test]
fn duplicate_device_names_surface_as_sync_conflicts() {
    // Station names are NOT unique at the device, but the integrated schema
    // keys people by name — a real deployment hits this when an operator
    // gives two stations the same display name. Sync materializes one and
    // logs the other for the administrator (§4.4's manual-fix path).
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    for ext in ["9100", "9200"] {
        west.add(
            pbx::Record::from_pairs([
                ("Extension", ext),
                ("Name", "Doe, John"), // same name, twice
                ("CoveragePath", "1"),
            ]),
            pbx::Channel::Metacomm,
        )
        .unwrap();
    }
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west, "9???")
        .build()
        .unwrap();
    let report = system.synchronize_all().unwrap();
    assert_eq!(report.added, 1, "first record materializes");
    assert_eq!(report.failed, 1, "second is a conflict");
    let errors = system.browse_errors().unwrap();
    assert_eq!(errors.len(), 1);
    let text = errors[0].first("metacommErrorText").unwrap();
    assert!(text.contains("sync conflict"), "{text}");
    assert!(text.contains("9100") && text.contains("9200"), "{text}");
    // The conflict is stable: re-syncing neither duplicates nor flaps.
    let again = system.synchronize_all().unwrap();
    assert_eq!(again.added, 0);
    assert_eq!(again.failed, 1);
    system.shutdown();
}

#[test]
fn mapping_files_load_from_disk() {
    let dir = std::env::temp_dir().join(format!("metacomm-maps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("extra.lex");
    // An extra intra-directory rule loaded from a deployment file.
    std::fs::write(
        &path,
        "mapping extra { source ldap; target ldap; key source dn; key target dn; \
         map roomNumber -> description : concat(\"room \", roomNumber); }",
    )
    .unwrap();
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(west, "9???")
        .with_mapping_file(&path)
        .build()
        .unwrap();
    assert!(system.engine().mapping("extra").is_some());
    system.shutdown();

    // Unreadable files fail the build with a clear error.
    let err = match MetaCommBuilder::new("o=Lucent")
        .with_mapping_file(dir.join("missing.lex"))
        .build()
    {
        Err(e) => e,
        Ok(_) => panic!("missing mapping file must fail the build"),
    };
    assert!(err.to_string().contains("missing.lex"), "{err}");
}
