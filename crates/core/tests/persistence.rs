//! Durable-deployment tests: the directory survives a full restart of the
//! meta-directory process (snapshot + journal recovery), and device changes
//! that happened during the outage are reconciled by synchronization —
//! the complete §2/§4.4 availability story.

use metacomm::MetaCommBuilder;
use pbx::{Channel, DialPlan, Record, Store as PbxStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metacomm-persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn build(dir: &Path, west: &Arc<PbxStore>) -> metacomm::MetaComm {
    MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "9???")
        .with_durability(dir.to_path_buf())
        .build()
        .expect("build durable system")
}

#[test]
fn directory_survives_restart() {
    let dir = tmpdir("restart");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    {
        let system = build(&dir, &west);
        let wba = system.wba();
        wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
            .unwrap();
        wba.add_person_with_extension("Pat Smith", "Smith", "9200", "2C-115")
            .unwrap();
        system.settle();
        system.shutdown();
    }
    // "Restart" the meta-directory over the same persistence directory.
    let system = build(&dir, &west);
    let wba = system.wba();
    let john = wba.person("John Doe").unwrap().expect("recovered");
    assert_eq!(john.first("definityExtension"), Some("9123"));
    assert_eq!(john.first("roomNumber"), Some("2B-401"));
    assert!(wba.person("Pat Smith").unwrap().is_some());
    // Recovery is consistent with the devices: resync finds nothing.
    let report = system.synchronize_all().unwrap();
    assert_eq!(report.added, 0);
    assert_eq!(report.cleared, 0);
    system.shutdown();
}

#[test]
fn outage_changes_reconciled_after_recovery() {
    let dir = tmpdir("outage");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    {
        let system = build(&dir, &west);
        system
            .wba()
            .add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
            .unwrap();
        system.settle();
        system.shutdown();
    }
    // While the meta-directory is down, the craft terminal keeps working
    // (the paper's availability argument) — these updates are "lost".
    west.change(
        "9123",
        Record::from_pairs([("Room", "4F-007")]),
        Channel::Metacomm, // no relay is running anyway; be explicit
    )
    .unwrap();
    west.add(
        Record::from_pairs([
            ("Extension", "9400"),
            ("Name", "Dickens, Tim"),
            ("CoveragePath", "1"),
        ]),
        Channel::Metacomm,
    )
    .unwrap();

    // Restart + the paper's recovery procedure: resynchronize.
    let system = build(&dir, &west);
    let report = system.synchronize_device("pbx-west").unwrap();
    assert_eq!(report.added, 1, "Tim materialized");
    assert_eq!(report.repaired, 1, "John's room repaired");
    let wba = system.wba();
    assert_eq!(
        wba.person("John Doe").unwrap().unwrap().first("roomNumber"),
        Some("4F-007")
    );
    assert!(wba.person("Tim Dickens").unwrap().is_some());
    system.shutdown();
}

fn files_matching(dir: &Path, prefix: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with(prefix))
        .collect();
    out.sort();
    out
}

#[test]
fn checkpoint_rotates_and_prunes() {
    let dir = tmpdir("checkpoint");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let system = build(&dir, &west);
    let wba = system.wba();
    for i in 0..20 {
        wba.add_person_with_extension(&format!("Person {i:02}"), "P", &format!("9{i:03}"), "2B")
            .unwrap();
    }
    system.settle();
    let wal_before = files_matching(&dir, "wal-");
    assert!(!wal_before.is_empty(), "commits framed into a wal segment");
    system.checkpoint().unwrap();
    system.checkpoint().unwrap();
    // Rotation bounds the on-disk state: at most the newest two snapshots
    // (the older is the torn-write fallback) plus their segments.
    let snaps = files_matching(&dir, "snap-");
    assert!(
        (1..=2).contains(&snaps.len()),
        "snapshots pruned to the newest two, got {snaps:?}"
    );
    assert!(
        files_matching(&dir, "wal-").len() <= 3,
        "old segments pruned"
    );
    system.shutdown();

    // Recovery from the checkpointed state is complete.
    let system = build(&dir, &west);
    assert_eq!(system.wba().find("(cn=Person*)").unwrap().len(), 20);
    let report = system.recovery_report().expect("durable deployment");
    assert!(report.snapshot_entries > 0, "snapshot restored");
    system.shutdown();
}

#[test]
fn legacy_ldif_layout_is_refused_not_booted_empty() {
    let dir = tmpdir("legacy");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    {
        let system = build(&dir, &west);
        system
            .wba()
            .add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
            .unwrap();
        system.settle();
        system.checkpoint().unwrap(); // snapshot now includes John
        system.shutdown();
    }
    // Rewrite the state directory into the pre-WAL layout: the newest
    // snapshot becomes `directory.ldif`, generations disappear.
    let snaps = files_matching(&dir, "snap-");
    std::fs::copy(dir.join(snaps.last().unwrap()), dir.join("directory.ldif")).unwrap();
    for f in files_matching(&dir, "snap-")
        .into_iter()
        .chain(files_matching(&dir, "wal-"))
    {
        std::fs::remove_file(dir.join(f)).unwrap();
    }

    let err = match MetaCommBuilder::new("o=Lucent")
        .add_pbx(west, "9???")
        .with_durability(dir.clone())
        .build()
    {
        Ok(_) => panic!("booted an empty directory beside the pre-WAL files"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("directory.ldif"), "names the file: {err}");
    assert!(
        !err.contains("changes.ldif"),
        "and only what is there: {err}"
    );
    // Nothing was written beside the files it refused.
    assert!(files_matching(&dir, "snap-").is_empty());
    assert!(files_matching(&dir, "wal-").is_empty());
}

#[test]
fn crash_without_shutdown_loses_nothing_committed() {
    let dir = tmpdir("crash");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    {
        let system = build(&dir, &west);
        system
            .wba()
            .add_person_with_extension("John Doe", "Doe", "9123", "2B")
            .unwrap();
        system.settle();
        // Simulated hard crash: drop without shutdown. The journal was
        // flushed at each commit, so nothing committed is lost.
        std::mem::forget(system);
    }
    let west2 = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let system = build(&dir, &west2);
    assert!(system.wba().person("John Doe").unwrap().is_some());
    // The fresh (empty) switch gets repopulated from... nothing: the
    // directory still *claims* the extension; pushing it back to the device
    // is the sync direction not modelled (device-authoritative), so the
    // stale claim is cleared instead.
    let report = system.synchronize_device("pbx-west").unwrap();
    assert_eq!(report.cleared, 1);
    system.shutdown();
}
