//! The on-disk snapshot format, specified by a file: `# seq` header, LDIF
//! entries level by level in key order (base64 where LDIF demands it), and
//! a `# crc32` footer over every byte before it. The fixture was written by
//! the materializing writer of commit f31961f; the writer must reproduce it
//! byte for byte and the reader must load it.

use ldap::backup::{self, SnapshotStore};
use ldap::dit::{figure2_tree, Dit};
use ldap::{Dn, Modification};
use std::path::PathBuf;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/figure2.snap.ldif"
);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metacomm-snapfix-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The tree the fixture holds: Figure 2 plus one value that needs base64,
/// ten commits in all.
fn source() -> std::sync::Arc<Dit> {
    let dit = Dit::new();
    figure2_tree(&dit).unwrap();
    let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
    dit.modify(&john, &[Modification::set("description", " spaced ")])
        .unwrap();
    dit
}

#[test]
fn writer_reproduces_the_fixture_byte_for_byte() {
    let dir = tmpdir("write");
    let store = SnapshotStore::new(&dir);
    assert_eq!(store.write_snapshot_streamed(&source(), 1).unwrap(), 10);
    assert_eq!(
        std::fs::read(store.snapshot_path(1)).unwrap(),
        std::fs::read(FIXTURE).unwrap()
    );
    let single = dir.join("single.ldif");
    backup::snapshot(&source(), &single).unwrap();
    assert_eq!(
        std::fs::read(&single).unwrap(),
        std::fs::read(FIXTURE).unwrap()
    );
}

#[test]
fn reader_loads_the_fixture() {
    let dir = tmpdir("read");
    let store = SnapshotStore::new(&dir);
    std::fs::copy(FIXTURE, store.snapshot_path(1)).unwrap();
    let restored = Dit::new();
    assert_eq!(
        store.restore_latest(&restored).unwrap(),
        Some((1, 10, 9)),
        "(generation, header seq, entries)"
    );
    assert_eq!(restored.export(), source().export());

    let single = Dit::new();
    assert_eq!(
        backup::restore_snapshot(&single, FIXTURE.as_ref()).unwrap(),
        9
    );
    assert_eq!(single.export(), source().export());
}
