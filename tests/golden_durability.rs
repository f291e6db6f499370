//! Golden snapshot of the durability layer's observable surface: the
//! [`metacomm::RecoveryReport`] a restarted deployment serves, and the
//! `cn=durability,cn=monitor` entry it publishes. Volatile numeric values
//! are normalized to `#` (timing-dependent byte/fsync counts); the *shape*
//! — which report fields and which monitor gauges exist — is pinned by
//! `tests/golden/durability_monitor.txt`.
//!
//! Regenerate after an intentional shape change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_durability
//! ```

use ldap::dit::Scope;
use ldap::filter::Filter;
use ldap::wal::FsyncPolicy;
use ldap::{Directory, Dn, Entry};
use metacomm::{MetaComm, MetaCommBuilder, MonitorDirectory};
use pbx::{DialPlan, Store as PbxStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metacomm-goldendur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> MetaComm {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .with_durability(dir.to_path_buf())
        .with_fsync_policy(FsyncPolicy::Group)
        .build()
        .expect("build durable system")
}

/// The report, one `field: value` line each, volatile timings normalized.
fn render_report(r: &metacomm::RecoveryReport) -> String {
    format!(
        "recovery_report:\n\
         snapshot_generation: #\n\
         snapshot_entries: {}\n\
         wal_records_applied: {}\n\
         wal_records_skipped: {}\n\
         wal_records_discarded: {}\n\
         torn_segments: {}\n\
         stale_devices: {}\n\
         replay_micros: #\n",
        r.snapshot_entries,
        r.wal_records_applied,
        r.wal_records_skipped,
        r.wal_records_discarded,
        r.torn_segments,
        r.stale_devices,
    )
}

/// Same normalization as `tests/monitor_wire.rs`: numeric values become `#`.
fn normalize(entries: &[Entry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!("dn: {}\n", e.dn()));
        let mut lines: Vec<String> = Vec::new();
        for a in e.attributes() {
            for v in &a.values {
                let shown = if v.parse::<f64>().is_ok() {
                    "#"
                } else {
                    v.as_str()
                };
                lines.push(format!("{}: {}", a.name, shown));
            }
        }
        lines.sort();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
    }
    out
}

#[test]
fn recovery_report_and_durability_monitor_match_golden() {
    let dir = tmpdir();
    {
        let system = durable(&dir);
        let wba = system.wba();
        for i in 0..8 {
            wba.add_person_with_extension(
                &format!("Gold Person {i:02}"),
                "Person",
                &format!("1{i:03}"),
                "R1",
            )
            .expect("add");
        }
        for i in 0..4 {
            wba.assign_room(&format!("Gold Person {i:02}"), "R2")
                .expect("modify");
        }
        system.settle();
        std::mem::forget(system); // crash: no shutdown checkpoint
    }

    let system = durable(&dir);
    let report = system.recovery_report().expect("durable restart");
    // The scripted day is fixed, so the committed prefix is too: at least
    // one record per acknowledged update replays, cleanly. (The exact
    // count — closure-derived records included — is pinned by the golden.)
    assert!(report.wal_records_applied + report.snapshot_entries >= 12);
    assert_eq!(report.torn_segments, 0);

    let monitor = MonitorDirectory::new(system.directory(), system.metrics().clone());
    let hits = monitor
        .search(
            &Dn::parse("cn=durability,cn=monitor").unwrap(),
            Scope::Base,
            &Filter::match_all(),
            &[],
            0,
        )
        .expect("search cn=durability");
    assert_eq!(hits.len(), 1, "exactly one durability entry");

    let actual = format!("{}\n{}", render_report(&report), normalize(&hits));
    let golden_path = format!(
        "{}/tests/golden/durability_monitor.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(&golden_path).expect("read golden snapshot");
    assert_eq!(
        actual, expected,
        "durability surface drifted from {golden_path}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
    system.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without durability the report is absent and `cn=durability` is not
/// published — the subtree's presence is itself a deployment signal.
#[test]
fn durability_surface_is_absent_on_volatile_deployments() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .build()
        .expect("build volatile system");
    assert!(system.recovery_report().is_none());
    let monitor = MonitorDirectory::new(system.directory(), system.metrics().clone());
    let hits = monitor
        .search(
            &Dn::parse("cn=monitor").unwrap(),
            Scope::Sub,
            &Filter::match_all(),
            &[],
            0,
        )
        .expect("search cn=monitor");
    assert!(
        !hits
            .iter()
            .any(|e| e.dn().to_string().contains("cn=durability")),
        "volatile deployment must not publish cn=durability"
    );
    system.shutdown();
}
