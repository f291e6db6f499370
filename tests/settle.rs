//! `MetaComm::settle` is exact: it returns once every relay has finished
//! every direct device update its device fed it and no update is under
//! way — not once the pipeline's counters have stood still for a while —
//! and on an idle deployment it returns at once.

use metacomm::{FaultPlan, MetaCommBuilder};
use pbx::{DialPlan, Store as PbxStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A console change whose §5.4 reapply at the platform takes 80 ms, longer
/// than any counter of the pipeline stands still for: `settle` returns
/// only once the relay has committed it to the directory.
#[test]
fn settle_waits_for_a_ddu_whose_reapply_is_slow() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let mp = Arc::new(msgplat::Store::new("mp"));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .add_msgplat(mp.clone(), "*")
        .with_fault_plan(
            "mp",
            FaultPlan {
                latency: Some(Duration::from_millis(80)),
                ..FaultPlan::default()
            },
        )
        .build()
        .expect("build");
    let wba = system.wba();
    wba.add_person_with_extension("John Doe", "Doe", "1001", "2B-401")
        .expect("hire");
    wba.assign_mailbox("John Doe", "1001", "standard")
        .expect("mailbox");
    let cos = |system: &metacomm::MetaComm| {
        let person = system.wba().person("John Doe").expect("read");
        let person = person.expect("materialized");
        person.first("mpClassOfService").map(str::to_string)
    };
    assert_eq!(cos(&system).as_deref(), Some("standard"));

    let t0 = Instant::now();
    msgplat::admin::execute(&mp, "change subscriber 1001 cos executive").expect("console");
    system.settle();
    let waited = t0.elapsed();
    assert_eq!(
        cos(&system).as_deref(),
        Some("executive"),
        "settle returned after {waited:?} with the console change still in flight"
    );
    assert!(waited >= Duration::from_millis(80), "{waited:?}");
    system.shutdown();
}

/// With nothing fed and nothing under way, `settle` has nothing to wait
/// for: the median of 21 calls is under a millisecond.
#[test]
fn an_idle_settle_returns_at_once() {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let system = MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch.clone(), "1???")
        .add_msgplat(Arc::new(msgplat::Store::new("mp")), "*")
        .build()
        .expect("build");
    pbx::ossi::execute(&switch, r#"add station 1001 name "Doe, John""#).expect("craft");
    system.settle();
    assert!(system.wba().person("John Doe").expect("read").is_some());
    let mut took: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            system.settle();
            t0.elapsed()
        })
        .collect();
    took.sort();
    assert!(
        took[10] < Duration::from_millis(1),
        "an idle settle took {:?} (median of 21)",
        took[10]
    );
    system.shutdown();
}
