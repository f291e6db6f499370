//! E8 — failure injection: the §5.1 crash window and §4.4 error handling.
//!
//! Paper anchors: §5.1 ("if the UM crashes between the ModifyRDN and the
//! Modify operations, the entry will be inconsistent for readers … when
//! the UM restarts and re-synchronizes the directory with the devices, the
//! inconsistencies will be eliminated") and §4.4 (invalid updates abort,
//! are logged into the directory, and alert the administrator).

use super::{Report, Scale};
use crate::rig;
use std::fmt::Write as _;

pub fn run(scale: Scale) -> Report {
    let trials = match scale {
        Scale::Quick => 5,
        Scale::Full => 25,
    };
    let mut table = String::new();
    writeln!(
        table,
        "{:>6} {:>14} {:>12} {:>12} {:>12}",
        "trial", "inconsistent", "logged", "repaired", "consistent"
    )
    .unwrap();
    let mut all_repaired = true;
    for t in 0..trials {
        let r = rig(1, false);
        let wba = r.system.wba();
        let alerts = r.system.alerts();
        wba.add_person_with_extension("John Doe", "Doe", "1100", "OLD")
            .expect("seed");
        r.system.settle();

        // Crash between the ModifyRDN/Modify pair of a complex DDU.
        r.system.inject_crash_between_pair();
        pbx::ossi::execute(
            &r.pbxes[0],
            &format!(r#"change station 1100 name "Doe, Jack" room NEW{t}"#),
        )
        .expect("craft");
        r.system.settle();

        // Reader-visible inconsistency: renamed but the room is stale.
        let half = wba.person("Jack Doe").unwrap();
        let inconsistent = half
            .as_ref()
            .map(|e| e.first("roomNumber") == Some("OLD"))
            .unwrap_or(false);
        let logged = alerts.try_iter().count() > 0;

        // "UM restart": resynchronize with the device.
        let report = r.system.synchronize_device("pbx-1").expect("resync");
        let consistent = wba
            .person("Jack Doe")
            .unwrap()
            .map(|e| e.first("roomNumber") == Some(format!("NEW{t}").as_str()))
            .unwrap_or(false);
        all_repaired &= inconsistent && logged && consistent;
        if t < 5 {
            writeln!(
                table,
                "{:>6} {:>14} {:>12} {:>12} {:>12}",
                t, inconsistent, logged, report.repaired, consistent
            )
            .unwrap();
        }
        r.system.shutdown();
    }
    if trials > 5 {
        writeln!(table, "  … ({trials} trials total, all identical)").unwrap();
    }

    // §4.4 invalid-update path: device rejects, update aborts, error logged.
    let r = rig(1, false);
    let wba = r.system.wba();
    let alerts = r.system.alerts();
    let err = wba
        .add_person_with_extension("Bad Person", "Person", "1x2z", "2B")
        .expect_err("invalid extension rejected by the switch");
    let aborted = wba.person("Bad Person").unwrap().is_none();
    let logged = r.system.browse_errors().unwrap().len();
    let alerted = alerts.try_iter().count();
    writeln!(table).unwrap();
    writeln!(
        table,
        "invalid update: client error `{}`, aborted={}, errors logged={}, \
         admin alerts={}",
        err.code, aborted, logged, alerted
    )
    .unwrap();
    r.system.shutdown();

    Report {
        id: "E8",
        title: "Failure injection: crash window + invalid updates",
        claim: "a UM crash inside the non-atomic ModifyRDN/Modify pair \
                leaves a reader-visible inconsistency that resynchronization \
                eliminates; invalid updates abort with a directory-logged \
                error and an administrator alert",
        table,
        observations: vec![format!(
            "{trials}/{trials} injected crashes produced the predicted \
             inconsistency and {} repaired it",
            if all_repaired {
                "resync always"
            } else {
                "resync NOT always"
            }
        )],
        failed: None,
    }
}
