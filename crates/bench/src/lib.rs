//! Test support: synthetic workload generation, system rigs and the soak
//! oracle shared by the rig binaries (`crash_rig`, `soak_rig`,
//! `scale_rig`) and the root integration tests. Timings that are compared
//! between commits come from the repo benchmark in `bench/`, not from here.
//!
//! The paper's corporate user population is proprietary; this generator
//! produces the synthetic equivalent (DESIGN.md §1): realistic name/org
//! distributions, extensions drawn from dial-plan ranges, and update mixes
//! with a configurable direct-device-update (DDU) share — the workload
//! *shape* (few DDUs per entry per day, read-heavy LDAP traffic) is what
//! the paper's consistency argument depends on, so those are the knobs.

pub mod churn;
pub mod oracle;
pub mod population;
pub mod rss;
pub mod scale;
pub mod workload;

use metacomm::{MetaComm, MetaCommBuilder};
use msgplat::Store as MpStore;
use pbx::{DialPlan, Store as PbxStore};
use std::sync::Arc;

/// A deployed test system with handles to every device store.
pub struct Rig {
    pub system: MetaComm,
    pub pbxes: Vec<Arc<PbxStore>>,
    pub mp: Option<Arc<MpStore>>,
}

/// Build a rig with `n_pbx` switches (partitioned `1xxx`, `2xxx`, …) and
/// optionally a messaging platform.
pub fn rig(n_pbx: usize, with_mp: bool) -> Rig {
    assert!(
        (1..=8).contains(&n_pbx),
        "extension prefixes support 1..=8 switches"
    );
    let mut builder = MetaCommBuilder::new("o=Lucent");
    let mut pbxes = Vec::new();
    for i in 0..n_pbx {
        let prefix = (i + 1).to_string();
        let store = Arc::new(PbxStore::new(
            format!("pbx-{}", i + 1),
            DialPlan::with_prefix(&prefix, 4),
        ));
        builder = builder.add_pbx(store.clone(), &format!("{prefix}???"));
        pbxes.push(store);
    }
    let mp = if with_mp {
        let store = Arc::new(MpStore::new("mp"));
        builder = builder.add_msgplat(store.clone(), "*");
        Some(store)
    } else {
        None
    };
    let system = builder.build().expect("assemble rig");
    Rig { system, pbxes, mp }
}

impl Rig {
    /// Which switch owns `ext` (by first digit).
    pub fn switch_for(&self, ext: &str) -> &Arc<PbxStore> {
        let idx = ext
            .chars()
            .next()
            .and_then(|c| c.to_digit(10))
            .map(|d| (d as usize).saturating_sub(1))
            .unwrap_or(0);
        &self.pbxes[idx.min(self.pbxes.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_and_routes() {
        let r = rig(3, true);
        assert_eq!(r.pbxes.len(), 3);
        assert!(r.mp.is_some());
        assert_eq!(r.switch_for("2345").name(), "pbx-2");
        assert_eq!(r.switch_for("1000").name(), "pbx-1");
        r.system.shutdown();
    }
}
