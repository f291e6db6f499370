//! Deterministic synthetic-population generation for the soak engine.
//!
//! The paper's corporate directory is proprietary; this module produces its
//! synthetic stand-in at scale: organizations, sites with room inventories,
//! per-switch dial-plan extension blocks, and mailbox classes, all derived
//! from one seed so two runs with the same [`PopulationSpec`] are
//! bit-identical (`tests/prop_population.rs` holds that property).
//!
//! Scaling note: extensions live in the integrated schema's 4-digit dial
//! plan (the hub rules derive `definityExtension` from the last four digits
//! of `telephoneNumber`), so stationed subscribers are bounded by the
//! dial-plan blocks — one `d???` block of 1 000 extensions per switch,
//! up to nine switches. Populations beyond the block capacity get
//! directory-only subscribers (no station), which is also the realistic
//! shape: not every employee owns a PBX port. The generator itself scales
//! to 100k+ subscribers; the stationed subset is what drives device
//! traffic.

use metacomm::{BreakerPolicy, FaultPlan, MetaComm, MetaCommBuilder, RetryPolicy};
use msgplat::Store as MpStore;
use pbx::{DialPlan, Store as PbxStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const GIVEN: &[&str] = &[
    "John", "Pat", "Tim", "Jill", "Ana", "Wei", "Ravi", "Maya", "Sam", "Lena", "Igor", "Noor",
    "Kofi", "Rosa", "Hugo", "Mei", "Omar", "Tara", "Ivan", "Yuki",
];
const SURNAMES: &[&str] = &[
    "Doe", "Smith", "Dickens", "Lu", "Garcia", "Chen", "Patel", "Okafor", "Kim", "Novak", "Hassan",
    "Silva", "Mori", "Bauer", "Rossi", "Dubois", "Larsen", "Kovacs", "Adeyemi", "Nakamura",
];
const DEPARTMENTS: &[&str] = &[
    "Switching",
    "Transmission",
    "Wireless",
    "Optical",
    "Software",
    "Research",
    "Operations",
    "Field Service",
];
const SITES: &[&str] = &["MH", "HO", "WH", "IL", "CO", "NJ"];
const WINGS: &[&str] = &["A", "B", "C", "D"];

/// Subscriber mailbox classes of service (the msgplat `Cos` field).
pub const MAILBOX_CLASSES: &[&str] = &["standard", "executive", "frontdesk", "shared"];

/// Extensions per dial-plan block (`d???` — one leading digit, 3 serials).
pub const BLOCK_CAPACITY: usize = 1000;

/// One site: a named location with a generated room inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub name: String,
    pub rooms: Vec<String>,
}

/// One dial-plan extension block, owned by exactly one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DialBlock {
    /// Leading digit of every extension in the block (`"1"` … `"9"`).
    pub prefix: String,
    /// Owning switch name (`pbx-1` …).
    pub switch: String,
    pub capacity: usize,
}

/// One synthetic subscriber. The directory `cn` is
/// `"{given} {surname} {id:05}"` — the serial suffix keeps names unique
/// without losing the realistic name distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscriber {
    pub id: u32,
    pub given: String,
    pub surname: String,
    /// Department, e.g. `"Wireless 03"`.
    pub org: String,
    /// Index into [`Population::sites`].
    pub site: usize,
    pub room: String,
    /// 4-digit station extension; `None` for directory-only subscribers
    /// (the population exceeded the dial-plan blocks).
    pub extension: Option<String>,
    /// Mailbox class of service (stationed subscribers on deployments with
    /// a messaging platform).
    pub mailbox_class: Option<&'static str>,
}

impl Subscriber {
    pub fn cn(&self) -> String {
        format!("{} {} {:05}", self.given, self.surname, self.id)
    }

    /// The cn after a rename to `new_surname` (the churn model's rename op
    /// keeps the given name and serial, so renamed entries stay unique).
    pub fn cn_with_surname(&self, new_surname: &str) -> String {
        format!("{} {} {:05}", self.given, new_surname, self.id)
    }
}

/// What to generate. `Eq`-comparable so "same spec, same population" is a
/// checkable property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationSpec {
    pub seed: u64,
    pub subscribers: usize,
    /// PBX count, 1..=9 (one dial-plan block each).
    pub switches: usize,
    pub sites: usize,
    pub with_msgplat: bool,
}

impl PopulationSpec {
    /// The soak's default shape: three switches, a messaging platform,
    /// four sites.
    pub fn new(seed: u64, subscribers: usize) -> PopulationSpec {
        PopulationSpec {
            seed,
            subscribers,
            switches: 3,
            sites: 4,
            with_msgplat: true,
        }
    }
}

/// The generated population: org/site/dial-plan structure plus the roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    pub spec: PopulationSpec,
    pub orgs: Vec<String>,
    pub sites: Vec<Site>,
    pub blocks: Vec<DialBlock>,
    pub subscribers: Vec<Subscriber>,
}

impl Population {
    /// Generate the population for `spec` — pure function of the spec.
    pub fn generate(spec: PopulationSpec) -> Population {
        assert!(
            (1..=9).contains(&spec.switches),
            "dial-plan blocks cover switches 1..=9"
        );
        assert!(spec.sites >= 1, "at least one site");
        let mut rng = StdRng::seed_from_u64(spec.seed);

        let orgs: Vec<String> = DEPARTMENTS
            .iter()
            .map(|d| format!("{d} {:02}", rng.gen_range(1..40)))
            .collect();

        let sites: Vec<Site> = (0..spec.sites)
            .map(|s| {
                let name = format!("{}{}", SITES[s % SITES.len()], s / SITES.len() + 1);
                // Floors × wings × rooms per wing; enough inventory that
                // room churn has somewhere to move people.
                let rooms = (1..=5)
                    .flat_map(|floor| {
                        WINGS.iter().flat_map(move |wing| {
                            (1..=30).map(move |n| format!("{floor}{wing}-{n:02}"))
                        })
                    })
                    .map(|suffix| format!("{name}-{suffix}"))
                    .collect();
                Site { name, rooms }
            })
            .collect();

        let blocks: Vec<DialBlock> = (0..spec.switches)
            .map(|i| DialBlock {
                prefix: (i + 1).to_string(),
                switch: format!("pbx-{}", i + 1),
                capacity: BLOCK_CAPACITY,
            })
            .collect();

        let station_capacity = spec.switches * BLOCK_CAPACITY;
        let subscribers: Vec<Subscriber> = (0..spec.subscribers)
            .map(|i| {
                let given = GIVEN[rng.gen_range(0..GIVEN.len())].to_string();
                let surname = SURNAMES[rng.gen_range(0..SURNAMES.len())].to_string();
                let org = orgs[rng.gen_range(0..orgs.len())].clone();
                let site = rng.gen_range(0..sites.len());
                let room = sites[site].rooms[rng.gen_range(0..sites[site].rooms.len())].clone();
                // Round-robin over the blocks until the dial plan is full;
                // serials within a block stay strictly unique.
                let extension = (i < station_capacity).then(|| {
                    let block = i % spec.switches;
                    format!("{}{:03}", blocks[block].prefix, i / spec.switches)
                });
                let mailbox_class = match (&extension, spec.with_msgplat) {
                    (Some(_), true) => {
                        Some(MAILBOX_CLASSES[rng.gen_range(0..MAILBOX_CLASSES.len())])
                    }
                    _ => None,
                };
                Subscriber {
                    id: i as u32,
                    given,
                    surname,
                    org,
                    site,
                    room,
                    extension,
                    mailbox_class,
                }
            })
            .collect();

        Population {
            spec,
            orgs,
            sites,
            blocks,
            subscribers,
        }
    }

    /// Subscribers holding a station, in id order.
    pub fn stationed(&self) -> impl Iterator<Item = &Subscriber> {
        self.subscribers.iter().filter(|s| s.extension.is_some())
    }

    /// FNV-1a digest over the full debug rendering — two populations are
    /// bit-identical iff the digests match (cheap to compare in tests and
    /// to print in repro lines).
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deployed soak fleet: the system plus direct handles to every device
/// store (for the oracle's directory↔device checks) and the per-device
/// fault handles (for the churn model's scheduled outages).
pub struct SoakRig {
    pub system: MetaComm,
    pub pop: Population,
    pub pbxes: Vec<Arc<PbxStore>>,
    pub mp: Option<Arc<MpStore>>,
}

impl SoakRig {
    /// Device names in filter-registration order (PBXes then msgplat).
    pub fn device_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.pbxes.iter().map(|p| p.name().to_string()).collect();
        if let Some(mp) = &self.mp {
            out.push(mp.name().to_string());
        }
        out
    }

    /// The switch owning `ext` (by dial-plan block prefix).
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

/// Deploy the fleet for `pop`: one PBX per dial-plan block, optionally a
/// messaging platform, every device behind a controllable fault injector
/// (so the churn model can schedule outages), and a breaker policy tuned
/// for deterministic, manually-probed recovery.
pub fn deploy(
    pop: &Population,
    customize: impl FnOnce(MetaCommBuilder) -> MetaCommBuilder,
) -> SoakRig {
    let mut builder = MetaCommBuilder::new("o=Lucent")
        .with_retry_policy(RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(1),
            deadline: Duration::from_millis(20),
        })
        .with_breaker_policy(BreakerPolicy {
            // Trip on the first failure: a scheduled outage is a hard down,
            // and the op that discovers it must skip the device, not
            // surface an error to the churn client.
            degraded_after: 1,
            offline_after: 1,
            // Recovery is driven deterministically through probe_device.
            probe_interval: Duration::from_secs(3600),
        });
    let mut pbxes = Vec::new();
    for block in &pop.blocks {
        let store = Arc::new(PbxStore::new(
            block.switch.clone(),
            DialPlan::with_prefix(&block.prefix, 4),
        ));
        builder = builder
            .add_pbx(store.clone(), &format!("{}???", block.prefix))
            .with_fault_plan(&block.switch, FaultPlan::default());
        pbxes.push(store);
    }
    let mp = if pop.spec.with_msgplat {
        let store = Arc::new(MpStore::new("mp"));
        builder = builder
            .add_msgplat(store.clone(), "*")
            .with_fault_plan("mp", FaultPlan::default());
        Some(store)
    } else {
        None
    };
    let system = customize(builder).build().expect("deploy soak fleet");
    SoakRig {
        system,
        pop: pop.clone(),
        pbxes,
        mp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = PopulationSpec::new(42, 500);
        let a = Population::generate(spec);
        let b = Population::generate(spec);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = Population::generate(PopulationSpec::new(43, 500));
        assert_ne!(a.digest(), c.digest(), "different seed, different roster");
    }

    #[test]
    fn stations_bounded_by_blocks() {
        let mut spec = PopulationSpec::new(7, 4000);
        spec.switches = 2;
        let pop = Population::generate(spec);
        assert_eq!(pop.stationed().count(), 2 * BLOCK_CAPACITY);
        assert!(pop.subscribers[2 * BLOCK_CAPACITY].extension.is_none());
        for s in pop.stationed() {
            let ext = s.extension.as_ref().unwrap();
            assert_eq!(ext.len(), 4);
            assert!(ext.starts_with('1') || ext.starts_with('2'));
        }
    }

    #[test]
    fn deploy_builds_the_fleet() {
        let pop = Population::generate(PopulationSpec::new(1, 50));
        let rig = deploy(&pop, |b| b);
        assert_eq!(rig.pbxes.len(), 3);
        assert!(rig.mp.is_some());
        assert_eq!(rig.device_names(), vec!["pbx-1", "pbx-2", "pbx-3", "mp"]);
        assert_eq!(rig.switch_for("2345").name(), "pbx-2");
        rig.system.shutdown();
    }
}
