//! The day-in-the-life churn model: a deterministic, seeded script of
//! hires, departures, room moves, renames, mailbox-class changes, bulk
//! re-orgs, and scheduled device outages/recoveries, mixed with read
//! traffic — the sustained realistic workload the per-experiment
//! micro-benchmarks never exercise.
//!
//! The script is generated up front as plain data ([`ChurnScript`]), so the
//! same `(population, ChurnSpec)` pair always produces the identical op
//! sequence (a property `tests/prop_population.rs` holds), a violation can
//! be replayed from `(seed, op index)` alone, and the crash/restart arm can
//! re-drive the very same day against a recovered deployment.
//!
//! [`Executor`] applies the script through the WBA — every update flows the
//! paper's full path (LTAP trap → Update Manager → lexpress closure →
//! device fan-out). Its `tolerant` mode makes replay idempotent for the
//! mid-soak crash arm: ops whose effect already survived in the recovered
//! directory are skipped instead of failing.

use crate::population::{Population, SoakRig, MAILBOX_CLASSES};
use ldap::ResultCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

const SURNAME_POOL: &[&str] = &[
    "Doe", "Smith", "Dickens", "Lu", "Garcia", "Chen", "Patel", "Okafor", "Kim", "Novak", "Hassan",
    "Silva", "Mori", "Bauer", "Rossi", "Dubois", "Larsen", "Kovacs", "Adeyemi", "Nakamura",
];

/// One scripted operation. Subscriber references are population ids; the
/// executor resolves them to the subscriber's *current* cn (renames move
/// the entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new employee joins (station + mailbox when the population assigned
    /// them an extension).
    Hire(u32),
    /// An employee leaves; their entry (and station) is removed.
    Depart(u32),
    /// Hoteling: the subscriber moves to another room.
    Move(u32, String),
    /// Surname change; the entry is renamed (ModifyRDN through the UM).
    Rename(u32, String),
    /// Mailbox class-of-service change.
    SetMailboxClass(u32, &'static str),
    /// Point read of one subscriber (indexed get).
    Lookup(u32),
    /// Scan read: search by surname (unindexed, costs a subtree scan).
    FindBySurname(String),
    /// Bulk re-org: a department block-moves to another site — one room
    /// reassignment per member, applied as a batch.
    Reorg {
        members: Vec<(u32, String)>,
        site: usize,
    },
    /// Scheduled outage of a device (fault injector down; breaker opens,
    /// updates skip the device).
    Outage(usize),
    /// The device comes back; recovery resyncs it from the directory.
    Recover(usize),
}

/// Script shape knobs. `Eq`-comparable for the determinism property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    pub seed: u64,
    /// Ops in the day (after the initial population load).
    pub ops: usize,
    /// Subscribers employed at day start (the populate phase); the rest
    /// form the hiring pool.
    pub initial: usize,
    /// `Some((every, duration))`: schedule a device outage every `every`
    /// ops, recovering `duration` ops later. Outages never overlap.
    pub outage: Option<(usize, usize)>,
    /// Fraction of ops that are reads (lookups + surname scans).
    pub read_share_percent: u32,
}

impl ChurnSpec {
    pub fn new(seed: u64, ops: usize, initial: usize) -> ChurnSpec {
        ChurnSpec {
            seed,
            ops,
            initial,
            outage: Some((ops / 3 + 1, ops / 10 + 1)),
            read_share_percent: 40,
        }
    }
}

/// The generated day: who is employed at dawn, then the op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnScript {
    pub initial: Vec<u32>,
    pub ops: Vec<ChurnOp>,
}

impl ChurnScript {
    /// Generate the script — a pure function of `(pop, spec)`.
    pub fn generate(pop: &Population, spec: &ChurnSpec) -> ChurnScript {
        assert!(spec.initial <= pop.subscribers.len(), "initial ⊆ roster");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let initial: Vec<u32> = (0..spec.initial as u32).collect();
        let mut live: Vec<u32> = initial.clone();
        let mut pool: VecDeque<u32> = (spec.initial as u32..pop.subscribers.len() as u32).collect();
        let mut surnames: HashMap<u32, String> = HashMap::new();
        let n_devices = pop.blocks.len() + usize::from(pop.spec.with_msgplat);
        let mut pending_recover: Option<(usize, usize)> = None; // (op index, device)
        let mut next_outage_device = 0usize;
        let mut ops = Vec::with_capacity(spec.ops);

        while ops.len() < spec.ops {
            let i = ops.len();
            if let Some((at, device)) = pending_recover {
                if i >= at {
                    ops.push(ChurnOp::Recover(device));
                    pending_recover = None;
                    continue;
                }
            }
            if let Some((every, duration)) = spec.outage {
                if i > 0 && i % every == 0 && pending_recover.is_none() && i + duration < spec.ops {
                    let device = next_outage_device % n_devices;
                    next_outage_device += 1;
                    ops.push(ChurnOp::Outage(device));
                    pending_recover = Some((i + duration, device));
                    continue;
                }
            }
            if rng.gen_range(0u32..100) < spec.read_share_percent {
                // Read traffic: mostly point lookups, some surname scans.
                if rng.gen_range(0..100) < 75 && !live.is_empty() {
                    let id = live[rng.gen_range(0..live.len())];
                    ops.push(ChurnOp::Lookup(id));
                } else {
                    let s = SURNAME_POOL[rng.gen_range(0..SURNAME_POOL.len())];
                    ops.push(ChurnOp::FindBySurname(s.to_string()));
                }
                continue;
            }
            // Update mix over the live set.
            match rng.gen_range(0..100) {
                0..=14 if !pool.is_empty() => {
                    let id = pool.pop_front().expect("non-empty pool");
                    live.push(id);
                    ops.push(ChurnOp::Hire(id));
                }
                15..=24 if live.len() > spec.initial / 2 => {
                    let k = rng.gen_range(0..live.len());
                    let id = live.swap_remove(k);
                    surnames.remove(&id);
                    ops.push(ChurnOp::Depart(id));
                }
                25..=34 if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    let current = surnames
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| pop.subscribers[id as usize].surname.clone());
                    let new = SURNAME_POOL[rng.gen_range(0..SURNAME_POOL.len())];
                    if new != current {
                        surnames.insert(id, new.to_string());
                        ops.push(ChurnOp::Rename(id, new.to_string()));
                    }
                }
                35..=42 => {
                    // Bulk re-org: one department's live members move to
                    // another site (capped batch).
                    let org = &pop.orgs[rng.gen_range(0..pop.orgs.len())];
                    let site = rng.gen_range(0..pop.sites.len());
                    let members: Vec<(u32, String)> = live
                        .iter()
                        .filter(|id| &pop.subscribers[**id as usize].org == org)
                        .take(12)
                        .map(|id| {
                            let rooms = &pop.sites[site].rooms;
                            (*id, rooms[rng.gen_range(0..rooms.len())].clone())
                        })
                        .collect();
                    if !members.is_empty() {
                        ops.push(ChurnOp::Reorg { members, site });
                    }
                }
                43..=52 if pop.spec.with_msgplat && !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    if pop.subscribers[id as usize].extension.is_some() {
                        let class = MAILBOX_CLASSES[rng.gen_range(0..MAILBOX_CLASSES.len())];
                        ops.push(ChurnOp::SetMailboxClass(id, class));
                    }
                }
                _ if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    let site = rng.gen_range(0..pop.sites.len());
                    let rooms = &pop.sites[site].rooms;
                    let room = rooms[rng.gen_range(0..rooms.len())].clone();
                    ops.push(ChurnOp::Move(id, room));
                }
                _ => {}
            }
        }
        // A day never ends mid-outage: recovery windows close before the
        // oracle's end-of-day check.
        if let Some((_, device)) = pending_recover {
            if let Some(last) = ops.last_mut() {
                *last = ChurnOp::Recover(device);
            }
        }
        ChurnScript { initial, ops }
    }

    /// Ids referenced by an op (empty for pure reads on scans / device
    /// ops) — used by the no-use-after-departure property test.
    pub fn referenced_ids(op: &ChurnOp) -> Vec<u32> {
        match op {
            ChurnOp::Hire(id)
            | ChurnOp::Depart(id)
            | ChurnOp::Move(id, _)
            | ChurnOp::Rename(id, _)
            | ChurnOp::SetMailboxClass(id, _)
            | ChurnOp::Lookup(id) => vec![*id],
            ChurnOp::Reorg { members, .. } => members.iter().map(|(id, _)| *id).collect(),
            _ => vec![],
        }
    }

    /// FNV-1a digest over the debug rendering (bit-identity check).
    pub fn digest(&self) -> u64 {
        crate::population::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// Applies a [`ChurnScript`] to a deployed [`SoakRig`] through the WBA,
/// tracking each subscriber's current cn across renames. In `tolerant`
/// mode (crash-arm replay) ops whose effect already survived recovery are
/// skipped rather than failed.
pub struct Executor<'r> {
    rig: &'r SoakRig,
    wba: metacomm::Wba<std::sync::Arc<ltap::Gateway>>,
    names: HashMap<u32, String>,
    live: HashSet<u32>,
    /// Device index currently down (`None` when the fleet is healthy).
    pub outage_open: Option<usize>,
    pub tolerant: bool,
    pub applied: usize,
}

impl<'r> Executor<'r> {
    pub fn new(rig: &'r SoakRig) -> Executor<'r> {
        Executor {
            rig,
            wba: rig.system.wba(),
            names: HashMap::new(),
            live: HashSet::new(),
            outage_open: None,
            tolerant: false,
            applied: 0,
        }
    }

    pub fn tolerant(rig: &'r SoakRig) -> Executor<'r> {
        let mut e = Executor::new(rig);
        e.tolerant = true;
        e
    }

    /// The subscriber's current directory cn.
    pub fn cn_of(&self, id: u32) -> String {
        self.names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| self.rig.pop.subscribers[id as usize].cn())
    }

    /// Currently employed subscriber ids.
    pub fn live_ids(&self) -> &HashSet<u32> {
        &self.live
    }

    /// Hire the day-start roster (the populate phase).
    pub fn run_initial(&mut self, script: &ChurnScript) -> Result<(), String> {
        for id in &script.initial {
            self.hire(*id)?;
        }
        self.rig.system.settle();
        Ok(())
    }

    /// In tolerant mode, find the subscriber's entry under whatever cn it
    /// currently has (the id serial is a unique cn suffix, so a suffix
    /// substring search pins it down even when renames were lost or
    /// already applied).
    fn resolve_recovered(&self, id: u32) -> Option<ldap::Entry> {
        self.wba
            .find(&format!("(cn=* {id:05})"))
            .unwrap_or_default()
            .into_iter()
            .next()
    }

    fn resolve_recovered_cn(&self, id: u32) -> Option<String> {
        self.resolve_recovered(id)?.first("cn").map(str::to_string)
    }

    fn hire(&mut self, id: u32) -> Result<(), String> {
        let sub = &self.rig.pop.subscribers[id as usize];
        if self.tolerant {
            let found = self.resolve_recovered(id);
            if let Some((found, cn)) = found
                .as_ref()
                .and_then(|e| Some((e, e.first("cn")?.to_string())))
            {
                // Already present (hire survived the crash, possibly
                // renamed since) — adopt the surviving cn. A hire is two
                // updates; a crash between them leaves the person without
                // the second one, which replay must finish.
                match (&sub.extension, sub.mailbox_class) {
                    (Some(ext), Some(class)) if !found.has_attr("mpMailbox") => {
                        let r = self.wba.assign_mailbox(&cn, ext, class);
                        self.ldap(r)?;
                    }
                    (None, _) if !found.has_attr("roomNumber") => {
                        let r = self.wba.assign_room(&cn, &sub.room);
                        self.ldap(r)?;
                    }
                    _ => {}
                }
                self.names.insert(id, cn);
                self.live.insert(id);
                return Ok(());
            }
        }
        let cn = sub.cn();
        let r = match &sub.extension {
            Some(ext) => self
                .wba
                .add_person_with_extension(&cn, &sub.surname, ext, &sub.room)
                .map(|_| ()),
            None => self
                .wba
                .add_person(&cn, &sub.surname)
                .and_then(|_| self.wba.assign_room(&cn, &sub.room)),
        };
        self.ldap(r)?;
        if let (Some(ext), Some(class)) = (&sub.extension, sub.mailbox_class) {
            let r = self.wba.assign_mailbox(&cn, ext, class);
            self.ldap(r)?;
        }
        self.names.insert(id, cn);
        self.live.insert(id);
        Ok(())
    }

    /// Apply one scripted op. Errors carry the op context for repro dumps.
    pub fn apply(&mut self, op: &ChurnOp) -> Result<(), String> {
        let result = self.dispatch(op);
        self.applied += 1;
        result.map_err(|e| format!("op {} ({op:?}): {e}", self.applied - 1))
    }

    fn dispatch(&mut self, op: &ChurnOp) -> Result<(), String> {
        match op {
            ChurnOp::Hire(id) => self.hire(*id),
            ChurnOp::Depart(id) => {
                let cn = self.current_cn(*id);
                let r = self.wba.remove_person(&cn);
                self.names.remove(id);
                self.live.remove(id);
                self.ldap(r)
            }
            ChurnOp::Move(id, room) => {
                let cn = self.current_cn(*id);
                let r = self.wba.assign_room(&cn, room);
                self.ldap(r)
            }
            ChurnOp::Rename(id, new_surname) => {
                let old = self.current_cn(*id);
                let new = self.rig.pop.subscribers[*id as usize].cn_with_surname(new_surname);
                if old == new {
                    return Ok(());
                }
                match self.wba.rename_person(&old, &new) {
                    Ok(_) => {
                        self.names.insert(*id, new);
                        Ok(())
                    }
                    Err(e) if self.tolerant => {
                        // Replay: the rename may already have happened.
                        if let Some(cn) = self.resolve_recovered_cn(*id) {
                            self.names.insert(*id, cn);
                            Ok(())
                        } else {
                            Err(e.to_string())
                        }
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            ChurnOp::SetMailboxClass(id, class) => {
                let cn = self.current_cn(*id);
                let ext = self.rig.pop.subscribers[*id as usize]
                    .extension
                    .clone()
                    .expect("mailbox ops target stationed subscribers");
                let r = self.wba.assign_mailbox(&cn, &ext, class);
                self.ldap(r)
            }
            ChurnOp::Lookup(id) => {
                let cn = self.current_cn(*id);
                match self.wba.person(&cn) {
                    Ok(Some(_)) => Ok(()),
                    Ok(None) if self.tolerant => Ok(()),
                    Ok(None) => Err(format!("lookup of live subscriber `{cn}` found nothing")),
                    Err(e) => Err(e.to_string()),
                }
            }
            ChurnOp::FindBySurname(s) => {
                let r = self.wba.find(&format!("(sn={s})")).map(|_| ());
                self.ldap(r)
            }
            ChurnOp::Reorg { members, .. } => {
                for (id, room) in members {
                    let cn = self.current_cn(*id);
                    let r = self.wba.assign_room(&cn, room);
                    self.ldap(r)?;
                }
                Ok(())
            }
            ChurnOp::Outage(device) => {
                let name = self.device_name(*device);
                self.rig
                    .system
                    .fault_handle(&name)
                    .ok_or_else(|| format!("no fault handle for `{name}`"))?
                    .set_down(true);
                self.outage_open = Some(*device);
                Ok(())
            }
            ChurnOp::Recover(device) => {
                let name = self.device_name(*device);
                self.rig
                    .system
                    .fault_handle(&name)
                    .ok_or_else(|| format!("no fault handle for `{name}`"))?
                    .set_down(false);
                // Settle in-flight fan-out first, then probe: the resync
                // runs under the quiesce and copies the directory over.
                self.rig.system.settle();
                self.rig
                    .system
                    .probe_device(&name)
                    .map_err(|e| e.to_string())?;
                self.outage_open = None;
                Ok(())
            }
        }
    }

    fn current_cn(&mut self, id: u32) -> String {
        if self.tolerant && !self.names.contains_key(&id) {
            if let Some(cn) = self.resolve_recovered_cn(id) {
                self.names.insert(id, cn);
            }
        }
        self.live.insert(id);
        self.cn_of(id)
    }

    fn device_name(&self, device: usize) -> String {
        self.rig.device_names()[device].clone()
    }

    fn ldap(&self, r: ldap::Result<()>) -> Result<(), String> {
        match r {
            Ok(()) => Ok(()),
            Err(e)
                if self.tolerant
                    && matches!(
                        e.code,
                        ResultCode::EntryAlreadyExists | ResultCode::NoSuchObject
                    ) =>
            {
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;

    #[test]
    fn script_is_deterministic_and_balanced() {
        let pop = Population::generate(PopulationSpec::new(5, 300));
        let spec = ChurnSpec::new(5, 400, 200);
        let a = ChurnScript::generate(&pop, &spec);
        let b = ChurnScript::generate(&pop, &spec);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.ops.len(), 400);
        let outages = a
            .ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Outage(_)))
            .count();
        let recovers = a
            .ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Recover(_)))
            .count();
        assert_eq!(outages, recovers, "every outage recovers within the day");
        assert!(outages > 0, "the day schedules at least one outage");
    }

    #[test]
    fn executor_drives_a_small_day() {
        let pop = Population::generate(PopulationSpec::new(9, 80));
        let spec = ChurnSpec::new(9, 120, 50);
        let script = ChurnScript::generate(&pop, &spec);
        let rig = crate::population::deploy(&pop, |b| b);
        let mut exec = Executor::new(&rig);
        exec.run_initial(&script).expect("populate");
        for op in &script.ops {
            exec.apply(op).expect("churn op");
        }
        rig.system.settle();
        assert!(exec.outage_open.is_none(), "day ends healthy");
        // Every live subscriber is in the directory under their current cn.
        for id in exec.live_ids() {
            let cn = exec.cn_of(*id);
            assert!(
                rig.system.wba().person(&cn).expect("search").is_some(),
                "live subscriber {cn} missing"
            );
        }
        rig.system.shutdown();
    }
}
