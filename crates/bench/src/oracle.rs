//! The system-wide invariant oracle for soak runs.
//!
//! At configurable intervals the soak driver calls [`SoakOracle::check`],
//! which quiesces the deployment (§13 of DESIGN.md: settle the Update
//! Manager, then hold an LTAP sync session so no writer can slip in) and
//! asserts the whole-system invariants the per-experiment assertions never
//! cover together:
//!
//! 1. **No leaked locks** — the LTAP lock table is empty once quiesced.
//! 2. **Journals drained** — every online device is `Up` with zero queued
//!    ops (outage journals empty after their recovery window closed).
//! 3. **Directory↔device consistency** — for every online device, the
//!    device image and the directory agree field-by-field in both
//!    directions (no stale stations, no orphan mailboxes).
//! 4. **Monotone counters** — no `cn=monitor` counter ever goes backwards
//!    between checks.
//!
//! A failed invariant becomes a [`Violation`] carrying the seed and op
//! index — enough to replay the exact run with the `soak_rig` bin.

use crate::population::SoakRig;
use ldap::{Entry, Filter, Scope};
use metacomm::HealthState;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One invariant failure, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub seed: u64,
    pub op_index: usize,
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant `{}` violated at op {}: {}",
            self.invariant, self.op_index, self.detail
        )?;
        write!(
            f,
            "  repro: cargo run --release -p bench --bin soak_rig -- \
             --seed {} --check-every 1  # fails at op {}",
            self.seed, self.op_index
        )
    }
}

/// The PBX `Name` / msgplat `Subscriber` form of a directory `cn`
/// (`"John Doe 00042"` → `"Doe 00042, John"`), mirroring the `pbxname`
/// lexpress transform.
pub fn device_name_form(cn: &str) -> String {
    match cn.split_once(' ') {
        Some((given, rest)) => format!("{rest}, {given}"),
        None => cn.to_string(),
    }
}

/// Canonical whole-system digest for crash-convergence checks: the
/// subscriber-visible directory attributes plus every device image.
/// Platform-generated serial ids (`mpMailboxId` / device `MbId`) are
/// excluded — the messaging platform mints them in arrival order, which a
/// restart legitimately changes; everything a subscriber or administrator
/// can observe must still be bit-identical.
pub fn fixpoint_digest(rig: &SoakRig) -> u64 {
    use std::fmt::Write as _;
    const ATTRS: &[&str] = &[
        "cn",
        "sn",
        "objectClass",
        "telephoneNumber",
        "definityExtension",
        "definityCoveragePath",
        "roomNumber",
        "mpMailbox",
        "mpClassOfService",
    ];
    let people = rig
        .system
        .wba()
        .find("(objectClass=person)")
        .expect("directory sweep");
    let mut lines: Vec<String> = people
        .iter()
        .map(|e| {
            let mut line = format!("dn={}", e.dn());
            for a in ATTRS {
                let mut vals: Vec<&str> = e.values(a).iter().collect();
                vals.sort_unstable();
                for v in vals {
                    let _ = write!(line, ";{a}={v}");
                }
            }
            line
        })
        .collect();
    for pbx in &rig.pbxes {
        pbx.for_each(|rec| {
            let mut line = format!("pbx={}", pbx.name());
            for (k, v) in rec.fields() {
                let _ = write!(line, ";{k}={v}");
            }
            lines.push(line);
        });
    }
    if let Some(mp) = &rig.mp {
        mp.for_each(|rec| {
            let mut line = "mp".to_string();
            for (k, v) in rec.iter().filter(|(k, _)| k.as_str() != "MbId") {
                let _ = write!(line, ";{k}={v}");
            }
            lines.push(line);
        });
    }
    lines.sort_unstable();
    crate::population::fnv1a(lines.join("\n").as_bytes())
}

/// Wall-clock accounting for the oracle's consistency sweeps, split by
/// kind so the soak report can show what sampling buys.
#[derive(Debug, Default, Clone)]
pub struct SweepStats {
    pub full_sweeps: usize,
    pub sampled_sweeps: usize,
    pub full_ns_total: u64,
    pub sampled_ns_total: u64,
    pub last_full_ns: u64,
    pub last_sampled_ns: u64,
}

impl SweepStats {
    pub fn mean_full_ns(&self) -> u64 {
        self.full_ns_total / self.full_sweeps.max(1) as u64
    }

    pub fn mean_sampled_ns(&self) -> u64 {
        self.sampled_ns_total / self.sampled_sweeps.max(1) as u64
    }
}

/// In sampled mode, every this-many'th check (and the first) is still a
/// full O(directory) sweep: it refreshes the sampling roster and catches
/// orphaned device records.
pub const FULL_SWEEP_EVERY: usize = 8;

/// Stateful oracle: carries the previous counter snapshot and the sampling
/// roster across checks.
pub struct SoakOracle {
    seed: u64,
    prev_counters: HashMap<(String, String), u64>,
    /// `Some(k)`: spot-check a rotating window of `k` subscribers per
    /// check instead of sweeping the whole directory (see
    /// [`FULL_SWEEP_EVERY`]). `None` = every check is a full sweep.
    sweep_sample: Option<usize>,
    /// Rotation cursor into `roster`.
    cursor: usize,
    /// Person DNs cached by the last full sweep — the frame the sampled
    /// checks rotate through.
    roster: Vec<String>,
    pub sweep_stats: SweepStats,
    pub checks: usize,
}

impl SoakOracle {
    pub fn new(seed: u64) -> SoakOracle {
        SoakOracle {
            seed,
            prev_counters: HashMap::new(),
            sweep_sample: None,
            cursor: 0,
            roster: Vec::new(),
            sweep_stats: SweepStats::default(),
            checks: 0,
        }
    }

    /// Sample the consistency sweep: each check spot-checks a rotating
    /// window of `k` subscribers (directory get + device get per
    /// subscriber) instead of dumping every device against a full subtree
    /// search, so per-check cost is O(k), not O(directory). Every
    /// [`FULL_SWEEP_EVERY`]'th check stays full, which bounds how long an
    /// orphaned device record can hide; a planted inconsistency on any
    /// subscriber is still caught within one rotation of the roster.
    pub fn with_sweep_sample(mut self, k: usize) -> SoakOracle {
        self.sweep_sample = Some(k.max(1));
        self
    }

    /// Forget the counter baseline. Call after a deliberate restart: a new
    /// process starts its `cn=monitor` counters from zero, which is not a
    /// monotonicity violation.
    pub fn after_restart(&mut self) {
        self.prev_counters.clear();
    }

    /// Quiesce `rig` and check every invariant. `op_index` is the churn
    /// script position (for repro lines); `skip_device` names a device in
    /// a scheduled outage window, exempt from the online-device checks.
    pub fn check(
        &mut self,
        rig: &SoakRig,
        op_index: usize,
        skip_device: Option<&str>,
    ) -> Vec<Violation> {
        self.checks += 1;
        let started = std::time::Instant::now();
        let mut out = Vec::new();

        // Quiesce: drain the UM pipeline, then hold a sync session so the
        // directory cannot move under the consistency sweep.
        rig.system.settle();
        let gateway = rig.system.directory();
        let session = gateway.begin_sync();

        // 1. No leaked WBA/LTAP locks once quiet.
        let held = gateway.locks().held();
        if held != 0 {
            out.push(self.violation(op_index, "no-leaked-locks", format!("{held} locks held")));
        }

        // 2. Device health: cheap per-device gauges, checked every time.
        for name in rig.device_names() {
            if Some(name.as_str()) != skip_device {
                self.check_device_health(rig, &name, op_index, &mut out);
            }
        }

        let full = self.sweep_sample.is_none() || self.checks % FULL_SWEEP_EVERY == 1;
        if full {
            self.full_sweep(rig, &session, op_index, skip_device, &mut out);
            self.sweep_stats.full_sweeps += 1;
            self.sweep_stats.last_full_ns = started.elapsed().as_nanos() as u64;
            self.sweep_stats.full_ns_total += self.sweep_stats.last_full_ns;
        } else {
            self.sampled_sweep(rig, &session, op_index, skip_device, &mut out);
            self.sweep_stats.sampled_sweeps += 1;
            self.sweep_stats.last_sampled_ns = started.elapsed().as_nanos() as u64;
            self.sweep_stats.sampled_ns_total += self.sweep_stats.last_sampled_ns;
        }

        // 4. Monotone cn=monitor counters.
        self.check_counters(rig, op_index, &mut out);

        drop(session);
        out
    }

    /// The O(directory) sweep: one subtree search, every device dumped and
    /// compared in both directions. Also refreshes the roster the sampled
    /// checks rotate through.
    fn full_sweep(
        &mut self,
        rig: &SoakRig,
        session: &ltap::SyncSession,
        op_index: usize,
        skip_device: Option<&str>,
        out: &mut Vec<Violation>,
    ) {
        // Directory ground truth, one subtree sweep.
        let people = match session.search(
            rig.system.suffix(),
            Scope::Sub,
            &Filter::parse("(objectClass=person)").expect("static filter"),
            &[],
            0,
        ) {
            Ok(entries) => entries,
            Err(e) => {
                out.push(self.violation(op_index, "directory-sweep", e.to_string()));
                return;
            }
        };
        self.roster = people.iter().map(|e| e.dn().to_string()).collect();

        // 3. Two-way consistency per online device.
        for pbx in &rig.pbxes {
            if Some(pbx.name()) != skip_device {
                self.check_pbx(rig, pbx, &people, op_index, out);
            }
        }
        if let Some(mp) = &rig.mp {
            if Some(mp.name()) != skip_device {
                self.check_mp(mp, &people, op_index, out);
            }
        }
    }

    /// The O(k) sweep: spot-check a rotating window of the last full
    /// sweep's roster — directory get, then field-by-field comparison
    /// against that subscriber's own device records. Orphaned device
    /// records (device rows whose directory entry vanished) are left to the
    /// periodic full sweep.
    fn sampled_sweep(
        &mut self,
        rig: &SoakRig,
        session: &ltap::SyncSession,
        op_index: usize,
        skip_device: Option<&str>,
        out: &mut Vec<Violation>,
    ) {
        if self.roster.is_empty() {
            return;
        }
        let k = self.sweep_sample.unwrap_or(1).min(self.roster.len());
        for i in 0..k {
            let dn_str = &self.roster[(self.cursor + i) % self.roster.len()];
            let dn = match dn_str.parse::<ldap::Dn>() {
                Ok(d) => d,
                Err(_) => continue,
            };
            let entry = match session.get(&dn) {
                Ok(Some(e)) => e,
                // Departed since the roster snapshot: a legitimate delete
                // and an orphaned device row look the same from here, so
                // leave it to the next full sweep.
                Ok(None) => continue,
                Err(e) => {
                    out.push(self.violation(op_index, "directory-sweep", e.to_string()));
                    continue;
                }
            };
            self.check_one_subscriber(rig, &entry, op_index, skip_device, out);
        }
        self.cursor = (self.cursor + k) % self.roster.len();
    }

    /// Directory→device consistency for a single subscriber entry.
    fn check_one_subscriber(
        &self,
        rig: &SoakRig,
        entry: &Entry,
        op_index: usize,
        skip_device: Option<&str>,
        out: &mut Vec<Violation>,
    ) {
        let cn = entry.first("cn").unwrap_or_default();
        let name = device_name_form(cn);
        if let Some(ext) = entry.first("definityExtension") {
            if ext.len() == 4 {
                let pbx = rig.switch_for(ext);
                if Some(pbx.name()) != skip_device {
                    let room = entry.first("roomNumber").unwrap_or_default();
                    match pbx.get(ext) {
                        None => out.push(self.violation(
                            op_index,
                            "directory-device-consistency",
                            format!(
                                "{}: directory stations {ext} but the device has no record",
                                pbx.name()
                            ),
                        )),
                        Some(rec) => {
                            let dev_name = rec.get("Name").unwrap_or_default();
                            let dev_room = rec.get("Room").unwrap_or_default();
                            if dev_name != name || dev_room != room {
                                out.push(self.violation(
                                    op_index,
                                    "directory-device-consistency",
                                    format!(
                                        "{}: station {ext} is ({dev_name:?}, {dev_room:?}), \
                                         directory says ({name:?}, {room:?})",
                                        pbx.name()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let (Some(mp), Some(mbx)) = (&rig.mp, entry.first("mpMailbox")) {
            if Some(mp.name()) != skip_device {
                let cos = entry.first("mpClassOfService").unwrap_or("standard");
                match mp.get(mbx) {
                    None => out.push(self.violation(
                        op_index,
                        "directory-device-consistency",
                        format!("mp: directory lists mailbox {mbx} but the device has no record"),
                    )),
                    Some(rec) => {
                        let dev_name = rec
                            .get("Subscriber")
                            .map(String::as_str)
                            .unwrap_or_default();
                        let dev_cos = rec.get("Cos").map(String::as_str).unwrap_or("standard");
                        if dev_name != name || dev_cos != cos {
                            out.push(self.violation(
                                op_index,
                                "directory-device-consistency",
                                format!(
                                    "mp: mailbox {mbx} is ({dev_name:?}, {dev_cos:?}), \
                                     directory says ({name:?}, {cos:?})"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    fn violation(&self, op_index: usize, invariant: &'static str, detail: String) -> Violation {
        Violation {
            seed: self.seed,
            op_index,
            invariant,
            detail,
        }
    }

    fn check_device_health(
        &self,
        rig: &SoakRig,
        device: &str,
        op_index: usize,
        out: &mut Vec<Violation>,
    ) {
        match rig.system.device_health(device) {
            Some(h) => {
                if h.state != HealthState::Up {
                    out.push(self.violation(
                        op_index,
                        "device-up",
                        format!("{device} is {:?} outside any outage window", h.state),
                    ));
                }
                if h.queued_ops != 0 {
                    out.push(self.violation(
                        op_index,
                        "journal-drained",
                        format!("{device} still journals {} ops", h.queued_ops),
                    ));
                }
            }
            None => out.push(self.violation(
                op_index,
                "device-up",
                format!("{device} has no health record"),
            )),
        }
    }

    fn check_pbx(
        &self,
        rig: &SoakRig,
        pbx: &pbx::Store,
        people: &[Entry],
        op_index: usize,
        out: &mut Vec<Violation>,
    ) {
        let prefix = rig
            .pop
            .blocks
            .iter()
            .find(|b| b.switch == pbx.name())
            .map(|b| b.prefix.as_str())
            .unwrap_or("");
        // Directory view of this partition: extension -> (Name, Room).
        let mut expected: BTreeMap<String, (String, String)> = BTreeMap::new();
        for e in people {
            if let Some(ext) = e.first("definityExtension") {
                if ext.starts_with(prefix) && ext.len() == 4 {
                    let cn = e.first("cn").unwrap_or_default();
                    let room = e.first("roomNumber").unwrap_or_default();
                    expected.insert(ext.to_string(), (device_name_form(cn), room.to_string()));
                }
            }
        }
        let mut seen = 0usize;
        pbx.for_each(|rec| {
            let ext = rec.get("Extension").unwrap_or_default();
            match expected.get(ext) {
                None => out.push(self.violation(
                    op_index,
                    "directory-device-consistency",
                    format!("{}: station {ext} has no directory entry", pbx.name()),
                )),
                Some((name, room)) => {
                    seen += 1;
                    let dev_name = rec.get("Name").unwrap_or_default();
                    let dev_room = rec.get("Room").unwrap_or_default();
                    if dev_name != name || dev_room != room {
                        out.push(self.violation(
                            op_index,
                            "directory-device-consistency",
                            format!(
                                "{}: station {ext} is ({dev_name:?}, {dev_room:?}), \
                                 directory says ({name:?}, {room:?})",
                                pbx.name()
                            ),
                        ));
                    }
                }
            }
        });
        if seen != expected.len() {
            out.push(self.violation(
                op_index,
                "directory-device-consistency",
                format!(
                    "{}: directory stations {} of which only {seen} exist on the device",
                    pbx.name(),
                    expected.len()
                ),
            ));
        }
    }

    fn check_mp(
        &self,
        mp: &msgplat::Store,
        people: &[Entry],
        op_index: usize,
        out: &mut Vec<Violation>,
    ) {
        // Directory view: mailbox -> (Subscriber, Cos).
        let mut expected: BTreeMap<String, (String, String)> = BTreeMap::new();
        for e in people {
            if let Some(mbx) = e.first("mpMailbox") {
                let cn = e.first("cn").unwrap_or_default();
                let cos = e.first("mpClassOfService").unwrap_or("standard");
                expected.insert(mbx.to_string(), (device_name_form(cn), cos.to_string()));
            }
        }
        let mut seen = 0usize;
        mp.for_each(|rec| {
            let mbx = rec.get("Mailbox").map(String::as_str).unwrap_or_default();
            match expected.get(mbx) {
                None => out.push(self.violation(
                    op_index,
                    "directory-device-consistency",
                    format!("mp: mailbox {mbx} has no directory entry"),
                )),
                Some((name, cos)) => {
                    seen += 1;
                    let dev_name = rec
                        .get("Subscriber")
                        .map(String::as_str)
                        .unwrap_or_default();
                    let dev_cos = rec.get("Cos").map(String::as_str).unwrap_or("standard");
                    if dev_name != name || dev_cos != cos {
                        out.push(self.violation(
                            op_index,
                            "directory-device-consistency",
                            format!(
                                "mp: mailbox {mbx} is ({dev_name:?}, {dev_cos:?}), \
                                 directory says ({name:?}, {cos:?})"
                            ),
                        ));
                    }
                }
            }
        });
        if seen != expected.len() {
            out.push(self.violation(
                op_index,
                "directory-device-consistency",
                format!(
                    "mp: directory mailboxes {} of which only {seen} exist on the device",
                    expected.len()
                ),
            ));
        }
    }

    fn check_counters(&mut self, rig: &SoakRig, op_index: usize, out: &mut Vec<Violation>) {
        let snap = rig.system.metrics_snapshot();
        for comp in &snap.components {
            for (name, value) in &comp.counters {
                let key = (comp.name.clone(), name.clone());
                if let Some(prev) = self.prev_counters.get(&key) {
                    if value < prev {
                        out.push(self.violation(
                            op_index,
                            "monotone-counters",
                            format!("{}.{} went backwards: {prev} -> {value}", comp.name, name),
                        ));
                    }
                }
                self.prev_counters.insert(key, *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnScript, ChurnSpec, Executor};
    use crate::population::{deploy, Population, PopulationSpec};

    #[test]
    fn clean_day_has_no_violations() {
        let pop = Population::generate(PopulationSpec::new(21, 120));
        let rig = deploy(&pop, |b| b);
        let script = ChurnScript::generate(&pop, &ChurnSpec::new(21, 90, 80));
        let mut exec = Executor::new(&rig);
        exec.run_initial(&script).expect("populate");
        let mut oracle = SoakOracle::new(21);
        let v = oracle.check(&rig, 0, None);
        assert!(v.is_empty(), "fresh deployment violates: {v:?}");
        for (i, op) in script.ops.iter().enumerate() {
            exec.apply(op).expect("churn op");
            if i % 30 == 29 {
                let skip = exec.outage_open.map(|d| rig.device_names()[d].clone());
                let v = oracle.check(&rig, i, skip.as_deref());
                assert!(v.is_empty(), "mid-day violations: {v:?}");
            }
        }
        let v = oracle.check(&rig, script.ops.len(), None);
        assert!(v.is_empty(), "end-of-day violations: {v:?}");
        assert!(oracle.checks >= 3);
        rig.system.shutdown();
    }

    /// Sampled sweeps still catch a planted inconsistency within one
    /// rotation of the roster, and the sampled checks are cheaper than the
    /// full ones they replace.
    #[test]
    fn sampled_sweep_catches_plant_within_one_rotation() {
        let pop = Population::generate(PopulationSpec::new(9, 60));
        let rig = deploy(&pop, |b| b);
        let script = ChurnScript::generate(&pop, &ChurnSpec::new(9, 0, 40));
        let mut exec = Executor::new(&rig);
        exec.run_initial(&script).expect("populate");
        let mut oracle = SoakOracle::new(9).with_sweep_sample(8);
        // Check 1 is the roster-building full sweep.
        let v = oracle.check(&rig, 0, None);
        assert!(v.is_empty(), "clean deployment violates: {v:?}");
        // Corrupt one station behind everyone's back.
        let victim = pop.stationed().next().expect("stationed subscriber");
        let ext = victim.extension.clone().unwrap();
        let pbx = rig.switch_for(&ext);
        let mut patch = pbx::Record::new();
        patch.set("Room", "SHADOW-IT-9");
        pbx.change(&ext, patch, pbx::Channel::Metacomm)
            .expect("silent edit");
        // Rotating 8-subscriber windows over a ~60-person roster must hit
        // the victim within one rotation — and strictly before the next
        // full sweep would (FULL_SWEEP_EVERY is spaced wider than the
        // rotation here).
        let rotation = oracle.roster.len().div_ceil(8);
        assert!(rotation < FULL_SWEEP_EVERY, "plant must be caught sampled");
        let mut caught_at = None;
        for i in 0..rotation {
            let v = oracle.check(&rig, i + 1, None);
            if v.iter()
                .any(|v| v.invariant == "directory-device-consistency")
            {
                caught_at = Some(i);
                break;
            }
        }
        assert!(
            caught_at.is_some(),
            "sampled sweeps missed the plant over a full rotation"
        );
        assert!(oracle.sweep_stats.sampled_sweeps >= 1);
        assert_eq!(oracle.sweep_stats.full_sweeps, 1);
        rig.system.shutdown();
    }

    #[test]
    fn oracle_catches_a_planted_stale_station() {
        let pop = Population::generate(PopulationSpec::new(3, 40));
        let rig = deploy(&pop, |b| b);
        let script = ChurnScript::generate(&pop, &ChurnSpec::new(3, 0, 30));
        let mut exec = Executor::new(&rig);
        exec.run_initial(&script).expect("populate");
        // Corrupt one station behind everyone's back. The Metacomm channel
        // emits no device event, so no DDU relay heals it — this simulates
        // a lost update at the device.
        let victim = pop.stationed().next().expect("stationed subscriber");
        let ext = victim.extension.clone().unwrap();
        let pbx = rig.switch_for(&ext);
        let mut patch = pbx::Record::new();
        patch.set("Room", "SHADOW-IT-9");
        pbx.change(&ext, patch, pbx::Channel::Metacomm)
            .expect("silent edit");
        let mut oracle = SoakOracle::new(3);
        let v = oracle.check(&rig, 7, None);
        assert!(
            v.iter()
                .any(|v| v.invariant == "directory-device-consistency"),
            "planted inconsistency went undetected: {v:?}"
        );
        let repro = v[0].to_string();
        assert!(
            repro.contains("--seed 3") && repro.contains("op 7"),
            "{repro}"
        );
        rig.system.shutdown();
    }
}
