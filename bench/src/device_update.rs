//! `device_update`: updates that start at a device. A rig whose switches
//! and messaging platform already hold every station and mailbox is
//! synchronized (set-up), then takes craft-terminal and console changes,
//! each timed from the command until a `Dit::observe` callback sees the
//! directory commit that carries the new value. Then the sync rounds: each
//! builds such a rig afresh, in a process of its own, and times
//! `synchronize_all` (the initial load) and a resync with nothing to do.
//! The DDU relays and `metacomm::sync` do the work; the wire engine none.

use crate::gen::{self, Person, Rng, COS};
use crate::harness::{
    deal, median_us, peak_rss_kb, report_line, run_child, run_clients, time_each, Config, Outcome,
    Rig, SWITCHES, WARMUP_SHARE,
};
use crate::ldap_write::Subscriber;
use crate::stats::{self, reduce_rounds, Round};
use crate::trace::{Budget, Tracer};
use ldap::{ChangeOp, Directory, Modification};
use lexpress::{Image, UpdateDescriptor};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Stations (and as many mailboxes) the devices hold before a sync round.
const STATIONS: usize = 4_000;
/// Device changes per round, both clients together.
const DDU_OPS: usize = 3_200;
/// Changes replayed as plain gateway modifies for the budget table.
const REPLAYS: usize = 1_000;
/// Device records of the small sync (traced run).
const SMALL_SYNC: usize = 500;

/// Put a station and a mailbox for everyone on the devices, through
/// MetaComm's own channel so no device event fires.
fn preload(rig: &Rig, subs: &[Subscriber]) {
    for s in subs {
        let ext = s.person.extension(SWITCHES);
        rig.switch_for(&ext)
            .add(
                pbx::Record::from_pairs([
                    ("Extension", ext.as_str()),
                    ("Name", &s.person.device_name()),
                    ("Room", s.room.as_str()),
                    ("CoveragePath", "1"),
                    ("Cor", "1"),
                ]),
                pbx::Channel::Metacomm,
            )
            .expect("preload station");
        rig.mp
            .add(
                msgplat::store::record([
                    ("Mailbox", ext.as_str()),
                    ("Subscriber", &s.person.device_name()),
                    ("Cos", COS[s.cos]),
                ]),
                msgplat::Channel::Metacomm,
            )
            .expect("preload mailbox");
    }
}

/// What one initial load and one no-op resync measured.
#[derive(Debug, Default, Clone, PartialEq)]
struct SyncTiming {
    records: usize,
    /// Build the rig and put the records on the devices.
    preload_s: f64,
    load_s: f64,
    resync_s: f64,
    added: usize,
    unchanged: usize,
    failed: usize,
    /// Directory, stations and mailboxes agree field by field afterwards.
    consistent: bool,
    /// `VmHWM` of the process that ran it, kB.
    peak_rss_kb: u64,
}

impl SyncTiming {
    const TAG: &'static str = "sync-report";

    /// Every record must arrive once and then be found unchanged: the
    /// stations create the people (added), the mailboxes join them.
    fn ok(&self) -> bool {
        self.failed == 0
            && self.added == self.records / 2
            && self.unchanged == self.records
            && self.consistent
    }

    fn to_line(&self) -> String {
        report_line(
            Self::TAG,
            &[
                ("records", self.records.to_string()),
                ("preload_s", self.preload_s.to_string()),
                ("load_s", self.load_s.to_string()),
                ("resync_s", self.resync_s.to_string()),
                ("added", self.added.to_string()),
                ("unchanged", self.unchanged.to_string()),
                ("failed", self.failed.to_string()),
                ("consistent", u8::from(self.consistent).to_string()),
                ("peak_rss_kb", self.peak_rss_kb.to_string()),
            ],
        )
    }

    fn from_pairs(p: &BTreeMap<String, String>) -> Option<SyncTiming> {
        Some(SyncTiming {
            records: p.get("records")?.parse().ok()?,
            preload_s: p.get("preload_s")?.parse().ok()?,
            load_s: p.get("load_s")?.parse().ok()?,
            resync_s: p.get("resync_s")?.parse().ok()?,
            added: p.get("added")?.parse().ok()?,
            unchanged: p.get("unchanged")?.parse().ok()?,
            failed: p.get("failed")?.parse().ok()?,
            consistent: p.get("consistent")? == "1",
            peak_rss_kb: p.get("peak_rss_kb")?.parse().ok()?,
        })
    }
}

/// A fresh volatile rig whose devices hold a station and a mailbox for
/// everyone, and the time the initial `synchronize_all` took.
fn loaded_rig(people: &[Person]) -> (Rig, Vec<Subscriber>, metacomm::SyncReport, f64) {
    let rig = Rig::build(None);
    let subs: Vec<Subscriber> = people.iter().cloned().map(Subscriber::new).collect();
    preload(&rig, &subs);
    let t = Instant::now();
    let load = rig.system.synchronize_all().expect("initial load");
    let load_s = t.elapsed().as_secs_f64();
    (rig, subs, load, load_s)
}

/// A fresh rig synchronized twice: the initial load, then a resync.
fn sync_once(people: &[Person]) -> (Rig, Vec<Subscriber>, SyncTiming) {
    let t = Instant::now();
    let (rig, subs, load, load_s) = loaded_rig(people);
    let preload_s = t.elapsed().as_secs_f64() - load_s;
    let t = Instant::now();
    let again = rig.system.synchronize_all().expect("resync");
    let resync_s = t.elapsed().as_secs_f64();
    let timing = SyncTiming {
        records: 2 * people.len(),
        preload_s,
        load_s,
        resync_s,
        added: load.added,
        unchanged: again.unchanged,
        failed: load.failed + again.failed + again.added + again.repaired + again.cleared,
        consistent: subs.iter().all(|s| s.consistent(&rig)),
        peak_rss_kb: 0,
    };
    (rig, subs, timing)
}

/// The child's side of a sync round: `perfbench --sync-child ...`.
pub fn child_main(seed: u64, stations: usize) -> std::process::ExitCode {
    let (rig, _, mut timing) = sync_once(&gen::people(seed, stations));
    rig.shutdown();
    timing.peak_rss_kb = peak_rss_kb();
    println!("{}", timing.to_line());
    std::process::ExitCode::SUCCESS
}

/// One sync round in a process of its own: a deployment that is shut down
/// leaves its tree behind, and five rigs in one process made `VmHWM` land
/// on 43 or 45 MB by run. The unit tests, whose executable is not this
/// program, sync in process.
fn sync_fresh(cfg: &Config, people: &[Person]) -> SyncTiming {
    if cfg.smoke {
        let (rig, _, timing) = sync_once(people);
        rig.shutdown();
        return timing;
    }
    let args = [
        "--sync-child".to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--stations".to_string(),
        people.len().to_string(),
    ];
    SyncTiming::from_pairs(&run_child(&args, SyncTiming::TAG)).expect("a whole sync report")
}

/// Routes directory commits to the client waiting for them.
struct Watcher {
    inboxes: Vec<Mutex<Receiver<(Instant, String)>>>,
}

impl Watcher {
    /// Observe `rig`'s DIT: a commit on the entry of `subs[i]` is stamped
    /// and sent, with the values it wrote, to client `i % clients`.
    fn install(rig: &Rig, subs: &[Subscriber], clients: usize) -> Watcher {
        let owner: HashMap<String, usize> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| (gen::flat_dn(&s.cn()).norm_key(), i % clients))
            .collect();
        let (txs, rxs): (Vec<Sender<_>>, Vec<Receiver<_>>) =
            (0..clients).map(|_| channel()).unzip();
        let txs = Mutex::new(txs);
        rig.system.dit().observe(move |rec| {
            let seen = Instant::now();
            let (Some(&client), ChangeOp::Modify(mods)) = (owner.get(&rec.dn.norm_key()), &rec.op)
            else {
                return;
            };
            let values: Vec<&str> = mods
                .iter()
                .flat_map(|m| m.values.iter().map(String::as_str))
                .collect();
            // A closed inbox means the measurement is over.
            let _ =
                txs.lock().expect("observer sender list")[client].send((seen, values.join("\n")));
        });
        Watcher {
            inboxes: rxs.into_iter().map(Mutex::new).collect(),
        }
    }
}

/// One round of device changes: station room changes on the craft terminal
/// alternate with class-of-service changes on the platform console.
fn ddu_round(
    rig: &Rig,
    watcher: &Watcher,
    subs: &mut [Subscriber],
    cfg: &Config,
    round_no: usize,
    ops: usize,
    tracer: Option<&Tracer>,
) -> (Round, usize) {
    let clients = watcher.inboxes.len();
    let shares = deal(subs, clients);
    let (per_client, wall_s) = run_clients(clients, |c| {
        let mut share = shares[c].lock().expect("one client per share");
        let inbox = watcher.inboxes[c].lock().expect("one client per inbox");
        let mut rng = Rng::stream(cfg.seed, (400 + round_no * 8 + c) as u64);
        let (mut lat, mut failed) = (Vec::new(), 0usize);
        for i in 0..ops / clients {
            let pick = rng.below(share.len());
            let sub = &mut *share[pick];
            let ext = sub.person.extension(SWITCHES);
            while inbox.try_recv().is_ok() {}
            let req = ((c as u64) << 32) | i as u64;
            let (command_ok, expect, start);
            if i % 2 == 0 {
                sub.room = format!("D{round_no}-{c}{i:06}");
                expect = sub.room.clone();
                let line = format!("change station {ext} room {}", sub.room);
                start = Instant::now();
                command_ok = pbx::ossi::execute(rig.switch_for(&ext), &line).is_ok();
            } else {
                sub.cos = (sub.cos + 1) % COS.len();
                expect = COS[sub.cos].to_string();
                let line = format!("change subscriber {ext} cos {expect}");
                start = Instant::now();
                command_ok = msgplat::admin::execute(&rig.mp, &line).is_ok();
            }
            let committed = Instant::now();
            let seen = loop {
                match inbox.recv_timeout(Duration::from_secs(5)) {
                    Ok((seen, values)) if values.lines().any(|v| v == expect) => break Some(seen),
                    Ok(_) => continue,
                    Err(_) => break None,
                }
            };
            match seen {
                Some(seen) if command_ok => {
                    lat.push((seen - start).as_nanos() as u64);
                    if let Some(t) = tracer {
                        let root = t.record("ddu.craft_to_directory", 0, req, start, seen);
                        t.record("device.craft_commit", root, req, start, committed);
                    }
                }
                _ => failed += 1,
            }
        }
        (lat, failed)
    });
    let failed = per_client.iter().map(|r| r.1).sum();
    let lat_ns = per_client.into_iter().flat_map(|r| r.0).collect();
    (Round { wall_s, lat_ns }, failed)
}

/// A short discarded warm-up, then `rounds` rounds of device changes,
/// each followed by `settle()` and the field-by-field comparison.
fn ddu_phase(
    cfg: &Config,
    rig: &Rig,
    watcher: &Watcher,
    subs: &mut [Subscriber],
    rounds: usize,
    out: &mut Outcome,
) -> (stats::ClassStats, bool) {
    let ops = cfg.ops(DDU_OPS, 2 * cfg.clients);
    let mut timed = Vec::new();
    let mut consistent = true;
    for r in 0..=rounds {
        let n = if r == 0 { ops / WARMUP_SHARE } else { ops };
        let n = (n / (2 * cfg.clients)).max(1) * 2 * cfg.clients;
        let (round, failed) = ddu_round(rig, watcher, subs, cfg, r, n, None);
        rig.system.settle();
        consistent &= subs.iter().all(|s| s.consistent(rig));
        if r > 0 {
            out.count(n, failed);
            timed.push(round);
        }
    }
    (reduce_rounds(&mut timed), consistent)
}

fn meta(cfg: &Config, stations: usize) -> Vec<(&'static str, String)> {
    vec![
        ("device_update.device_records", (2 * stations).to_string()),
        (
            "device_update.ddu_ops_per_round",
            cfg.ops(DDU_OPS, 2 * cfg.clients).to_string(),
        ),
        (
            "device_update.fsync_policy",
            "none (volatile deployment)".to_string(),
        ),
    ]
}

fn no_relay_errors(rig: &Rig) -> bool {
    rig.system.relay_stats().errors.load(Ordering::SeqCst) == 0
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let stations = cfg.population(STATIONS, 100);
    let people = gen::people(cfg.seed, stations);

    // Set-up: a rig whose directory holds what its devices hold.
    let t = Instant::now();
    let (rig, mut subs, load, _) = loaded_rig(&people);
    let setup_s = t.elapsed().as_secs_f64();
    let mut sync_ok = load.failed == 0 && load.added == stations;
    out.count(2 * stations, load.failed);
    let mut consistent = subs.iter().all(|s| s.consistent(&rig));

    // Device changes on that rig.
    let watcher = Watcher::install(&rig, &subs, cfg.clients);
    let (ddu, ddu_consistent) = ddu_phase(cfg, &rig, &watcher, &mut subs, cfg.rounds(), &mut out);
    consistent &= ddu_consistent;
    let relays_ok = no_relay_errors(&rig);
    rig.shutdown();

    // Sync rounds, each from nothing, so there is no warm-up round.
    let (mut load_rates, mut resync_rates) = (Vec::new(), Vec::new());
    for _ in 0..cfg.rounds() {
        let t = sync_fresh(cfg, &people);
        sync_ok &= t.ok();
        out.count(2 * t.records, t.failed);
        out.child_peak_rss_kb = out.child_peak_rss_kb.max(t.peak_rss_kb);
        load_rates.push(t.records as f64 / t.load_s);
        resync_rates.push(t.records as f64 / t.resync_s);
    }

    out.named = vec![
        ("setup_s", setup_s, "s"),
        ("sync_records_per_s", stats::median(&load_rates), "1/s"),
        ("resync_records_per_s", stats::median(&resync_rates), "1/s"),
        ("ddu_p50_us", ddu.p50_us, "us"),
        ("ddu_p95_us", ddu.p95_us, "us"),
        ("ddu_ops_per_s", ddu.ops_per_s, "1/s"),
    ];
    out.meta = meta(cfg, stations);
    out.check(
        "device_update.sync_adds_all_then_finds_all_unchanged",
        sync_ok,
    );
    out.check("device_update.device_directory_fields_equal", consistent);
    out.check("device_update.no_relay_errors", relays_ok);
    out
}

/// DDU figures the relay's own counters give: (ops sent per DDU, errors).
fn relay_ratios(rig: &Rig) -> (f64, f64) {
    let s = rig.system.relay_stats();
    let ddus = s.ddus.load(Ordering::SeqCst).max(1) as f64;
    (
        s.ops_sent.load(Ordering::SeqCst) as f64 / ddus,
        s.errors.load(Ordering::SeqCst) as f64,
    )
}

/// Median latency of `n` room changes made as plain gateway modifies — the
/// directory-side work of a DDU without the relay in front of it.
fn gateway_room_changes(rig: &Rig, subs: &mut [Subscriber], n: usize, tracer: &Tracer) -> f64 {
    let gateway = rig.system.directory();
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let sub = &mut subs[i % subs.len()];
        sub.room = format!("G-{i:07}");
        let dn = gen::flat_dn(&sub.cn());
        let mods = [Modification::set("roomNumber", sub.room.clone())];
        let start = Instant::now();
        gateway.modify(&dn, &mods).expect("gateway modify");
        let end = Instant::now();
        tracer.record("ltap.modify", 0, i as u64, start, end);
        lat.push((end - start).as_nanos() as u64);
    }
    median_us(&mut lat)
}

/// Median time of one device-to-directory translation of a room change.
fn translate_room_change(rig: &Rig, sub: &Subscriber, n: usize, tracer: &Tracer) -> f64 {
    let ext = sub.person.extension(SWITCHES);
    let switch = rig.switch_for(&ext).name().to_string();
    let image = |room: &str| {
        Image::from_pairs([
            ("Extension", ext.as_str()),
            ("Name", &sub.person.device_name()),
            ("Room", room),
            ("CoveragePath", "1"),
            ("Cor", "1"),
        ])
    };
    let d = UpdateDescriptor::modify(
        ext.clone(),
        image("1A-001"),
        image("2B-002"),
        switch.clone(),
    );
    let mapping = format!("{switch}_to_ldap");
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let start = Instant::now();
        std::hint::black_box(rig.system.engine().translate(&mapping, &d)).expect("translate");
        let end = Instant::now();
        tracer.record("lexpress.translate", 0, i as u64, start, end);
        lat.push((end - start).as_nanos() as u64);
    }
    median_us(&mut lat)
}

/// Median time of one LDAP-to-device translation of a room change.
fn translate_to_device(rig: &Rig, sub: &Subscriber, n: usize) -> f64 {
    let ext = sub.person.extension(SWITCHES);
    let dn = gen::flat_dn(&sub.cn()).to_string();
    let image = |room: &str| {
        Image::from_pairs([
            ("dn", dn.clone()),
            ("cn", sub.cn()),
            ("definityExtension", ext.clone()),
            ("roomNumber", room.to_string()),
        ])
    };
    let d = UpdateDescriptor::modify(dn.clone(), image("1A-001"), image("2B-002"), "ldap");
    let mapping = format!("ldap_to_{}", rig.switch_for(&ext).name());
    let mut lat = time_each(0..n, |_| {
        std::hint::black_box(rig.system.engine().translate(&mapping, &d)).expect("translate");
    });
    median_us(&mut lat)
}

/// The traced pass: a small sync (does cost per record grow with size?),
/// one full sync, one untraced round of device changes to subtract from,
/// one round with spans, and the same changes made as gateway modifies.
pub fn traced(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let stations = cfg.population(STATIONS, 100);
    let people = gen::people(cfg.seed, stations);
    let ddu_ops = cfg.ops(DDU_OPS, 2 * cfg.clients);

    let small = &people[..cfg.population(SMALL_SYNC / 2, 25)];
    let (small_rig, _, small_sync) =
        tracer.span("sync.small_load_and_resync", 0, 0, || sync_once(small));
    out.count(2 * small_sync.records, small_sync.failed);
    small_rig.shutdown();

    let (rig, mut subs, sync) = tracer.span("sync.load_and_resync", 0, 1, || sync_once(&people));
    out.count(2 * sync.records, sync.failed);
    let mut consistent = subs.iter().all(|s| s.consistent(&rig));

    let watcher = Watcher::install(&rig, &subs, cfg.clients);
    let (untraced, ddu_consistent) = ddu_phase(cfg, &rig, &watcher, &mut subs, 1, &mut out);
    consistent &= ddu_consistent;
    let (_, failed) = ddu_round(&rig, &watcher, &mut subs, cfg, 7, ddu_ops, Some(tracer));
    out.count(ddu_ops, failed);
    rig.system.settle();
    let commit_us = tracer.median_us("device.craft_commit").unwrap_or(0.0);
    let (ops_sent_per_ddu, errors) = relay_ratios(&rig);

    let replays = REPLAYS.min(ddu_ops);
    let gateway_p50 = gateway_room_changes(&rig, &mut subs, replays, tracer);
    out.count(replays, 0);
    rig.system.settle();
    consistent &= subs.iter().all(|s| s.consistent(&rig));
    let to_ldap_us = translate_room_change(&rig, &subs[0], replays, tracer);
    let to_device_us = translate_to_device(&rig, &subs[0], replays);
    out.budgets.push(Budget {
        title: "one device change, craft command to directory commit",
        end_to_end_us: untraced.p50_us,
        rows: vec![
            ("device: parse and commit the craft command", commit_us),
            ("lexpress: translate device record to LDAP", to_ldap_us),
            (
                "ltap+um+devices+dit: the relayed modify, in process",
                gateway_p50,
            ),
        ],
    });

    let l = &mut out.layer;
    l.insert("sync_records_per_s", sync.records as f64 / sync.load_s);
    l.insert("resync_records_per_s", sync.records as f64 / sync.resync_s);
    l.insert("ddu_p50_us", untraced.p50_us);
    l.insert("ddu.relay_overhead_us", untraced.p50_us - gateway_p50);
    l.insert("ddu.ops_sent_per_ddu", ops_sent_per_ddu);
    l.insert("ddu.errors", errors);
    l.insert("lexpress.translate_us", (to_ldap_us + to_device_us) / 2.0);
    l.insert(
        "sync.small_records_per_s",
        small_sync.records as f64 / small_sync.load_s,
    );
    l.insert(
        "sync.added_per_record",
        sync.added as f64 / sync.records as f64,
    );
    l.insert(
        "sync.unchanged_ratio",
        sync.unchanged as f64 / sync.records as f64,
    );
    out.meta = meta(cfg, stations);
    out.check(
        "device_update.sync_adds_all_then_finds_all_unchanged",
        sync.ok() && small_sync.ok(),
    );
    out.check("device_update.device_directory_fields_equal", consistent);
    out.check("device_update.no_relay_errors", no_relay_errors(&rig));
    rig.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sync_report_survives_its_line() {
        let t = SyncTiming {
            records: 8_000,
            preload_s: 0.0625,
            load_s: 1.75,
            resync_s: 1.5,
            added: 4_000,
            unchanged: 8_000,
            failed: 0,
            consistent: true,
            peak_rss_kb: 31_000,
        };
        let pairs = crate::harness::parse_report(&t.to_line(), SyncTiming::TAG).unwrap();
        assert_eq!(SyncTiming::from_pairs(&pairs), Some(t.clone()));
        assert!(t.ok());
    }
}
