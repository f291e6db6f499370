//! `ldap_write`: durable LDAP writes with device fan-out. Each connection
//! repeats W W W W R on one person after another: four updates that reach
//! the devices (room -> the person's PBX, class of service -> the messaging
//! platform, surname -> both, by renaming the entry), then a read-back over
//! the wire of everything just written. LTAP, the Update Manager, lexpress,
//! the device filters, the DIT commit and the WAL do the work; the
//! read-back shares the DIT and the wire with the writes beside it.

use crate::gen::{self, Person, Rng, COS};
use crate::harness::{
    connect, deal, median_us, run_clients, time_each, Config, Outcome, Rig, SWITCHES, WARMUP_SHARE,
};
use crate::stats::{self, reduce_rounds, Round};
use crate::trace::{Budget, Tracer};
use ldap::proto::{LdapMessage, LdapResult, ProtocolOp};
use ldap::{Directory, Filter, Modification, Rdn, Scope};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// People, each with a station and a mailbox.
const PERSONS: usize = 4_000;
/// Operations (writes and read-backs) per round, both clients together.
const OPS: usize = 8_000;
/// Writes replayed through the gateway in process for the budget table.
const REPLAYS: usize = 1_000;
/// Calls timed by each probe of a single function (traced run).
const PROBE_REPS: usize = 2_000;
/// Records in the scratch log `wal::replay` is timed on.
const REPLAY_RECORDS: usize = 50_000;

/// What the directory and the devices should hold for one person.
pub struct Subscriber {
    pub person: Person,
    pub renamed: bool,
    pub room: String,
    pub cos: usize,
}

impl Subscriber {
    pub fn new(person: Person) -> Subscriber {
        let room = person.room.clone();
        let cos = person.serial % COS.len();
        Subscriber {
            person,
            renamed: false,
            room,
            cos,
        }
    }

    fn surname(&self) -> &str {
        if self.renamed {
            &self.person.alt_surname
        } else {
            &self.person.surname
        }
    }

    pub fn cn(&self) -> String {
        self.person.cn_with(self.surname())
    }

    fn device_name(&self) -> String {
        format!(
            "{} {:06}, {}",
            self.surname(),
            self.person.serial,
            self.person.given
        )
    }

    /// Whether the directory, the PBX and the platform all hold this state.
    pub fn consistent(&self, rig: &Rig) -> bool {
        let ext = self.person.extension(SWITCHES);
        let entry = ldap::Dit::get(&rig.system.dit(), &gen::flat_dn(&self.cn()));
        let station = rig.switch_for(&ext).get(&ext);
        let mailbox = rig.mp.get(&ext);
        let (Some(entry), Some(station), Some(mailbox)) = (entry, station, mailbox) else {
            return false;
        };
        entry.first("roomNumber") == Some(self.room.as_str())
            && entry.first("mpClassOfService") == Some(COS[self.cos])
            && station.get("Room") == Some(self.room.as_str())
            && station.get("Name") == Some(self.device_name().as_str())
            && mailbox.get("Cos").map(String::as_str) == Some(COS[self.cos])
            && mailbox.get("Subscriber").map(String::as_str) == Some(self.device_name().as_str())
    }
}

/// Build a durable rig under `state` and add `people` through the gateway,
/// so every station and mailbox is created by fan-out.
pub fn populated_rig(state: &std::path::Path, people: &[Person]) -> (Rig, Vec<Subscriber>) {
    crate::harness::fresh_dir(state);
    let rig = Rig::build(Some(state));
    let gateway = rig.system.directory();
    let subs: Vec<Subscriber> = people.iter().cloned().map(Subscriber::new).collect();
    for s in &subs {
        gateway
            .add(gen::device_entry(&s.person, SWITCHES, COS[s.cos]))
            .expect("populate through the gateway");
    }
    (rig, subs)
}

struct RoundResult {
    writes: Round,
    reads: Vec<u64>,
    failed: usize,
}

/// One round: client `c` owns every `clients`-th subscriber and walks its
/// share in a seeded order, five ops per person.
fn round(
    dirs: &[Arc<dyn Directory>],
    subs: &mut [Subscriber],
    cfg: &Config,
    round_no: usize,
    ops: usize,
    tracer: Option<&Tracer>,
) -> RoundResult {
    let clients = dirs.len();
    let shares = deal(subs, clients);
    let groups = ops / 5 / clients;
    let (per_client, wall_s) = run_clients(clients, |c| {
        let mut share = shares[c].lock().expect("one client per share");
        let mut rng = Rng::stream(cfg.seed, (300 + round_no * 8 + c) as u64);
        let mut order: Vec<usize> = (0..share.len()).collect();
        rng.shuffle(&mut order);
        let (mut w_lat, mut r_lat, mut failed) = (Vec::new(), Vec::new(), 0usize);
        for g in 0..groups {
            let sub = &mut *share[order[g % order.len()]];
            for j in 0..4 {
                let kind = (4 * g + j) % 3;
                let req = ((c as u64) << 32) | (g * 5 + j) as u64;
                let dn = gen::flat_dn(&sub.cn());
                let start;
                let result = match kind {
                    0 => {
                        sub.room = format!("R{round_no}-{c}{g:05}{j}");
                        let mods = [Modification::set("roomNumber", sub.room.clone())];
                        start = Instant::now();
                        dirs[c].modify(&dn, &mods)
                    }
                    1 => {
                        sub.cos = (sub.cos + 1) % COS.len();
                        let mods = [Modification::set("mpClassOfService", COS[sub.cos])];
                        start = Instant::now();
                        dirs[c].modify(&dn, &mods)
                    }
                    _ => {
                        sub.renamed = !sub.renamed;
                        let rdn = Rdn::new("cn", sub.cn());
                        start = Instant::now();
                        dirs[c].modify_rdn(&dn, &rdn, true, None)
                    }
                };
                let end = Instant::now();
                w_lat.push((end - start).as_nanos() as u64);
                if let Some(t) = tracer {
                    t.record("wire.update", 0, req, start, end);
                }
                failed += usize::from(result.is_err());
            }
            let dn = gen::flat_dn(&sub.cn());
            let start = Instant::now();
            let found = dirs[c].search(&dn, Scope::Base, &Filter::match_all(), &[], 0);
            let end = Instant::now();
            r_lat.push((end - start).as_nanos() as u64);
            if let Some(t) = tracer {
                t.record(
                    "wire.readback",
                    0,
                    ((c as u64) << 32) | (g * 5 + 4) as u64,
                    start,
                    end,
                );
            }
            let ok = matches!(&found, Ok(v) if v.len() == 1
                && v[0].first("roomNumber") == Some(sub.room.as_str())
                && v[0].first("mpClassOfService") == Some(COS[sub.cos])
                && v[0].first("cn") == Some(sub.cn().as_str()));
            failed += usize::from(!ok);
        }
        (w_lat, r_lat, failed)
    });
    let failed = per_client.iter().map(|r| r.2).sum();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for (w, r, _) in per_client {
        writes.extend(w);
        reads.extend(r);
    }
    RoundResult {
        writes: Round {
            wall_s,
            lat_ns: writes,
        },
        reads,
        failed,
    }
}

/// A populated rig, served, with one connection per client.
struct Served {
    rig: Rig,
    subs: Vec<Subscriber>,
    server: ldap::server::Server,
    dirs: Vec<Arc<dyn Directory>>,
}

impl Served {
    fn start(cfg: &Config, people: &[Person]) -> Served {
        let (rig, subs) = populated_rig(&cfg.state_dir, people);
        let server = rig.system.serve("127.0.0.1:0").expect("serve");
        let dirs = connect(&server, cfg.clients);
        Served {
            rig,
            subs,
            server,
            dirs,
        }
    }

    fn stop(mut self) {
        drop(self.dirs);
        self.server.shutdown();
        self.rig.shutdown();
    }

    fn consistent(&self) -> bool {
        self.subs.iter().all(|s| s.consistent(&self.rig))
    }
}

/// A short discarded warm-up, then `rounds` rounds, each followed by the
/// field-by-field comparison; returns the write figures, the read-back
/// median and whether every comparison held.
fn phase(
    cfg: &Config,
    served: &mut Served,
    rounds: usize,
    out: &mut Outcome,
) -> (stats::ClassStats, f64, bool) {
    let ops = cfg.ops(OPS, 5 * cfg.clients);
    let mut write_rounds = Vec::new();
    let mut read_p50 = Vec::new();
    let mut consistent = true;
    for r in 0..=rounds {
        let n = if r == 0 { ops / WARMUP_SHARE } else { ops };
        let n = (n / (5 * cfg.clients)).max(1) * 5 * cfg.clients;
        let mut res = round(&served.dirs, &mut served.subs, cfg, r, n, None);
        consistent &= served.consistent();
        if r > 0 {
            out.count(res.writes.lat_ns.len() + res.reads.len(), res.failed);
            read_p50.push(median_us(&mut res.reads));
            write_rounds.push(res.writes);
        }
    }
    (
        reduce_rounds(&mut write_rounds),
        stats::median(&read_p50),
        consistent,
    )
}

fn meta(cfg: &Config, population: usize) -> Vec<(&'static str, String)> {
    let ops = cfg.ops(OPS, 5 * cfg.clients);
    vec![
        ("ldap_write.persons", population.to_string()),
        ("ldap_write.ops_per_round", ops.to_string()),
        ("ldap_write.writes_per_round", (ops / 5 * 4).to_string()),
        ("ldap_write.fsync_policy", "group".to_string()),
    ]
}

fn no_um_errors(rig: &Rig) -> bool {
    rig.system
        .um_stats()
        .errors
        .load(std::sync::atomic::Ordering::SeqCst)
        == 0
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let population = cfg.population(PERSONS, 200);
    let people = gen::people(cfg.seed, population);

    // Set up once: a deployment that is shut down leaves its tree behind,
    // so a second set-up in this process would count twice in `VmHWM`.
    let t = Instant::now();
    let mut served = Served::start(cfg, &people);
    let setup_s = t.elapsed().as_secs_f64();

    let (write, readback_p50_us, consistent) = phase(cfg, &mut served, cfg.rounds(), &mut out);

    out.named = vec![
        ("setup_s", setup_s, "s"),
        ("write_ops_per_s", write.ops_per_s, "1/s"),
        ("write_p50_us", write.p50_us, "us"),
        ("write_p95_us", write.p95_us, "us"),
        ("readback_p50_us", readback_p50_us, "us"),
    ];
    out.meta = meta(cfg, population);
    out.check("ldap_write.device_directory_fields_equal", consistent);
    out.check(
        "ldap_write.no_update_manager_errors",
        no_um_errors(&served.rig),
    );
    served.stop();
    out
}

/// (appends, bytes, fsyncs) of the deployment's WAL so far.
fn wal_counters(rig: &Rig) -> (u64, u64, u64) {
    let snap = rig.system.metrics_snapshot();
    let v = |name| snap.value("durability", name).unwrap_or(0);
    (v("walAppends"), v("walBytes"), v("walFsyncs"))
}

/// Medians of the Update Manager's own spans over its recent updates
/// (`MetaComm::recent_traces`, the last 256): name -> microseconds, and
/// device operations applied per update under `device_ops_per_update`.
fn um_stages(system: &metacomm::MetaComm) -> BTreeMap<&'static str, f64> {
    let traces: Vec<_> = system
        .recent_traces()
        .into_iter()
        .filter(|t| t.outcome == "ok")
        .collect();
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(&v) };
    let mut stages = BTreeMap::new();
    for name in ["acquire", "closure", "translate", "apply", "commit"] {
        let per_update = traces
            .iter()
            .map(|t| {
                t.stage_ns
                    .iter()
                    .filter(|s| s.0 == name)
                    .map(|s| s.1 as f64 / 1e3)
                    .sum()
            })
            .collect();
        stages.insert(name, median_or_zero(per_update));
    }
    stages.insert(
        "total",
        median_or_zero(traces.iter().map(|t| t.total_ns as f64 / 1e3).collect()),
    );
    let applied: usize = traces
        .iter()
        .map(|t| t.device_ops.iter().filter(|d| d.3).count())
        .sum();
    stages.insert(
        "device_ops_per_update",
        applied as f64 / traces.len().max(1) as f64,
    );
    stages
}

/// The traced pass: one untraced round to subtract from (its WAL counters
/// give the group-commit figures), one round with a span per request, the
/// same kind of round in process, and probes of the layers under a write.
pub fn traced(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let population = cfg.population(PERSONS, 200);
    let people = gen::people(cfg.seed, population);
    let ops = cfg.ops(OPS, 5 * cfg.clients);
    let mut served = Served::start(cfg, &people);

    let wal_before = wal_counters(&served.rig);
    let (untraced, readback_p50_us, mut consistent) = phase(cfg, &mut served, 1, &mut out);
    let wal_after = wal_counters(&served.rig);
    let warmup = (ops / WARMUP_SHARE / (5 * cfg.clients)).max(1) * 5 * cfg.clients;
    let updates = (ops + warmup) / 5 * 4;

    let res = round(&served.dirs, &mut served.subs, cfg, 7, ops, Some(tracer));
    out.count(res.writes.lat_ns.len() + res.reads.len(), res.failed);
    // The Update Manager keeps its own spans for the most recent updates:
    // these are the traced round's.
    let um = um_stages(&served.rig.system);

    // The same kind of round through the gateway in process.
    let gateway: Vec<Arc<dyn Directory>> = (0..cfg.clients)
        .map(|_| served.rig.system.directory() as Arc<dyn Directory>)
        .collect();
    let replay_ops = (REPLAYS.min(ops) / (5 * cfg.clients)).max(1) * 5 * cfg.clients;
    let mut inproc = round(&gateway, &mut served.subs, cfg, 8, replay_ops, None);
    out.count(
        inproc.writes.lat_ns.len() + inproc.reads.len(),
        inproc.failed,
    );
    let gateway_p50 = median_us(&mut inproc.writes.lat_ns);
    let um_inproc = um_stages(&served.rig.system);
    consistent &= served.consistent();

    // One modify request and its response through the codec.
    for i in 0..REPLAYS as u64 {
        let request = LdapMessage {
            id: i as i64 + 1,
            op: ProtocolOp::ModifyRequest {
                dn: gen::flat_dn(&served.subs[0].cn()).to_string(),
                mods: vec![Modification::set("roomNumber", format!("R7-{i:07}"))],
            },
        };
        let frame = tracer.span("proto.encode_request", 0, i, || request.encode());
        tracer.span("proto.decode_request", 0, i, || {
            black_box(LdapMessage::decode(&frame)).is_ok()
        });
        let response = LdapMessage {
            id: i as i64 + 1,
            op: ProtocolOp::ModifyResponse(LdapResult::success()),
        };
        let frame = tracer.span("proto.encode_response", 0, i, || response.encode());
        tracer.span("proto.decode_response", 0, i, || {
            black_box(LdapMessage::decode(&frame)).is_ok()
        });
    }
    let m = |name: &str| tracer.median_us(name).unwrap_or(0.0);
    let proto = m("proto.encode_request")
        + m("proto.decode_request")
        + m("proto.encode_response")
        + m("proto.decode_response");
    // Stage medians come from the in-process replays, like the gateway
    // median they are subtracted from. Fan-out legs may run in parallel, so
    // their wall time is what the other stages leave of the total.
    let s = &um_inproc;
    let fan_out = s["total"] - s["acquire"] - s["closure"] - s["commit"];
    out.budgets.push(Budget {
        title: "one fan-out update (modify or rename) over TCP, durable",
        end_to_end_us: untraced.p50_us,
        rows: vec![
            ("proto: encode+decode request and response", proto),
            (
                "ltap: locks, pre-image, triggers, durability barrier",
                gateway_p50 - s["total"],
            ),
            ("um: queue wait (acquire)", s["acquire"]),
            ("um: transitive closure", s["closure"]),
            ("um: fan-out, lexpress translate + device apply", fan_out),
            ("um: directory commit incl. WAL append", s["commit"]),
        ],
    });

    let l = &mut out.layer;
    l.insert("write_ops_per_s", untraced.ops_per_s);
    l.insert("write_p50_us", untraced.p50_us);
    l.insert("write_p95_us", untraced.p95_us);
    l.insert("readback_p50_us", readback_p50_us);
    l.insert("um.acquire_us", um["acquire"]);
    l.insert("um.closure_us", um["closure"]);
    l.insert("um.translate_us", um["translate"]);
    l.insert("um.apply_us", um["apply"]);
    l.insert("um.commit_us", um["commit"]);
    l.insert("um.total_us", um["total"]);
    l.insert("um.device_ops_per_update", um["device_ops_per_update"]);
    l.insert("um.write_p99_us", untraced.p99_us);
    l.insert(
        "wal.appends_per_fsync",
        (wal_after.0 - wal_before.0) as f64 / (wal_after.2 - wal_before.2).max(1) as f64,
    );
    l.insert(
        "wal.bytes_per_update",
        (wal_after.1 - wal_before.1) as f64 / updates as f64,
    );
    // Folded with `wire_read`'s into `harness.trace_overhead_ratio`.
    l.insert(
        "harness.trace_overhead_ratio",
        res.writes.ops_per_s() / untraced.ops_per_s,
    );
    bare_dit_probes(cfg, &people, l);
    wal_probes(cfg, l);

    out.meta = meta(cfg, population);
    out.check("ldap_write.device_directory_fields_equal", consistent);
    out.check(
        "ldap_write.no_update_manager_errors",
        no_um_errors(&served.rig),
    );
    // Last, with everything checked: the devices' own change calls, on the
    // channel MetaComm uses, which fires no event and tells no one.
    device_probes(&served, &mut out.layer);
    served.stop();
    out
}

/// `Dit::modify` on a bare DIT of this workload's shape, and the same
/// modify through a trigger-less `Gateway` in front of it.
fn bare_dit_probes(cfg: &Config, people: &[Person], l: &mut BTreeMap<&'static str, f64>) {
    let schema = Arc::new(metacomm::schema::integrated_schema());
    let dit = ldap::Dit::with_schema_indexed(schema, gen::INDEXED);
    dit.add(gen::suffix_entry()).expect("add suffix");
    for p in people {
        dit.add(gen::device_entry(p, SWITCHES, COS[0]))
            .expect("add person");
    }
    let reps = cfg.ops(PROBE_REPS, 1);
    let picks: Vec<&Person> = people.iter().cycle().take(reps).collect();
    let mut dit_ns = time_each(picks.iter().enumerate(), |(i, p)| {
        let mods = [Modification::set("roomNumber", format!("M-{i:06}"))];
        dit.modify(&gen::flat_dn(&p.cn()), &mods)
            .expect("dit modify");
    });
    let gateway = ltap::Gateway::new(dit.clone());
    let mut gw_ns = time_each(picks.iter().enumerate(), |(i, p)| {
        let mods = [Modification::set("roomNumber", format!("N-{i:06}"))];
        gateway
            .modify(&gen::flat_dn(&p.cn()), &mods)
            .expect("gateway modify");
    });
    let dit_modify_us = median_us(&mut dit_ns);
    l.insert("dit.modify_us", dit_modify_us);
    l.insert(
        "ltap.write_overhead_us",
        median_us(&mut gw_ns) - dit_modify_us,
    );
}

/// `Wal::append`, `Wal::sync` and `wal::replay` on a scratch file.
fn wal_probes(cfg: &Config, l: &mut BTreeMap<&'static str, f64>) {
    let dir = cfg.state_dir.join("probe-wal");
    crate::harness::fresh_dir(&dir);
    let path = dir.join("probe.log");
    let wal = ldap::Wal::open(&path, ldap::FsyncPolicy::Group).expect("open scratch wal");
    let payload = [0x5au8; 220];
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    for _ in 0..cfg.ops(PROBE_REPS, 1) {
        let t = Instant::now();
        wal.append_nowait(1, &payload).expect("append");
        append_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        wal.sync().expect("sync");
        sync_ns.push(t.elapsed().as_nanos() as u64);
    }
    l.insert("wal.append_us", median_us(&mut append_ns));
    l.insert("wal.fsync_us", median_us(&mut sync_ns));
    // A longer log for the replay, synced once.
    for _ in 0..cfg.ops(REPLAY_RECORDS, 1) {
        wal.append_nowait(1, &payload).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    let t = Instant::now();
    let summary = ldap::wal::replay(&path, |tag, body| {
        black_box((tag, body.len()));
        Ok(())
    })
    .expect("replay");
    l.insert(
        "wal.replay_records_per_s",
        summary.records as f64 / t.elapsed().as_secs_f64(),
    );
}

/// `Store::change` on every station and mailbox of the rig.
fn device_probes(served: &Served, l: &mut BTreeMap<&'static str, f64>) {
    let mut pbx_ns = time_each(served.subs.iter().enumerate(), |(i, s)| {
        let ext = s.person.extension(SWITCHES);
        served
            .rig
            .switch_for(&ext)
            .change(
                &ext,
                pbx::Record::from_pairs([("Room", format!("P-{i:05}"))]),
                pbx::Channel::Metacomm,
            )
            .expect("station change");
    });
    l.insert("devices.pbx_change_us", median_us(&mut pbx_ns));
    let mut mp_ns = time_each(served.subs.iter().enumerate(), |(i, s)| {
        served
            .rig
            .mp
            .change(
                &s.person.extension(SWITCHES),
                msgplat::store::record([("Cos", COS[i % COS.len()])]),
                msgplat::Channel::Metacomm,
            )
            .expect("mailbox change");
    });
    l.insert("devices.mp_change_us", median_us(&mut mp_ns));
}
