//! `wire_read`: searches over TCP against a 50k-person tree. Phase P is
//! indexed point searches (per-request overhead); phase S is searches that
//! each stream exactly 1,000 entries (per-entry cost), alternating a unit
//! subtree scan and a whole-tree indexed site match. The Update Manager,
//! lexpress, the devices and the WAL do no work here.

use crate::gen::{self, Person, Rng, PER_OU, SITES};
use crate::harness::{connect, median_us, run_clients, Config, Outcome, WARMUP_SHARE};
use crate::stats::{self, reduce_rounds, Round};
use crate::trace::{Budget, Tracer};
use ldap::proto::{encode_search_entry_into, LdapMessage, ProtocolOp};
use ldap::{Directory, Filter, Scope};
use metacomm::{MetaComm, MetaCommBuilder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Units of `PER_OU` people in the tree.
const UNITS: usize = 50;
/// Point searches per round, both clients together.
const POINT_OPS: usize = 46_000;
/// 1,000-entry searches per round, both clients together.
const SCAN_OPS: usize = 460;
/// Requests replayed through the lower layers for the budget table.
const REPLAYS: usize = 2_000;
/// 1,000-entry searches of each kind made straight on the DIT (traced run).
const DIT_SCANS: usize = 200;

struct Served {
    system: MetaComm,
    server: ldap::server::Server,
    people: Vec<Person>,
}

impl Served {
    fn stop(mut self) {
        self.server.shutdown();
        self.system.shutdown();
    }
}

fn serve_tree(cfg: &Config, units: usize) -> Served {
    let people = gen::people(cfg.seed, units * PER_OU);
    let system = MetaCommBuilder::new(gen::SUFFIX)
        .with_indexed_attrs(gen::INDEXED.iter().copied())
        .build()
        .expect("assemble the read deployment");
    let dit = system.dit();
    for unit in 0..units {
        dit.add(gen::unit_entry(unit)).expect("add unit");
    }
    for p in &people {
        dit.add(gen::tree_entry(p)).expect("add person");
    }
    let server = system.serve("127.0.0.1:0").expect("serve");
    Served {
        system,
        server,
        people,
    }
}

#[derive(Clone, Copy)]
struct PointOp {
    serial: usize,
    by_cn: bool,
}

fn point_filter(p: &Person, by_cn: bool) -> Filter {
    if by_cn {
        Filter::eq("cn", p.cn())
    } else {
        Filter::eq("telephoneNumber", p.phone())
    }
}

/// One list of point searches per client; the two indexed attributes
/// alternate, the people are drawn uniformly.
fn point_plan(cfg: &Config, people: usize, round: usize, ops: usize) -> Vec<Vec<PointOp>> {
    (0..cfg.clients)
        .map(|c| {
            let mut rng = Rng::stream(cfg.seed, (100 + round * 8 + c) as u64);
            (0..ops / cfg.clients)
                .map(|i| PointOp {
                    serial: rng.below(people),
                    by_cn: i % 2 == 0,
                })
                .collect()
        })
        .collect()
}

/// Run one round of point searches; returns the round and the failed ops.
fn point_round(
    dirs: &[Arc<dyn Directory>],
    plan: &[Vec<PointOp>],
    people: &[Person],
    tracer: Option<&Tracer>,
) -> (Round, usize) {
    let base = gen::suffix();
    let (per_client, wall_s) = run_clients(dirs.len(), |c| {
        let mut lat = Vec::with_capacity(plan[c].len());
        let mut failed = 0;
        for (i, op) in plan[c].iter().enumerate() {
            let person = &people[op.serial];
            let filter = point_filter(person, op.by_cn);
            let start = Instant::now();
            let found = dirs[c].search(&base, Scope::Sub, &filter, &[], 0);
            let end = Instant::now();
            lat.push((end - start).as_nanos() as u64);
            if let Some(t) = tracer {
                t.record(
                    "wire.point_search",
                    0,
                    ((c as u64) << 32) | i as u64,
                    start,
                    end,
                );
            }
            let ok = matches!(&found, Ok(v) if v.len() == 1
                && v[0].first("cn") == Some(person.cn().as_str()));
            failed += usize::from(!ok);
        }
        (lat, failed)
    });
    let failed = per_client.iter().map(|r| r.1).sum();
    let lat_ns = per_client.into_iter().flat_map(|r| r.0).collect();
    (Round { wall_s, lat_ns }, failed)
}

#[derive(Clone, Copy)]
enum ScanOp {
    /// Every person under one unit: a presence filter, so a subtree scan.
    Unit(usize),
    /// Every person at one site: an indexed match over the whole tree.
    Site(usize),
}

fn scan_plan(cfg: &Config, units: usize, round: usize, ops: usize) -> Vec<Vec<ScanOp>> {
    (0..cfg.clients)
        .map(|c| {
            let mut rng = Rng::stream(cfg.seed, (200 + round * 8 + c) as u64);
            (0..ops / cfg.clients)
                .map(|i| {
                    if i % 2 == 0 {
                        ScanOp::Unit(rng.below(units))
                    } else {
                        ScanOp::Site(rng.below(SITES))
                    }
                })
                .collect()
        })
        .collect()
}

fn scan_request(op: ScanOp) -> (ldap::Dn, Filter) {
    match op {
        ScanOp::Unit(u) => (gen::unit_dn(u), Filter::Present("sn".into())),
        ScanOp::Site(s) => (gen::suffix(), Filter::eq("l", gen::site_name(s))),
    }
}

/// Run one round of 1,000-entry searches; returns entries per second, the
/// ops attempted and the ops that delivered a wrong result.
fn scan_round(
    dirs: &[Arc<dyn Directory>],
    plan: &[Vec<ScanOp>],
    per_site: usize,
) -> (f64, usize, usize) {
    let (per_client, wall_s) = run_clients(dirs.len(), |c| {
        let mut failed = 0;
        let mut entries = 0;
        for op in &plan[c] {
            let (base, filter) = scan_request(*op);
            let (site, expect) = match *op {
                ScanOp::Unit(_) => (None, PER_OU),
                ScanOp::Site(s) => (Some(gen::site_name(s)), per_site),
            };
            let mut wrong = 0usize;
            let seen = dirs[c].search_visit(&base, Scope::Sub, &filter, &[], 0, &mut |e| {
                let ok = match &site {
                    Some(s) => e.first("l") == Some(s.as_str()),
                    None => e.dn().is_within(&base),
                };
                wrong += usize::from(!ok);
            });
            let ok = matches!(seen, Ok((n, false)) if n == expect) && wrong == 0;
            failed += usize::from(!ok);
            entries += expect;
        }
        (entries, failed)
    });
    let ops = plan.iter().map(Vec::len).sum();
    let entries: usize = per_client.iter().map(|r| r.0).sum();
    let failed = per_client.iter().map(|r| r.1).sum();
    (entries as f64 / wall_s, ops, failed)
}

/// Phase P: a short discarded warm-up, then `rounds` rounds.
fn point_phase(
    cfg: &Config,
    dirs: &[Arc<dyn Directory>],
    people: &[Person],
    rounds: usize,
    out: &mut Outcome,
) -> stats::ClassStats {
    let ops = cfg.ops(POINT_OPS, cfg.clients * 2);
    let mut timed = Vec::new();
    for r in 0..=rounds {
        let n = if r == 0 { ops / WARMUP_SHARE } else { ops };
        let plan = point_plan(cfg, people.len(), r, n);
        let (round, failed) = point_round(dirs, &plan, people, None);
        if r > 0 {
            out.count(round.lat_ns.len(), failed);
            timed.push(round);
        }
    }
    reduce_rounds(&mut timed)
}

/// Phase S: the same shape; returns entries per second.
fn scan_phase(
    cfg: &Config,
    dirs: &[Arc<dyn Directory>],
    units: usize,
    rounds: usize,
    out: &mut Outcome,
) -> f64 {
    let ops = cfg.ops(SCAN_OPS, cfg.clients * 2);
    let mut rates = Vec::new();
    for r in 0..=rounds {
        let n = if r == 0 { ops / WARMUP_SHARE } else { ops };
        let plan = scan_plan(cfg, units, r, n);
        let (rate, ops, failed) = scan_round(dirs, &plan, units * PER_OU / SITES);
        if r > 0 {
            out.count(ops, failed);
            rates.push(rate);
        }
    }
    stats::median(&rates)
}

fn meta(cfg: &Config, units: usize) -> Vec<(&'static str, String)> {
    vec![
        ("wire_read.entries", (units * PER_OU + units).to_string()),
        (
            "wire_read.point_ops_per_round",
            cfg.ops(POINT_OPS, cfg.clients * 2).to_string(),
        ),
        (
            "wire_read.scan_ops_per_round",
            cfg.ops(SCAN_OPS, cfg.clients * 2).to_string(),
        ),
        ("wire_read.entries_per_scan", PER_OU.to_string()),
        (
            "wire_read.fsync_policy",
            "none (volatile deployment)".to_string(),
        ),
    ]
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    // A site holds units * PER_OU / SITES people: with the 50 units of a
    // real run that is PER_OU, so both scan kinds return 1,000 entries.
    let units = cfg.population(UNITS, 2);

    // Set up once: a deployment that is shut down leaves its tree behind,
    // so a second set-up in this process would count twice in `VmHWM`.
    let t = Instant::now();
    let served = serve_tree(cfg, units);
    let dirs = connect(&served.server, cfg.clients);
    let setup_s = t.elapsed().as_secs_f64();

    let point = point_phase(cfg, &dirs, &served.people, cfg.rounds(), &mut out);
    let scan_entries_per_s = scan_phase(cfg, &dirs, units, cfg.rounds(), &mut out);

    out.named = vec![
        ("setup_s", setup_s, "s"),
        ("point_ops_per_s", point.ops_per_s, "1/s"),
        ("point_p50_us", point.p50_us, "us"),
        ("point_p95_us", point.p95_us, "us"),
        ("scan_entries_per_s", scan_entries_per_s, "1/s"),
    ];
    out.meta = meta(cfg, units);
    drop(dirs);
    Served::stop(served);
    out
}

/// The traced pass: one untraced round to subtract from, one round with a
/// span per request, the same rounds in process, and the same requests
/// replayed through each lower layer.
pub fn traced(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let units = cfg.population(UNITS, 2);
    let served = serve_tree(cfg, units);
    let dirs = connect(&served.server, cfg.clients);
    let people = &served.people;
    let base = gen::suffix();
    let point_ops = cfg.ops(POINT_OPS, cfg.clients * 2);

    let untraced = point_phase(cfg, &dirs, people, 1, &mut out);
    let wire_scan_rate = scan_phase(cfg, &dirs, units, 1, &mut out);

    let plan = point_plan(cfg, people.len(), 7, point_ops);
    let (traced, failed) = point_round(&dirs, &plan, people, Some(tracer));
    out.count(traced.lat_ns.len(), failed);

    // The same rounds through the gateway in process, same client count.
    let gateway: Vec<Arc<dyn Directory>> = (0..cfg.clients)
        .map(|_| served.system.directory() as Arc<dyn Directory>)
        .collect();
    let (mut inproc, failed) = point_round(&gateway, &plan, people, None);
    out.count(inproc.lat_ns.len(), failed);
    let inproc_p50 = median_us(&mut inproc.lat_ns);
    let inproc_scan_rate = scan_phase(cfg, &gateway, units, 1, &mut out);

    // Replays: client 0's first requests, one layer at a time.
    let dit = served.system.dit();
    let gw = served.system.directory();
    let mut entry_bytes = Vec::new();
    for (i, op) in plan[0].iter().take(REPLAYS).enumerate() {
        // Same request id as client 0's i-th traced search, and that
        // search's span as parent: it caused the replay, though the replay
        // runs after it, not inside it.
        let req = i as u64;
        let parent = tracer.root_of(req);
        let person = &people[op.serial];
        let filter = point_filter(person, op.by_cn);
        tracer.span("ltap.search", parent, req, || {
            black_box(
                gw.search(&base, Scope::Sub, &filter, &[], 0)
                    .expect("replay"),
            );
        });
        tracer.span("dit.search_visit", parent, req, || {
            dit.search_visit(&base, Scope::Sub, &filter, &[], 0, &mut |e| {
                black_box(e);
            })
            .expect("replay");
        });
        let text = match &filter {
            Filter::Equality(a, v) => format!("({a}={v})"),
            _ => unreachable!("point filters are equalities"),
        };
        tracer.span("filter.parse", parent, req, || {
            black_box(Filter::parse(&text)).is_ok()
        });
        let entry = ldap::Dit::get(&dit, &gen::tree_dn(person)).expect("person exists");
        tracer.span("filter.matches", parent, req, || {
            black_box(filter.matches(&entry))
        });
        let request = LdapMessage {
            id: i as i64 + 1,
            op: ProtocolOp::SearchRequest {
                base: gen::SUFFIX.into(),
                scope: Scope::Sub,
                size_limit: 0,
                filter: filter.clone(),
                attrs: vec![],
            },
        };
        let frame = tracer.span("proto.encode_request", parent, req, || request.encode());
        tracer.span("proto.decode_request", parent, req, || {
            black_box(LdapMessage::decode(&frame)).is_ok()
        });
        let mut buf = Vec::with_capacity(512);
        tracer.span("proto.encode_entry", parent, req, || {
            encode_search_entry_into(&mut buf, i as i64 + 1, &entry)
        });
        tracer.span("proto.decode_entry", parent, req, || {
            black_box(LdapMessage::decode(&buf)).is_ok()
        });
        entry_bytes.push(buf.len() as f64);
    }
    let (served_n, scanned_n) = dit.index_stats();

    // The two 1,000-entry search kinds straight on the DIT, one thread.
    let dit_rate = |op: &dyn Fn(usize) -> ScanOp| {
        let n = cfg.ops(DIT_SCANS, 1);
        let t = Instant::now();
        let mut seen = 0;
        for i in 0..n {
            let (base, filter) = scan_request(op(i));
            seen += dit
                .search_visit(&base, Scope::Sub, &filter, &[], 0, &mut |e| {
                    black_box(e);
                })
                .expect("dit scan")
                .0;
        }
        seen as f64 / t.elapsed().as_secs_f64()
    };
    let dit_scan_rate = dit_rate(&|i| ScanOp::Unit(i % units));
    let dit_multi_eq_rate = dit_rate(&|i| ScanOp::Site(i % SITES));

    let m = |name: &str| tracer.median_us(name).unwrap_or(0.0);
    let proto = m("proto.encode_request")
        + m("proto.decode_request")
        + m("proto.encode_entry")
        + m("proto.decode_entry");
    out.budgets.push(Budget {
        title: "one indexed point search over TCP",
        end_to_end_us: untraced.p50_us,
        rows: vec![
            ("proto: encode+decode request and entry", proto),
            ("filter: match the one candidate", m("filter.matches")),
            (
                "dit: search_visit less the match",
                m("dit.search_visit") - m("filter.matches"),
            ),
            (
                "ltap: gateway search less the dit's",
                m("ltap.search") - m("dit.search_visit"),
            ),
        ],
    });

    let l = &mut out.layer;
    l.insert("proto.decode_request_us", m("proto.decode_request"));
    l.insert("proto.encode_entry_us", m("proto.encode_entry"));
    l.insert("proto.bytes_per_entry", stats::median(&entry_bytes));
    l.insert("filter.parse_us", m("filter.parse"));
    l.insert("filter.match_us", m("filter.matches"));
    l.insert("dit.point_search_us", m("dit.search_visit"));
    l.insert("dit.scan_entries_per_s", dit_scan_rate);
    l.insert("dit.multi_eq_entries_per_s", dit_multi_eq_rate);
    l.insert(
        "dit.index_served_ratio",
        served_n as f64 / (served_n + scanned_n).max(1) as f64,
    );
    l.insert(
        "ltap.read_overhead_us",
        m("ltap.search") - m("dit.search_visit"),
    );
    l.insert("point_ops_per_s", untraced.ops_per_s);
    l.insert("point_p50_us", untraced.p50_us);
    l.insert("point_p95_us", untraced.p95_us);
    l.insert("scan_entries_per_s", wire_scan_rate);
    l.insert("server.point_overhead_us", untraced.p50_us - inproc_p50);
    l.insert("server.point_p99_us", untraced.p99_us);
    l.insert(
        "server.stream_overhead_ratio",
        wire_scan_rate / inproc_scan_rate,
    );
    // Folded with `ldap_write`'s into `harness.trace_overhead_ratio`.
    l.insert(
        "harness.trace_overhead_ratio",
        traced.ops_per_s() / untraced.ops_per_s,
    );
    out.meta = meta(cfg, units);
    drop(dirs);
    Served::stop(served);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Fnv;

    /// FNV-1a over every operation one run would issue, in order.
    fn op_stream_digest(seed: u64) -> u64 {
        let cfg = Config::new(seed, true, std::env::temp_dir());
        let mut h = Fnv::default();
        for round in 0..3 {
            for client in point_plan(&cfg, 2_000, round, 400) {
                for op in client {
                    h.mix(&op.serial.to_le_bytes());
                    h.mix(&[u8::from(op.by_cn)]);
                }
            }
            for client in scan_plan(&cfg, 2, round, 40) {
                for op in client {
                    match op {
                        ScanOp::Unit(u) => h.mix(&[0, u as u8]),
                        ScanOp::Site(s) => h.mix(&[1, s as u8]),
                    }
                }
            }
        }
        h.0
    }

    #[test]
    fn same_seed_same_op_stream_other_seed_other_stream() {
        assert_eq!(op_stream_digest(42), op_stream_digest(42));
        assert_ne!(op_stream_digest(42), op_stream_digest(43));
    }
}
