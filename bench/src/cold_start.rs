//! `cold_start`: open to first answer. A durable deployment is loaded with
//! a 200k-entry tree (timed), checkpointed, given 2k acknowledged writes
//! that stay in the WAL tail, and dropped without a second checkpoint. Each
//! round restores the state directory from a pristine copy and times
//! `build()` + `serve()` + the first correct point search over the wire.
//! `ldap::backup`, `ldap::ldif`, `wal::replay` and the DIT's bulk insert
//! and index build do the work; nothing on the request path is hot.

use crate::gen::{self, Fnv, Person, INDEXED, PER_OU};
use crate::harness::{
    copy_dir, dir_bytes, fresh_dir, median_us, peak_rss_kb, report_line, rss_kb, run_child,
    time_each, Config, Outcome,
};
use crate::stats;
use crate::trace::{Budget, Tracer};
use ldap::backup::SnapshotStore;
use ldap::client::TcpDirectory;
use ldap::{Directory, Dit, Entry, Filter, Modification, Rdn, Scope};
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Units of `PER_OU` people in the tree.
const UNITS: usize = 200;
/// Acknowledged writes after the checkpoint: half adds, half modifies.
const TAIL_WRITES: usize = 2_000;
/// Timed restarts (no warm-up: a restart that follows another is no warmer
/// than the first, the state is copied anew).
const RESTARTS: usize = 5;
/// A traced run: restarts timed whole, then restarts kept as spans.
const TRACED_UNTRACED_RESTARTS: usize = 3;
const TRACED_RESTARTS: usize = 2;

fn deployment(state: &Path) -> MetaComm {
    MetaCommBuilder::new(gen::SUFFIX)
        .with_indexed_attrs(INDEXED.iter().copied())
        .with_durability(state)
        .with_fsync_policy(FsyncPolicy::Group)
        .build()
        .expect("assemble the durable deployment")
}

/// FNV-1a over the whole-tree search stream (DNs, attribute names, values)
/// and the number of entries in it.
pub fn digest(dit: &Dit) -> (u64, usize) {
    let mut h = Fnv::default();
    let mut seen = 0usize;
    dit.search_visit(
        &gen::suffix(),
        Scope::Sub,
        &Filter::match_all(),
        &[],
        0,
        &mut |e: &Entry| {
            seen += 1;
            h.mix(e.dn().to_string().as_bytes());
            for a in e.attributes() {
                h.mix(a.name.as_str().as_bytes());
                for v in a.values.as_slice() {
                    h.mix(v.as_bytes());
                    h.mix(b"|");
                }
            }
        },
    )
    .expect("digest search");
    (h.0, seen)
}

fn late_dn(i: usize) -> ldap::Dn {
    gen::suffix()
        .child(Rdn::new("ou", "late"))
        .child(Rdn::new("cn", format!("Late Joiner {i:05}")))
}

/// Writes acknowledged through the gateway after the checkpoint: a new
/// unit, new people in it, and new rooms for people the snapshot holds.
fn tail_writes(system: &MetaComm, people: &[Person], writes: usize) -> usize {
    let gateway = system.directory();
    let mut failed = 0;
    let unit = Entry::with_attrs(
        gen::suffix().child(Rdn::new("ou", "late")),
        [
            ("objectClass", "top"),
            ("objectClass", "organizationalUnit"),
            ("ou", "late"),
        ],
    );
    failed += usize::from(gateway.add(unit).is_err());
    for i in 0..writes / 2 {
        let cn = format!("Late Joiner {i:05}");
        let e = Entry::with_attrs(
            late_dn(i),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", cn.as_str()),
                ("sn", "Joiner"),
            ],
        );
        failed += usize::from(gateway.add(e).is_err());
        let p = &people[(i * 97) % people.len()];
        let mods = [Modification::set("roomNumber", format!("T-{i:05}"))];
        failed += usize::from(gateway.modify(&gen::tree_dn(p), &mods).is_err());
    }
    failed
}

/// What one restart found. A restart runs in a process of its own, as a
/// real one does: a deployment that is shut down inside a process that
/// lives on leaves its tree behind (RSS grows by 300 MB a restart here),
/// and from the third restart on the same work takes twice as long. The
/// report comes back as one line of `key=value` pairs.
#[derive(Debug, Default, Clone, PartialEq)]
struct RestartReport {
    /// From the process's start to the restart's start (spans only).
    lead_s: f64,
    build_s: f64,
    serve_s: f64,
    search_s: f64,
    /// Recovery as the program's own `RecoveryReport` times it.
    recovery_us: f64,
    /// The same snapshot written once more after the restart, if asked.
    checkpoint_s: f64,
    snapshot_bytes: u64,
    digest: u64,
    entries: usize,
    wal_applied: usize,
    answered: bool,
    peak_rss_kb: u64,
}

impl RestartReport {
    const TAG: &'static str = "restart-report";

    fn total_s(&self) -> f64 {
        self.build_s + self.serve_s + self.search_s
    }

    fn to_line(&self) -> String {
        report_line(
            Self::TAG,
            &[
                ("lead_s", self.lead_s.to_string()),
                ("build_s", self.build_s.to_string()),
                ("serve_s", self.serve_s.to_string()),
                ("search_s", self.search_s.to_string()),
                ("recovery_us", self.recovery_us.to_string()),
                ("checkpoint_s", self.checkpoint_s.to_string()),
                ("snapshot_bytes", self.snapshot_bytes.to_string()),
                ("digest", self.digest.to_string()),
                ("entries", self.entries.to_string()),
                ("wal_applied", self.wal_applied.to_string()),
                ("answered", u8::from(self.answered).to_string()),
                ("peak_rss_kb", self.peak_rss_kb.to_string()),
            ],
        )
    }

    fn from_pairs(p: &BTreeMap<String, String>) -> Option<RestartReport> {
        Some(RestartReport {
            lead_s: p.get("lead_s")?.parse().ok()?,
            build_s: p.get("build_s")?.parse().ok()?,
            serve_s: p.get("serve_s")?.parse().ok()?,
            search_s: p.get("search_s")?.parse().ok()?,
            recovery_us: p.get("recovery_us")?.parse().ok()?,
            checkpoint_s: p.get("checkpoint_s")?.parse().ok()?,
            snapshot_bytes: p.get("snapshot_bytes")?.parse().ok()?,
            digest: p.get("digest")?.parse().ok()?,
            entries: p.get("entries")?.parse().ok()?,
            wal_applied: p.get("wal_applied")?.parse().ok()?,
            answered: p.get("answered")? == "1",
            peak_rss_kb: p.get("peak_rss_kb")?.parse().ok()?,
        })
    }
}

/// Open the deployment over `state`, serve it and ask one point question,
/// in this process; then check what came back. With `scratch`, also time
/// the snapshot being written once more (what the boot checkpoint did).
fn restart_here(
    state: &Path,
    probe: &Person,
    scratch: Option<&Path>,
    process_start: Instant,
) -> RestartReport {
    let mut r = RestartReport {
        lead_s: process_start.elapsed().as_secs_f64(),
        ..RestartReport::default()
    };
    let t = Instant::now();
    let system = deployment(state);
    r.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut server = system.serve("127.0.0.1:0").expect("serve");
    r.serve_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dir = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    let found = dir.search(
        &gen::suffix(),
        Scope::Sub,
        &Filter::eq("telephoneNumber", probe.phone()),
        &[],
        0,
    );
    r.search_s = t.elapsed().as_secs_f64();
    r.answered = matches!(&found, Ok(v) if v.len() == 1
        && v[0].first("cn") == Some(probe.cn().as_str()));
    if let Some(rep) = system.recovery_report() {
        r.recovery_us = rep.replay_micros as f64;
        r.wal_applied = rep.wal_records_applied;
    }
    (r.digest, r.entries) = digest(&system.dit());
    if let Some(scratch) = scratch {
        fresh_dir(scratch);
        let t = Instant::now();
        SnapshotStore::new(scratch)
            .write_snapshot_streamed(&system.dit(), 1)
            .expect("snapshot");
        r.checkpoint_s = t.elapsed().as_secs_f64();
        r.snapshot_bytes = dir_bytes(scratch);
    }
    drop(dir);
    server.shutdown();
    system.shutdown();
    r.peak_rss_kb = peak_rss_kb();
    r
}

/// The child's side of a restart: `perfbench --restart-child ...`.
pub fn child_main(
    state: &Path,
    seed: u64,
    units: usize,
    probe: usize,
    scratch: Option<&Path>,
) -> std::process::ExitCode {
    let start = Instant::now();
    let people = gen::people(seed, units * PER_OU);
    let report = restart_here(state, &people[probe], scratch, start);
    println!("{}", report.to_line());
    std::process::ExitCode::SUCCESS
}

/// Restore `state` from `pristine` (untimed, flushed) and restart over it
/// in a fresh process. The unit tests, whose executable is not this
/// program, restart in process.
fn restart_fresh(
    cfg: &Config,
    state: &Path,
    pristine: &Path,
    people: &[Person],
    probe: usize,
    scratch: Option<&Path>,
) -> RestartReport {
    fresh_dir(state);
    copy_dir(pristine, state).expect("restore the state directory");
    if cfg.smoke {
        return restart_here(state, &people[probe], scratch, Instant::now());
    }
    let mut args = vec![
        "--restart-child".to_string(),
        "--state-dir".to_string(),
        state.display().to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--units".to_string(),
        (people.len() / PER_OU).to_string(),
        "--probe".to_string(),
        probe.to_string(),
    ];
    if let Some(scratch) = scratch {
        args.extend(["--scratch".to_string(), scratch.display().to_string()]);
    }
    RestartReport::from_pairs(&run_child(&args, RestartReport::TAG))
        .expect("a whole restart report")
}

/// The deployment as a crash leaves it, and what it held.
struct Dropped {
    people: Vec<Person>,
    state: std::path::PathBuf,
    pristine: std::path::PathBuf,
    /// Entries added live, and how long that took.
    loaded: usize,
    load_s: f64,
    /// Per-add latencies, when asked for (traced run).
    add_ns: Vec<u64>,
    rss_grown_kb: u64,
    checkpoint_s: f64,
    tail: usize,
    digest: (u64, usize),
    disk_bytes: u64,
}

/// Load, checkpoint, write the tail, take the digest, drop without a
/// second checkpoint and keep a pristine copy of the state directory.
fn load_and_drop(cfg: &Config, time_adds: bool, out: &mut Outcome) -> Dropped {
    let units = cfg.population(UNITS, 2);
    let tail = cfg.population(TAIL_WRITES, 40);
    let state = cfg.state_dir.join("live");
    let pristine = cfg.state_dir.join("pristine");
    let people = gen::people(cfg.seed, units * PER_OU);
    fresh_dir(&state);
    let rss_before_kb = rss_kb();
    let system = deployment(&state);
    let dit = system.dit();
    let mut add_ns = Vec::new();
    let t = Instant::now();
    for unit in 0..units {
        dit.add(gen::unit_entry(unit)).expect("add unit");
    }
    if time_adds {
        add_ns = time_each(&people, |p| {
            dit.add(gen::tree_entry(p)).expect("add person")
        });
    } else {
        for p in &people {
            dit.add(gen::tree_entry(p)).expect("add person");
        }
    }
    let load_s = t.elapsed().as_secs_f64();
    let rss_grown_kb = rss_kb().saturating_sub(rss_before_kb);
    let loaded = people.len() + units;
    let t = Instant::now();
    system.checkpoint().expect("checkpoint");
    let checkpoint_s = t.elapsed().as_secs_f64();
    let tail_failed = tail_writes(&system, &people, tail);
    out.count(loaded + tail + 1, tail_failed);
    let digest = digest(&dit);
    drop(dit);
    // Dropped as a crash would leave it: nothing checkpoints on the way out.
    system.shutdown();
    drop(system);
    copy_dir(&state, &pristine).expect("keep a pristine copy of the state");
    let disk_bytes = dir_bytes(&pristine);
    Dropped {
        people,
        state,
        pristine,
        loaded,
        load_s,
        add_ns,
        rss_grown_kb,
        checkpoint_s,
        tail,
        digest,
        disk_bytes,
    }
}

/// Restarts judged as they come back: answered, same digest, whole tail.
struct Judge {
    digests_equal: bool,
    replayed_all: bool,
}

impl Judge {
    fn see(&mut self, d: &Dropped, r: &RestartReport, out: &mut Outcome) {
        out.count(1, usize::from(!r.answered));
        out.child_peak_rss_kb = out.child_peak_rss_kb.max(r.peak_rss_kb);
        self.digests_equal &= (r.digest, r.entries) == d.digest;
        self.replayed_all &= r.wal_applied == d.tail + 1;
    }

    fn into_checks(self, out: &mut Outcome) {
        out.check(
            "cold_start.digest_after_each_restart_equals_digest_before",
            self.digests_equal,
        );
        out.check(
            "cold_start.every_wal_tail_write_replayed",
            self.replayed_all,
        );
    }
}

fn meta(d: &Dropped, restarts: usize) -> Vec<(&'static str, String)> {
    vec![
        ("cold_start.entries", d.digest.1.to_string()),
        ("cold_start.wal_tail_writes", (d.tail + 1).to_string()),
        ("cold_start.restarts", restarts.to_string()),
        ("cold_start.fsync_policy", "group".to_string()),
    ]
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let restarts = if cfg.smoke { 1 } else { RESTARTS };

    // Set-up: everything before the first restart, once.
    let setup = Instant::now();
    let d = load_and_drop(cfg, false, &mut out);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut judge = Judge {
        digests_equal: true,
        replayed_all: true,
    };
    let mut times = Vec::new();
    for r in 0..restarts {
        let probe = (r * 7919) % d.people.len();
        let report = restart_fresh(cfg, &d.state, &d.pristine, &d.people, probe, None);
        judge.see(&d, &report, &mut out);
        times.push(report.total_s());
    }
    let restart_s = stats::median(&times);

    out.named = vec![
        ("setup_s", setup_s, "s"),
        ("load_entries_per_s", d.loaded as f64 / d.load_s, "1/s"),
        ("restart_s", restart_s, "s"),
        (
            "disk_bytes_per_entry",
            d.disk_bytes as f64 / d.digest.1 as f64,
            "bytes",
        ),
    ];
    out.meta = meta(&d, restarts);
    judge.into_checks(&mut out);
    out
}

/// The traced pass: the load with every add timed, restarts timed whole to
/// subtract from, restarts kept as spans (each also writes the snapshot
/// once more), and the restore and the LDIF parse measured apart.
pub fn traced(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut d = load_and_drop(cfg, true, &mut out);
    let (untraced, traced) = if cfg.smoke {
        (1, 1)
    } else {
        (TRACED_UNTRACED_RESTARTS, TRACED_RESTARTS)
    };
    let mut judge = Judge {
        digests_equal: true,
        replayed_all: true,
    };
    let mut times = Vec::new();
    for r in 0..untraced {
        let report = restart_fresh(cfg, &d.state, &d.pristine, &d.people, r + 1, None);
        judge.see(&d, &report, &mut out);
        times.push(report.total_s());
    }
    let untraced_restart_s = stats::median(&times);

    let scratch = cfg.state_dir.join("scratch");
    let mut reports = Vec::new();
    for r in 0..traced {
        let base = Instant::now();
        let report = restart_fresh(
            cfg,
            &d.state,
            &d.pristine,
            &d.people,
            r + 101,
            Some(&scratch),
        );
        judge.see(&d, &report, &mut out);
        // The child's clock, laid onto this process's at the spawn.
        let at = |s: f64| base + Duration::from_secs_f64(s);
        let (t0, t1) = (report.lead_s, report.lead_s + report.build_s);
        let (t2, t3) = (t1 + report.serve_s, t1 + report.serve_s + report.search_s);
        let root = tracer.record("restart", 0, r as u64, at(t0), at(t3));
        tracer.record("metacomm.build", root, r as u64, at(t0), at(t1));
        tracer.record("metacomm.serve", root, r as u64, at(t1), at(t2));
        tracer.record("wire.first_point_search", root, r as u64, at(t2), at(t3));
        reports.push(report);
    }
    let median_of = |f: &dyn Fn(&RestartReport) -> f64| {
        stats::median(&reports.iter().map(f).collect::<Vec<_>>())
    };

    // The snapshot restore, measured apart on a bare DIT.
    let bare = Dit::with_schema_indexed(Arc::new(metacomm::schema::integrated_schema()), INDEXED);
    let store = SnapshotStore::new(&d.pristine);
    let t = Instant::now();
    bare.begin_bulk();
    let (generation, restored) = store
        .restore_latest(&bare)
        .expect("restore")
        .map_or((0, 0), |r| (r.0, r.2));
    bare.finish_bulk();
    let restore_s = t.elapsed().as_secs_f64();
    drop(bare);
    let text = std::fs::read_to_string(store.snapshot_path(generation)).expect("snapshot text");
    let t = Instant::now();
    let parsed = ldap::ldif::parse_content(&text)
        .expect("snapshot parses")
        .len();
    let parse_s = t.elapsed().as_secs_f64();

    out.budgets.push(Budget {
        title: "one restart, open to first correct answer over TCP",
        end_to_end_us: untraced_restart_s * 1e6,
        rows: vec![
            (
                "durability: recovery as the program reports it",
                median_of(&|r| r.recovery_us),
            ),
            (
                "backup: boot checkpoint (the snapshot written once more)",
                median_of(&|r| r.checkpoint_s * 1e6),
            ),
            (
                "server: bind and start the wire engine",
                median_of(&|r| r.serve_s * 1e6),
            ),
            (
                "wire: connect and first point search",
                median_of(&|r| r.search_s * 1e6),
            ),
        ],
    });

    let entries = d.digest.1 as f64;
    let l = &mut out.layer;
    l.insert("load_entries_per_s", d.loaded as f64 / d.load_s);
    l.insert("restart_s", untraced_restart_s);
    l.insert("disk_bytes_per_entry", d.disk_bytes as f64 / entries);
    l.insert("dit.add_us", median_us(&mut d.add_ns));
    l.insert(
        "dit.rss_bytes_per_entry",
        d.rss_grown_kb as f64 * 1024.0 / d.loaded as f64,
    );
    l.insert("durability.checkpoint_s", d.checkpoint_s);
    l.insert(
        "backup.snapshot_write_entries_per_s",
        entries / median_of(&|r| r.checkpoint_s),
    );
    l.insert("backup.restore_entries_per_s", restored as f64 / restore_s);
    l.insert(
        "backup.snapshot_bytes_per_entry",
        median_of(&|r| r.snapshot_bytes as f64) / entries,
    );
    l.insert("ldif.parse_entries_per_s", parsed as f64 / parse_s);
    out.meta = meta(&d, untraced + traced);
    judge.into_checks(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::parse_report;

    #[test]
    fn a_restart_report_survives_its_line() {
        let r = RestartReport {
            lead_s: 0.25,
            build_s: 1.5,
            serve_s: 0.0001,
            search_s: 0.0003,
            recovery_us: 1_234_567.0,
            checkpoint_s: 0.2,
            snapshot_bytes: 21_000_000,
            digest: 0xdead_beef_0012_3456,
            entries: 101_103,
            wal_applied: 2_001,
            answered: true,
            peak_rss_kb: 612_345,
        };
        let parse = |line: &str| {
            parse_report(line, RestartReport::TAG)
                .as_ref()
                .and_then(RestartReport::from_pairs)
        };
        assert_eq!(parse(&r.to_line()), Some(r.clone()));
        assert_eq!(r.total_s(), 1.5004);
        assert_eq!(parse("something else"), None);
        assert_eq!(parse("restart-report bogus=1"), None);
        assert_eq!(parse("restart-report bogus"), None);
    }
}
