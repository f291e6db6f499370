//! What every workload shares: the run configuration, the device rig, the
//! closed-loop client runner, and the result a run reports.

use crate::trace::Budget;
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["wire_read", "ldap_write", "device_update", "cold_start"];

/// Rounds per timed phase, after one discarded warm-up round; every
/// figure is the median of the rounds' figures.
pub const ROUNDS: usize = 5;

/// The discarded warm-up round is this fraction of a timed round.
pub const WARMUP_SHARE: usize = 5;

/// What `BENCHMARK.json` states as `run_seconds`. Op counts are fixed, not
/// time-boxed: they are sized so that a run lasts about this long on the
/// two-vCPU sandbox.
pub const RUN_SECONDS: f64 = 30.0;

/// PBXes in every device rig; extensions `1xxx`..`4xxx`.
pub const SWITCHES: usize = 4;

/// The end-to-end metrics of `BENCHMARK.json`: (name, unit, bound). The
/// driver wants every one of them from every untraced run, whatever the
/// workload, so they are the two every workload has; the metrics that
/// belong to one workload are `Outcome::named`. `setup_s` has to be listed
/// and cannot hold the 10 % of a timing on this host, so it alone takes the
/// widest bound the driver allows (README, "What `BENCHMARK.json` can hold").
pub const END_TO_END: &[(&str, &str, f64)] = &[("setup_s", "s", 0.25), ("peak_rss_kb", "kB", 0.05)];

/// What the traced run reports: (name, unit). First the end-to-end
/// metrics that belong to one workload, which the driver can only take as
/// reported figures (from the traced run's untraced rounds), then the
/// per-layer metrics proper.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("point_ops_per_s", "1/s"),
    ("point_p50_us", "us"),
    ("point_p95_us", "us"),
    ("scan_entries_per_s", "1/s"),
    ("write_ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("write_p95_us", "us"),
    ("readback_p50_us", "us"),
    ("sync_records_per_s", "1/s"),
    ("resync_records_per_s", "1/s"),
    ("ddu_p50_us", "us"),
    ("load_entries_per_s", "1/s"),
    ("restart_s", "s"),
    ("disk_bytes_per_entry", "bytes"),
    ("proto.decode_request_us", "us"),
    ("proto.encode_entry_us", "us"),
    ("proto.bytes_per_entry", "bytes"),
    ("server.point_overhead_us", "us"),
    ("server.stream_overhead_ratio", "ratio"),
    ("server.point_p99_us", "us"),
    ("filter.parse_us", "us"),
    ("filter.match_us", "us"),
    ("dit.point_search_us", "us"),
    ("dit.scan_entries_per_s", "1/s"),
    ("dit.multi_eq_entries_per_s", "1/s"),
    ("dit.modify_us", "us"),
    ("dit.add_us", "us"),
    ("dit.index_served_ratio", "ratio"),
    ("dit.rss_bytes_per_entry", "bytes"),
    ("ltap.read_overhead_us", "us"),
    ("ltap.write_overhead_us", "us"),
    ("lexpress.translate_us", "us"),
    ("um.acquire_us", "us"),
    ("um.closure_us", "us"),
    ("um.translate_us", "us"),
    ("um.apply_us", "us"),
    ("um.commit_us", "us"),
    ("um.total_us", "us"),
    ("um.device_ops_per_update", "count"),
    ("um.write_p99_us", "us"),
    ("devices.pbx_change_us", "us"),
    ("devices.mp_change_us", "us"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.appends_per_fsync", "ratio"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.replay_records_per_s", "1/s"),
    ("durability.checkpoint_s", "s"),
    ("backup.snapshot_write_entries_per_s", "1/s"),
    ("backup.restore_entries_per_s", "1/s"),
    ("backup.snapshot_bytes_per_entry", "bytes"),
    ("ldif.parse_entries_per_s", "1/s"),
    ("ddu.relay_overhead_us", "us"),
    ("ddu.ops_sent_per_ddu", "ratio"),
    ("ddu.errors", "count"),
    ("sync.small_records_per_s", "1/s"),
    ("sync.added_per_record", "ratio"),
    ("sync.unchanged_ratio", "ratio"),
    ("harness.trace_overhead_ratio", "ratio"),
];

pub struct Config {
    pub seed: u64,
    /// Tiny sizes for the unit tests; not a measurement.
    pub smoke: bool,
    /// Where durable state lives; emptied before and removed after the run.
    pub state_dir: PathBuf,
    /// Closed-loop client threads (one connection each): min(2, cores).
    pub clients: usize,
    pub host_cores: usize,
}

impl Config {
    pub fn new(seed: u64, smoke: bool, state_dir: PathBuf) -> Config {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            seed,
            smoke,
            state_dir,
            clients: host_cores.min(2),
            host_cores,
        }
    }

    /// A fixed op count, rounded down to a multiple of `unit` (at least one
    /// unit); a hundredth of it in the unit tests.
    pub fn ops(&self, nominal: usize, unit: usize) -> usize {
        let n = if self.smoke { nominal / 100 } else { nominal };
        (n / unit).max(1) * unit
    }

    /// Timed rounds of an untraced run.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            ROUNDS
        }
    }

    /// A data-set size: fixed, except in the unit tests.
    pub fn population(&self, nominal: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            nominal
        }
    }
}

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; any `false` fails the run.
    pub checks: Vec<(&'static str, bool)>,
    /// End-to-end metrics under the names that say what they are:
    /// (name, value, unit). Untraced run only.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Highest `VmHWM` among the child processes the workload ran, kB.
    pub child_peak_rss_kb: u64,
    /// Traced run only.
    pub layer: BTreeMap<&'static str, f64>,
    pub budgets: Vec<Budget>,
    /// Op counts per round and the like, recorded with the result.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    pub fn named_value(&self, name: &str) -> Option<f64> {
        self.named.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Fold another workload's traced pass into this traced run.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.layer.extend(other.layer);
        self.budgets.extend(other.budgets);
        self.meta.extend(other.meta);
    }
}

/// A deployment with four switches and a messaging platform.
pub struct Rig {
    pub system: MetaComm,
    pub pbxes: Vec<Arc<pbx::Store>>,
    pub mp: Arc<msgplat::Store>,
}

impl Rig {
    /// Volatile when `state` is `None`; otherwise durable under `state`
    /// with the group-commit fsync policy.
    pub fn build(state: Option<&Path>) -> Rig {
        let mut builder = MetaCommBuilder::new(crate::gen::SUFFIX);
        let mut pbxes = Vec::new();
        for i in 1..=SWITCHES {
            let prefix = i.to_string();
            let store = Arc::new(pbx::Store::new(
                format!("pbx-{i}"),
                pbx::DialPlan::with_prefix(&prefix, 4),
            ));
            builder = builder.add_pbx(store.clone(), &format!("{prefix}???"));
            pbxes.push(store);
        }
        let mp = Arc::new(msgplat::Store::new("mp"));
        builder = builder.add_msgplat(mp.clone(), "*");
        if let Some(dir) = state {
            builder = builder
                .with_durability(dir)
                .with_fsync_policy(FsyncPolicy::Group);
        }
        Rig {
            system: builder.build().expect("assemble rig"),
            pbxes,
            mp,
        }
    }

    pub fn shutdown(self) {
        self.system.shutdown();
    }

    pub fn switch_for(&self, extension: &str) -> &Arc<pbx::Store> {
        let digit = extension.as_bytes()[0] - b'1';
        &self.pbxes[digit as usize]
    }
}

/// Run `clients` closed-loop client threads, released together; returns
/// what each produced and the wall time from release to the last finish.
pub fn run_clients<T: Send>(clients: usize, work: impl Fn(usize) -> T + Sync) -> (Vec<T>, f64) {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(c)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let out: Vec<T> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (out, start.elapsed().as_secs_f64())
    })
}

/// One TCP connection per client.
pub fn connect(server: &ldap::server::Server, clients: usize) -> Vec<Arc<dyn ldap::Directory>> {
    let addr = server.addr().to_string();
    (0..clients)
        .map(|_| {
            Arc::new(ldap::client::TcpDirectory::connect(&addr).expect("connect"))
                as Arc<dyn ldap::Directory>
        })
        .collect()
}

/// Deal `items` out to `clients` clients, every `clients`-th to the same
/// one; each share sits behind a lock its one client takes for the round.
pub fn deal<T>(items: &mut [T], clients: usize) -> Vec<std::sync::Mutex<Vec<&mut T>>> {
    let mut shares: Vec<Vec<&mut T>> = (0..clients).map(|_| Vec::new()).collect();
    for (i, item) in items.iter_mut().enumerate() {
        shares[i % clients].push(item);
    }
    shares.into_iter().map(std::sync::Mutex::new).collect()
}

/// The line a child process reports on: `tag key=value key=value ...`.
pub fn report_line(tag: &str, pairs: &[(&str, String)]) -> String {
    let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{tag} {}", fields.join(" "))
}

/// The pairs of a `report_line` with this tag; `None` for any other line.
pub fn parse_report(line: &str, tag: &str) -> Option<BTreeMap<String, String>> {
    let mut words = line.split_whitespace();
    if words.next() != Some(tag) {
        return None;
    }
    words
        .map(|w| {
            w.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Run this program again with `args`, in a process of its own, and return
/// the report it prints under `tag`.
pub fn run_child(args: &[String], tag: &str) -> BTreeMap<String, String> {
    let done = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(args)
        .output()
        .expect("run a child process");
    String::from_utf8_lossy(&done.stdout)
        .lines()
        .rev()
        .find_map(|l| parse_report(l, tag))
        .unwrap_or_else(|| {
            panic!(
                "the child reported nothing ({}): {}",
                done.status,
                String::from_utf8_lossy(&done.stderr)
            )
        })
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), kB; 0 where /proc is absent.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), kB.
pub fn rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                total += dir_bytes(&p);
            } else if let Ok(m) = e.metadata() {
                total += m.len();
            }
        }
    }
    total
}

/// Copy a directory tree and flush the copy to disk, so that its
/// write-back is over before anything timed starts.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dst = to.join(e.file_name());
        if e.path().is_dir() {
            copy_dir(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), &dst)?;
            std::fs::File::open(&dst)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// An empty directory at `dir`, whatever was there before.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create state directory");
}

pub fn median_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    crate::stats::percentile(ns, 50.0) as f64 / 1e3
}

/// Time `f` once per item and return the per-call latencies, nanoseconds.
pub fn time_each<I>(items: impl IntoIterator<Item = I>, mut f: impl FnMut(I)) -> Vec<u64> {
    items
        .into_iter()
        .map(|item| {
            let t = Instant::now();
            f(item);
            t.elapsed().as_nanos() as u64
        })
        .collect()
}
