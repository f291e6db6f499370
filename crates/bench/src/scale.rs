//! Million-entry scale engine shared by E18 and the `scale_rig` binary.
//!
//! One *arm* is a full load → snapshot → crash → restart cycle against a
//! single storage backing (compact interned store or the legacy string
//! store, selected with `with_compact_store`). The engine streams the
//! population in chunks so the generator never holds the full roster in
//! memory — at a million entries the roster itself would otherwise rival
//! the directory and poison the peak-RSS comparison.
//!
//! Peak RSS (`VmHWM`) is monotone per process, so honest numbers need one
//! process per arm: `run_both` re-execs the `scale_rig` binary when it can
//! find it and falls back to a clearly-labelled in-process mode (soft
//! crash, best-effort counter reset) when it cannot — e.g. under
//! `cargo test` before the binaries are linked.

use crate::population::{Population, PopulationSpec};
use crate::rss;
use ldap::{Dit, Dn, Entry, Filter, Rdn, Scope};
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory suffix every arm deploys under.
pub const SUFFIX: &str = "o=MetaComm";

/// Subscribers generated (and then dropped) per population chunk.
const CHUNK: usize = 50_000;

/// Post-snapshot adds left in the WAL so restart exercises replay too.
const WAL_TAIL: usize = 1_000;

/// One measured arm: load, snapshot, crash, restart, verify.
#[derive(Debug, Clone)]
pub struct ArmReport {
    pub arm: &'static str,
    /// Entries resident after the full load (scaffold + roster + tail).
    pub entries: usize,
    /// Validated `Dit::add` calls timed into `load_secs`.
    pub load_ops: usize,
    pub load_secs: f64,
    pub restart_secs: f64,
    pub snapshot_entries: usize,
    pub wal_records_applied: usize,
    /// FNV-1a digest over the search_visit stream before the crash…
    pub digest_loaded: u64,
    /// …and after restart: equal iff recovery rebuilt the same tree.
    pub digest_restarted: u64,
    pub peak_rss_kb: Option<u64>,
    /// The restarted tree's resident bytes by structure (compact arm).
    pub footprint: Option<ldap::Footprint>,
}

/// Peak RSS the compact arm may cost per entry at 100k entries and up
/// (below that the process's own base dominates). The peak is the restart
/// beside the crashed deployment's leaked tree, so about two trees plus
/// the restore transients: 2,850 B/entry measured at 100k, 6,260 before
/// the shared-RDN layout.
pub const COMPACT_PEAK_RSS_BUDGET_PER_ENTRY: u64 = 3_300;

impl ArmReport {
    pub fn load_ops_per_sec(&self) -> f64 {
        self.load_ops as f64 / self.load_secs.max(1e-9)
    }

    pub fn parity(&self) -> bool {
        self.digest_loaded == self.digest_restarted && self.entries > 0
    }

    /// Peak RSS per entry when it exceeds
    /// [`COMPACT_PEAK_RSS_BUDGET_PER_ENTRY`] on a compact arm large enough
    /// to be judged by it.
    pub fn over_rss_budget(&self) -> Option<u64> {
        let per_entry = self.peak_rss_kb? * 1024 / self.entries.max(1) as u64;
        (self.arm == "compact"
            && self.entries >= 100_000
            && per_entry > COMPACT_PEAK_RSS_BUDGET_PER_ENTRY)
            .then_some(per_entry)
    }

    /// One-line JSON object — the contract between the `scale_rig` child
    /// process and the orchestrator, and the per-arm record in
    /// `BENCH_metacomm.json`. Digests travel as hex strings: u64 values
    /// do not survive a round-trip through doubles.
    pub fn json(&self) -> String {
        format!(
            "{{\"arm\":\"{}\",\"entries\":{},\"load_ops\":{},\"load_ops_per_sec\":{:.0},\
             \"load_secs\":{:.3},\"restart_secs\":{:.3},\"snapshot_entries\":{},\
             \"wal_records_applied\":{},\"digest_loaded\":\"{:016x}\",\
             \"digest_restarted\":\"{:016x}\",\"parity\":{},\"peak_rss_kb\":{}{}}}",
            self.arm,
            self.entries,
            self.load_ops,
            self.load_ops_per_sec(),
            self.load_secs,
            self.restart_secs,
            self.snapshot_entries,
            self.wal_records_applied,
            self.digest_loaded,
            self.digest_restarted,
            self.parity(),
            self.peak_rss_kb
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "null".into()),
            self.footprint
                .map(|fp| {
                    fp.rows()
                        .iter()
                        .map(|(row, bytes)| format!(",\"{row}\":{bytes}"))
                        .collect::<String>()
                })
                .unwrap_or_default(),
        )
    }

    /// Parse a line produced by `json` (the child's stdout). Tolerates
    /// surrounding noise lines by requiring the `"arm"` key.
    pub fn parse(line: &str) -> Option<ArmReport> {
        let arm = match jfield(line, "arm")? {
            "compact" => "compact",
            "legacy" => "legacy",
            _ => return None,
        };
        Some(ArmReport {
            arm,
            entries: jfield(line, "entries")?.parse().ok()?,
            load_ops: jfield(line, "load_ops")?.parse().ok()?,
            load_secs: jfield(line, "load_secs")?.parse().ok()?,
            restart_secs: jfield(line, "restart_secs")?.parse().ok()?,
            snapshot_entries: jfield(line, "snapshot_entries")?.parse().ok()?,
            wal_records_applied: jfield(line, "wal_records_applied")?.parse().ok()?,
            digest_loaded: u64::from_str_radix(jfield(line, "digest_loaded")?, 16).ok()?,
            digest_restarted: u64::from_str_radix(jfield(line, "digest_restarted")?, 16).ok()?,
            peak_rss_kb: match jfield(line, "peak_rss_kb")? {
                "null" => None,
                kb => Some(kb.parse().ok()?),
            },
            footprint: (|| {
                let row = |name| jfield(line, name)?.parse().ok();
                Some(ldap::Footprint {
                    entries: jfield(line, "entries")?.parse().ok()?,
                    dn_bytes: row("dnBytes")?,
                    key_arena_bytes: row("keyArenaBytes")?,
                    slab_bytes: row("slabBytes")?,
                    attr_bytes: row("attrBytes")?,
                    postings_bytes: row("postingsBytes")?,
                    sibling_bytes: row("siblingBytes")?,
                })
            })(),
        })
    }
}

/// Extract the raw text of a scalar field from a flat one-line JSON
/// object. Good enough for the rig protocol: no nested objects, and no
/// string values containing commas or braces.
fn jfield<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Both arms of the experiment plus how they were isolated.
pub struct ScaleRun {
    pub compact: ArmReport,
    pub legacy: ArmReport,
    /// `true` when the arms shared this process (RSS readings are then
    /// best-effort: the counter reset may be unavailable and a shared
    /// allocator retains freed pages across arms).
    pub in_process: bool,
}

impl ScaleRun {
    /// Legacy-over-compact peak RSS — the "compact is N× smaller" claim.
    pub fn rss_ratio(&self) -> Option<f64> {
        match (self.legacy.peak_rss_kb, self.compact.peak_rss_kb) {
            (Some(l), Some(c)) if c > 0 => Some(l as f64 / c as f64),
            _ => None,
        }
    }

    /// Legacy-over-compact restart wall time — the cold-start speedup.
    pub fn restart_speedup(&self) -> f64 {
        self.legacy.restart_secs / self.compact.restart_secs.max(1e-9)
    }

    /// Compact-over-legacy load throughput.
    pub fn load_speedup(&self) -> f64 {
        self.compact.load_ops_per_sec() / self.legacy.load_ops_per_sec().max(1e-9)
    }

    /// Both arms recovered their own tree, and both arms built the *same*
    /// tree — the compact store is an optimization, not a fork.
    pub fn parity(&self) -> bool {
        self.compact.parity()
            && self.legacy.parity()
            && self.compact.digest_loaded == self.legacy.digest_loaded
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"arms\":[{},{}],\"restart_speedup\":{:.2},\"load_speedup\":{:.2},\
             \"rss_ratio\":{},\"parity\":{},\"isolation\":\"{}\"}}",
            self.compact.json(),
            self.legacy.json(),
            self.restart_speedup(),
            self.load_speedup(),
            self.rss_ratio()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "null".into()),
            self.parity(),
            if self.in_process {
                "in-process"
            } else {
                "child-process"
            },
        )
    }
}

fn deployment(compact: bool, dir: &Path) -> MetaComm {
    MetaCommBuilder::new(SUFFIX)
        .with_compact_store(compact)
        .with_durability(dir)
        // One-core rigs: the interesting costs are algorithmic (validation,
        // index maintenance, snapshot streaming), not fsync latency.
        .with_fsync_policy(FsyncPolicy::Never)
        .build()
        .expect("scale deployment")
}

/// Stream the roster into the DIT: scaffold OUs first, then subscriber
/// entries chunk by chunk so at most `CHUNK` generated subscribers are
/// alive at once. Returns (timed add wall, adds issued).
fn load_roster(dit: &Dit, entries: usize, seed: u64) -> (Duration, usize) {
    let suffix = Dn::parse(SUFFIX).expect("suffix");
    // Orgs and sites come from a roster-free population so every chunk
    // hangs off the same scaffold.
    let base = Population::generate(PopulationSpec::new(seed, 0));
    let mut wall = Duration::ZERO;
    let mut ops = 0usize;
    let mut add = |e: Entry| {
        let t = Instant::now();
        dit.add(e).expect("scale add");
        wall += t.elapsed();
        ops += 1;
    };

    for site in &base.sites {
        let dn = suffix.child(Rdn::new("ou", format!("site-{}", site.name)));
        let mut e = Entry::new(dn.clone());
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "organizationalUnit");
        e.add_value("ou", format!("site-{}", site.name));
        add(e);
        for org in &base.orgs {
            let mut e = Entry::new(dn.child(Rdn::new("ou", org)));
            e.add_value("objectClass", "top");
            e.add_value("objectClass", "organizationalUnit");
            e.add_value("ou", org.clone());
            add(e);
        }
    }

    let mut done = 0usize;
    let mut chunk_no = 0u64;
    while done < entries {
        let take = CHUNK.min(entries - done);
        chunk_no += 1;
        let pop = Population::generate(PopulationSpec::new(
            seed.wrapping_add(chunk_no.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            take,
        ));
        for sub in &pop.subscribers {
            let gid = done + sub.id as usize;
            let site = &base.sites[sub.site].name;
            let org = &base.orgs[gid % base.orgs.len()];
            let cn = format!("{} {} {gid:07}", sub.given, sub.surname);
            let dn = suffix
                .child(Rdn::new("ou", format!("site-{site}")))
                .child(Rdn::new("ou", org))
                .child(Rdn::new("cn", &cn));
            let mut e = Entry::new(dn);
            e.add_value("objectClass", "top");
            e.add_value("objectClass", "person");
            e.add_value("objectClass", "organizationalPerson");
            e.add_value("cn", cn);
            e.add_value("sn", sub.surname.clone());
            e.add_value("uid", format!("u{gid:07}"));
            e.add_value("ou", org.clone());
            e.add_value("roomNumber", sub.room.clone());
            e.add_value("l", site.clone());
            if let Some(ext) = &sub.extension {
                e.add_value("telephoneNumber", ext.clone());
            }
            if let Some(class) = sub.mailbox_class {
                e.add_value("description", format!("mailbox-class {class}"));
            }
            add(e);
        }
        done += take;
    }
    (wall, ops)
}

/// Post-snapshot adds that restart must recover from the WAL alone.
fn wal_tail(dit: &Dit, entries: usize) {
    let suffix = Dn::parse(SUFFIX).expect("suffix");
    let ou = suffix.child(Rdn::new("ou", "late-joiners"));
    let mut e = Entry::new(ou.clone());
    e.add_value("objectClass", "top");
    e.add_value("objectClass", "organizationalUnit");
    e.add_value("ou", "late-joiners");
    dit.add(e).expect("tail ou");
    for i in 0..WAL_TAIL.min(entries).saturating_sub(1) {
        let cn = format!("Late Joiner {i:04}");
        let mut e = Entry::new(ou.child(Rdn::new("cn", &cn)));
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "person");
        e.add_value("cn", cn);
        e.add_value("sn", "Joiner");
        dit.add(e).expect("tail add");
    }
}

/// FNV-1a over the full `search_visit` stream (DNs, attribute names,
/// values) — two stores with equal digests serve identical searches.
/// Returns (digest, entries visited).
pub fn digest_tree(dit: &Dit) -> (u64, usize) {
    let base = Dn::parse(SUFFIX).expect("suffix");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut seen = 0usize;
    dit.search_visit(
        &base,
        Scope::Sub,
        &Filter::Present("objectClass".into()),
        &[],
        0,
        &mut |e: &Entry| {
            seen += 1;
            mix(e.dn().to_string().as_bytes());
            mix(b"\n");
            for a in e.attributes() {
                mix(a.name.as_str().as_bytes());
                mix(b":");
                for v in a.values.as_slice() {
                    mix(v.as_bytes());
                    mix(b"|");
                }
            }
        },
    )
    .expect("digest search");
    (h, seen)
}

/// Run one arm end to end in this process. `hard_crash` leaks the loaded
/// system (`mem::forget`, the in-process `kill -9`) and is what the
/// per-arm child uses; the in-process fallback shuts down cleanly instead
/// so the second arm does not inherit a leaked million-entry heap.
pub fn run_arm(
    compact: bool,
    entries: usize,
    seed: u64,
    dir: &Path,
    hard_crash: bool,
) -> ArmReport {
    let _ = std::fs::remove_dir_all(dir);
    rss::reset_peak();

    let system = deployment(compact, dir);
    let dit = system.dit();
    assert_eq!(dit.is_compact(), compact, "builder knob reached the store");
    let (load_wall, load_ops) = load_roster(&dit, entries, seed);
    system.checkpoint().expect("scale checkpoint");
    wal_tail(&dit, entries);
    let (digest_loaded, total) = digest_tree(&dit);
    drop(dit);
    if hard_crash {
        std::mem::forget(system);
    } else {
        system.shutdown();
        drop(system);
    }

    let (system2, restart) = crate::timed(|| deployment(compact, dir));
    let report = system2.recovery_report().expect("durable deployment");
    let (digest_restarted, _) = digest_tree(&system2.dit());
    let footprint = system2.dit().footprint();
    system2.shutdown();
    let peak_rss_kb = rss::peak_rss_kb();
    let _ = std::fs::remove_dir_all(dir);

    ArmReport {
        arm: if compact { "compact" } else { "legacy" },
        entries: total,
        load_ops,
        load_secs: load_wall.as_secs_f64(),
        restart_secs: restart.as_secs_f64(),
        snapshot_entries: report.snapshot_entries,
        wal_records_applied: report.wal_records_applied,
        digest_loaded,
        digest_restarted,
        peak_rss_kb,
        footprint,
    }
}

/// Find the `scale_rig` binary next to the current executable (or one
/// directory up — test binaries live in `target/<profile>/deps`).
pub fn locate_rig() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    if exe
        .file_stem()
        .is_some_and(|s| s.to_string_lossy().starts_with("scale_rig"))
    {
        return Some(exe);
    }
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let candidate = dir.join("scale_rig");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

fn spawn_arm(rig: &Path, arm: &str, entries: usize, seed: u64, dir: &Path) -> Option<ArmReport> {
    let out = std::process::Command::new(rig)
        .args([
            "--arm",
            arm,
            "--entries",
            &entries.to_string(),
            "--seed",
            &seed.to_string(),
            "--state-dir",
            &dir.display().to_string(),
        ])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find_map(ArmReport::parse)
}

/// Measure both arms, isolating each in its own child process when the
/// `scale_rig` binary is reachable (honest per-arm VmHWM), otherwise
/// back-to-back in this process with the compact arm first so allocator
/// retention can only *understate* the compact advantage.
pub fn run_both(entries: usize, seed: u64, state_root: &Path) -> ScaleRun {
    let compact_dir = state_root.join("compact");
    let legacy_dir = state_root.join("legacy");
    if let Some(rig) = locate_rig() {
        let compact = spawn_arm(&rig, "compact", entries, seed, &compact_dir);
        let legacy = spawn_arm(&rig, "legacy", entries, seed, &legacy_dir);
        if let (Some(compact), Some(legacy)) = (compact, legacy) {
            return ScaleRun {
                compact,
                legacy,
                in_process: false,
            };
        }
    }
    let compact = run_arm(true, entries, seed, &compact_dir, false);
    let legacy = run_arm(false, entries, seed, &legacy_dir, false);
    ScaleRun {
        compact,
        legacy,
        in_process: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_report_json_round_trips() {
        let r = ArmReport {
            arm: "compact",
            entries: 1234,
            load_ops: 1200,
            load_secs: 0.5,
            restart_secs: 0.25,
            snapshot_entries: 1100,
            wal_records_applied: 100,
            digest_loaded: 0xdead_beef_0012_3456,
            digest_restarted: 0xdead_beef_0012_3456,
            peak_rss_kb: Some(4096),
            footprint: Some(ldap::Footprint {
                entries: 1234,
                dn_bytes: 160,
                attr_bytes: 670,
                ..ldap::Footprint::default()
            }),
        };
        let back = ArmReport::parse(&r.json()).expect("parse own json");
        assert_eq!(back.footprint, r.footprint);
        assert_eq!(back.arm, "compact");
        assert_eq!(back.entries, 1234);
        assert_eq!(back.digest_loaded, r.digest_loaded);
        assert_eq!(back.peak_rss_kb, Some(4096));
        assert!(back.parity());

        let none = ArmReport {
            peak_rss_kb: None,
            footprint: None,
            ..r
        };
        let back = ArmReport::parse(&none.json()).unwrap();
        assert_eq!((back.peak_rss_kb, back.footprint), (None, None));
    }

    #[test]
    fn both_arms_small_run_agree() {
        let root = std::env::temp_dir().join(format!("metacomm-scale-unit-{}", std::process::id()));
        let compact = run_arm(true, 300, 7, &root.join("c"), false);
        let legacy = run_arm(false, 300, 7, &root.join("l"), false);
        assert!(compact.parity(), "compact arm restores its own tree");
        assert!(legacy.parity(), "legacy arm restores its own tree");
        assert_eq!(
            compact.digest_loaded, legacy.digest_loaded,
            "arms build identical trees"
        );
        assert_eq!(compact.entries, legacy.entries);
        assert!(compact.wal_records_applied >= 300.min(WAL_TAIL));
        let _ = std::fs::remove_dir_all(&root);
    }
}
