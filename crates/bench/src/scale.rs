//! Million-entry scale engine shared by E18 and the `scale_rig` binary.
//!
//! One run is a full load → checkpoint → crash → restart cycle. The engine
//! streams the population in chunks so the generator never holds the full
//! roster in memory — at a million entries the roster itself would
//! otherwise rival the directory and poison the peak-RSS reading.
//!
//! Peak RSS (`VmHWM`) is monotone per process, so an honest number needs a
//! process of its own: `run_isolated` re-execs the `scale_rig` binary when
//! it can find it and falls back to a clearly-labelled in-process mode
//! (soft crash, best-effort counter reset) when it cannot — e.g. under
//! `cargo test` before the binaries are linked.

use crate::population::{Population, PopulationSpec};
use crate::rss;
use ldap::{Dit, Dn, Entry, Filter, Rdn, Scope};
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory suffix the run deploys under.
pub const SUFFIX: &str = "o=MetaComm";

/// Subscribers generated (and then dropped) per population chunk.
const CHUNK: usize = 50_000;

/// Post-snapshot adds left in the WAL so restart exercises replay too.
const WAL_TAIL: usize = 1_000;

/// One measured run: load, checkpoint, crash, restart, verify.
#[derive(Debug, Clone)]
pub struct ScaleReport {
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
    /// `true` when the run shared its process with other work (the RSS
    /// reading is then best-effort: the counter reset may be unavailable
    /// and the allocator retains pages freed before the run).
    pub in_process: bool,
    /// The restarted tree's resident bytes by structure.
    pub footprint: ldap::Footprint,
}

/// Peak RSS a run may cost per entry at 100k entries and up (below that
/// the process's own base dominates). The peak is the restart beside the
/// crashed deployment's leaked tree, so about two trees plus the restore
/// transients: 966 B/entry measured at 100k (the reading plus 10 % is the
/// budget), 1,112 while a name was an RDN vector over RDN blocks that kept
/// a lowercased copy of each value, 1,208 while the id tables took 24 bytes
/// a hash and every node carried a children vector, 1,696 while every value was a heap string of
/// its own, 1,990 while the store kept a key string per DN and a copy of
/// every indexed value, 2,850 before the 32-byte attribute slot and the
/// shared class list, 6,260 before the shared-RDN layout.
pub const COMPACT_PEAK_RSS_BUDGET_PER_ENTRY: u64 = 1_062;

impl ScaleReport {
    pub fn load_ops_per_sec(&self) -> f64 {
        self.load_ops as f64 / self.load_secs.max(1e-9)
    }

    /// The restarted tree serves the search stream the loaded one did.
    pub fn parity(&self) -> bool {
        self.digest_loaded == self.digest_restarted && self.entries > 0
    }

    /// Peak RSS per entry when it exceeds
    /// [`COMPACT_PEAK_RSS_BUDGET_PER_ENTRY`] on a run large enough to be
    /// judged by it.
    pub fn over_rss_budget(&self) -> Option<u64> {
        let per_entry = self.peak_rss_kb? * 1024 / self.entries.max(1) as u64;
        (self.entries >= 100_000 && per_entry > COMPACT_PEAK_RSS_BUDGET_PER_ENTRY)
            .then_some(per_entry)
    }

    /// Peak RSS for a table cell.
    pub fn peak_rss_text(&self) -> String {
        self.peak_rss_kb
            .map(|kb| format!("{:.1} MB", kb as f64 / 1024.0))
            .unwrap_or_else(|| "n/a".into())
    }

    /// The restarted tree's bytes per entry, structure by structure.
    pub fn at_rest_text(&self) -> String {
        let fp = self.footprint;
        let per_entry = |bytes: usize| bytes / fp.entries.max(1);
        let rows: Vec<String> = (fp.rows().iter())
            .map(|(row, bytes)| format!("{row} {}", per_entry(*bytes)))
            .collect();
        format!("{} (total {})", rows.join(", "), per_entry(fp.total()))
    }

    /// One-line JSON object — the contract between the `scale_rig` child
    /// process and E18. Digests travel as hex strings: u64 values do not
    /// survive a round-trip through doubles.
    pub fn json(&self) -> String {
        format!(
            "{{\"entries\":{},\"load_ops\":{},\"load_ops_per_sec\":{:.0},\
             \"load_secs\":{:.3},\"restart_secs\":{:.3},\"snapshot_entries\":{},\
             \"wal_records_applied\":{},\"digest_loaded\":\"{:016x}\",\
             \"digest_restarted\":\"{:016x}\",\"parity\":{},\"peak_rss_kb\":{},\
             \"isolation\":\"{}\"{}}}",
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
            if self.in_process {
                "in-process"
            } else {
                "own-process"
            },
            self.footprint
                .rows()
                .iter()
                .map(|(row, bytes)| format!(",\"{row}\":{bytes}"))
                .collect::<String>(),
        )
    }

    /// Parse a line produced by `json` (the child's stdout); any other
    /// line lacks a field and yields `None`.
    pub fn parse(line: &str) -> Option<ScaleReport> {
        let row = |name| jfield(line, name)?.parse().ok();
        let entries = row("entries")?;
        Some(ScaleReport {
            entries,
            load_ops: row("load_ops")?,
            load_secs: jfield(line, "load_secs")?.parse().ok()?,
            restart_secs: jfield(line, "restart_secs")?.parse().ok()?,
            snapshot_entries: row("snapshot_entries")?,
            wal_records_applied: row("wal_records_applied")?,
            digest_loaded: u64::from_str_radix(jfield(line, "digest_loaded")?, 16).ok()?,
            digest_restarted: u64::from_str_radix(jfield(line, "digest_restarted")?, 16).ok()?,
            peak_rss_kb: match jfield(line, "peak_rss_kb")? {
                "null" => None,
                kb => Some(kb.parse().ok()?),
            },
            in_process: jfield(line, "isolation")? == "in-process",
            footprint: ldap::Footprint {
                entries,
                dn_bytes: row("dnBytes")?,
                key_arena_bytes: row("keyArenaBytes")?,
                slab_bytes: row("slabBytes")?,
                attr_slot_bytes: row("attrSlotBytes")?,
                value_bytes: row("valueBytes")?,
                postings_bytes: row("postingsBytes")?,
                sibling_bytes: row("siblingBytes")?,
            },
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

fn deployment(dir: &Path) -> MetaComm {
    MetaCommBuilder::new(SUFFIX)
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

/// One run end to end in this process. `hard_crash` leaks the loaded
/// system (`mem::forget`, the in-process `kill -9`) and is what a process
/// dedicated to the run uses; sharing a process, the run shuts down
/// cleanly instead so that what follows does not inherit a leaked
/// million-entry heap.
pub fn run(entries: usize, seed: u64, dir: &Path, hard_crash: bool) -> ScaleReport {
    let _ = std::fs::remove_dir_all(dir);
    rss::reset_peak();

    let system = deployment(dir);
    let dit = system.dit();
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

    let (system2, restart) = crate::timed(|| deployment(dir));
    let report = system2.recovery_report().expect("durable deployment");
    let (digest_restarted, _) = digest_tree(&system2.dit());
    let footprint = system2.dit().footprint();
    system2.shutdown();
    let peak_rss_kb = rss::peak_rss_kb();
    let _ = std::fs::remove_dir_all(dir);

    ScaleReport {
        entries: total,
        load_ops,
        load_secs: load_wall.as_secs_f64(),
        restart_secs: restart.as_secs_f64(),
        snapshot_entries: report.snapshot_entries,
        wal_records_applied: report.wal_records_applied,
        digest_loaded,
        digest_restarted,
        peak_rss_kb,
        in_process: !hard_crash,
        footprint,
    }
}

/// Find the `scale_rig` binary next to the current executable (or one
/// directory up — test binaries live in `target/<profile>/deps`).
fn locate_rig() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
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

fn spawn_rig(rig: &Path, entries: usize, seed: u64, dir: &Path) -> Option<ScaleReport> {
    let out = std::process::Command::new(rig)
        .args([
            "--entries",
            &entries.to_string(),
            "--seed",
            &seed.to_string(),
            "--state-dir",
            &dir.display().to_string(),
        ])
        .output()
        .ok()?;
    // A rig that exits non-zero (diverged restart, RSS over budget) still
    // printed its report: the caller judges it.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find_map(ScaleReport::parse)
}

/// The run in a `scale_rig` child process when the binary is reachable
/// (an honest VmHWM), otherwise in this one.
pub fn run_isolated(entries: usize, seed: u64, dir: &Path) -> ScaleReport {
    locate_rig()
        .and_then(|rig| spawn_rig(&rig, entries, seed, dir))
        .unwrap_or_else(|| run(entries, seed, dir, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let r = ScaleReport {
            entries: 1234,
            load_ops: 1200,
            load_secs: 0.5,
            restart_secs: 0.25,
            snapshot_entries: 1100,
            wal_records_applied: 100,
            digest_loaded: 0xdead_beef_0012_3456,
            digest_restarted: 0xdead_beef_0012_3456,
            peak_rss_kb: Some(4096),
            in_process: false,
            footprint: ldap::Footprint {
                entries: 1234,
                dn_bytes: 160,
                attr_slot_bytes: 200,
                value_bytes: 122,
                ..ldap::Footprint::default()
            },
        };
        let back = ScaleReport::parse(&r.json()).expect("parse own json");
        assert_eq!(back.footprint, r.footprint);
        assert_eq!(back.entries, 1234);
        assert_eq!(back.digest_loaded, r.digest_loaded);
        assert_eq!((back.peak_rss_kb, back.in_process), (Some(4096), false));
        assert!(back.parity());

        let none = ScaleReport {
            peak_rss_kb: None,
            in_process: true,
            ..r
        };
        let back = ScaleReport::parse(&none.json()).unwrap();
        assert_eq!((back.peak_rss_kb, back.in_process), (None, true));
        assert!(ScaleReport::parse("scale_rig: 1234 entries").is_none());
    }

    #[test]
    fn small_run_restores_its_own_tree() {
        let dir = std::env::temp_dir().join(format!("metacomm-scale-unit-{}", std::process::id()));
        let r = run(300, 7, &dir, false);
        assert!(r.parity(), "the restart serves the loaded tree");
        assert_eq!(r.footprint.entries, r.entries);
        assert!(
            r.snapshot_entries >= 300,
            "the roster came from the snapshot"
        );
        assert!(
            r.wal_records_applied >= 300.min(WAL_TAIL),
            "the tail from the log"
        );
    }
}
