//! Million-entry scale engine behind the `scale_rig` binary.
//!
//! One run is a full load → checkpoint → crash → restart cycle. The engine
//! streams the population in chunks so the generator never holds the full
//! roster in memory — at a million entries the roster itself would
//! otherwise rival the directory and poison the peak-RSS reading.
//!
//! Peak RSS (`VmHWM`) is monotone per process, so an honest number needs a
//! process of its own: `scale_rig` is that process.

use crate::population::{Population, PopulationSpec};
use crate::rss;
use ldap::{Dit, Dn, Entry, Filter, Rdn, Scope};
use metacomm::{FsyncPolicy, MetaComm, MetaCommBuilder};
use std::path::Path;
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

    /// Peak RSS for the summary line.
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

    let restarted = Instant::now();
    let system2 = deployment(dir);
    let restart = restarted.elapsed();
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
        footprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
