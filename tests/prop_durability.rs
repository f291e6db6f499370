//! Property tests of the durability layer's committed-prefix contract:
//! truncate or corrupt the write-ahead log at ANY byte offset and recovery
//! must come back with exactly the committed prefix — never an error, never
//! a record the log doesn't vouch for, never a hole before the damage.
//! Plus a kill-during-churn integration test that snapshots the state
//! directory while commits are in flight (a faithful crash image: the copy
//! races the appender, so the tail may be torn) and asserts every update
//! acknowledged *before* the snapshot is recovered from it.

use ldap::wal::{self, FsyncPolicy, Wal};
use metacomm::MetaCommBuilder;
use pbx::{DialPlan, Store as PbxStore};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "metacomm-propdur-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Write `records` into a fresh log and return the raw file bytes.
fn written_log(dir: &Path, records: &[(u8, Vec<u8>)]) -> (PathBuf, Vec<u8>) {
    let path = dir.join("wal.log");
    let w = Wal::open(&path, FsyncPolicy::Never).expect("open");
    for (tag, payload) in records {
        w.append_nowait(*tag, payload).expect("append");
    }
    drop(w);
    (path.clone(), std::fs::read(&path).expect("read back"))
}

fn collect(path: &Path) -> (Vec<(u8, Vec<u8>)>, wal::ReplaySummary) {
    let mut out = Vec::new();
    let s = wal::replay(path, |tag, payload| {
        out.push((tag, payload.to_vec()));
        Ok(())
    })
    .expect("replay never errors on damage");
    (out, s)
}

/// On-disk frame size of one record: 8-byte header + tag + payload.
fn frame_len(payload: &[u8]) -> usize {
    9 + payload.len()
}

fn record_strategy() -> impl Strategy<Value = (u8, Vec<u8>)> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the log at ANY byte offset recovers exactly the records
    /// whose frames fit wholly below the cut, flags the tail as torn unless
    /// the cut lands on a frame boundary, and never delivers altered data.
    #[test]
    fn truncation_recovers_committed_prefix(
        records in proptest::collection::vec(record_strategy(), 1..24),
        cut_ppm in 0u32..1_000_000,
    ) {
        let dir = tmpdir("cut");
        let (path, full) = written_log(&dir, &records);
        let cut = (full.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        std::fs::write(&path, &full[..cut]).expect("truncate");

        let (out, summary) = collect(&path);
        let mut fit = 0usize;
        let mut boundary = 0usize;
        for (_, payload) in &records {
            if boundary + frame_len(payload) > cut {
                break;
            }
            boundary += frame_len(payload);
            fit += 1;
        }
        prop_assert_eq!(out.len(), fit, "cut {} of {}", cut, full.len());
        prop_assert_eq!(summary.torn, cut != boundary);
        for (i, (tag, payload)) in out.iter().enumerate() {
            prop_assert_eq!(*tag, records[i].0);
            prop_assert_eq!(payload, &records[i].1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting ANY single byte stops replay at the damaged frame:
    /// everything before it is delivered intact, nothing after it leaks
    /// through. (A flip inside the CRC-covered body is always caught; a
    /// flip in the length prefix misframes the rest, which the checksum of
    /// the misread body then rejects.)
    #[test]
    fn corruption_recovers_prefix_before_the_damage(
        records in proptest::collection::vec(record_strategy(), 2..16),
        pos_ppm in 0u32..1_000_000,
        flip in 1u32..256,
    ) {
        let dir = tmpdir("flip");
        let (path, full) = written_log(&dir, &records);
        let pos = ((full.len() as u64 * pos_ppm as u64 / 1_000_000) as usize).min(full.len() - 1);
        let mut bad = full;
        bad[pos] ^= flip as u8;
        std::fs::write(&path, &bad).expect("corrupt");

        // Index of the frame containing the flipped byte.
        let mut hit = 0usize;
        let mut off = 0usize;
        for (_, payload) in &records {
            if pos < off + frame_len(payload) {
                break;
            }
            off += frame_len(payload);
            hit += 1;
        }
        let (out, summary) = collect(&path);
        prop_assert_eq!(out.len(), hit);
        prop_assert!(summary.torn);
        for (i, (tag, payload)) in out.iter().enumerate() {
            prop_assert_eq!(*tag, records[i].0);
            prop_assert_eq!(payload, &records[i].1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    out.sort();
    out
}

fn durable(dir: &Path, west: &Arc<PbxStore>, policy: FsyncPolicy) -> metacomm::MetaComm {
    MetaCommBuilder::new("o=Lucent")
        .add_pbx(west.clone(), "9???")
        .with_durability(dir.to_path_buf())
        .with_fsync_policy(policy)
        .build()
        .expect("build durable system")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whole-system committed prefix: populate a durable deployment with a
    /// known sequence of people, truncate the live WAL segment at a random
    /// offset (the crash), and restart. The recovered population must be a
    /// contiguous prefix of the commit order — losing person k while
    /// keeping person k+1 would mean replay reordered or leapfrogged the
    /// damage.
    #[test]
    fn system_recovers_contiguous_person_prefix(
        n in 4usize..16,
        cut_ppm in 0u32..1_000_000,
    ) {
        let dir = tmpdir("system");
        {
            let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
            let system = durable(&dir, &west, FsyncPolicy::Never);
            let wba = system.wba();
            for i in 0..n {
                wba.add_person_with_extension(
                    &format!("Person {i:02}"),
                    "P",
                    &format!("9{i:03}"),
                    "2B",
                )
                .expect("add");
            }
            system.settle();
            std::mem::forget(system); // crash: no shutdown checkpoint
        }
        let segments = wal_segments(&dir);
        let live = segments.last().expect("a live wal segment");
        let full = std::fs::read(live).expect("read wal");
        let cut = (full.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        std::fs::write(live, &full[..cut]).expect("truncate");

        let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
        let system = durable(&dir, &west, FsyncPolicy::Never);
        let wba = system.wba();
        let mut recovered = 0usize;
        let mut gap = false;
        for i in 0..n {
            match wba.person(&format!("Person {i:02}")).expect("search") {
                Some(_) if !gap => recovered += 1,
                Some(_) => prop_assert!(false, "Person {} survives a gap", i),
                None => gap = true,
            }
        }
        prop_assert!(recovered <= n);
        system.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The crash_rig smoke test does this with a real `kill -9` in CI; this
/// in-process variant runs under `cargo test`: churn from several client
/// threads against a group-commit deployment, snapshot the state directory
/// *while commits are in flight*, and recover from the snapshot. Every
/// update acknowledged before the snapshot started must be in the recovered
/// DIT — acknowledgment happens after the group-commit barrier, so the
/// bytes were on "disk" before we copied them.
#[test]
fn kill_during_churn_recovers_every_acked_update() {
    let dir = tmpdir("churn");
    let image = tmpdir("churn-image");
    let west = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let system = durable(&dir, &west, FsyncPolicy::Group);
    let wba = system.wba();

    const THREADS: usize = 3;
    const PER: usize = 30;
    let acked: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    // Updates acknowledged before the crash image was taken; everything in
    // here is the recovery obligation.
    let mut before: Vec<(String, u64)> = Vec::new();
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            let wba = &wba;
            let acked = acked.clone();
            let stop = stop.clone();
            sc.spawn(move || {
                for i in 0..PER {
                    let cn = format!("Churn {t}-{i:02}");
                    wba.add_person_with_extension(&cn, "C", &format!("9{}", t * 100 + i), "2B")
                        .expect("add");
                    acked.lock().unwrap().push((cn, 0));
                }
                let mut op = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    op += 1;
                    let cn = format!("Churn {t}-{:02}", (op as usize * 13) % PER);
                    wba.assign_room(&cn, &format!("R-{op}")).expect("room");
                    acked.lock().unwrap().push((cn, op));
                }
            });
        }

        // Let the churn run, then take the crash image: record what was
        // acknowledged so far FIRST, then copy the directory out from under
        // the running appenders (acked ⇒ past the group-commit barrier ⇒
        // already in the file the copy reads).
        std::thread::sleep(std::time::Duration::from_millis(300));
        before = acked.lock().unwrap().clone();
        for f in std::fs::read_dir(&dir).expect("read dir").flatten() {
            if f.path().is_file() {
                std::fs::copy(f.path(), image.join(f.file_name())).expect("copy");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    system.shutdown();
    assert!(!before.is_empty(), "churn produced acknowledged updates");

    // Recover from the mid-churn image with a fresh switch. Per person the
    // room ops are acknowledged in increasing order, so the recovered room
    // may be *ahead* of the last pre-image ack (later ops also made the
    // copy) but never behind it.
    let west2 = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let recovered = durable(&image, &west2, FsyncPolicy::Group);
    let report = recovered.recovery_report().expect("durable deployment");
    assert!(
        report.wal_records_applied > 0,
        "the image carried committed records"
    );
    let wba2 = recovered.wba();
    let mut floor: HashMap<String, u64> = HashMap::new();
    for (cn, op) in &before {
        let e = floor.entry(cn.clone()).or_insert(0);
        *e = (*e).max(*op);
    }
    for (cn, floor) in &floor {
        let person = wba2
            .person(cn)
            .expect("search")
            .unwrap_or_else(|| panic!("acked add of {cn} lost"));
        let room = person.first("roomNumber").expect("room attr");
        let got: u64 = room
            .strip_prefix("R-")
            .map_or(0, |n| n.parse().expect("op"));
        assert!(
            got >= *floor,
            "{cn}: recovered {room}, acked op {floor} lost"
        );
    }
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);
}
