//! Whole-deployment crash safety: the durability engine.
//!
//! The ldap crate provides the mechanisms — a group-commit [`Wal`],
//! checksummed snapshot rotation ([`SnapshotStore`]), and committed-prefix
//! replay. This module composes them into one engine that makes *all* of a
//! deployment's hard state survive `kill -9`:
//!
//! - **DIT commits** — every directory commit appends a
//!   [`backup::TAG_DIT_CHANGE`] frame before the client sees success.
//! - **One fact per device: stale or clean** — a device is logged *stale*
//!   from the first leg its open breaker skips ([`crate::resilience`]), and
//!   *clean* once the resync on reconnect brings it back `Up`. The stale
//!   record is appended under the device's runtime lock, before the DIT
//!   commit record of the update whose leg was skipped, so the commit
//!   barrier that acknowledges the update makes it durable too.
//!
//! ## Recovery order (DESIGN §12)
//!
//! 1. newest snapshot whose checksum footer verifies (fall back one
//!    generation on a torn write);
//! 2. WAL segments in generation order, applying exactly the committed
//!    prefix of DIT records and reducing device records to one
//!    [`StaleMark`] per device (the highest epoch wins);
//! 3. stale devices restart `Offline`, so each one's relay, one probe
//!    interval after boot, (or `probe_device`) resyncs it from the
//!    directory — the paper's §4.4 recovery for a repository that missed
//!    updates.
//!
//! ## Checkpoint protocol
//!
//! Rotate first, snapshot second: a new WAL segment is opened *before* the
//! export, so every record in the old segment has a commit sequence ≤ the
//! snapshot's — the old segment is then redundant and prunable. Each
//! device's current mark is re-logged into the fresh segment so it never
//! depends on pruned history. The previous snapshot generation is kept as
//! the torn-write fallback.

use crate::error::{MetaError, Result};
use crate::errorlog::ErrorLog;
use crate::obs::{Counter, Registry};
use crate::resilience::Device;
use crate::unpoison;
use ldap::backup::{self, SnapshotStore};
use ldap::dit::Dit;
use ldap::wal::{self, FsyncPolicy, Wal, WalStats};
use ldap::Directory;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// WAL frame tags owned by this layer. Tag 1 is the DIT change record
// (owned by ldap::backup). Tags 16-21 are the retired outage-journal
// mirror: read only for the device they name, which they mark stale.
const TAG_DEVICE_MARK: u8 = 22;
const LEGACY_JOURNAL_TAGS: std::ops::RangeInclusive<u8> = 16..=21;
const LEGACY_STALE: StaleMark = StaleMark {
    epoch: 0,
    stale: true,
};

/// What recovery-on-boot found and replayed (exposed through
/// [`crate::MetaComm::recovery_report`] and as `cn=monitor` gauges).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from (0 = none).
    pub snapshot_generation: u64,
    /// Entries loaded from that snapshot.
    pub snapshot_entries: usize,
    /// DIT change records applied from the WAL (the committed suffix).
    pub wal_records_applied: usize,
    /// DIT records skipped because the snapshot already covered them.
    pub wal_records_skipped: usize,
    /// DIT records discarded past a torn frame's sequence gap.
    pub wal_records_discarded: usize,
    /// WAL segments that ended in a torn frame.
    pub torn_segments: usize,
    /// Devices the log left stale: they restart `Offline` and resync.
    pub stale_devices: usize,
    /// Wall-clock time recovery took, in microseconds.
    pub replay_micros: u64,
}

/// A device's durable fact: did it miss updates the directory took? The
/// epoch is bumped under the device's runtime lock at every change, so
/// records that reach the log out of order still reduce to the latest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StaleMark {
    pub epoch: u64,
    pub stale: bool,
}

type ErrorCtx = Arc<Mutex<Option<(Arc<ErrorLog>, Arc<dyn Directory>)>>>;

/// The durability engine: owns the snapshot store and the current WAL
/// segment, logs DIT commits and device marks, and runs the checkpoint
/// protocol.
pub(crate) struct Durability {
    store: SnapshotStore,
    policy: FsyncPolicy,
    /// Current segment; swapped under this lock at checkpoint.
    wal: Mutex<Arc<Wal>>,
    /// Cumulative across segment rotations.
    wal_stats: Arc<WalStats>,
    generation: AtomicU64,
    /// Checkpoints written: `snapshots` on the `durability` component.
    snapshots_written: Arc<Counter>,
    checkpoint_lock: Mutex<()>,
    report: RecoveryReport,
    /// Where WAL write failures are alerted once the deployment's error
    /// log exists (installed after build wires it up).
    error_ctx: ErrorCtx,
}

impl Durability {
    /// Recover the DIT (and each device's mark) from `dir`, then open a
    /// fresh WAL segment for new commits. The caller attaches the commit
    /// observer, hands the marks to their runtimes, and checkpoints.
    pub(crate) fn open(
        dir: &Path,
        policy: FsyncPolicy,
        dit: &Arc<Dit>,
    ) -> Result<(Arc<Durability>, HashMap<String, StaleMark>)> {
        let started = std::time::Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| MetaError::Unavailable(e.to_string()))?;
        let store = SnapshotStore::new(dir);
        let mut report = RecoveryReport::default();
        let mut marks: HashMap<String, StaleMark> = HashMap::new();

        // The pre-WAL layout is not read any more. Booting an empty
        // directory beside it would look like a successful recovery of
        // nothing, so say what is there and stop.
        if store.latest_generation() == 0 {
            let pre_wal: Vec<String> = ["directory.ldif", "changes.ldif"]
                .iter()
                .map(|name| dir.join(name))
                .filter(|path| path.exists())
                .map(|path| path.display().to_string())
                .collect();
            if !pre_wal.is_empty() {
                return Err(MetaError::Unavailable(format!(
                    "state directory holds only the pre-WAL LDIF layout ({}), which is no \
                     longer read: there is no snap-*/wal-* generation to recover from",
                    pre_wal.join(", ")
                )));
            }
        }
        // One bulk-load window around the whole recovery (snapshot load AND
        // WAL replay): per-insert index and sibling-order maintenance is
        // suspended and rebuilt once when the window closes — a single
        // linear pass instead of a million incremental updates. Nestable,
        // so the snapshot loader's own window composes.
        dit.begin_bulk();
        let recovery = (|| -> Result<()> {
            let snap_seq = match store.restore_latest(dit)? {
                Some((generation, seq, entries)) => {
                    report.snapshot_generation = generation;
                    report.snapshot_entries = entries;
                    dit.set_seq(seq);
                    seq
                }
                None => 0,
            };
            // Replay every segment in generation order: DIT records the
            // snapshot does not cover are collected (they carry their own
            // commit sequence and are sorted globally), device records
            // reduce by epoch. A retained segment is mostly records
            // the snapshot covers (the whole load, after a first
            // checkpoint): those are counted as they are decoded and never
            // copied.
            let mut dit_records: Vec<(u64, String)> = Vec::new();
            let mut covered = 0usize;
            for generation in store.wal_generations() {
                let summary = wal::replay(&store.wal_path(generation), |tag, payload| {
                    match tag {
                        backup::TAG_DIT_CHANGE => {
                            let (seq, text) = backup::decode_wal_payload(payload)?;
                            if seq <= snap_seq {
                                covered += 1;
                            } else {
                                dit_records.push((seq, text.to_string()));
                            }
                        }
                        _ => fold_device_record(&mut marks, tag, payload)?,
                    }
                    Ok(())
                })?;
                if summary.torn {
                    report.torn_segments += 1;
                }
            }
            let replay = backup::apply_wal_records(dit, dit_records, snap_seq)?;
            report.wal_records_applied = replay.applied;
            report.wal_records_skipped = covered + replay.skipped;
            report.wal_records_discarded = replay.discarded;
            Ok(())
        })();
        dit.finish_bulk();
        recovery?;
        report.stale_devices = marks.values().filter(|m| m.stale).count();
        report.replay_micros = started.elapsed().as_micros() as u64;

        // New commits go to a fresh segment: the previous one may end in a
        // torn frame, and appending past torn bytes would hide everything
        // after them from the next replay.
        let generation = store.latest_generation() + 1;
        let wal_stats = Arc::new(WalStats::default());
        let wal = Wal::open_with_stats(&store.wal_path(generation), policy, wal_stats.clone())?;
        let error_ctx: ErrorCtx = Arc::new(Mutex::new(None));
        install_error_sink(&wal, &error_ctx);

        Ok((
            Arc::new(Durability {
                store,
                policy,
                wal: Mutex::new(wal),
                snapshots_written: wal_stats.component().counter("snapshots"),
                wal_stats,
                generation: AtomicU64::new(generation),
                checkpoint_lock: Mutex::new(()),
                report,
                error_ctx,
            }),
            marks,
        ))
    }

    pub(crate) fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Route WAL write failures to the deployment's error log (§4.4
    /// log-and-alert); called once the error log exists.
    pub(crate) fn set_error_log(&self, errorlog: Arc<ErrorLog>, dir: Arc<dyn Directory>) {
        *unpoison(self.error_ctx.lock()) = Some((errorlog, dir));
    }

    /// Drop the alert route again (shutdown). It holds the directory, whose
    /// commit observer holds this engine: left in place, that cycle keeps
    /// the whole tree resident after the deployment is gone. WAL failures
    /// are still counted; commits made after shutdown are still logged.
    pub(crate) fn clear_error_log(&self) {
        *unpoison(self.error_ctx.lock()) = None;
    }

    fn wal(&self) -> Arc<Wal> {
        unpoison(self.wal.lock()).clone()
    }

    /// Append a record to the current segment without waiting for
    /// durability — the async half of group commit. The gateway's
    /// after-trigger runs [`Durability::commit_barrier`] once the Update
    /// Manager has committed and before the update call returns, so the
    /// commit itself never parks in an fsync wait and concurrent commits
    /// coalesce into large batches.
    /// Failures degrade durability, not availability: they are counted and
    /// alerted by the WAL's sink, and the in-memory commit stands.
    fn append(&self, tag: u8, payload: &[u8]) {
        let wal = self.wal();
        let _ = wal.append_nowait(tag, payload);
        // A checkpoint may have synced this segment and swapped in its
        // successor between the clone above and the write — in which case
        // the frame landed in the old segment *after* its final sync, and
        // the client's commit_barrier would sync only the new one. Re-check
        // after the write: if the segment changed, sync the one we wrote
        // inline so acknowledged still implies durable. (If the re-check
        // still sees our segment, the swap — and the checkpoint's sync —
        // strictly follow our write, which they therefore cover.)
        if self.policy != FsyncPolicy::Never && !Arc::ptr_eq(&wal, &self.wal()) {
            let _ = wal.sync();
        }
    }

    /// Block until everything appended so far is on stable storage (group
    /// policy only — Always synced inline, Never opted out). Runs on the
    /// client thread after its update completes: the client's own records
    /// were appended before the UM replied, so the barrier covers them.
    pub(crate) fn commit_barrier(&self) {
        if self.policy == FsyncPolicy::Group {
            // Errors are counted and alerted by the WAL's sink.
            let _ = self.wal().sync();
        }
    }

    /// Observe every DIT commit into the log. The observer runs before the
    /// client's update call returns (Dit::emit is synchronous), so with the
    /// after-trigger barrier an acknowledged update is on stable storage
    /// under Always/Group.
    pub(crate) fn attach(self: &Arc<Self>, dit: &Arc<Dit>) {
        let dur = self.clone();
        dit.observe(move |rec| {
            dur.append(backup::TAG_DIT_CHANGE, &backup::wal_payload(rec));
        });
    }

    /// Log `device`'s mark. The runtime calls this under its own lock, so
    /// a stale record precedes the DIT commit of any update that skipped
    /// the device.
    pub(crate) fn log_device(&self, device: &str, mark: StaleMark) {
        self.append(TAG_DEVICE_MARK, &encode_device_record(device, mark));
    }

    /// Write a consistent checkpoint and bound the log: rotate to a new
    /// segment, re-log every device's mark, export + write the snapshot,
    /// prune generations older than the previous snapshot.
    pub(crate) fn checkpoint(&self, dit: &Dit, devices: &[Device]) -> Result<()> {
        let _only_one = unpoison(self.checkpoint_lock.lock());
        let generation = self.generation.load(Ordering::SeqCst) + 1;
        let new_wal = Wal::open_with_stats(
            &self.store.wal_path(generation),
            self.policy,
            self.wal_stats.clone(),
        )?;
        install_error_sink(&new_wal, &self.error_ctx);
        {
            // Swap under the wal lock: appenders racing the swap land in
            // either segment; their DIT records carry commit sequences ≤
            // the export below (old segment) or replay idempotently by
            // sequence guard (new segment), and device records reduce by
            // epoch wherever they land.
            let mut w = unpoison(self.wal.lock());
            let _ = w.sync();
            *w = new_wal;
        }
        self.generation.store(generation, Ordering::SeqCst);
        // A device's mark must not depend on pruned history: re-log each
        // into the fresh segment. A change racing this re-log carries a
        // higher epoch, so it wins at replay whichever lands first.
        for Device { runtime, .. } in devices {
            self.log_device(runtime.name(), runtime.mark());
        }
        // Streamed: one entry of LDIF text in memory at a time.
        self.store.write_snapshot_streamed(dit, generation)?;
        self.snapshots_written.inc();
        // Keep the newest two snapshots (torn-write fallback) and every
        // segment from the older one forward.
        let snaps = self.store.snapshot_generations();
        if snaps.len() >= 2 {
            self.store.prune_below(snaps[snaps.len() - 2]);
        }
        Ok(())
    }

    /// Force the current segment to stable storage (shutdown path).
    pub(crate) fn sync(&self) {
        let _ = self.wal().sync();
    }

    /// Publish the `durability` component in `cn=monitor`.
    pub(crate) fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        // The WAL's counters are its own component's handles; the gauges
        // added here are what is derived when read.
        let comp = registry.adopt(self.wal_stats.component().clone());
        let d = self.clone();
        comp.gauge_callback("walSegmentBytes", move || d.wal().len_bytes() as i64);
        let d = self.clone();
        comp.gauge_callback("generation", move || {
            d.generation.load(Ordering::SeqCst) as i64
        });
        let r = self.report.clone();
        comp.gauge_callback("recoveredSnapshotEntries", move || {
            r.snapshot_entries as i64
        });
        let r = self.report.clone();
        comp.gauge_callback("recoveredWalRecords", move || r.wal_records_applied as i64);
        let r = self.report.clone();
        comp.gauge_callback("recoveredStaleDevices", move || r.stale_devices as i64);
        let r = self.report.clone();
        comp.gauge_callback("recoveryReplayMicros", move || r.replay_micros as i64);
    }
}

fn install_error_sink(wal: &Arc<Wal>, ctx: &ErrorCtx) {
    let ctx = ctx.clone();
    wal.set_error_sink(move |msg| {
        if let Some((log, dir)) = unpoison(ctx.lock()).as_ref() {
            log.log(dir.as_ref(), 0, msg, "wal write failure");
        }
    });
}

/// `[device length: u32 LE][device][epoch: u64 LE][stale: u8]` — the
/// leading device string is the layout the retired journal tags shared.
fn encode_device_record(device: &str, mark: StaleMark) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + device.len() + 9);
    buf.extend_from_slice(&(device.len() as u32).to_le_bytes());
    buf.extend_from_slice(device.as_bytes());
    buf.extend_from_slice(&mark.epoch.to_le_bytes());
    buf.push(mark.stale as u8);
    buf
}

/// A record's leading device name and the bytes after it.
fn leading_device(payload: &[u8]) -> Option<(&str, &[u8])> {
    let (len, rest) = payload.split_first_chunk::<4>()?;
    let (name, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    Some((std::str::from_utf8(name).ok()?, rest))
}

/// Fold one non-DIT record into `marks`, keeping the highest epoch per
/// device. A retired journal record marks the device it names stale at
/// epoch 0, below every record of the current kind, so the first boot
/// after an upgrade resyncs that device once. A retired record that cannot
/// name its device, and an unknown tag, are skipped.
fn fold_device_record(
    marks: &mut HashMap<String, StaleMark>,
    tag: u8,
    payload: &[u8],
) -> ldap::Result<()> {
    let malformed = || ldap::LdapError::new(ldap::ResultCode::Other, "malformed device record");
    let (device, mark) = match tag {
        TAG_DEVICE_MARK => {
            let (device, rest) = leading_device(payload).ok_or_else(malformed)?;
            let Some((epoch, &[stale])) = rest.split_first_chunk::<8>() else {
                return Err(malformed());
            };
            let epoch = u64::from_le_bytes(*epoch);
            (
                device,
                StaleMark {
                    epoch,
                    stale: stale != 0,
                },
            )
        }
        t if LEGACY_JOURNAL_TAGS.contains(&t) => match leading_device(payload) {
            Some((device, _)) => (device, LEGACY_STALE),
            None => return Ok(()),
        },
        _ => return Ok(()),
    };
    let slot = marks.entry(device.to_string()).or_default();
    if mark.epoch >= slot.epoch {
        *slot = mark;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(marks: &mut HashMap<String, StaleMark>, device: &str, epoch: u64, stale: bool) {
        let record = encode_device_record(device, StaleMark { epoch, stale });
        fold_device_record(marks, TAG_DEVICE_MARK, &record).unwrap();
    }

    #[test]
    fn device_records_reduce_to_the_highest_epoch() {
        let mut marks = HashMap::new();
        // A checkpoint re-log of epoch 1 lands after the clean of epoch 2.
        fold(&mut marks, "pbx-west", 1, true);
        fold(&mut marks, "pbx-west", 2, false);
        fold(&mut marks, "pbx-west", 1, true);
        assert_eq!(
            (marks["pbx-west"].epoch, marks["pbx-west"].stale),
            (2, false)
        );
        // A relapse right after a clean: its stale record (epoch 4) reaches
        // the log ahead of the clean (epoch 3). Still stale at replay.
        fold(&mut marks, "pbx-east", 2, true);
        fold(&mut marks, "pbx-east", 4, true);
        fold(&mut marks, "pbx-east", 3, false);
        assert_eq!(
            (marks["pbx-east"].epoch, marks["pbx-east"].stale),
            (4, true)
        );
        // A record of the current kind that does not decode fails replay.
        assert!(fold_device_record(&mut marks, TAG_DEVICE_MARK, &[1, 0, 0, 0]).is_err());
    }

    #[test]
    fn legacy_journal_records_mark_their_device_stale() {
        for tag in LEGACY_JOURNAL_TAGS {
            // Each retired record led with its device; the rest is unread.
            let mut record = 8u32.to_le_bytes().to_vec();
            record.extend_from_slice(b"pbx-west");
            record.extend_from_slice(&[0xAB; 13]);
            let mut marks = HashMap::new();
            fold_device_record(&mut marks, tag, &record).unwrap();
            assert_eq!(marks["pbx-west"], LEGACY_STALE, "tag {tag}");
            // Any record of the current kind outranks it.
            fold(&mut marks, "pbx-west", 1, false);
            assert!(!marks["pbx-west"].stale, "tag {tag}");
        }
        // A retired record too short to name its device, and an unknown
        // tag, are skipped without failing recovery.
        let mut marks = HashMap::new();
        fold_device_record(&mut marks, 16, &[200, 0, 0, 0, b'x']).unwrap();
        fold_device_record(&mut marks, 21, &[]).unwrap();
        fold_device_record(&mut marks, 99, b"a future record").unwrap();
        assert!(marks.is_empty());
    }
}
