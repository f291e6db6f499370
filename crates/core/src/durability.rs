//! Whole-deployment crash safety: the durability engine.
//!
//! The ldap crate provides the mechanisms — a group-commit [`Wal`],
//! checksummed snapshot rotation ([`SnapshotStore`]), and committed-prefix
//! replay. This module composes them into one engine that makes *all* of a
//! deployment's hard state survive `kill -9`:
//!
//! - **DIT commits** — every directory commit appends a
//!   [`backup::TAG_DIT_CHANGE`] frame before the client sees success.
//! - **Per-device outage journals** — the store-and-forward backlog from
//!   [`crate::resilience`] is mirrored into the log (push/discard/pop/
//!   overflow events), so a node that crashes mid-outage resumes draining
//!   instead of silently forgetting queued device operations.
//!
//! ## Recovery order (DESIGN §12)
//!
//! 1. newest snapshot whose checksum footer verifies (fall back one
//!    generation on a torn write);
//! 2. WAL segments in generation order, applying exactly the committed
//!    prefix of DIT records and reducing journal events to per-device
//!    backlogs;
//! 3. outage journals handed back to their
//!    [`crate::resilience::DeviceRuntime`]s, which restart `Offline` so the
//!    recovery monitor probes and drains them.
//!
//! ## Checkpoint protocol
//!
//! Rotate first, snapshot second: a new WAL segment is opened *before* the
//! export, so every record in the old segment has a commit sequence ≤ the
//! snapshot's — the old segment is then redundant and prunable. Journal
//! state is re-logged into the fresh segment so it never depends on pruned
//! history. The previous snapshot generation is kept as the torn-write
//! fallback.

use crate::error::{MetaError, Result};
use crate::errorlog::ErrorLog;
use crate::obs::Registry;
use crate::resilience::{Device, JournalSink};
use ldap::backup::{self, SnapshotStore};
use ldap::dit::Dit;
use ldap::dn::Dn;
use ldap::wal::{self, FsyncPolicy, Wal, WalStats};
use ldap::Directory;
use lexpress::{Image, OpKind, TargetOp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// WAL frame tags owned by this layer. Tag 1 is the DIT change record
// (owned by ldap::backup); journal mirroring uses a disjoint range.
const TAG_JOURNAL_PUSH: u8 = 16;
const TAG_JOURNAL_DISCARD: u8 = 17;
const TAG_JOURNAL_POP: u8 = 18;
const TAG_JOURNAL_OVERFLOW: u8 = 19;
const TAG_JOURNAL_CLEARED: u8 = 20;
const TAG_JOURNAL_STATE: u8 = 21;

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
    /// Outage-journal ops recovered across all devices.
    pub journal_ops: usize,
    /// Wall-clock time recovery took, in microseconds.
    pub replay_micros: u64,
}

/// One device's outage journal as reduced from the log.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveredJournal {
    pub ops: Vec<(u64, TargetOp, Option<Dn>)>,
    pub overflowed: bool,
}

type ErrorCtx = Arc<Mutex<Option<(Arc<ErrorLog>, Arc<dyn Directory>)>>>;

/// The durability engine: owns the snapshot store and the current WAL
/// segment, observes DIT commits and journal mutations, and runs the
/// checkpoint protocol.
pub(crate) struct Durability {
    store: SnapshotStore,
    policy: FsyncPolicy,
    /// Current segment; swapped under this lock at checkpoint.
    wal: Mutex<Arc<Wal>>,
    /// Cumulative across segment rotations.
    wal_stats: Arc<WalStats>,
    generation: AtomicU64,
    snapshots_written: AtomicU64,
    checkpoint_lock: Mutex<()>,
    report: RecoveryReport,
    /// Where WAL write failures are alerted once the deployment's error
    /// log exists (installed after build wires it up).
    error_ctx: ErrorCtx,
}

impl Durability {
    /// Recover the DIT (and the reduced outage journals) from `dir`, then
    /// open a fresh WAL segment for new commits. The caller attaches the
    /// commit observer, hands journals to their runtimes, and checkpoints.
    pub(crate) fn open(
        dir: &Path,
        policy: FsyncPolicy,
        dit: &Arc<Dit>,
    ) -> Result<(Arc<Durability>, HashMap<String, RecoveredJournal>)> {
        let started = std::time::Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| MetaError::Unavailable(e.to_string()))?;
        let store = SnapshotStore::new(dir);
        let mut report = RecoveryReport::default();
        let mut journals: HashMap<String, RecoveredJournal> = HashMap::new();

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
            // commit sequence and are sorted globally), journal events
            // reduce in scan order. A retained segment is mostly records
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
                        _ => reduce_journal_event(&mut journals, tag, payload)
                            .map_err(ldap_decode_error)?,
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
        report.journal_ops = journals.values().map(|j| j.ops.len()).sum();
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
                wal_stats,
                generation: AtomicU64::new(generation),
                snapshots_written: AtomicU64::new(0),
                checkpoint_lock: Mutex::new(()),
                report,
                error_ctx,
            }),
            journals,
        ))
    }

    pub(crate) fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Route WAL write failures to the deployment's error log (§4.4
    /// log-and-alert); called once the error log exists.
    pub(crate) fn set_error_log(&self, errorlog: Arc<ErrorLog>, dir: Arc<dyn Directory>) {
        *self.error_ctx.lock() = Some((errorlog, dir));
    }

    /// Drop the alert route again (shutdown). It holds the directory, whose
    /// commit observer holds this engine: left in place, that cycle keeps
    /// the whole tree resident after the deployment is gone. WAL failures
    /// are still counted; commits made after shutdown are still logged.
    pub(crate) fn clear_error_log(&self) {
        *self.error_ctx.lock() = None;
    }

    fn wal(&self) -> Arc<Wal> {
        self.wal.lock().clone()
    }

    /// Append a record to the current segment without waiting for
    /// durability — the async half of group commit. The gateway's
    /// after-trigger runs [`Durability::commit_barrier`] on the client
    /// thread before the update call returns, so UM workers never park in
    /// an fsync wait and concurrent commits coalesce into large batches.
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

    /// Write a consistent checkpoint and bound the log: rotate to a new
    /// segment, re-log outage-journal state, export + write the snapshot,
    /// prune generations older than the previous snapshot.
    pub(crate) fn checkpoint(&self, dit: &Dit, devices: &[Device]) -> Result<()> {
        let _only_one = self.checkpoint_lock.lock();
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
            // sequence guard (new segment), and journal events re-reduce.
            let mut w = self.wal.lock();
            let _ = w.sync();
            *w = new_wal;
        }
        self.generation.store(generation, Ordering::SeqCst);
        // Journal state must not depend on pruned history: re-log every
        // device's backlog into the fresh segment. Recovery dedupes by
        // ticket, so events racing this snapshot are harmless.
        for Device { runtime, .. } in devices {
            let (ops, overflowed) = runtime.journal_snapshot();
            self.append(
                TAG_JOURNAL_STATE,
                &encode_journal_state(runtime.name(), overflowed, &ops),
            );
        }
        // Streamed: one entry of LDIF text in memory at a time.
        self.store.write_snapshot_streamed(dit, generation)?;
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
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

    /// Register the `durability` component in `cn=monitor`.
    pub(crate) fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        let comp = registry.component("durability");
        let s = self.wal_stats.clone();
        comp.gauge_callback("walAppends", move || {
            s.appends.load(Ordering::Relaxed) as i64
        });
        let s = self.wal_stats.clone();
        comp.gauge_callback("walBytes", move || s.bytes.load(Ordering::Relaxed) as i64);
        let s = self.wal_stats.clone();
        comp.gauge_callback("walFsyncs", move || s.fsyncs.load(Ordering::Relaxed) as i64);
        let s = self.wal_stats.clone();
        comp.gauge_callback("walWriteErrors", move || {
            s.write_errors.load(Ordering::Relaxed) as i64
        });
        let d = self.clone();
        comp.gauge_callback("walSegmentBytes", move || d.wal().len_bytes() as i64);
        let d = self.clone();
        comp.gauge_callback("generation", move || {
            d.generation.load(Ordering::SeqCst) as i64
        });
        let d = self.clone();
        comp.gauge_callback("snapshots", move || {
            d.snapshots_written.load(Ordering::Relaxed) as i64
        });
        let r = self.report.clone();
        comp.gauge_callback("recoveredSnapshotEntries", move || {
            r.snapshot_entries as i64
        });
        let r = self.report.clone();
        comp.gauge_callback("recoveredWalRecords", move || r.wal_records_applied as i64);
        let r = self.report.clone();
        comp.gauge_callback("recoveredJournalOps", move || r.journal_ops as i64);
        let r = self.report.clone();
        comp.gauge_callback("recoveryReplayMicros", move || r.replay_micros as i64);
    }
}

fn install_error_sink(wal: &Arc<Wal>, ctx: &ErrorCtx) {
    let ctx = ctx.clone();
    wal.set_error_sink(move |msg| {
        if let Some((log, dir)) = ctx.lock().as_ref() {
            log.log(dir.as_ref(), 0, msg, "wal write failure");
        }
    });
}

/// The outage journal mirrors into the log through this sink; callbacks
/// arrive OUTSIDE the runtime's inner lock (see [`JournalSink`]) and
/// recovery reconciles by ticket.
impl JournalSink for Durability {
    fn pushed(&self, device: &str, ticket: u64, op: &TargetOp, dn: Option<&Dn>) {
        let mut buf = Vec::new();
        put_str(&mut buf, device);
        buf.extend_from_slice(&ticket.to_le_bytes());
        put_opt_str(&mut buf, dn.map(|d| d.to_string()).as_deref());
        put_target_op(&mut buf, op);
        self.append(TAG_JOURNAL_PUSH, &buf);
    }

    fn discarded(&self, device: &str, tickets: &[u64]) {
        let mut buf = Vec::new();
        put_str(&mut buf, device);
        buf.extend_from_slice(&(tickets.len() as u32).to_le_bytes());
        for t in tickets {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        self.append(TAG_JOURNAL_DISCARD, &buf);
    }

    fn popped(&self, device: &str, ticket: u64) {
        let mut buf = Vec::new();
        put_str(&mut buf, device);
        buf.extend_from_slice(&ticket.to_le_bytes());
        self.append(TAG_JOURNAL_POP, &buf);
    }

    fn overflowed(&self, device: &str) {
        let mut buf = Vec::new();
        put_str(&mut buf, device);
        self.append(TAG_JOURNAL_OVERFLOW, &buf);
    }

    fn cleared(&self, device: &str, below: u64) {
        let mut buf = Vec::new();
        put_str(&mut buf, device);
        buf.extend_from_slice(&below.to_le_bytes());
        self.append(TAG_JOURNAL_CLEARED, &buf);
    }
}

/// Fold one journal WAL record into the per-device reduction.
fn reduce_journal_event(
    journals: &mut HashMap<String, RecoveredJournal>,
    tag: u8,
    payload: &[u8],
) -> std::result::Result<(), String> {
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let device = r.str()?;
    let j = journals.entry(device).or_default();
    match tag {
        TAG_JOURNAL_PUSH => {
            let ticket = r.u64()?;
            let dn = match r.opt_str()? {
                Some(s) => Some(Dn::parse(&s).map_err(|e| e.to_string())?),
                None => None,
            };
            let op = r.target_op()?;
            j.ops.push((ticket, op, dn));
        }
        TAG_JOURNAL_DISCARD => {
            let n = r.u32()?;
            let mut tickets = Vec::with_capacity(n as usize);
            for _ in 0..n {
                tickets.push(r.u64()?);
            }
            j.ops.retain(|(t, _, _)| !tickets.contains(t));
        }
        TAG_JOURNAL_POP => {
            let ticket = r.u64()?;
            j.ops.retain(|(t, _, _)| *t != ticket);
        }
        TAG_JOURNAL_OVERFLOW => {
            j.ops.clear();
            j.overflowed = true;
        }
        TAG_JOURNAL_CLEARED => {
            // Only ops below the event's ticket high-water are resolved: a
            // push racing an immediate relapse can land in the log ahead of
            // this event, and its (higher) ticket must survive. Records
            // without the mark clear everything, the pre-mark semantics.
            let below = r.u64().unwrap_or(u64::MAX);
            j.ops.retain(|(t, _, _)| *t >= below);
            j.overflowed = false;
        }
        TAG_JOURNAL_STATE => {
            j.overflowed = r.u8()? != 0;
            let n = r.u32()?;
            let mut ops = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let ticket = r.u64()?;
                let dn = match r.opt_str()? {
                    Some(s) => Some(Dn::parse(&s).map_err(|e| e.to_string())?),
                    None => None,
                };
                ops.push((ticket, r.target_op()?, dn));
            }
            j.ops = ops;
        }
        // Unknown tag: a future version's record. Skip, don't fail —
        // forward compatibility matters more than completeness here.
        _ => {}
    }
    Ok(())
}

fn encode_journal_state(
    device: &str,
    overflowed: bool,
    ops: &[(u64, TargetOp, Option<Dn>)],
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, device);
    buf.push(overflowed as u8);
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for (ticket, op, dn) in ops {
        buf.extend_from_slice(&ticket.to_le_bytes());
        put_opt_str(&mut buf, dn.as_ref().map(|d| d.to_string()).as_deref());
        put_target_op(&mut buf, op);
    }
    buf
}

fn ldap_decode_error(what: String) -> ldap::LdapError {
    ldap::LdapError::new(
        ldap::ResultCode::Other,
        format!("journal wal record: {what}"),
    )
}

// --- binary codec -----------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

fn put_image(buf: &mut Vec<u8>, img: &Image) {
    let pairs: Vec<(&str, &[String])> = img.iter().collect();
    buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (name, values) in pairs {
        put_str(buf, name);
        buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in values {
            put_str(buf, v);
        }
    }
}

fn put_target_op(buf: &mut Vec<u8>, op: &TargetOp) {
    buf.push(match op.kind {
        OpKind::Add => 0,
        OpKind::Modify => 1,
        OpKind::Delete => 2,
        OpKind::Skip => 3,
    });
    buf.push(op.conditional as u8);
    put_opt_str(buf, op.old_key.as_deref());
    put_opt_str(buf, op.new_key.as_deref());
    put_image(buf, &op.attrs);
    put_image(buf, &op.old_attrs);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|e| *e <= self.bytes.len());
        let end = end.ok_or_else(|| "truncated record".to_string())?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> std::result::Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> std::result::Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "non-UTF8 string".to_string())
    }

    fn opt_str(&mut self) -> std::result::Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.str()?)),
        }
    }

    fn image(&mut self) -> std::result::Result<Image, String> {
        let n = self.u32()?;
        let mut img = Image::new();
        for _ in 0..n {
            let name = self.str()?;
            let n_values = self.u32()?;
            let mut values = Vec::with_capacity(n_values as usize);
            for _ in 0..n_values {
                values.push(self.str()?);
            }
            img.set(name, values);
        }
        Ok(img)
    }

    fn target_op(&mut self) -> std::result::Result<TargetOp, String> {
        let kind = match self.u8()? {
            0 => OpKind::Add,
            1 => OpKind::Modify,
            2 => OpKind::Delete,
            3 => OpKind::Skip,
            k => return Err(format!("unknown op kind {k}")),
        };
        Ok(TargetOp {
            kind,
            conditional: self.u8()? != 0,
            old_key: self.opt_str()?,
            new_key: self.opt_str()?,
            attrs: self.image()?,
            old_attrs: self.image()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> TargetOp {
        let mut attrs = Image::new();
        attrs.set("ext", vec!["9123".into()]);
        attrs.set("name", vec!["John Doe".into(), "J. Doe".into()]);
        let mut old = Image::new();
        old.set("ext", vec!["9000".into()]);
        TargetOp {
            kind: OpKind::Modify,
            conditional: true,
            old_key: Some("9000".into()),
            new_key: Some("9123".into()),
            attrs,
            old_attrs: old,
        }
    }

    #[test]
    fn target_op_codec_round_trip() {
        let op = sample_op();
        let mut buf = Vec::new();
        put_target_op(&mut buf, &op);
        let mut r = Reader { bytes: &buf, at: 0 };
        let back = r.target_op().unwrap();
        assert_eq!(back, op);
        assert_eq!(r.at, buf.len(), "codec consumes exactly its bytes");
        // Every truncation fails cleanly, never panics.
        for cut in 0..buf.len() {
            let mut r = Reader {
                bytes: &buf[..cut],
                at: 0,
            };
            assert!(r.target_op().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn journal_reduction_push_pop_discard() {
        let mut journals = HashMap::new();
        let dur_push = |journals: &mut HashMap<String, RecoveredJournal>, ticket: u64| {
            let mut buf = Vec::new();
            put_str(&mut buf, "pbx-west");
            buf.extend_from_slice(&ticket.to_le_bytes());
            put_opt_str(&mut buf, Some("cn=J,o=L"));
            put_target_op(&mut buf, &sample_op());
            reduce_journal_event(journals, TAG_JOURNAL_PUSH, &buf).unwrap();
        };
        for t in 1..=4u64 {
            dur_push(&mut journals, t);
        }
        // Discard 2, pop 1.
        let mut buf = Vec::new();
        put_str(&mut buf, "pbx-west");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        reduce_journal_event(&mut journals, TAG_JOURNAL_DISCARD, &buf).unwrap();
        let mut buf = Vec::new();
        put_str(&mut buf, "pbx-west");
        buf.extend_from_slice(&1u64.to_le_bytes());
        reduce_journal_event(&mut journals, TAG_JOURNAL_POP, &buf).unwrap();

        let j = &journals["pbx-west"];
        let tickets: Vec<u64> = j.ops.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(tickets, vec![3, 4]);
        assert!(!j.overflowed);

        // STATE replaces everything.
        let state = encode_journal_state("pbx-west", false, &j.ops[..1]);
        reduce_journal_event(&mut journals, TAG_JOURNAL_STATE, &state).unwrap();
        assert_eq!(journals["pbx-west"].ops.len(), 1);

        // Overflow clears and flags.
        let mut buf = Vec::new();
        put_str(&mut buf, "pbx-west");
        reduce_journal_event(&mut journals, TAG_JOURNAL_OVERFLOW, &buf).unwrap();
        assert!(journals["pbx-west"].ops.is_empty());
        assert!(journals["pbx-west"].overflowed);
    }

    #[test]
    fn cleared_resolves_only_ops_below_its_high_water() {
        let mut journals = HashMap::new();
        let push = |journals: &mut HashMap<String, RecoveredJournal>, ticket: u64| {
            let mut buf = Vec::new();
            put_str(&mut buf, "pbx-east");
            buf.extend_from_slice(&ticket.to_le_bytes());
            put_opt_str(&mut buf, None);
            put_target_op(&mut buf, &sample_op());
            reduce_journal_event(journals, TAG_JOURNAL_PUSH, &buf).unwrap();
        };
        push(&mut journals, 1);
        push(&mut journals, 2);
        // The device relapsed right after draining: op 3 was queued after
        // the Up transition and its pushed event raced ahead of the
        // drain's cleared event into the log.
        push(&mut journals, 3);
        let mut buf = Vec::new();
        put_str(&mut buf, "pbx-east");
        buf.extend_from_slice(&3u64.to_le_bytes());
        reduce_journal_event(&mut journals, TAG_JOURNAL_CLEARED, &buf).unwrap();
        let tickets: Vec<u64> = journals["pbx-east"]
            .ops
            .iter()
            .map(|(t, _, _)| *t)
            .collect();
        assert_eq!(tickets, vec![3], "racing post-clear push survives");

        // A mark-less cleared record (pre-high-water format) clears all.
        let mut buf = Vec::new();
        put_str(&mut buf, "pbx-east");
        reduce_journal_event(&mut journals, TAG_JOURNAL_CLEARED, &buf).unwrap();
        assert!(journals["pbx-east"].ops.is_empty());
    }
}
