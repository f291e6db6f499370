//! Durable snapshots and the DIT side of the binary write-ahead log.
//!
//! Paper §2: "replication and backups are used to handle system and media
//! failure". Two layers live here:
//!
//! 1. **Snapshots** — full LDIF dumps with a `# seq` header recording the
//!    commit sequence they reflect and a `# crc32` footer so a torn or
//!    corrupted file is detected (and an older snapshot used instead). The
//!    write path is crash-safe: tmp file, fsync, atomic rename, fsync of
//!    the parent directory. Writer and reader both stream: neither holds
//!    more than a batch of entries beside the tree. The format is pinned by
//!    the checked-in file `tests/fixtures/figure2.snap.ldif`.
//! 2. **WAL integration** — commits serialized as `[seq][LDIF change]`
//!    frames in a [`crate::wal::Wal`], and the matching replay that sorts
//!    by commit sequence and applies exactly the *committed prefix*: replay
//!    stops at the first gap, because commit observers run outside the
//!    store lock and two racing commits may reach the log out of order —
//!    a missing sequence number means that commit's frame was torn.
//!
//! [`SnapshotStore`] ties the two together into generation-numbered
//! rotation (`snap-NNNNNN.ldif` + `wal-NNNNNN.log`), giving recovery the
//! order the DESIGN doc specifies: newest valid snapshot, then the log.

use crate::dit::{ChangeRecord, Dit};
use crate::entry::Entry;
use crate::error::{LdapError, Result, ResultCode};
use crate::ldif;
use crate::unpoison;
use crate::wal::Crc32;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Snapshot header comment carrying the commit sequence of the export.
const SEQ_PREFIX: &str = "# seq: ";

/// Snapshot footer comment carrying the CRC of everything before it.
const CRC_PREFIX: &str = "# crc32: ";

/// WAL frame tag for a DIT commit (`[seq: u64 LE][LDIF change text]`).
pub const TAG_DIT_CHANGE: u8 = 1;

/// Fsync a directory so a rename inside it is on stable storage (the
/// classic create-fsync-rename-fsyncdir sequence).
fn sync_dir(dir: &Path) -> Result<()> {
    // Directories cannot be opened for writing; a read handle suffices for
    // fsync on the platforms we target.
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Rename a written-and-fsynced tmp file over `path` and fsync the parent
/// directory, so the rename itself is on stable storage.
fn publish(tmp: &Path, path: &Path) -> Result<()> {
    std::fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            sync_dir(parent)?;
        }
    }
    Ok(())
}

fn snapshot_error(path: &Path, what: &str) -> LdapError {
    LdapError::new(
        ResultCode::Other,
        format!("snapshot {}: {what}", path.display()),
    )
}

/// Write a full LDIF snapshot of the DIT: checksummed, fsynced, and
/// atomically renamed into place (a crash leaves either the old file or
/// the new one, never a torn mix).
pub fn snapshot(dit: &Dit, path: &Path) -> Result<()> {
    write_snapshot_stream(dit, path).map(|_seq| ())
}

/// The snapshot writer: the export is streamed entry by entry under one
/// read guard, and header, entries, and checksum footer go through one
/// bounded `BufWriter` with the CRC folded incrementally, so memory stays
/// O(one entry) regardless of DIT size. Crash-safe: the bytes go to a tmp
/// sibling that is fsynced and then [`publish`]ed over `path`. Returns the
/// commit sequence the snapshot reflects.
fn write_snapshot_stream(dit: &Dit, path: &Path) -> Result<u64> {
    use std::fmt::Write as _;
    struct W {
        out: std::io::BufWriter<std::fs::File>,
        crc: Crc32,
        buf: String,
    }
    impl W {
        fn emit_buf(&mut self) -> Result<()> {
            self.crc.update(self.buf.as_bytes());
            self.out.write_all(self.buf.as_bytes())?;
            Ok(())
        }
    }
    let tmp = path.with_extension("tmp");
    let file = std::fs::File::create(&tmp)?;
    let w = std::cell::RefCell::new(W {
        out: std::io::BufWriter::with_capacity(1 << 20, file),
        crc: Crc32::new(),
        buf: String::new(),
    });
    let seq_out = std::cell::Cell::new(0u64);
    dit.export_stream(
        &mut |seq| {
            seq_out.set(seq);
            let mut w = w.borrow_mut();
            w.buf.clear();
            writeln!(w.buf, "{SEQ_PREFIX}{seq}").expect("string write");
            w.emit_buf()
        },
        &mut |e| {
            let mut w = w.borrow_mut();
            w.buf.clear();
            ldif::write_entry(&mut w.buf, e);
            w.buf.push('\n');
            w.emit_buf()
        },
    )?;
    let mut w = w.into_inner();
    let footer = format!("{CRC_PREFIX}{:08x}\n", w.crc.finish());
    w.out.write_all(footer.as_bytes())?;
    let file = w.out.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    drop(file);
    publish(&tmp, path)?;
    Ok(seq_out.get())
}

/// Single-pass snapshot scanner: reads lines through a bounded buffer,
/// folds every byte into the running CRC, and yields whole LDIF blocks at
/// blank-line boundaries. The checksum footer is only ever the *final*
/// line, but that is unknowable mid-stream, so a `# crc32: ` line is held
/// back tentatively: if more content follows it was an interior comment
/// (fold it in and keep going); if EOF follows it is the footer and must
/// verify against everything before it.
struct SnapshotScanner<R: BufRead> {
    r: R,
    crc: Crc32,
    line: String,
    pending_footer: Option<String>,
    block: String,
    /// Commit sequence from the `# seq: ` header, once seen.
    seq: Option<u64>,
    /// EOF was reached and the footer verified; a last block that no blank
    /// line closed (the header of an empty tree's snapshot) may still have
    /// gone out after that.
    verified: bool,
    path: PathBuf,
}

impl<R: BufRead> SnapshotScanner<R> {
    fn new(r: R, path: &Path) -> SnapshotScanner<R> {
        SnapshotScanner {
            r,
            crc: Crc32::new(),
            line: String::new(),
            pending_footer: None,
            block: String::new(),
            seq: None,
            verified: false,
            path: path.to_path_buf(),
        }
    }

    /// The next LDIF block, or `None` at (checksum-verified) EOF.
    fn next_block(&mut self) -> Result<Option<String>> {
        loop {
            self.line.clear();
            if self.r.read_line(&mut self.line)? == 0 {
                if self.verified {
                    return Ok(None);
                }
                let footer = self
                    .pending_footer
                    .take()
                    .ok_or_else(|| snapshot_error(&self.path, "missing checksum footer"))?;
                let want =
                    u32::from_str_radix(footer.trim_end().trim_start_matches(CRC_PREFIX), 16)
                        .map_err(|_| snapshot_error(&self.path, "unparseable checksum footer"))?;
                let got = self.crc.finish();
                if got != want {
                    return Err(snapshot_error(
                        &self.path,
                        &format!("checksum mismatch (stored {want:08x}, computed {got:08x})"),
                    ));
                }
                self.verified = true;
                if self.block.is_empty() {
                    return Ok(None);
                }
                return Ok(Some(std::mem::take(&mut self.block)));
            }
            if let Some(f) = self.pending_footer.take() {
                // Not the final line after all: an interior comment.
                self.crc.update(f.as_bytes());
                self.block.push_str(&f);
            }
            if self.line.starts_with(CRC_PREFIX) {
                self.pending_footer = Some(self.line.clone());
                continue;
            }
            self.crc.update(self.line.as_bytes());
            if self.seq.is_none() {
                if let Some(s) = self.line.strip_prefix(SEQ_PREFIX) {
                    self.seq = s.trim().parse().ok();
                }
            }
            if self.line.trim().is_empty() {
                if !self.block.is_empty() {
                    return Ok(Some(std::mem::take(&mut self.block)));
                }
                continue;
            }
            self.block.push_str(&self.line);
        }
    }
}

/// How many blocks a parse batch carries through the worker channel.
const PARSE_BATCH_BLOCKS: usize = 512;

/// Snapshot load into an empty DIT: a bounded single pass over the file (no
/// whole-file `String`, no all-records `Vec`) on a reader thread, block
/// parsing fanned across `available_parallelism - 1` workers (at least
/// one, at most eight), ordered reassembly, and insertion on this thread in
/// bulk-load mode via [`Dit::bulk_add`] — `trusted` because the CRC footer
/// covers every byte, so the entries were schema-validated when this
/// system first wrote them. A checksum failure surfaces as `Err` *after* a
/// partial load; the caller clears the DIT before it falls back a
/// generation. Returns `(entries loaded, snapshot commit seq)`.
fn load_snapshot_stream(dit: &Dit, path: &Path) -> Result<(usize, u64)> {
    use std::sync::mpsc::sync_channel;
    type Batch = (usize, Vec<String>);
    type Parsed = (usize, Result<Vec<Entry>>);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .clamp(1, 8);
    let file = std::fs::File::open(path)?;
    let mut scanner = SnapshotScanner::new(std::io::BufReader::with_capacity(1 << 20, file), path);
    dit.begin_bulk();
    let res = std::thread::scope(|sc| {
        let (batch_tx, batch_rx) = sync_channel::<Batch>(workers * 2);
        let (parsed_tx, parsed_rx) = sync_channel::<Parsed>(workers * 2);
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        for _ in 0..workers {
            let batch_rx = batch_rx.clone();
            let parsed_tx = parsed_tx.clone();
            sc.spawn(move || loop {
                let msg = unpoison(batch_rx.lock()).recv();
                let Ok((idx, blocks)) = msg else { break };
                let parsed = blocks.iter().try_fold(Vec::<Entry>::new(), |mut acc, b| {
                    // A change record in a snapshot is corruption.
                    let mut es = ldif::parse_content(b)
                        .map_err(|e| snapshot_error(path, &format!("bad content block: {e}")))?;
                    // Share ancestor names down the batch, so that the load
                    // holds one copy a batch until the bulk window closes
                    // and the tree links each name to its parent entry's.
                    for e in &mut es {
                        if let Some(prev) = acc.last() {
                            ldif::share_with_neighbour(e, prev);
                        }
                    }
                    acc.append(&mut es);
                    Ok(acc)
                });
                if parsed_tx.send((idx, parsed)).is_err() {
                    break;
                }
            });
        }
        drop(parsed_tx);
        // Reader: scan + CRC on its own thread; returns the verify outcome
        // and the header seq.
        let reader = sc.spawn(move || {
            let read = (|| -> Result<()> {
                let (mut batch, mut idx) = (Vec::with_capacity(PARSE_BATCH_BLOCKS), 0);
                while let Some(block) = scanner.next_block()? {
                    batch.push(block);
                    if batch.len() == PARSE_BATCH_BLOCKS {
                        if batch_tx.send((idx, std::mem::take(&mut batch))).is_err() {
                            return Ok(()); // the inserter bailed out
                        }
                        idx += 1;
                    }
                }
                if !batch.is_empty() {
                    let _ = batch_tx.send((idx, batch));
                }
                Ok(())
            })();
            (read, scanner.seq)
        });
        // Inserter (this thread): reassemble batches in file order —
        // parents must land before their children — and bulk-insert.
        let inserted = (|| -> Result<usize> {
            let mut pending = std::collections::BTreeMap::new();
            let (mut next, mut n) = (0, 0);
            for (idx, res) in parsed_rx.iter() {
                pending.insert(idx, res);
                while let Some(res) = pending.remove(&next) {
                    next += 1;
                    for e in res? {
                        dit.bulk_add(e, true)?;
                        n += 1;
                    }
                }
            }
            Ok(n)
        })();
        drop(parsed_rx); // bail-out path: unblock workers, then the reader
        let (read_res, seq) = reader.join().expect("snapshot reader thread");
        let n = inserted?;
        read_res?;
        Ok((n, seq.unwrap_or(0)))
    });
    dit.finish_bulk();
    res
}

/// Load one snapshot file into an empty DIT; the checksum footer must be
/// present and verify. Returns the number of entries loaded.
pub fn restore_snapshot(dit: &Dit, path: &Path) -> Result<usize> {
    load_snapshot_stream(dit, path).map(|(n, _seq)| n)
}

fn apply(dit: &Dit, r: ldif::Record) -> Result<()> {
    match r {
        ldif::Record::Content(e) | ldif::Record::Add(e) => dit.add(e),
        ldif::Record::Delete(dn) => dit.delete(&dn),
        ldif::Record::Modify(dn, mods) => dit.modify(&dn, &mods),
        ldif::Record::ModRdn {
            dn,
            new_rdn,
            delete_old,
            new_superior,
        } => dit.modify_rdn(&dn, &new_rdn, delete_old, new_superior.as_ref()),
    }
}

// ---------------------------------------------------------------------------
// WAL integration
// ---------------------------------------------------------------------------

/// Serialize a commit observation as a WAL payload: `[seq: u64 LE][LDIF]`.
pub fn wal_payload(rec: &ChangeRecord) -> Vec<u8> {
    // One buffer for the whole payload: eight NULs keep the sequence
    // number's place while the text is written behind them.
    let mut text = String::with_capacity(WAL_PAYLOAD_HINT);
    text.push_str("\0\0\0\0\0\0\0\0");
    ldif::write_change(&mut text, rec);
    let mut buf = text.into_bytes();
    buf[..8].copy_from_slice(&rec.seq.to_le_bytes());
    buf
}

/// Room a payload starts with: a person's add record is about 300 bytes.
const WAL_PAYLOAD_HINT: usize = 512;

/// Decode a [`TAG_DIT_CHANGE`] payload back into `(seq, ldif text)`.
pub fn decode_wal_payload(payload: &[u8]) -> Result<(u64, &str)> {
    if payload.len() < 8 {
        return Err(LdapError::new(
            ResultCode::Other,
            "short DIT wal record".to_string(),
        ));
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let text = std::str::from_utf8(&payload[8..])
        .map_err(|e| LdapError::new(ResultCode::Other, format!("non-UTF8 DIT wal record: {e}")))?;
    Ok((seq, text))
}

/// Outcome of replaying collected DIT WAL records over a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DitReplay {
    /// Change records applied.
    pub applied: usize,
    /// Records skipped because the snapshot already covered them.
    pub skipped: usize,
    /// Records discarded past a sequence gap (a racing commit's frame was
    /// torn; everything after it is not part of the committed prefix).
    pub discarded: usize,
    /// Highest commit sequence now reflected in the DIT.
    pub max_seq: u64,
}

/// Apply collected `(seq, ldif)` WAL records over a DIT restored from a
/// snapshot at commit sequence `snap_seq`.
///
/// Commit observers run outside the store lock, so two racing commits may
/// have reached the log out of sequence order: records are sorted by
/// commit sequence first. Records the snapshot already covers are skipped;
/// application stops at the first *gap* in the sequence (the missing
/// commit's frame was torn mid-write, so later records may depend on state
/// that was never made durable). Afterwards the DIT's own commit counter is
/// fast-forwarded so new commits continue the original numbering.
pub fn apply_wal_records(
    dit: &Dit,
    mut records: Vec<(u64, String)>,
    snap_seq: u64,
) -> Result<DitReplay> {
    records.sort_by_key(|(seq, _)| *seq);
    let mut out = DitReplay {
        max_seq: snap_seq,
        ..DitReplay::default()
    };
    let mut expected = snap_seq + 1;
    for (i, (seq, text)) in records.iter().enumerate() {
        if *seq <= snap_seq {
            out.skipped += 1;
            continue;
        }
        if *seq != expected {
            out.discarded = records.len() - i;
            break;
        }
        for r in ldif::parse(text)? {
            apply(dit, r)?;
        }
        out.applied += 1;
        out.max_seq = *seq;
        expected += 1;
    }
    dit.set_seq(out.max_seq);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Generation-numbered snapshot + WAL rotation
// ---------------------------------------------------------------------------

/// Names and rotates the durable files of one deployment directory:
/// `snap-NNNNNN.ldif` snapshots and the matching `wal-NNNNNN.log` segments.
/// Recovery picks the newest snapshot that verifies (falling back one
/// generation on a torn footer) and replays every log segment over it;
/// checkpointing opens generation N+1 and prunes everything older than N.
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore { dir: dir.into() }
    }

    pub fn snapshot_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snap-{generation:06}.ldif"))
    }

    pub fn wal_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("wal-{generation:06}.log"))
    }

    fn generations_of(&self, prefix: &str, suffix: &str) -> Vec<u64> {
        let mut out = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(mid) = name
                    .strip_prefix(prefix)
                    .and_then(|r| r.strip_suffix(suffix))
                {
                    if let Ok(n) = mid.parse() {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Snapshot generations on disk, ascending.
    pub fn snapshot_generations(&self) -> Vec<u64> {
        self.generations_of("snap-", ".ldif")
    }

    /// WAL segment generations on disk, ascending.
    pub fn wal_generations(&self) -> Vec<u64> {
        self.generations_of("wal-", ".log")
    }

    /// The newest generation present in any form (0 when the directory is
    /// fresh).
    pub fn latest_generation(&self) -> u64 {
        self.snapshot_generations()
            .last()
            .copied()
            .unwrap_or(0)
            .max(self.wal_generations().last().copied().unwrap_or(0))
    }

    /// Write the snapshot for `generation` straight off the DIT; returns
    /// the commit sequence the snapshot reflects.
    pub fn write_snapshot_streamed(&self, dit: &Dit, generation: u64) -> Result<u64> {
        write_snapshot_stream(dit, &self.snapshot_path(generation))
    }

    /// Restore the newest snapshot that verifies into an empty DIT.
    /// Returns `(generation, snapshot seq, entries loaded)`; a snapshot
    /// with a torn or corrupt footer is skipped in favor of the previous
    /// generation (and the DIT is cleared of the partial load, commit
    /// counter included).
    pub fn restore_latest(&self, dit: &Dit) -> Result<Option<(u64, u64, usize)>> {
        for generation in self.snapshot_generations().into_iter().rev() {
            match load_snapshot_stream(dit, &self.snapshot_path(generation)) {
                Ok((n, seq)) => return Ok(Some((generation, seq, n))),
                Err(_) => dit.clear(),
            }
        }
        Ok(None)
    }

    /// Remove snapshots and WAL segments older than `keep_from`.
    pub fn prune_below(&self, keep_from: u64) {
        for generation in self.snapshot_generations() {
            if generation < keep_from {
                let _ = std::fs::remove_file(self.snapshot_path(generation));
            }
        }
        for generation in self.wal_generations() {
            if generation < keep_from {
                let _ = std::fs::remove_file(self.wal_path(generation));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::figure2_tree;
    use crate::dn::{Dn, Rdn};
    use crate::entry::Modification;
    use crate::wal::tests::Scratch;
    use crate::wal::{crc32, FsyncPolicy, Wal};

    fn tmpdir(name: &str) -> Scratch {
        Scratch::new(&format!("backup-{name}"))
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmpdir("snap");
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let path = dir.join("dit.ldif");
        snapshot(&dit, &path).unwrap();
        let restored = Dit::new();
        let n = restore_snapshot(&restored, &path).unwrap();
        assert_eq!(n, 9);
        assert_eq!(restored.export().len(), dit.export().len());
        for e in dit.export() {
            assert_eq!(restored.get(e.dn()).as_ref(), Some(&e));
        }
    }

    #[test]
    fn empty_tree_snapshot_round_trips() {
        let dir = tmpdir("snapempty");
        let path = dir.join("dit.ldif");
        snapshot(&Dit::new(), &path).unwrap();
        let restored = Dit::new();
        assert_eq!(restore_snapshot(&restored, &path).unwrap(), 0);
        assert!(restored.is_empty());
    }

    #[test]
    fn snapshot_footer_detects_corruption() {
        let dir = tmpdir("snapcrc");
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let path = dir.join("dit.ldif");
        snapshot(&dit, &path).unwrap();
        // Corrupt one byte in the body: restore must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let restored = Dit::new();
        assert!(restore_snapshot(&restored, &path).is_err());
    }

    #[test]
    fn snapshot_without_footer_is_refused() {
        let dir = tmpdir("snapnofooter");
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let path = dir.join("dit.ldif");
        std::fs::write(&path, ldif::to_ldif(&dit.export())).unwrap();
        let err = restore_snapshot(&Dit::new(), &path).unwrap_err();
        assert!(err.message.contains("missing checksum footer"), "{err}");
    }

    fn collect_dit_records(path: &Path) -> Vec<(u64, String)> {
        let mut records = Vec::new();
        crate::wal::replay(path, |tag, payload| {
            assert_eq!(tag, TAG_DIT_CHANGE);
            let (seq, text) = decode_wal_payload(payload)?;
            records.push((seq, text.to_string()));
            Ok(())
        })
        .unwrap();
        records
    }

    #[test]
    fn wal_attach_replay_round_trip() {
        let dir = tmpdir("walrt");
        let path = dir.join("wal-000001.log");
        let dit = Dit::new();
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        dit.observe(move |rec| drop(wal.append(TAG_DIT_CHANGE, &wal_payload(rec))));
        figure2_tree(&dit).unwrap();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("telephoneNumber", "9123")])
            .unwrap();
        dit.modify_rdn(&john, &Rdn::new("cn", "Jack Doe"), true, None)
            .unwrap();
        dit.delete(&Dn::parse("cn=Pat Smith,o=Marketing,o=Lucent").unwrap())
            .unwrap();

        let recovered = Dit::new();
        let replay = apply_wal_records(&recovered, collect_dit_records(&path), 0).unwrap();
        assert_eq!(replay.applied, 12);
        assert_eq!(replay.discarded, 0);
        assert_eq!(replay.max_seq, 12);
        assert_eq!(recovered.seq(), dit.seq());
        assert_eq!(
            ldif::to_ldif(&recovered.export()),
            ldif::to_ldif(&dit.export()),
            "recovered export must be bit-for-bit equal"
        );
    }

    #[test]
    fn a_dn_holding_a_line_break_comes_back_as_itself() {
        // RFC 4514 hex escapes put line breaks into names; on a plain
        // `dn:` line the text after one read back as a line of its own.
        let dir = tmpdir("linebreak");
        let store = SnapshotStore::new(&*dir);
        let dit = Dit::new();
        let wal = Wal::open(&store.wal_path(1), FsyncPolicy::Never).unwrap();
        dit.observe(move |rec| drop(wal.append(TAG_DIT_CHANGE, &wal_payload(rec))));
        let attrs = |class: &str, name: &str, value: &str| {
            let dn = Dn::parse(&format!("{name}={value},o=Lucent")).unwrap();
            let held = dn.rdn().unwrap().first().value().to_string();
            Entry::with_attrs(dn, [("objectClass", class), (name, held.as_str())])
        };
        dit.add(Entry::with_attrs(
            Dn::parse("o=Lucent").unwrap(),
            [("o", "Lucent")],
        ))
        .unwrap();
        let unit = attrs("organizationalUnit", "ou", r"x\0Ay");
        let person = attrs("person", "cn", r"a\0Ab");
        for e in [&unit, &person] {
            dit.add(e.clone()).unwrap();
        }
        let new_rdn = Rdn::parse(r"cn=c\0D").unwrap();
        dit.modify_rdn(person.dn(), &new_rdn, true, Some(unit.dn()))
            .unwrap();
        store.write_snapshot_streamed(&dit, 1).unwrap();
        let export = ldif::to_ldif(&dit.export());

        let restored = Dit::new();
        assert_eq!(store.restore_latest(&restored).unwrap(), Some((1, 4, 3)));
        assert_eq!(ldif::to_ldif(&restored.export()), export);
        let replayed = Dit::new();
        let records = collect_dit_records(&store.wal_path(1));
        assert_eq!(apply_wal_records(&replayed, records, 0).unwrap().applied, 4);
        assert_eq!(ldif::to_ldif(&replayed.export()), export);
    }

    #[test]
    fn wal_replay_skips_records_covered_by_snapshot() {
        let dir = tmpdir("walskip");
        let path = dir.join("wal-000001.log");
        let dit = Dit::new();
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        dit.observe(move |rec| drop(wal.append(TAG_DIT_CHANGE, &wal_payload(rec))));
        figure2_tree(&dit).unwrap(); // seq 1..=9 in the wal
        let store = SnapshotStore::new(&*dir);
        store.write_snapshot_streamed(&dit, 1).unwrap();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("roomNumber", "9Z")])
            .unwrap(); // seq 10

        let recovered = Dit::new();
        let (generation, seq, n) = store.restore_latest(&recovered).unwrap().unwrap();
        assert_eq!((generation, seq, n), (1, 9, 9));
        recovered.set_seq(seq);
        let replay = apply_wal_records(&recovered, collect_dit_records(&path), seq).unwrap();
        assert_eq!(replay.skipped, 9);
        assert_eq!(replay.applied, 1);
        assert_eq!(
            recovered
                .get(&Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap())
                .unwrap()
                .first("roomNumber"),
            Some("9Z")
        );
    }

    #[test]
    fn wal_replay_stops_at_sequence_gap() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let mut records = Vec::new();
        let capture: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let c = capture.clone();
            dit.observe(move |rec| {
                let payload = wal_payload(rec);
                let (seq, text) = decode_wal_payload(&payload).unwrap();
                c.lock().unwrap().push((seq, text.to_string()));
            });
        }
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("roomNumber", "1")])
            .unwrap(); // seq 10
        dit.modify(&john, &[Modification::set("roomNumber", "2")])
            .unwrap(); // seq 11
        dit.modify(&john, &[Modification::set("roomNumber", "3")])
            .unwrap(); // seq 12
        records.extend(capture.lock().unwrap().iter().cloned());
        // Simulate a torn frame for seq 11: drop it (later records survive
        // in the file but are not part of the committed prefix).
        records.retain(|(seq, _)| *seq != 11);

        // Rebuild a base dit equal to the figure2 tree.
        let recovered = Dit::new();
        figure2_tree(&recovered).unwrap();
        let replay = apply_wal_records(&recovered, records, 9).unwrap();
        assert_eq!(replay.applied, 1, "only seq 10 applies");
        assert_eq!(replay.discarded, 1, "seq 12 is past the gap");
        assert_eq!(replay.max_seq, 10);
        assert_eq!(
            recovered
                .get(&Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap())
                .unwrap()
                .first("roomNumber"),
            Some("1")
        );
    }

    #[test]
    fn streaming_restore_detects_corruption_and_clears() {
        let dir = tmpdir("streamcrc");
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let store = SnapshotStore::new(&*dir);
        let seq = store.write_snapshot_streamed(&dit, 1).unwrap();
        assert_eq!(seq, 9);
        // Corrupt one body byte: the only generation fails, recovery finds
        // nothing, and the partially loaded DIT is cleared.
        let path = store.snapshot_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let restored = Dit::new();
        assert!(store.restore_latest(&restored).unwrap().is_none());
        assert!(restored.is_empty());
    }

    #[test]
    fn streaming_restore_handles_interior_footer_lookalike() {
        // An entry value that base64-decodes is not at risk, but a raw
        // comment line matching the footer prefix mid-file must be treated
        // as content, not a footer. Hand-build such a snapshot with a
        // correct CRC over everything before the real footer.
        let dir = tmpdir("streamdecoy");
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let mut text = format!("{SEQ_PREFIX}{}\n", dit.seq());
        text.push_str("# crc32: deadbeef\n"); // interior lookalike comment
        text.push_str(&ldif::to_ldif(&dit.export()));
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("{CRC_PREFIX}{crc:08x}\n"));
        let store = SnapshotStore::new(&*dir);
        std::fs::write(store.snapshot_path(1), &text).unwrap();
        let restored = Dit::new();
        let (generation, got_seq, n) = store.restore_latest(&restored).unwrap().unwrap();
        assert_eq!((generation, got_seq, n), (1, 9, 9));
        assert_eq!(restored.export(), dit.export());
    }

    #[test]
    fn snapshot_store_falls_back_on_torn_generation() {
        let dir = tmpdir("rotation");
        let store = SnapshotStore::new(&*dir);
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        store.write_snapshot_streamed(&dit, 1).unwrap();
        let tail: Arc<Mutex<Vec<(u64, String)>>> = Arc::default();
        {
            let tail = tail.clone();
            dit.observe(move |rec| {
                let payload = wal_payload(rec);
                let (seq, text) = decode_wal_payload(&payload).unwrap();
                tail.lock().unwrap().push((seq, text.to_string()));
            });
        }
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("roomNumber", "X")])
            .unwrap();
        // Enough entries that half of generation 2 is more than one parse
        // batch: the loader has inserted some before it meets the tear.
        let den = Dn::parse("o=DEN Group,o=Lucent").unwrap();
        for i in 0..3 * PARSE_BATCH_BLOCKS {
            let cn = format!("Filler {i}");
            let attrs = [("objectClass", "person"), ("cn", &cn), ("sn", "Filler")];
            dit.add(Entry::with_attrs(den.child(Rdn::new("cn", &cn)), attrs))
                .unwrap();
        }
        store.write_snapshot_streamed(&dit, 2).unwrap();
        // Tear generation 2 (truncate mid-file): recovery must fall back.
        let snap2 = store.snapshot_path(2);
        let bytes = std::fs::read(&snap2).unwrap();
        std::fs::write(&snap2, &bytes[..bytes.len() / 2]).unwrap();
        let recovered = Dit::new();
        let (generation, snap_seq, n) = store.restore_latest(&recovered).unwrap().unwrap();
        assert_eq!(generation, 1, "torn generation 2 skipped");
        assert_eq!(snap_seq, 9);
        assert_eq!(n, 9);
        // The entries counted while loading the torn generation are gone
        // from the commit counter: it ends at the last replayed commit.
        let replay = apply_wal_records(&recovered, tail.lock().unwrap().clone(), snap_seq).unwrap();
        assert_eq!(replay.applied, 1 + 3 * PARSE_BATCH_BLOCKS);
        assert_eq!(recovered.seq(), snap_seq + replay.applied as u64);
        assert_eq!(recovered.seq(), dit.seq());
        // Pruning below the latest keeps only generation 2's files.
        store.prune_below(2);
        assert_eq!(store.snapshot_generations(), vec![2]);
    }
}
