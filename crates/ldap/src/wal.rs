//! A binary write-ahead log with group commit.
//!
//! Paper §2: "replication and backups are used to handle system and media
//! failure". Records are length-prefixed and CRC-framed so a crash
//! mid-write tears at a record boundary, and an fsync batcher coalesces
//! concurrent commits so the pipelined update path keeps its throughput
//! while every acknowledged commit is durable. [`crate::backup`] puts the
//! DIT's commits into it.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [tag: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the tag byte plus the payload; `crc32` (IEEE) covers the
//! same bytes. Replay stops at the first frame that is short, zero-length,
//! absurdly long, or fails its checksum — everything before it is the
//! *committed prefix*, everything after is discarded as torn.
//!
//! ## Group commit
//!
//! [`FsyncPolicy::Group`] elects a *leader* among concurrent committers:
//! appenders write their frame under the file lock (cheap — page cache),
//! then wait for the log to be durable past their own frame. The first
//! waiter to find no fsync in flight becomes the leader, syncs once, and
//! wakes everyone whose frame that sync covered. While a sync is in flight,
//! later appenders keep writing; the next leader's single fsync covers the
//! whole batch. One fsync per *batch* instead of one per commit — the
//! classical group-commit protocol.

use crate::error::Result;
use crate::unpoison;
use obs::{Component, Counter};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

/// Frames longer than this are treated as corruption at replay.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// When (and how) appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Leader-elected batch fsync: every append is durable before it
    /// returns, but concurrent commits share one fsync (see module docs).
    #[default]
    Group,
    /// Never fsync: appended records survive a process crash (the OS holds
    /// them) but not a machine crash. For runs whose cost under study is
    /// not fsync latency.
    Never,
}

/// The log's counters: handles on the `durability` component it owns
/// ([`WalStats::component`]) until a deployment adopts it into its
/// registry. One `WalStats` serves a deployment's successive segments, so
/// the counts are cumulative across rotations.
pub struct WalStats {
    component: Arc<Component>,
    /// Frames appended.
    pub appends: Arc<Counter>,
    /// Bytes appended (frames, including headers).
    pub bytes: Arc<Counter>,
    /// fsync calls actually issued. `appends / fsyncs` is the group-commit
    /// coalescing factor.
    pub fsyncs: Arc<Counter>,
    /// Append or fsync failures (degraded durability, surfaced via the
    /// error sink).
    pub write_errors: Arc<Counter>,
}

impl Default for WalStats {
    fn default() -> WalStats {
        let c = Component::new("durability");
        WalStats {
            appends: c.counter("walAppends"),
            bytes: c.counter("walBytes"),
            fsyncs: c.counter("walFsyncs"),
            write_errors: c.counter("walWriteErrors"),
            component: c,
        }
    }
}

impl WalStats {
    /// The `durability` component these counters are registered in.
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }
}

struct WalFile {
    f: File,
    /// Logical bytes appended since open (durability targets).
    written: u64,
}

struct SyncState {
    /// Everything up to this write offset is known durable.
    durable: u64,
    /// A leader's fsync is in flight.
    in_flight: bool,
}

type ErrorSink = Box<dyn Fn(&str) + Send + Sync>;

/// An append-only write-ahead log. Cheap to share (`Arc`); every public
/// method takes `&self`.
pub struct Wal {
    path: PathBuf,
    policy: FsyncPolicy,
    file: Mutex<WalFile>,
    /// Second handle to the same descriptor so the leader's fsync does not
    /// block followers' appends.
    sync_file: File,
    sync: Mutex<SyncState>,
    sync_cv: Condvar,
    stats: Arc<WalStats>,
    on_error: Mutex<Option<ErrorSink>>,
}

impl Wal {
    /// Open (or create) the log at `path`, appending after any committed
    /// prefix already present.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Arc<Wal>> {
        Wal::open_with_stats(path, policy, Arc::new(WalStats::default()))
    }

    /// Like [`Wal::open`], but accounting into an existing [`WalStats`] —
    /// used by segment rotation so counters stay cumulative across the
    /// deployment's successive log files.
    pub fn open_with_stats(
        path: &Path,
        policy: FsyncPolicy,
        stats: Arc<WalStats>,
    ) -> Result<Arc<Wal>> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let len = f.seek(SeekFrom::End(0))?;
        let sync_file = f.try_clone()?;
        Ok(Arc::new(Wal {
            path: path.to_path_buf(),
            policy,
            file: Mutex::new(WalFile { f, written: len }),
            sync_file,
            sync: Mutex::new(SyncState {
                durable: len,
                in_flight: false,
            }),
            sync_cv: Condvar::new(),
            stats,
            on_error: Mutex::new(None),
        }))
    }

    pub fn stats(&self) -> &Arc<WalStats> {
        &self.stats
    }

    /// Bytes appended since open (close to the file size; exposed as a
    /// gauge).
    pub fn len_bytes(&self) -> u64 {
        unpoison(self.file.lock()).written
    }

    /// Install the write-failure sink (§4.4 log-and-alert). At most one;
    /// later calls replace it.
    pub fn set_error_sink(&self, f: impl Fn(&str) + Send + Sync + 'static) {
        *unpoison(self.on_error.lock()) = Some(Box::new(f));
    }

    /// Count a write failure and alert through the sink. Never called with
    /// the file lock held: the sink may log through the directory, whose
    /// synchronous commit observer appends to this same WAL on this same
    /// thread. For the same reason a thread-local guard suppresses the
    /// nested alert when that observer append fails too — the failure is
    /// still counted, but the sink is not re-entered (which would recurse
    /// until the disk came back, or deadlock on the sink lock).
    fn report_error(&self, what: &str, e: &std::io::Error) {
        thread_local! {
            static IN_SINK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        if IN_SINK.with(|f| f.replace(true)) {
            return;
        }
        if let Some(sink) = unpoison(self.on_error.lock()).as_ref() {
            sink(&format!(
                "wal {what} failed on {}: {e}",
                self.path.display()
            ));
        }
        IN_SINK.with(|f| f.set(false));
    }

    /// Append one record. When this returns `Ok` under
    /// [`FsyncPolicy::Group`], the record is on stable storage.
    pub fn append(&self, tag: u8, payload: &[u8]) -> Result<()> {
        self.append_inner(tag, payload, true)
    }

    /// Append one record without waiting for durability under
    /// [`FsyncPolicy::Group`] — the async half of group commit. The caller
    /// must reach a [`Wal::sync`] barrier before acknowledging whatever the
    /// record represents; until then the record is in the page cache only.
    pub fn append_nowait(&self, tag: u8, payload: &[u8]) -> Result<()> {
        self.append_inner(tag, payload, false)
    }

    fn append_inner(&self, tag: u8, payload: &[u8], wait: bool) -> Result<()> {
        // The frame is built in the one buffer that is written: the header
        // is left blank until the body behind it is there to checksum.
        let mut frame = Vec::with_capacity(9 + payload.len());
        frame.extend_from_slice(&[0; 8]);
        frame.push(tag);
        frame.extend_from_slice(payload);
        let len = (payload.len() + 1) as u32;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());

        // Errors are reported only after the file lock is dropped: the
        // error sink may append to this WAL from the same thread (see
        // `report_error`), and the lock is not re-entrant.
        let outcome = {
            let mut g = unpoison(self.file.lock());
            g.f.write_all(&frame).map(|()| {
                g.written += frame.len() as u64;
                g.written
            })
        };
        let target = outcome.inspect_err(|e| self.report_error("append", e))?;
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        match self.policy {
            FsyncPolicy::Group if wait => self.ensure_durable(target),
            FsyncPolicy::Group | FsyncPolicy::Never => Ok(()),
        }
    }

    /// Block until the log is durable at least through `target` (group
    /// commit: the first waiter with no sync in flight leads).
    fn ensure_durable(&self, target: u64) -> Result<()> {
        // A follower waits out the sync in flight, which may cover it.
        let following = |st: &mut SyncState| st.in_flight && st.durable < target;
        let mut st = unpoison(self.sync.lock());
        loop {
            st = unpoison(self.sync_cv.wait_while(st, following));
            if st.durable >= target {
                return Ok(());
            }
            st.in_flight = true;
            drop(st);
            // Brief leader pause before the sync (MySQL's
            // binlog_group_commit_sync_delay, here just scheduler yields):
            // on a loaded box this lets runnable committers finish their
            // append and join this batch; on an idle one it costs ~nothing.
            std::thread::yield_now();
            std::thread::yield_now();
            // Everything written before this read is in the page cache, so
            // one sync covers the whole batch — including followers that
            // appended while the previous leader was syncing.
            let upto = unpoison(self.file.lock()).written;
            let res = self.sync_file.sync_data();
            st = unpoison(self.sync.lock());
            st.in_flight = false;
            match res {
                Ok(()) => {
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    st.durable = st.durable.max(upto);
                    self.sync_cv.notify_all();
                }
                Err(e) => {
                    self.sync_cv.notify_all();
                    drop(st);
                    self.report_error("fsync", &e);
                    return Err(e.into());
                }
            }
        }
    }

    /// Force everything appended so far to stable storage (used at
    /// checkpoint boundaries regardless of policy).
    pub fn sync(&self) -> Result<()> {
        let upto = unpoison(self.file.lock()).written;
        match self.policy {
            FsyncPolicy::Group => self.ensure_durable(upto),
            FsyncPolicy::Never => {
                self.sync_file
                    .sync_data()
                    .inspect_err(|e| self.report_error("fsync", e))?;
                self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }
}

/// Summary of one [`replay`] pass.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    /// Complete, checksum-valid frames delivered to the callback.
    pub records: usize,
    /// Bytes consumed by those frames.
    pub bytes: u64,
    /// A torn or corrupt frame stopped the scan before end-of-file.
    pub torn: bool,
}

/// Scan a log file, delivering every frame of the committed prefix to
/// `visit(tag, payload)`. Stops (without error) at the first torn or
/// corrupt frame; a callback error aborts the scan and propagates.
///
/// The file is read through a bounded buffer, one frame resident at a
/// time: replaying a segment costs its largest frame, not its length.
pub fn replay(
    path: &Path,
    mut visit: impl FnMut(u8, &[u8]) -> Result<()>,
) -> Result<ReplaySummary> {
    let mut summary = ReplaySummary::default();
    let f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(summary),
        Err(e) => return Err(e.into()),
    };
    // What is on disk now bounds every frame: a length field that points
    // past it is a torn tail, found without allocating for it.
    let mut remaining = f.metadata()?.len();
    let mut r = std::io::BufReader::with_capacity(REPLAY_BUFFER, f);
    let mut body = Vec::new();
    while remaining > 0 {
        let mut header = [0u8; 8];
        if remaining < 8 || !read_part(&mut r, &mut header)? {
            summary.torn = true; // trailing partial header
            break;
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME || u64::from(len) > remaining - 8 {
            summary.torn = true; // absurd length, or short final frame: crash mid-append
            break;
        }
        body.resize(len as usize, 0);
        if !read_part(&mut r, &mut body)? || crc32(&body) != crc {
            summary.torn = true;
            break;
        }
        visit(body[0], &body[1..])?;
        summary.records += 1;
        summary.bytes += 8 + u64::from(len);
        remaining -= 8 + u64::from(len);
    }
    Ok(summary)
}

/// Read buffer of [`replay`].
const REPLAY_BUFFER: usize = 64 * 1024;

/// Fill `buf`; `false` when the file ends first (it was cut while being
/// read), which replay treats like any other torn tail.
fn read_part(r: &mut impl Read, buf: &mut [u8]) -> Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Incremental IEEE CRC-32 (table-driven, no external dependency): feed
/// chunks with [`Crc32::update`] and read the digest with
/// [`Crc32::finish`]. The streaming snapshot writer/reader in
/// [`crate::backup`] checksums files it never holds in memory at once.
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Eight bytes a step (slice-by-8): one table lookup per byte, all
    /// eight independent of each other, then the tail a byte at a time.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let at = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][at(lo, 0)]
                ^ t[6][at(lo, 8)]
                ^ t[5][at(lo, 16)]
                ^ t[4][at(lo, 24)]
                ^ t[3][at(hi, 0)]
                ^ t[2][at(hi, 8)]
                ^ t[1][at(hi, 16)]
                ^ t[0][at(hi, 24)];
        }
        for &b in words.remainder() {
            c = t[0][at(c ^ u32::from(b), 0)] ^ (c >> 8);
        }
        self.state = c;
    }

    pub(crate) fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The slice-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// bytewise table of the reflected polynomial `0xEDB88320`, and
/// `CRC_TABLES[k][b]` advances `CRC_TABLES[k - 1][b]` over one more zero
/// byte.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// IEEE CRC-32 over `bytes` in one call. Also used by snapshot footers in
/// [`crate::backup`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A scratch directory under the system temp dir, removed with what it
    /// holds when dropped, so a test run leaves none behind.
    pub(crate) struct Scratch(PathBuf);

    impl Scratch {
        /// `metacomm-<name>-<pid>`, made empty.
        pub(crate) fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("metacomm-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            Scratch(dir)
        }
    }

    impl std::ops::Deref for Scratch {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(name: &str) -> Scratch {
        Scratch::new(&format!("wal-{name}"))
    }

    fn collect(path: &Path) -> (Vec<(u8, Vec<u8>)>, ReplaySummary) {
        let mut out = Vec::new();
        let s = replay(path, |tag, payload| {
            out.push((tag, payload.to_vec()));
            Ok(())
        })
        .unwrap();
        (out, s)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The CRC a byte at a time, straight from the polynomial: what the
    /// table-driven one must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Any bytes, from any offset (so the eight-byte steps fall at
        /// every alignment), fed whole or in two chunks cut anywhere.
        #[test]
        fn crc32_agrees_with_the_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            offset in 0usize..16,
            cut in 0usize..300,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            let expected = crc32_bitwise(data);
            proptest::prop_assert_eq!(crc32(data), expected);
            let (head, tail) = data.split_at(cut.min(data.len()));
            let mut c = Crc32::new();
            c.update(head);
            c.update(tail);
            proptest::prop_assert_eq!(c.finish(), expected);
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Group).unwrap();
        wal.append(1, b"first").unwrap();
        wal.append(2, b"").unwrap();
        wal.append(7, b"a longer record with some bytes in it")
            .unwrap();
        let (records, s) = collect(&path);
        assert_eq!(s.records, 3);
        assert!(!s.torn);
        assert_eq!(records[0], (1, b"first".to_vec()));
        assert_eq!(records[1], (2, Vec::new()));
        assert_eq!(records[2].0, 7);
        assert_eq!(wal.stats().appends.load(Ordering::Relaxed), 3);
        assert!(wal.stats().fsyncs.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn a_dit_change_frame_is_len_crc_tag_payload_and_replays_to_its_record() {
        use crate::backup::{decode_wal_payload, wal_payload, TAG_DIT_CHANGE};
        use crate::dit::{ChangeOp, ChangeRecord};
        use crate::dn::{Dn, Rdn};
        use crate::entry::{Entry, Modification};
        use crate::ldif::{self, Record};

        let dn = Dn::parse("cn=John Doe,o=Lucent").unwrap();
        let john = Entry::with_attrs(
            dn.clone(),
            [("objectClass", "person"), ("cn", "John Doe"), ("sn", "Doe")],
        );
        let mods = vec![
            Modification::set("sn", "Dvořák"),
            Modification::delete_attr("mail"),
        ];
        let (new_rdn, sup) = (Rdn::new("cn", "Jack Doe"), Dn::parse("o=R&D").unwrap());
        let ops = [
            ChangeOp::Add(john.clone()),
            ChangeOp::Modify(mods.clone()),
            ChangeOp::ModifyRdn {
                new_rdn: new_rdn.clone(),
                delete_old: true,
                new_superior: Some(sup.clone()),
            },
            ChangeOp::Delete,
        ];
        let texts = [
            "dn: cn=John Doe,o=Lucent\nchangetype: add\ncn: John Doe\n\
             objectClass: person\nsn: Doe\n\n",
            "dn: cn=John Doe,o=Lucent\nchangetype: modify\nreplace: sn\n\
             sn:: RHZvxZnDoWs=\n-\ndelete: mail\n\n",
            "dn: cn=John Doe,o=Lucent\nchangetype: modrdn\nnewrdn: cn=Jack Doe\n\
             deleteoldrdn: 1\nnewsuperior: o=R&D\n\n",
            "dn: cn=John Doe,o=Lucent\nchangetype: delete\n\n",
        ];
        let dir = tmpdir("ditframe");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut expected = Vec::new();
        for (i, (op, text)) in ops.into_iter().zip(texts).enumerate() {
            let rec = ChangeRecord {
                seq: 0x0102_0304_0506_0700 + i as u64,
                dn: dn.clone(),
                op,
            };
            let payload = wal_payload(&rec);
            assert_eq!(payload[..8], rec.seq.to_le_bytes());
            assert_eq!(std::str::from_utf8(&payload[8..]), Ok(text));
            wal.append(TAG_DIT_CHANGE, &payload).unwrap();
            let body = [&[TAG_DIT_CHANGE][..], &payload].concat();
            expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
            expected.extend_from_slice(&crc32(&body).to_le_bytes());
            expected.extend_from_slice(&body);
        }
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let (frames, s) = collect(&path);
        assert_eq!((s.records, s.torn), (4, false));
        let records: Vec<Record> = frames
            .iter()
            .flat_map(|(_, payload)| ldif::parse(decode_wal_payload(payload).unwrap().1).unwrap())
            .collect();
        let replayed = [
            Record::Add(john),
            Record::Modify(dn.clone(), mods),
            Record::ModRdn {
                dn: dn.clone(),
                new_rdn,
                delete_old: true,
                new_superior: Some(sup),
            },
            Record::Delete(dn),
        ];
        assert_eq!(records, replayed);
    }

    #[test]
    fn replay_streams_frames_larger_than_its_buffer() {
        let dir = tmpdir("bigframe");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let big: Vec<u8> = (0..3 * REPLAY_BUFFER + 17).map(|i| i as u8).collect();
        wal.append(1, b"small").unwrap();
        wal.append(2, &big).unwrap();
        wal.append(3, b"after").unwrap();
        drop(wal);
        let (records, s) = collect(&path);
        assert_eq!(s.records, 3);
        assert!(!s.torn);
        assert_eq!(records[1], (2, big.clone()));
        assert_eq!(records[2], (3, b"after".to_vec()));
        // A length field pointing past the end of the file is a torn tail,
        // whatever it claims: the frames before it are the prefix.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - big.len() / 2]).unwrap();
        let (records, s) = collect(&path);
        assert_eq!(records.len(), 1);
        assert!(s.torn);
    }

    #[test]
    fn reopen_appends_after_existing_prefix() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.log");
        {
            let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
            wal.append(1, b"one").unwrap();
        }
        {
            let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
            wal.append(1, b"two").unwrap();
        }
        let (records, s) = collect(&path);
        assert_eq!(s.records, 2);
        assert!(!s.torn);
        assert_eq!(records[1].1, b"two");
    }

    #[test]
    fn truncated_tail_yields_committed_prefix() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for i in 0..10u8 {
            wal.append(i, &[i; 16]).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Every possible truncation point recovers a prefix, never errors.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, s) = collect(&path);
            assert!(records.len() <= 10);
            assert_eq!(s.torn, cut % 25 != 0, "cut at {cut}");
            for (i, (tag, payload)) in records.iter().enumerate() {
                assert_eq!(*tag, i as u8);
                assert_eq!(payload, &[i as u8; 16]);
            }
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_frame() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for i in 0..5u8 {
            wal.append(i, &[i; 8]).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Flip one payload byte inside the third frame (frame = 8 + 9 bytes).
        let mut bad = full;
        bad[2 * 17 + 9] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let (records, s) = collect(&path);
        assert_eq!(records.len(), 2, "replay stops before the corrupt frame");
        assert!(s.torn);
    }

    #[test]
    fn group_commit_coalesces_concurrent_appends() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Group).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let w = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        w.append(t as u8, &[i; 32]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let appends = wal.stats().appends.load(Ordering::Relaxed);
        let fsyncs = wal.stats().fsyncs.load(Ordering::Relaxed);
        assert_eq!(appends, 400);
        assert!(fsyncs <= appends, "fsyncs {fsyncs} must not exceed appends");
        let (records, s) = collect(&path);
        assert_eq!(records.len(), 400);
        assert!(!s.torn);
    }

    #[test]
    fn error_sink_fires_on_append_failure() {
        let dir = tmpdir("sink");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        wal.set_error_sink(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        wal.append(1, b"fine").unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        // Sabotage the descriptor: replace the open file with a directory
        // is not portable; instead check the counter wiring directly.
        wal.report_error("append", &std::io::Error::other("disk gone"));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(wal.stats().write_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn error_sink_may_reenter_the_wal_without_deadlock_or_recursion() {
        let dir = tmpdir("reenter");
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Group).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let (h, w) = (hits.clone(), wal.clone());
        wal.set_error_sink(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
            // The production sink logs through the directory, whose commit
            // observer appends back into this same WAL on this same thread.
            w.append(9, b"error log entry").unwrap();
            // And if that nested append had failed, reporting it must not
            // re-enter this sink (unbounded recursion on a dead disk).
            w.report_error("append", &std::io::Error::other("still dead"));
        });
        wal.report_error("fsync", &std::io::Error::other("disk gone"));
        assert_eq!(hits.load(Ordering::SeqCst), 1, "sink ran once, no re-entry");
        assert_eq!(
            wal.stats().write_errors.load(Ordering::Relaxed),
            2,
            "both failures counted"
        );
        // The sink's directory write reached the log.
        let (records, s) = collect(&path);
        assert_eq!(records.len(), 1);
        assert!(!s.torn);
        // A later failure alerts again: the guard is per-invocation, not
        // a one-shot latch.
        wal.report_error("fsync", &std::io::Error::other("disk gone again"));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
