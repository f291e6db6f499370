//! Lazy multi-master replication with relaxed write-write consistency.
//!
//! Section 2 of the paper: "LDAP servers make extensive use of replication
//! to make directory information highly available … directory systems
//! maintain a relaxed write-write consistency by ensuring that updates
//! eventually result in the same values for object attributes being present
//! in each copy of the object."
//!
//! This module models exactly that guarantee: replicas accept writes
//! independently, stamp each *attribute* write with a Lamport clock
//! (total-ordered by `(time, replica-id)`), and reconcile pairwise with
//! last-writer-wins per attribute plus entry-level create/delete tombstones.
//! After any sequence of anti-entropy exchanges that connects all replicas,
//! every replica holds the same attribute values — the property MetaComm
//! *extends* to meta-directory updates by reapplying DDUs (see the
//! `metacomm` crate).

use crate::attr::Attribute;
use crate::backup::atomic_write;
use crate::dn::Dn;
use crate::entry::Entry;
use crate::error::{LdapError, Result, ResultCode};
use crate::wal::crc32;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;

/// A replication stamp: Lamport time, tie-broken by replica id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    pub time: u64,
    pub replica: String,
}

/// Per-origin high-water marks: replica id → highest Lamport time covered.
///
/// A replica's version vector summarizes *everything it has seen*: it covers
/// stamp `s` iff `vv[s.replica] >= s.time`. Watermarks must be per-origin —
/// a single scalar watermark is unsound under transitive propagation (a
/// freshly-joined replica's low-numbered writes would hide behind another
/// peer's high clock and never ship).
pub(crate) type VersionVector = HashMap<String, u64>;

fn vv_covers(vv: &VersionVector, s: &Stamp) -> bool {
    vv.get(&s.replica).is_some_and(|t| *t >= s.time)
}

fn vv_note(vv: &mut VersionVector, s: &Stamp) {
    let slot = vv.entry(s.replica.clone()).or_insert(0);
    *slot = (*slot).max(s.time);
}

fn vv_join(into: &mut VersionVector, other: &VersionVector) {
    for (origin, time) in other {
        let slot = into.entry(origin.clone()).or_insert(0);
        *slot = (*slot).max(*time);
    }
}

/// Traffic accounting for one anti-entropy exchange (both directions).
///
/// `bytes_shipped` is a wire-size estimate — DN, attribute names and values
/// at string length, plus `8 + origin-id length` per stamp — consistent
/// between the delta and full paths so their ratio is meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncStats {
    pub entries_shipped: usize,
    pub attrs_shipped: usize,
    pub bytes_shipped: usize,
    /// True when no watermark was stored for the peer (first contact) and
    /// the whole store was shipped.
    pub full_exchange: bool,
}

/// One entry's worth of delta: only the attributes whose stamps the peer's
/// watermark does not cover. Create/delete stamps ride along on every
/// shipped entry — they are a few bytes and make application self-contained.
struct DeltaEntry {
    key: String,
    dn: Dn,
    created: Stamp,
    deleted: Option<Stamp>,
    attrs: Vec<(String, Attribute, Stamp)>,
}

/// Canonical digest form: `(normalized DN, sorted attribute/value sets)`.
pub type Digest = Vec<(String, Vec<(String, Vec<String>)>)>;

/// One replicated entry with per-attribute stamps.
#[derive(Debug, Clone)]
struct ReplEntry {
    /// Display DN (kept for exports).
    dn: Dn,
    /// attribute (normalized name) → (values, stamp of last write)
    attrs: HashMap<String, (Attribute, Stamp)>,
    created: Stamp,
    deleted: Option<Stamp>,
}

impl ReplEntry {
    fn is_visible(&self) -> bool {
        match &self.deleted {
            None => true,
            Some(d) => self.created > *d,
        }
    }
}

/// One replica of a replicated directory partition.
pub struct Replica {
    id: String,
    state: Mutex<State>,
}

struct State {
    clock: u64,
    entries: HashMap<String, ReplEntry>,
    /// peer id → version vector the peer is known to cover. Conservative:
    /// always ≤ the peer's true coverage, so over-shipping is the only
    /// failure mode, and merges are idempotent.
    watermarks: HashMap<String, VersionVector>,
}

impl State {
    /// The version vector of everything in this store: every surviving
    /// create/delete/attribute stamp, maxed per origin.
    fn version_vector(&self) -> VersionVector {
        let mut vv = VersionVector::new();
        for e in self.entries.values() {
            vv_note(&mut vv, &e.created);
            if let Some(d) = &e.deleted {
                vv_note(&mut vv, d);
            }
            for (_, stamp) in e.attrs.values() {
                vv_note(&mut vv, stamp);
            }
        }
        vv
    }

    /// Everything the given watermark does not cover. An entry ships iff
    /// its create stamp, tombstone, or at least one attribute is new to
    /// the peer; within a shipped entry only the uncovered attributes go.
    fn delta_since(&self, wm: &VersionVector) -> Vec<DeltaEntry> {
        let mut out = Vec::new();
        for (key, e) in &self.entries {
            let attrs: Vec<(String, Attribute, Stamp)> = e
                .attrs
                .iter()
                .filter(|(_, (_, stamp))| !vv_covers(wm, stamp))
                .map(|(n, (a, s))| (n.clone(), a.clone(), s.clone()))
                .collect();
            let fresh_created = !vv_covers(wm, &e.created);
            let fresh_deleted = e.deleted.as_ref().is_some_and(|d| !vv_covers(wm, d));
            if fresh_created || fresh_deleted || !attrs.is_empty() {
                out.push(DeltaEntry {
                    key: key.clone(),
                    dn: e.dn.clone(),
                    created: e.created.clone(),
                    deleted: e.deleted.clone(),
                    attrs,
                });
            }
        }
        out
    }

    /// LWW-merge a delta into this store. Same semantics as a full-state
    /// merge; a partial entry can only arrive when its missing attributes
    /// are already covered here (watermark invariant), so inserting it
    /// verbatim on first sight is safe.
    fn apply_delta(&mut self, delta: Vec<DeltaEntry>) {
        for d in delta {
            match self.entries.get_mut(&d.key) {
                None => {
                    self.entries.insert(
                        d.key,
                        ReplEntry {
                            dn: d.dn,
                            attrs: d.attrs.into_iter().map(|(n, a, s)| (n, (a, s))).collect(),
                            created: d.created,
                            deleted: d.deleted,
                        },
                    );
                }
                Some(mine) => {
                    if d.created > mine.created {
                        mine.created = d.created;
                    }
                    match (&mine.deleted, &d.deleted) {
                        (None, Some(_)) => mine.deleted = d.deleted,
                        (Some(m), Some(t)) if t > m => mine.deleted = d.deleted,
                        _ => {}
                    }
                    for (attr_key, attr, stamp) in d.attrs {
                        match mine.attrs.get(&attr_key) {
                            Some((_, my_stamp)) if *my_stamp >= stamp => {}
                            _ => {
                                mine.attrs.insert(attr_key, (attr, stamp));
                            }
                        }
                    }
                }
            }
        }
    }
}

fn stamp_bytes(s: &Stamp) -> usize {
    8 + s.replica.len()
}

fn tally(stats: &mut SyncStats, delta: &[DeltaEntry]) {
    for d in delta {
        stats.entries_shipped += 1;
        stats.bytes_shipped += d.dn.to_string().len() + stamp_bytes(&d.created);
        if let Some(t) = &d.deleted {
            stats.bytes_shipped += stamp_bytes(t);
        }
        for (name, attr, stamp) in &d.attrs {
            stats.attrs_shipped += 1;
            stats.bytes_shipped += name.len() + stamp_bytes(stamp);
            stats.bytes_shipped += attr.values.iter().map(String::len).sum::<usize>();
        }
    }
}

impl Replica {
    pub fn new(id: impl Into<String>) -> Replica {
        Replica {
            id: id.into(),
            state: Mutex::new(State {
                clock: 0,
                entries: HashMap::new(),
                watermarks: HashMap::new(),
            }),
        }
    }

    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    fn tick(&self, state: &mut State) -> Stamp {
        state.clock += 1;
        Stamp {
            time: state.clock,
            replica: self.id.clone(),
        }
    }

    /// Create (or resurrect) an entry with the given attribute image.
    pub fn put_entry(&self, entry: &Entry) -> Result<()> {
        let mut s = self.state.lock();
        let stamp = self.tick(&mut s);
        let key = entry.dn().norm_key();
        let mut attrs = HashMap::new();
        for a in entry.attributes() {
            attrs.insert(a.name.norm().to_string(), (a.clone(), stamp.clone()));
        }
        match s.entries.get_mut(&key) {
            Some(existing) => {
                existing.created = stamp;
                for (k, v) in attrs {
                    existing.attrs.insert(k, v);
                }
            }
            None => {
                s.entries.insert(
                    key,
                    ReplEntry {
                        dn: entry.dn().clone(),
                        attrs,
                        created: stamp,
                        deleted: None,
                    },
                );
            }
        }
        Ok(())
    }

    /// Overwrite one attribute of an entry.
    pub fn set_attr(&self, dn: &Dn, attr: Attribute) -> Result<()> {
        let mut s = self.state.lock();
        let stamp = self.tick(&mut s);
        let key = dn.norm_key();
        match s.entries.get_mut(&key) {
            Some(e) if e.is_visible() => {
                e.attrs.insert(attr.name.norm().to_string(), (attr, stamp));
                Ok(())
            }
            _ => Err(LdapError::no_such_object(dn)),
        }
    }

    /// Tombstone an entry.
    pub fn delete_entry(&self, dn: &Dn) -> Result<()> {
        let mut s = self.state.lock();
        let stamp = self.tick(&mut s);
        let key = dn.norm_key();
        match s.entries.get_mut(&key) {
            Some(e) if e.is_visible() => {
                e.deleted = Some(stamp);
                Ok(())
            }
            _ => Err(LdapError::no_such_object(dn)),
        }
    }

    /// Read back a visible entry.
    pub fn get(&self, dn: &Dn) -> Option<Entry> {
        let s = self.state.lock();
        let e = s.entries.get(&dn.norm_key())?;
        if !e.is_visible() {
            return None;
        }
        let mut out = Entry::new(e.dn.clone());
        for (attr, _) in e.attrs.values() {
            out.put(attr.name.clone(), attr.values.to_vec());
        }
        Some(out)
    }

    /// One round of anti-entropy: exchange state with `other` in both
    /// directions. Afterwards both replicas agree. Kept as the simple
    /// entry point; [`Replica::anti_entropy`] returns traffic stats.
    pub fn sync_with(&self, other: &Replica) {
        let _ = self.anti_entropy(other);
    }

    /// Watermark-based delta anti-entropy (both directions).
    ///
    /// Each replica remembers, per peer, the version vector the peer is
    /// known to cover, and ships only stamps above it. First contact (no
    /// stored watermark) degenerates to a full exchange. LWW and tombstone
    /// semantics are exactly those of a full merge — the delta is just the
    /// subset of stamps the peer can't already have.
    ///
    /// Locking: one replica at a time, never both, so concurrent writers
    /// and other exchanges can interleave freely.
    pub fn anti_entropy(&self, other: &Replica) -> SyncStats {
        self.exchange(other, true)
    }

    /// The pre-watermark baseline: ship the whole store both ways. Same
    /// result as [`Replica::anti_entropy`]; exists so benchmarks can
    /// measure delta savings against it.
    pub fn full_sync_with(&self, other: &Replica) -> SyncStats {
        self.exchange(other, false)
    }

    fn exchange(&self, other: &Replica, use_watermarks: bool) -> SyncStats {
        // Phase 1 (lock self): outbound delta against the stored watermark.
        let (out_delta, my_vv, my_clock, full) = {
            let s = self.state.lock();
            let stored = if use_watermarks {
                s.watermarks.get(other.id())
            } else {
                None
            };
            let full = stored.is_none();
            let empty = VersionVector::new();
            let wm = stored.unwrap_or(&empty);
            (s.delta_since(wm), s.version_vector(), s.clock, full)
        };
        let mut stats = SyncStats {
            full_exchange: full,
            ..SyncStats::default()
        };
        tally(&mut stats, &out_delta);

        // Phase 2 (lock other): merge, then compute the return delta
        // against everything self is known to cover — the watermark other
        // stored for self, joined with the vector self just announced.
        let (back_delta, joint_vv, other_clock) = {
            let mut o = other.state.lock();
            o.clock = o.clock.max(my_clock);
            o.apply_delta(out_delta);
            let mut known = if use_watermarks {
                o.watermarks.get(self.id()).cloned().unwrap_or_default()
            } else {
                VersionVector::new()
            };
            vv_join(&mut known, &my_vv);
            let back = o.delta_since(&known);
            // Post-merge, other covers join(other, self); after self
            // applies `back` below, so does self.
            let joint = o.version_vector();
            o.watermarks.insert(self.id.clone(), joint.clone());
            (back, joint, o.clock)
        };
        tally(&mut stats, &back_delta);

        // Phase 3 (lock self): apply the return delta, store the watermark.
        {
            let mut s = self.state.lock();
            s.clock = s.clock.max(other_clock);
            s.apply_delta(back_delta);
            s.watermarks.insert(other.id.clone(), joint_vv);
        }
        stats
    }

    /// The version vector covering everything this replica has seen.
    #[cfg(test)]
    pub(crate) fn version_vector(&self) -> VersionVector {
        self.state.lock().version_vector()
    }

    /// The watermark stored for a peer, if any exchange has happened.
    #[cfg(test)]
    pub(crate) fn watermark_for(&self, peer: &str) -> Option<VersionVector> {
        self.state.lock().watermarks.get(peer).cloned()
    }

    /// A canonical digest of the visible state — equal digests mean the
    /// replicas have converged.
    pub fn digest(&self) -> Digest {
        let s = self.state.lock();
        let mut out: Digest = s
            .entries
            .iter()
            .filter(|(_, e)| e.is_visible())
            .map(|(k, e)| {
                let mut attrs: Vec<(String, Vec<String>)> = e
                    .attrs
                    .iter()
                    .map(|(n, (a, _))| {
                        let mut vals = a.values.to_vec();
                        vals.sort();
                        (n.clone(), vals)
                    })
                    .collect();
                attrs.sort();
                (k.clone(), attrs)
            })
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// Durable replica state
// ---------------------------------------------------------------------------
//
// A crashed replica that loses its watermarks (or tombstones) must fall back
// to a full exchange on every peer — or worse, resurrect deleted entries. The
// whole state (Lamport clock, per-attribute stamps, create/delete stamps,
// per-peer watermarks) is therefore serialized to a single checksummed file.
// Snapshot-style save/load rather than a WAL: anti-entropy merges import
// peer-stamped state that cannot be re-derived by replaying local operations.

const STATE_MAGIC: &[u8; 4] = b"MCRP";
const STATE_VERSION: u8 = 1;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_stamp(buf: &mut Vec<u8>, s: &Stamp) {
    buf.extend_from_slice(&s.time.to_le_bytes());
    put_str(buf, &s.replica);
}

/// Byte-slice reader for the state codec; every read is bounds-checked so a
/// truncated file fails cleanly instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|e| *e <= self.bytes.len());
        let end = end.ok_or_else(|| state_error("truncated replica state"))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| state_error("non-UTF8 string in replica state"))
    }

    fn stamp(&mut self) -> Result<Stamp> {
        Ok(Stamp {
            time: self.u64()?,
            replica: self.str()?,
        })
    }
}

fn state_error(what: &str) -> LdapError {
    LdapError::new(ResultCode::Other, format!("replica state: {what}"))
}

impl Replica {
    /// Serialize the complete replica state (clock, stamped entries and
    /// tombstones, per-peer watermarks) as a self-checksummed byte image.
    /// Map iteration is sorted, so equal states produce equal bytes.
    pub(crate) fn export_state(&self) -> Vec<u8> {
        let s = self.state.lock();
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        buf.push(STATE_VERSION);
        put_str(&mut buf, &self.id);
        buf.extend_from_slice(&s.clock.to_le_bytes());

        let mut keys: Vec<&String> = s.entries.keys().collect();
        keys.sort();
        buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for key in keys {
            let e = &s.entries[key];
            put_str(&mut buf, key);
            put_str(&mut buf, &e.dn.to_string());
            put_stamp(&mut buf, &e.created);
            match &e.deleted {
                None => buf.push(0),
                Some(d) => {
                    buf.push(1);
                    put_stamp(&mut buf, d);
                }
            }
            let mut attr_keys: Vec<&String> = e.attrs.keys().collect();
            attr_keys.sort();
            buf.extend_from_slice(&(attr_keys.len() as u32).to_le_bytes());
            for ak in attr_keys {
                let (attr, stamp) = &e.attrs[ak];
                put_str(&mut buf, ak);
                put_str(&mut buf, attr.name.as_str());
                buf.extend_from_slice(&(attr.values.len() as u32).to_le_bytes());
                for v in &attr.values {
                    put_str(&mut buf, v);
                }
                put_stamp(&mut buf, stamp);
            }
        }

        let mut peers: Vec<&String> = s.watermarks.keys().collect();
        peers.sort();
        buf.extend_from_slice(&(peers.len() as u32).to_le_bytes());
        for peer in peers {
            let vv = &s.watermarks[peer];
            put_str(&mut buf, peer);
            let mut origins: Vec<&String> = vv.keys().collect();
            origins.sort();
            buf.extend_from_slice(&(origins.len() as u32).to_le_bytes());
            for origin in origins {
                put_str(&mut buf, origin);
                buf.extend_from_slice(&vv[origin].to_le_bytes());
            }
        }

        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Replace this replica's state with a previously exported image.
    /// Verifies the checksum and the embedded replica id, so a corrupt file
    /// or one belonging to a different replica is rejected wholesale (the
    /// in-memory state is untouched on error).
    pub(crate) fn import_state(&self, bytes: &[u8]) -> Result<()> {
        if bytes.len() < 4 {
            return Err(state_error("too short for checksum"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(tail.try_into().expect("4"));
        let got = crc32(body);
        if got != want {
            return Err(state_error(&format!(
                "checksum mismatch (stored {want:08x}, computed {got:08x})"
            )));
        }
        let mut r = Reader { bytes: body, at: 0 };
        if r.take(4)? != STATE_MAGIC {
            return Err(state_error("bad magic"));
        }
        let version = r.u8()?;
        if version != STATE_VERSION {
            return Err(state_error(&format!("unknown version {version}")));
        }
        let id = r.str()?;
        if id != self.id {
            return Err(state_error(&format!(
                "belongs to replica `{id}`, this is `{}`",
                self.id
            )));
        }
        let clock = r.u64()?;

        let n_entries = r.u32()?;
        let mut entries = HashMap::with_capacity(n_entries as usize);
        for _ in 0..n_entries {
            let key = r.str()?;
            let dn = Dn::parse(&r.str()?)?;
            let created = r.stamp()?;
            let deleted = match r.u8()? {
                0 => None,
                _ => Some(r.stamp()?),
            };
            let n_attrs = r.u32()?;
            let mut attrs = HashMap::with_capacity(n_attrs as usize);
            for _ in 0..n_attrs {
                let ak = r.str()?;
                let name = r.str()?;
                let n_values = r.u32()?;
                let mut values = Vec::with_capacity(n_values as usize);
                for _ in 0..n_values {
                    values.push(r.str()?);
                }
                let stamp = r.stamp()?;
                attrs.insert(ak, (Attribute::new(name, values), stamp));
            }
            entries.insert(
                key,
                ReplEntry {
                    dn,
                    attrs,
                    created,
                    deleted,
                },
            );
        }

        let n_peers = r.u32()?;
        let mut watermarks = HashMap::with_capacity(n_peers as usize);
        for _ in 0..n_peers {
            let peer = r.str()?;
            let n_origins = r.u32()?;
            let mut vv = VersionVector::with_capacity(n_origins as usize);
            for _ in 0..n_origins {
                let origin = r.str()?;
                vv.insert(origin, r.u64()?);
            }
            watermarks.insert(peer, vv);
        }

        *self.state.lock() = State {
            clock,
            entries,
            watermarks,
        };
        Ok(())
    }

    /// Persist the state image crash-safely (tmp + fsync + atomic rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.export_state())
    }

    /// Restore state from `path` if it exists and verifies. Returns `false`
    /// when the file is absent (fresh replica); corrupt files are an error
    /// so the caller can decide between failing and starting fresh.
    pub fn restore(&self, path: &Path) -> Result<bool> {
        match std::fs::read(path) {
            Ok(bytes) => {
                self.import_state(&bytes)?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
impl Replica {
    /// The stamp of `attr`'s last write on `dn`.
    fn attr_stamp(&self, dn: &Dn, attr: &str) -> Result<Stamp> {
        let s = self.state.lock();
        s.entries
            .get(&dn.norm_key())
            .and_then(|e| e.attrs.get(&attr.to_ascii_lowercase()))
            .map(|(_, st)| st.clone())
            .ok_or_else(|| {
                LdapError::new(
                    ResultCode::NoSuchAttribute,
                    format!("no stamped attribute `{attr}` on `{dn}`"),
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dn: &str, phone: &str) -> Entry {
        Entry::with_attrs(
            Dn::parse(dn).unwrap(),
            [
                ("objectClass", "person"),
                ("cn", "J"),
                ("sn", "D"),
                ("telephoneNumber", phone),
            ],
        )
    }

    #[test]
    fn basic_put_get_delete() {
        let r = Replica::new("r1");
        let dn = Dn::parse("cn=J,o=L").unwrap();
        r.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        assert_eq!(r.get(&dn).unwrap().first("telephoneNumber"), Some("1"));
        r.delete_entry(&dn).unwrap();
        assert!(r.get(&dn).is_none());
        assert!(r.set_attr(&dn, Attribute::single("sn", "X")).is_err());
    }

    #[test]
    fn concurrent_attr_writes_converge_lww() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.sync_with(&b);
        let dn = Dn::parse("cn=J,o=L").unwrap();
        // Concurrent independent writes to the SAME attribute.
        a.set_attr(&dn, Attribute::single("telephoneNumber", "from-a"))
            .unwrap();
        b.set_attr(&dn, Attribute::single("telephoneNumber", "from-b"))
            .unwrap();
        a.sync_with(&b);
        assert_eq!(a.digest(), b.digest(), "replicas must converge");
        // Winner is deterministic: equal times tie-break on replica id "b" > "a".
        assert_eq!(a.get(&dn).unwrap().first("telephoneNumber"), Some("from-b"));
    }

    #[test]
    fn disjoint_attr_writes_both_survive() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.sync_with(&b);
        let dn = Dn::parse("cn=J,o=L").unwrap();
        a.set_attr(&dn, Attribute::single("mail", "j@l.com"))
            .unwrap();
        b.set_attr(&dn, Attribute::single("roomNumber", "2B-401"))
            .unwrap();
        a.sync_with(&b);
        let merged = a.get(&dn).unwrap();
        assert_eq!(merged.first("mail"), Some("j@l.com"));
        assert_eq!(merged.first("roomNumber"), Some("2B-401"));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn delete_vs_update_resolved_by_stamp() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.sync_with(&b);
        let dn = Dn::parse("cn=J,o=L").unwrap();
        // b deletes, then a recreates with a later logical history after syncing.
        b.delete_entry(&dn).unwrap();
        b.sync_with(&a);
        assert!(a.get(&dn).is_none(), "delete propagates");
        a.put_entry(&entry("cn=J,o=L", "2")).unwrap();
        a.sync_with(&b);
        assert!(b.get(&dn).is_some(), "recreate wins over older tombstone");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn three_replicas_converge_via_chain() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        let c = Replica::new("c");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.put_entry(&entry("cn=K,o=L", "2")).unwrap();
        a.sync_with(&b);
        b.sync_with(&c);
        let dn_j = Dn::parse("cn=J,o=L").unwrap();
        let dn_k = Dn::parse("cn=K,o=L").unwrap();
        a.set_attr(&dn_j, Attribute::single("telephoneNumber", "11"))
            .unwrap();
        b.set_attr(&dn_k, Attribute::single("telephoneNumber", "22"))
            .unwrap();
        c.delete_entry(&dn_j).unwrap();
        // Chain topology: a<->b, b<->c, a<->b again.
        a.sync_with(&b);
        b.sync_with(&c);
        a.sync_with(&b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.digest(), c.digest());
    }

    #[test]
    fn sync_is_idempotent() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.sync_with(&b);
        let d1 = a.digest();
        a.sync_with(&b);
        a.sync_with(&b);
        assert_eq!(a.digest(), d1);
        assert_eq!(b.digest(), d1);
    }

    #[test]
    fn second_sync_ships_nothing() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        for i in 0..20 {
            a.put_entry(&entry(&format!("cn=e{i},o=L"), "1")).unwrap();
        }
        let first = a.anti_entropy(&b);
        assert!(first.full_exchange, "first contact is a full exchange");
        assert_eq!(first.entries_shipped, 20);
        let second = a.anti_entropy(&b);
        assert!(!second.full_exchange);
        assert_eq!(second.entries_shipped, 0, "nothing dirty, nothing shipped");
        assert_eq!(second.bytes_shipped, 0);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn delta_ships_only_dirty_entries() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        for i in 0..100 {
            a.put_entry(&entry(&format!("cn=e{i},o=L"), "1")).unwrap();
        }
        let full = a.anti_entropy(&b);
        // Touch one entry out of a hundred.
        a.set_attr(
            &Dn::parse("cn=e42,o=L").unwrap(),
            Attribute::single("telephoneNumber", "9"),
        )
        .unwrap();
        let delta = a.anti_entropy(&b);
        assert_eq!(delta.entries_shipped, 1);
        assert_eq!(delta.attrs_shipped, 1);
        assert!(
            delta.bytes_shipped * 10 <= full.bytes_shipped,
            "1% dirty must ship ≤10% of full bytes ({} vs {})",
            delta.bytes_shipped,
            full.bytes_shipped
        );
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn transitive_old_stamp_propagates() {
        // A and B exchange a lot, pumping their clocks high. C is a fresh
        // replica whose writes carry low Lamport times. A scalar watermark
        // would hide C's writes from B; per-origin vectors must not.
        let a = Replica::new("a");
        let b = Replica::new("b");
        let c = Replica::new("c");
        for i in 0..10 {
            a.put_entry(&entry(&format!("cn=ab{i},o=L"), "1")).unwrap();
            a.sync_with(&b);
            b.set_attr(
                &Dn::parse(&format!("cn=ab{i},o=L")).unwrap(),
                Attribute::single("telephoneNumber", "2"),
            )
            .unwrap();
            b.sync_with(&a);
        }
        // C's create carries time 1 — far below A/B's clocks.
        c.put_entry(&entry("cn=late,o=L", "c-phone")).unwrap();
        a.sync_with(&c);
        a.sync_with(&b); // non-first contact: delta path
        let dn = Dn::parse("cn=late,o=L").unwrap();
        assert_eq!(
            b.get(&dn)
                .map(|e| e.first("telephoneNumber").map(String::from)),
            Some(Some("c-phone".into())),
            "old-stamped write from a third replica must survive the delta path"
        );
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn delta_and_full_paths_agree() {
        // Same script on two replica pairs; one pair syncs via deltas, the
        // other via full exchanges. Digests must be bit-identical.
        let run = |use_delta: bool| {
            let a = Replica::new("a");
            let b = Replica::new("b");
            let sync = |x: &Replica, y: &Replica| {
                if use_delta {
                    x.anti_entropy(y);
                } else {
                    x.full_sync_with(y);
                }
            };
            a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
            sync(&a, &b);
            let dn = Dn::parse("cn=J,o=L").unwrap();
            a.set_attr(&dn, Attribute::single("mail", "j@l.com"))
                .unwrap();
            b.delete_entry(&dn).unwrap();
            sync(&b, &a);
            b.put_entry(&entry("cn=K,o=L", "2")).unwrap();
            sync(&a, &b);
            (a.digest(), b.digest())
        };
        let (da, db) = run(true);
        let (fa, fb) = run(false);
        assert_eq!(da, db);
        assert_eq!(da, fa);
        assert_eq!(fa, fb);
    }

    #[test]
    fn watermarks_are_recorded_per_peer() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        assert!(a.watermark_for("b").is_none());
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.anti_entropy(&b);
        let wm = a.watermark_for("b").expect("watermark stored after sync");
        assert_eq!(wm, a.version_vector());
        assert_eq!(b.watermark_for("a").unwrap(), b.version_vector());
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("metacomm-repl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn state_round_trip_preserves_digest_and_clock() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        a.put_entry(&entry("cn=K,o=L", "2")).unwrap();
        a.anti_entropy(&b);
        let dn = Dn::parse("cn=K,o=L").unwrap();
        b.delete_entry(&dn).unwrap(); // tombstone must survive
        b.anti_entropy(&a);

        let restored = Replica::new("a");
        restored.import_state(&a.export_state()).unwrap();
        assert_eq!(restored.digest(), a.digest());
        assert_eq!(restored.version_vector(), a.version_vector());
        assert_eq!(restored.watermark_for("b"), a.watermark_for("b"));
        assert!(restored.get(&dn).is_none(), "tombstone survived");
        // Clock survives: the next local write must stamp above everything.
        restored
            .set_attr(
                &Dn::parse("cn=J,o=L").unwrap(),
                Attribute::single("telephoneNumber", "99"),
            )
            .unwrap();
        restored.anti_entropy(&b);
        assert_eq!(
            b.get(&Dn::parse("cn=J,o=L").unwrap())
                .unwrap()
                .first("telephoneNumber"),
            Some("99"),
            "post-restore write wins LWW because the clock was persisted"
        );
    }

    #[test]
    fn restarted_replica_resumes_delta_not_full() {
        let a = Replica::new("a");
        let b = Replica::new("b");
        for i in 0..50 {
            a.put_entry(&entry(&format!("cn=e{i},o=L"), "1")).unwrap();
        }
        a.anti_entropy(&b);
        let path = tmpfile("repl-a.state");
        a.save(&path).unwrap();

        // "Restart": a fresh process-lifetime Replica restored from disk.
        let a2 = Replica::new("a");
        assert!(a2.restore(&path).unwrap());
        a2.set_attr(
            &Dn::parse("cn=e7,o=L").unwrap(),
            Attribute::single("telephoneNumber", "9"),
        )
        .unwrap();
        let stats = a2.anti_entropy(&b);
        assert!(
            !stats.full_exchange,
            "persisted watermarks must avoid the full resync"
        );
        assert_eq!(stats.entries_shipped, 1, "only the dirty entry ships");
        assert_eq!(a2.digest(), b.digest());
    }

    #[test]
    fn corrupt_or_foreign_state_rejected() {
        let a = Replica::new("a");
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        let mut bytes = a.export_state();
        // Flip one byte in the middle: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let fresh = Replica::new("a");
        assert!(fresh.import_state(&bytes).is_err());
        assert!(
            fresh.digest().is_empty(),
            "failed import leaves state untouched"
        );
        // A valid image for a different replica id is also rejected.
        let other = Replica::new("b");
        assert!(other.import_state(&a.export_state()).is_err());
        // Restoring a missing file is not an error — just a fresh start.
        assert!(!fresh.restore(&tmpfile("absent.state")).unwrap());
    }

    #[test]
    fn attr_stamps_advance() {
        let a = Replica::new("a");
        let dn = Dn::parse("cn=J,o=L").unwrap();
        a.put_entry(&entry("cn=J,o=L", "1")).unwrap();
        let s1 = a.attr_stamp(&dn, "telephoneNumber").unwrap();
        a.set_attr(&dn, Attribute::single("telephoneNumber", "2"))
            .unwrap();
        let s2 = a.attr_stamp(&dn, "telephoneNumber").unwrap();
        assert!(s2 > s1);
    }
}
