//! The one store of a record-keeping device: single-record atomic updates,
//! no triggers, no multi-record transactions, and subscriber sinks that
//! take the commits made at the device's own terminal.
//!
//! What differs between devices is a [`Kind`]: the field that keys a
//! record, the one field the device mints at add-commit and how, the
//! channel that is its own terminal, and the errors it refuses with. The
//! switch is [`Switch`]; the messaging platform's kind is in `msgplat`.
//!
//! Each record is one packed [`Record`] block, held in a set ordered by
//! its own key field: the key is held once, inside the block, and a lookup
//! is a descent of the set.

use crate::dialplan::DialPlan;
use crate::error::PbxError;
use crate::record::{fields, Record};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why a store refuses a write.
#[derive(Debug)]
pub enum Refusal<'a> {
    /// No record has this key.
    Missing(&'a str),
    /// A record with this key is already there.
    Duplicate(&'a str),
    /// A field the write may not set, or not to this value.
    Invalid { field: &'a str, detail: String },
    /// A change to the field the device minted.
    Immutable(&'a str),
}

/// How a device mints its field: the value for its `n`th add, counted
/// from 1.
pub type Mint = fn(u64) -> String;

/// What one kind of record-keeping device supplies to its [`Store`].
pub trait Kind: Send + Sync + 'static {
    /// The field that keys a record.
    const KEY: &'static str;
    /// The one field the device mints at add-commit, and how. An add's own
    /// value for it is overwritten; a change may repeat the held value,
    /// never alter it.
    const MINTED: Option<(&'static str, Mint)>;
    /// The paths an update comes in through.
    type Channel: Copy + PartialEq;
    /// The device's own terminal: the one channel whose commits are fed.
    const TERMINAL: Self::Channel;
    /// MetaComm's administration session.
    const METACOMM: Self::Channel;
    type Error;

    /// Refuse an add keyed `key` that the device named `device` does not
    /// take.
    fn admit(&self, key: &str, device: &str) -> Result<(), Self::Error>;
    fn refuse(refusal: Refusal<'_>) -> Self::Error;
    /// Is `e` the device's "no such record"?
    fn is_missing(e: &Self::Error) -> bool;
}

/// What happened at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Add,
    Change,
    Remove,
}

/// A commit made at the device's own terminal. The key it addressed is
/// the images' key field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceEvent {
    pub kind: EventKind,
    /// The record before the commit (None for an add).
    pub old: Option<Record>,
    /// The record after the commit (None for a remove); an add's carries
    /// the field the device minted.
    pub new: Option<Record>,
}

/// Where a subscriber takes the store's terminal commits: each one in
/// commit order, handed over under the store's lock, so it must not call
/// back into the store. It answers `false` once it is gone, and the store
/// drops it.
pub type Sink = Box<dyn FnMut(DeviceEvent) -> bool + Send>;

/// A stored record, ordered by the value of its key field: the set looks
/// a record up by that value, which the record's block holds.
struct Keyed<K>(Record, PhantomData<fn() -> K>);

impl<K: Kind> Keyed<K> {
    fn new(record: Record) -> Keyed<K> {
        Keyed(record, PhantomData)
    }

    fn key(&self) -> &str {
        self.0.get(K::KEY).unwrap_or_default()
    }
}

impl<K: Kind> Borrow<str> for Keyed<K> {
    fn borrow(&self) -> &str {
        self.key()
    }
}

impl<K: Kind> Ord for Keyed<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(other.key())
    }
}

impl<K: Kind> PartialOrd for Keyed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Kind> PartialEq for Keyed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<K: Kind> Eq for Keyed<K> {}

/// The records of one device.
pub struct Store<K: Kind = Switch> {
    name: String,
    kind: K,
    inner: Mutex<Inner<K>>,
}

struct Inner<K> {
    records: BTreeSet<Keyed<K>>,
    /// Each subscriber's sink.
    sinks: Vec<Sink>,
    /// Every commit, MetaComm's included.
    commits: u64,
    /// Adds that minted the device's field.
    minted: u64,
}

impl<K> Inner<K> {
    /// Count a commit, and hand `event` (a terminal commit's) to every
    /// sink: a copy to each but the last, which takes the event itself. A
    /// sink that is gone is dropped.
    fn commit(&mut self, event: Option<DeviceEvent>) {
        self.commits += 1;
        let Some(event) = event else { return };
        let (mut left, mut event) = (self.sinks.len(), Some(event));
        self.sinks.retain_mut(|sink| {
            left -= 1;
            let copy = if left == 0 {
                event.take()
            } else {
                event.clone()
            };
            copy.is_some_and(sink)
        });
    }
}

impl Store<Switch> {
    /// A switch named `name` that owns the extensions of `plan`.
    pub fn new(name: impl Into<String>, plan: DialPlan) -> Store {
        Store::with_kind(name, Switch { plan })
    }

    pub fn plan(&self) -> &DialPlan {
        &self.kind.plan
    }
}

impl<K: Kind> Store<K> {
    pub fn with_kind(name: impl Into<String>, kind: K) -> Store<K> {
        Store {
            name: name.into(),
            kind,
            inner: Mutex::new(Inner {
                records: BTreeSet::new(),
                sinks: Vec::new(),
                commits: 0,
                minted: 0,
            }),
        }
    }

    /// The store's state, as a session that panicked mid-commit left it.
    fn lock(&self) -> MutexGuard<'_, Inner<K>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every commit so far, through any channel.
    pub fn commits(&self) -> u64 {
        self.lock().commits
    }

    /// Hand every terminal commit from now on to `sink`, until it answers
    /// that it is gone.
    pub fn subscribe(&self, sink: impl FnMut(DeviceEvent) -> bool + Send + 'static) {
        self.lock().sinks.push(Box::new(sink));
    }

    /// A copy of the record keyed `key`.
    pub fn get(&self, key: &str) -> Option<Record> {
        self.read(key, Record::clone)
    }

    /// `read` of the record keyed `key`, borrowed under the store's lock.
    /// `read` must not call back into this store.
    pub fn read<T>(&self, key: &str, read: impl FnOnce(&Record) -> T) -> Option<T> {
        self.lock().records.get(key).map(|held| read(&held.0))
    }

    /// Visit every record in key order, borrowed under the store's lock:
    /// synchronization support (paper §4.1's "method to retrieve all
    /// relevant data") that copies no record. `visit` must not call back
    /// into this store.
    pub fn for_each(&self, mut visit: impl FnMut(&Record)) {
        self.lock().records.iter().for_each(|held| visit(&held.0));
    }

    /// The keys, in order.
    pub fn keys(&self) -> Vec<String> {
        let inner = self.lock();
        inner
            .records
            .iter()
            .map(|held| held.key().to_string())
            .collect()
    }

    /// Add `record`, keyed by its own key field, which the device must
    /// take. A device that mints a field writes it into the record here.
    pub fn add(&self, mut record: Record, channel: K::Channel) -> Result<(), K::Error> {
        let Some(key) = record.get(K::KEY) else {
            let detail = "missing".to_string();
            return Err(K::refuse(Refusal::Invalid {
                field: K::KEY,
                detail,
            }));
        };
        self.kind.admit(key, &self.name)?;
        let mut inner = self.lock();
        if inner.records.contains(key) {
            return Err(K::refuse(Refusal::Duplicate(key)));
        }
        if let Some((field, mint)) = K::MINTED {
            inner.minted += 1;
            record.set(field, mint(inner.minted));
        }
        let event = (channel == K::TERMINAL).then(|| DeviceEvent {
            kind: EventKind::Add,
            old: None,
            new: Some(record.clone()),
        });
        inner.records.insert(Keyed::new(record));
        inner.commit(event);
        Ok(())
    }

    /// Write `patch`'s fields into the record keyed `key` (an empty value
    /// blanks the field). The key itself cannot change — the device's form
    /// removes and re-adds, which is what lexpress partitioning translates
    /// a renumbering into — and the minted field can only be repeated.
    pub fn change(&self, key: &str, patch: Record, channel: K::Channel) -> Result<(), K::Error> {
        if patch.get(K::KEY).is_some_and(|k| k != key) {
            let detail = "the key cannot be changed; remove and re-add".to_string();
            return Err(K::refuse(Refusal::Invalid {
                field: K::KEY,
                detail,
            }));
        }
        let mut inner = self.lock();
        let held = inner.records.get(key);
        let held = held.ok_or_else(|| K::refuse(Refusal::Missing(key)))?;
        if let Some((field, _)) = K::MINTED {
            if patch
                .get(field)
                .is_some_and(|v| Some(v) != held.0.get(field))
            {
                return Err(K::refuse(Refusal::Immutable(field)));
            }
        }
        // Patched where it lives, once every check has passed: the block
        // is taken out of the set and put back, never copied, and keeps
        // its address when the patch keeps its length.
        let Keyed(mut record, _) = inner.records.take(key).expect("held");
        let old = (channel == K::TERMINAL).then(|| record.clone());
        record.patch(&patch);
        let event = old.map(|old| DeviceEvent {
            kind: EventKind::Change,
            old: Some(old),
            new: Some(record.clone()),
        });
        inner.records.insert(Keyed::new(record));
        inner.commit(event);
        Ok(())
    }

    /// Remove the record keyed `key`.
    pub fn remove(&self, key: &str, channel: K::Channel) -> Result<(), K::Error> {
        let mut inner = self.lock();
        let held = inner.records.take(key);
        let Keyed(old, _) = held.ok_or_else(|| K::refuse(Refusal::Missing(key)))?;
        let event = (channel == K::TERMINAL).then_some(DeviceEvent {
            kind: EventKind::Remove,
            old: Some(old),
            new: None,
        });
        inner.commit(event);
        Ok(())
    }
}

impl<K: Kind> AsRef<Store<K>> for Store<K> {
    fn as_ref(&self) -> &Store<K> {
        self
    }
}

/// Where an update came in through the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// A craft/administrator session at the device (a DDU in paper terms).
    Craft,
    /// The MetaComm protocol converter's administration session.
    Metacomm,
}

/// The switch: stations keyed by extension, each owned by the switch's
/// dial plan. It mints nothing.
pub struct Switch {
    plan: DialPlan,
}

impl Kind for Switch {
    const KEY: &'static str = fields::EXTENSION;
    const MINTED: Option<(&'static str, Mint)> = None;
    type Channel = Channel;
    const TERMINAL: Channel = Channel::Craft;
    const METACOMM: Channel = Channel::Metacomm;
    type Error = PbxError;

    fn admit(&self, key: &str, device: &str) -> crate::Result<()> {
        self.plan.check(key, device)
    }

    fn refuse(refusal: Refusal<'_>) -> PbxError {
        match refusal {
            Refusal::Missing(key) => PbxError::NoSuchStation(key.to_string()),
            Refusal::Duplicate(key) => PbxError::DuplicateStation(key.to_string()),
            Refusal::Invalid { field, detail } => PbxError::InvalidField {
                field: field.to_string(),
                detail,
            },
            Refusal::Immutable(field) => PbxError::InvalidField {
                field: field.to_string(),
                detail: "the device sets it".to_string(),
            },
        }
    }

    fn is_missing(e: &PbxError) -> bool {
        matches!(e, PbxError::NoSuchStation(_))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    /// A channel that takes `s`'s terminal commits.
    pub(crate) fn feed<K: Kind>(s: &Store<K>) -> Receiver<DeviceEvent> {
        let (tx, rx) = channel();
        s.subscribe(move |ev| tx.send(ev).is_ok());
        rx
    }

    fn store() -> Store {
        Store::new("pbx-west", DialPlan::with_prefix("9", 4))
    }

    fn station(ext: &str, name: &str) -> Record {
        Record::from_pairs([
            (fields::EXTENSION, ext),
            (fields::NAME, name),
            (fields::COVERAGE_PATH, "1"),
        ])
    }

    #[test]
    fn add_change_remove_with_events() {
        let s = store();
        let rx = feed(&s);
        s.add(station("9123", "Doe, John"), Channel::Craft).unwrap();
        s.change(
            "9123",
            Record::from_pairs([(fields::ROOM, "2B-401")]),
            Channel::Craft,
        )
        .unwrap();
        s.remove("9123", Channel::Craft).unwrap();
        let events: Vec<DeviceEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Add);
        assert!(events[0].old.is_none());
        assert_eq!(events[1].kind, EventKind::Change);
        assert_eq!(
            events[1].new.as_ref().unwrap().get(fields::ROOM),
            Some("2B-401")
        );
        assert_eq!(
            events[1].old.as_ref().unwrap().get(fields::ROOM),
            None,
            "old image has no room"
        );
        assert_eq!(events[2].kind, EventKind::Remove);
        assert!(events[2].new.is_none());
        assert_eq!(s.commits(), 3);
    }

    #[test]
    fn a_metacomm_commit_sends_no_event_and_still_counts() {
        let s = store();
        let rx = feed(&s);
        s.add(station("9123", "X"), Channel::Metacomm).unwrap();
        let patch = Record::from_pairs([(fields::ROOM, "2B-401")]);
        s.change("9123", patch, Channel::Metacomm).unwrap();
        s.remove("9123", Channel::Metacomm).unwrap();
        assert_eq!(rx.try_iter().count(), 0);
        assert_eq!(s.commits(), 3);
    }

    #[test]
    fn dial_plan_enforced_on_add() {
        let s = store();
        assert!(matches!(
            s.add(station("8123", "X"), Channel::Craft),
            Err(PbxError::OutsideDialPlan { .. })
        ));
    }

    #[test]
    fn duplicate_and_missing() {
        let s = store();
        s.add(station("9123", "X"), Channel::Craft).unwrap();
        assert!(matches!(
            s.add(station("9123", "Y"), Channel::Craft),
            Err(PbxError::DuplicateStation(_))
        ));
        assert!(matches!(
            s.add(Record::from_pairs([(fields::NAME, "Y")]), Channel::Craft),
            Err(PbxError::InvalidField { .. })
        ));
        assert!(matches!(
            s.change("9999", Record::new(), Channel::Craft),
            Err(PbxError::NoSuchStation(_))
        ));
        assert!(matches!(
            s.remove("9999", Channel::Craft),
            Err(PbxError::NoSuchStation(_))
        ));
    }

    #[test]
    fn extension_change_rejected() {
        let s = store();
        s.add(station("9123", "X"), Channel::Craft).unwrap();
        for ext in ["9200", ""] {
            let patch = Record::from_pairs([(fields::EXTENSION, ext)]);
            let err = s.change("9123", patch, Channel::Craft).unwrap_err();
            assert!(matches!(err, PbxError::InvalidField { .. }));
        }
        assert_eq!(s.keys(), ["9123"]);
    }

    #[test]
    fn dump_and_keys_ordered() {
        let s = store();
        s.add(station("9200", "B"), Channel::Craft).unwrap();
        s.add(station("9100", "A"), Channel::Craft).unwrap();
        assert_eq!(s.keys(), vec!["9100", "9200"]);
        let mut names = Vec::new();
        s.for_each(|rec| names.push(rec.get(fields::NAME).unwrap().to_string()));
        assert_eq!(names, ["A", "B"]);
    }

    /// Where `rec`'s block starts: its first key is one length byte in.
    fn block_of(rec: &Record) -> *const u8 {
        rec.fields().next().expect("a field").0.as_ptr()
    }

    #[test]
    fn a_change_overwrites_the_stored_field_where_it_lives() {
        let s = store();
        let rx = feed(&s);
        s.add(
            Record::from_pairs([(fields::EXTENSION, "9123"), (fields::ROOM, "2B-401")]),
            Channel::Craft,
        )
        .unwrap();
        let block = || s.read("9123", block_of).expect("held");
        let change = |room: &str, channel| {
            let patch = Record::from_pairs([(fields::ROOM, room)]);
            crate::asked::by(|| s.change("9123", patch, channel).unwrap()).1
        };
        let at = block();
        // The same length: written over the stored bytes. Through
        // MetaComm's channel nothing is allocated; at the craft terminal
        // the two blocks are the event's images.
        assert_eq!(change("4D-170", Channel::Metacomm), (0, 0));
        assert_eq!(block(), at, "the stored block was swapped for a copy");
        assert_eq!(change("4D-171", Channel::Craft), (2, 0));
        assert_eq!(block(), at, "the stored block was swapped for a copy");
        assert_eq!(s.get("9123").unwrap().get(fields::ROOM), Some("4D-171"));
        // Longer: the stored block is resized by `realloc`, never replaced
        // by a block allocated next to it.
        assert_eq!(change("4D-171, west wing", Channel::Craft), (2, 1));
        let stored = s.get("9123").unwrap();
        assert_eq!(stored.get(fields::ROOM), Some("4D-171, west wing"));
        assert_eq!(stored.get(fields::EXTENSION), Some("9123"));
        let mut changes = rx.try_iter().skip(1);
        let change = changes.next().expect("the change event");
        assert_eq!(change.old.unwrap().get(fields::ROOM), Some("4D-170"));
        assert_eq!(change.new.unwrap().get(fields::ROOM), Some("4D-171"));
        let change = changes.next().expect("the longer change's event");
        assert_eq!(change.old.unwrap().get(fields::ROOM), Some("4D-171"));
    }

    #[test]
    fn dropped_subscriber_pruned() {
        let s = store();
        drop(feed(&s));
        let rx2 = feed(&s);
        s.add(station("9123", "X"), Channel::Craft).unwrap();
        assert_eq!(rx2.try_iter().count(), 1);
        assert_eq!(s.lock().sinks.len(), 1);
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::tests::feed;
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_admin_sessions_keep_single_record_atomicity() {
        let s = Arc::new(Store::new("pbx", DialPlan::with_prefix("9", 4)));
        s.add(
            Record::from_pairs([(fields::EXTENSION, "9123"), (fields::NAME, "X")]),
            Channel::Metacomm,
        )
        .unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    s.change(
                        "9123",
                        Record::from_pairs([(fields::ROOM, format!("{t}-{i}").as_str())]),
                        Channel::Craft,
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly the seeded commits + 400 changes; record still coherent.
        assert_eq!(s.commits(), 1 + 8 * 50);
        let rec = s.get("9123").unwrap();
        assert!(rec.get(fields::ROOM).is_some());
        assert_eq!(rec.get(fields::NAME), Some("X"));
    }

    #[test]
    fn events_are_delivered_in_commit_order() {
        let s = Store::new("pbx", DialPlan::with_prefix("9", 4));
        let rx = feed(&s);
        s.add(
            Record::from_pairs([(fields::EXTENSION, "9123"), (fields::NAME, "A")]),
            Channel::Craft,
        )
        .unwrap();
        for i in 0..20 {
            s.change(
                "9123",
                Record::from_pairs([(fields::ROOM, format!("R{i}").as_str())]),
                Channel::Craft,
            )
            .unwrap();
        }
        let events: Vec<DeviceEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 21);
        // Each change's old image equals the previous change's new image.
        for w in events.windows(2) {
            assert_eq!(w[0].new, w[1].old, "event chain must be gapless");
        }
    }
}
