//! The switch's station store: single-record atomic updates, commit-time
//! change notifications, no triggers, no multi-record transactions.

use crate::dialplan::DialPlan;
use crate::error::{PbxError, Result};
use crate::record::{fields, Record};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where an update came in through. MetaComm's filter session is
/// distinguished so reapplied updates do not echo as fresh direct-device
/// updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// A craft/administrator session at the device (a DDU in paper terms).
    Craft,
    /// The MetaComm protocol converter's administration session.
    Metacomm,
}

/// What happened at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    Add,
    Change,
    Remove,
}

/// A commit-time change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceEvent {
    pub kind: EventKind,
    /// Key (extension) the operation addressed.
    pub key: String,
    /// Record image before the commit (None for Add).
    pub old: Option<Record>,
    /// Record image after the commit (None for Remove).
    pub new: Option<Record>,
    pub channel: Channel,
}

/// The station store of one switch.
pub struct Store {
    name: String,
    plan: DialPlan,
    inner: Mutex<Inner>,
}

struct Inner {
    stations: BTreeMap<String, Record>,
    subscribers: Vec<Sender<DeviceEvent>>,
    /// Commit counter (diagnostics / tests).
    commits: u64,
}

impl Store {
    pub fn new(name: impl Into<String>, plan: DialPlan) -> Store {
        Store {
            name: name.into(),
            plan,
            inner: Mutex::new(Inner {
                stations: BTreeMap::new(),
                subscribers: Vec::new(),
                commits: 0,
            }),
        }
    }

    /// The store's state, as a session that panicked mid-commit left it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn plan(&self) -> &DialPlan {
        &self.plan
    }

    pub fn len(&self) -> usize {
        self.lock().stations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn commits(&self) -> u64 {
        self.lock().commits
    }

    /// Subscribe to commit notifications.
    pub fn subscribe(&self) -> Receiver<DeviceEvent> {
        let (tx, rx) = channel();
        self.lock().subscribers.push(tx);
        rx
    }

    /// Deliver `event` to every subscriber: a copy to each but the last,
    /// which takes the event itself. A subscriber that has hung up is
    /// dropped.
    fn notify(inner: &mut Inner, event: DeviceEvent) {
        inner.commits += 1;
        let last = inner.subscribers.len().saturating_sub(1);
        let mut event = Some(event);
        let mut at = 0;
        inner.subscribers.retain(|tx| {
            let copy = if at == last {
                event.take()
            } else {
                event.clone()
            };
            at += 1;
            copy.is_some_and(|ev| tx.send(ev).is_ok())
        });
    }

    pub fn get(&self, extension: &str) -> Option<Record> {
        self.lock().stations.get(extension).cloned()
    }

    /// Visit every station in extension order, borrowed under the store's
    /// lock: synchronization support (paper §4.1's "method to retrieve all
    /// relevant data") that copies no record. `visit` must not call back
    /// into this store.
    pub fn for_each(&self, visit: impl FnMut(&Record)) {
        self.lock().stations.values().for_each(visit);
    }

    /// Administer a new station. The record must carry an `Extension` field
    /// owned by this switch's dial plan.
    pub fn add(&self, record: Record, channel: Channel) -> Result<()> {
        let ext = record
            .get(fields::EXTENSION)
            .ok_or_else(|| PbxError::InvalidField {
                field: fields::EXTENSION.into(),
                detail: "missing".into(),
            })?
            .to_string();
        self.plan.check(&ext, &self.name)?;
        let mut inner = self.lock();
        if inner.stations.contains_key(&ext) {
            return Err(PbxError::DuplicateStation(ext));
        }
        inner.stations.insert(ext.clone(), record.clone());
        Store::notify(
            &mut inner,
            DeviceEvent {
                kind: EventKind::Add,
                key: ext,
                old: None,
                new: Some(record),
                channel,
            },
        );
        Ok(())
    }

    /// Change non-key fields of an existing station (empty values blank the
    /// field). Changing `Extension` itself is not supported by the form —
    /// real Definity administration removes and re-adds (which is exactly
    /// what lexpress partitioning translates a renumbering into).
    pub fn change(&self, extension: &str, patch: Record, channel: Channel) -> Result<()> {
        if let Some(new_ext) = patch.get(fields::EXTENSION) {
            if new_ext != extension {
                return Err(PbxError::InvalidField {
                    field: fields::EXTENSION.into(),
                    detail: "extension cannot be changed; remove and re-add".into(),
                });
            }
        }
        let mut inner = self.lock();
        let stored = (inner.stations.get_mut(extension))
            .ok_or_else(|| PbxError::NoSuchStation(extension.to_string()))?;
        // Patched where it lives: the record's block is written over or
        // `realloc`ed, never swapped for a copy, and the event's two images
        // are the only copies.
        let old = stored.clone();
        stored.patch(&patch);
        let new = stored.clone();
        Store::notify(
            &mut inner,
            DeviceEvent {
                kind: EventKind::Change,
                key: extension.to_string(),
                old: Some(old),
                new: Some(new),
                channel,
            },
        );
        Ok(())
    }

    /// Remove a station.
    pub fn remove(&self, extension: &str, channel: Channel) -> Result<()> {
        let mut inner = self.lock();
        let old = inner
            .stations
            .remove(extension)
            .ok_or_else(|| PbxError::NoSuchStation(extension.to_string()))?;
        Store::notify(
            &mut inner,
            DeviceEvent {
                kind: EventKind::Remove,
                key: extension.to_string(),
                old: Some(old),
                new: None,
                channel,
            },
        );
        Ok(())
    }

    /// List extensions in order.
    pub fn extensions(&self) -> Vec<String> {
        self.lock().stations.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let rx = s.subscribe();
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
    fn channel_is_carried() {
        let s = store();
        let rx = s.subscribe();
        s.add(station("9123", "X"), Channel::Metacomm).unwrap();
        assert_eq!(rx.recv().unwrap().channel, Channel::Metacomm);
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
        let err = s
            .change(
                "9123",
                Record::from_pairs([(fields::EXTENSION, "9200")]),
                Channel::Craft,
            )
            .unwrap_err();
        assert!(matches!(err, PbxError::InvalidField { .. }));
    }

    #[test]
    fn dump_and_extensions_ordered() {
        let s = store();
        s.add(station("9200", "B"), Channel::Craft).unwrap();
        s.add(station("9100", "A"), Channel::Craft).unwrap();
        assert_eq!(s.extensions(), vec!["9100", "9200"]);
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
        let rx = s.subscribe();
        s.add(
            Record::from_pairs([(fields::EXTENSION, "9123"), (fields::ROOM, "2B-401")]),
            Channel::Craft,
        )
        .unwrap();
        let block = || block_of(&s.lock().stations["9123"]);
        let change = |room: &str| {
            let patch = Record::from_pairs([(fields::ROOM, room)]);
            crate::asked::by(|| s.change("9123", patch, Channel::Craft).unwrap()).1
        };
        let at = block();
        // The same length: written over the stored bytes. The three blocks
        // allocated are the event's key and its two images.
        assert_eq!(change("4D-170"), (3, 0));
        assert_eq!(block(), at, "the stored block was swapped for a copy");
        assert_eq!(s.get("9123").unwrap().get(fields::ROOM), Some("4D-170"));
        // Longer: the stored block is resized by `realloc`, never replaced
        // by a block allocated next to it.
        assert_eq!(change("4D-170, west wing"), (3, 1));
        let stored = s.get("9123").unwrap();
        assert_eq!(stored.get(fields::ROOM), Some("4D-170, west wing"));
        assert_eq!(stored.get(fields::EXTENSION), Some("9123"));
        let mut changes = rx.try_iter().skip(1);
        let change = changes.next().expect("the change event");
        assert_eq!(change.old.unwrap().get(fields::ROOM), Some("2B-401"));
        assert_eq!(change.new.unwrap().get(fields::ROOM), Some("4D-170"));
        let change = changes.next().expect("the longer change's event");
        assert_eq!(change.old.unwrap().get(fields::ROOM), Some("4D-170"));
    }

    #[test]
    fn blanking_clears_field() {
        let s = store();
        s.add(station("9123", "X"), Channel::Craft).unwrap();
        s.change(
            "9123",
            Record::from_pairs([(fields::COVERAGE_PATH, "")]),
            Channel::Craft,
        )
        .unwrap();
        assert_eq!(s.get("9123").unwrap().get(fields::COVERAGE_PATH), None);
    }

    #[test]
    fn dropped_subscriber_pruned() {
        let s = store();
        {
            let _rx = s.subscribe();
        } // dropped
        let rx2 = s.subscribe();
        s.add(station("9123", "X"), Channel::Craft).unwrap();
        assert_eq!(rx2.try_iter().count(), 1);
    }
}

#[cfg(test)]
mod concurrency_tests {
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
        let rx = s.subscribe();
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
