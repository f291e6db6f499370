//! The messaging platform's subscriber store.
//!
//! The crucial behaviour for MetaComm (paper §5.5 "Device-generated
//! information"): when a mailbox is added, the platform assigns a unique,
//! immutable mailbox id at commit. That generated id must flow back into
//! the directory — MetaComm handles it by reapplying the augmented update
//! until a fixpoint is reached.

use crate::error::{MpError, Result};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Well-known mailbox fields.
pub mod fields {
    /// Subscriber's mailbox number (the key, normally = extension).
    pub const MAILBOX: &str = "Mailbox";
    /// Platform-generated unique id, assigned at add-commit, immutable.
    pub const MBID: &str = "MbId";
    /// Subscriber display name ("Surname, Given").
    pub const SUBSCRIBER: &str = "Subscriber";
    /// Class of service.
    pub const COS: &str = "Cos";
}

/// A flat string-typed mailbox record (same weak-typing model as the PBX),
/// as the store's API takes and hands out one. At rest the store keeps each
/// mailbox as the PBX's packed [`pbx::Record`], one block of its fields; a
/// map is built only where a record leaves the store — [`Store::get`], what
/// [`Store::add`] and [`Store::change`] return, and the [`MpEvent`] images.
pub type Record = BTreeMap<String, String>;

/// Build a record from pairs.
pub fn record<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Record {
    pairs
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect()
}

/// The map of a stored record's fields: a node and two strings a field,
/// inserted in the order the map keeps.
fn unpacked(stored: &pbx::Record) -> Record {
    let mut map = Record::new();
    for (k, v) in stored.fields() {
        map.insert(k.to_string(), v.to_string());
    }
    map
}

/// Which administration path performed an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The platform's own admin console (a direct device update).
    Console,
    /// MetaComm's protocol converter.
    Metacomm,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    Add,
    Change,
    Remove,
}

/// Commit-time notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpEvent {
    pub kind: EventKind,
    pub key: String,
    pub old: Option<Record>,
    /// Post-commit image — for adds this **includes the generated `MbId`**.
    pub new: Option<Record>,
    pub channel: Channel,
}

/// The platform store.
pub struct Store {
    name: String,
    inner: Mutex<Inner>,
}

struct Inner {
    mailboxes: BTreeMap<String, pbx::Record>,
    subscribers: Vec<Sender<MpEvent>>,
    next_id: u64,
}

impl Store {
    pub fn new(name: impl Into<String>) -> Store {
        Store {
            name: name.into(),
            inner: Mutex::new(Inner {
                mailboxes: BTreeMap::new(),
                subscribers: Vec::new(),
                next_id: 1,
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

    pub fn len(&self) -> usize {
        self.lock().mailboxes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn subscribe(&self) -> Receiver<MpEvent> {
        let (tx, rx) = channel();
        self.lock().subscribers.push(tx);
        rx
    }

    /// Deliver `event` to every subscriber: a copy to each but the last,
    /// which takes the event itself. A subscriber that has hung up is
    /// dropped.
    fn notify(inner: &mut Inner, event: MpEvent) {
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

    pub fn get(&self, mailbox: &str) -> Option<Record> {
        self.lock().mailboxes.get(mailbox).map(unpacked)
    }

    /// Visit every mailbox in mailbox order, packed as the store keeps it
    /// and borrowed under the store's lock: synchronization support that
    /// copies no record. `visit` must not call back into this store.
    pub fn for_each(&self, visit: impl FnMut(&pbx::Record)) {
        self.lock().mailboxes.values().for_each(visit);
    }

    /// Create a mailbox. Any client-supplied `MbId` is ignored — the
    /// platform generates its own. Returns the post-commit record
    /// (including the generated id).
    pub fn add(&self, mut rec: Record, channel: Channel) -> Result<Record> {
        let mb = rec
            .get(fields::MAILBOX)
            .cloned()
            .ok_or_else(|| MpError::InvalidField {
                field: fields::MAILBOX.into(),
                detail: "missing".into(),
            })?;
        if mb.is_empty() || !mb.chars().all(|c| c.is_ascii_digit()) {
            return Err(MpError::InvalidField {
                field: fields::MAILBOX.into(),
                detail: format!("`{mb}` is not numeric"),
            });
        }
        let mut inner = self.lock();
        if inner.mailboxes.contains_key(&mb) {
            return Err(MpError::DuplicateMailbox(mb));
        }
        let id = format!("MB-{:06}", inner.next_id);
        inner.next_id += 1;
        rec.insert(fields::MBID.into(), id);
        let packed = rec.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        (inner.mailboxes).insert(mb.clone(), pbx::Record::from_pairs(packed));
        Store::notify(
            &mut inner,
            MpEvent {
                kind: EventKind::Add,
                key: mb,
                old: None,
                new: Some(rec.clone()),
                channel,
            },
        );
        Ok(rec)
    }

    /// Update non-key fields; empty values clear a field; `MbId` may be
    /// *present* in the patch only when unchanged (reapplied updates echo
    /// it back), never altered.
    pub fn change(&self, mailbox: &str, patch: Record, channel: Channel) -> Result<Record> {
        let mut inner = self.lock();
        let stored = (inner.mailboxes.get_mut(mailbox))
            .ok_or_else(|| MpError::NoSuchMailbox(mailbox.to_string()))?;
        if let Some(newid) = patch.get(fields::MBID) {
            if Some(newid.as_str()) != stored.get(fields::MBID) {
                return Err(MpError::ImmutableField(fields::MBID.into()));
            }
        }
        if let Some(newmb) = patch.get(fields::MAILBOX) {
            if newmb != mailbox {
                return Err(MpError::InvalidField {
                    field: fields::MAILBOX.into(),
                    detail: "mailbox number cannot be changed; remove and re-add".into(),
                });
            }
        }
        // Patched where it lives, once every check has passed: the block
        // keeps its address when the patch keeps its length and is
        // `realloc`ed otherwise. An empty value clears the field, the rule
        // of `pbx::Record::patch`, applied from the map so that the patch
        // is never packed.
        let old = unpacked(stored);
        for (k, v) in patch {
            if v.is_empty() {
                stored.remove(&k);
            } else {
                stored.set(k, v);
            }
        }
        let new = unpacked(stored);
        let post = new.clone();
        Store::notify(
            &mut inner,
            MpEvent {
                kind: EventKind::Change,
                key: mailbox.to_string(),
                old: Some(old),
                new: Some(new),
                channel,
            },
        );
        Ok(post)
    }

    pub fn remove(&self, mailbox: &str, channel: Channel) -> Result<()> {
        let mut inner = self.lock();
        let old = inner
            .mailboxes
            .remove(mailbox)
            .ok_or_else(|| MpError::NoSuchMailbox(mailbox.to_string()))?;
        Store::notify(
            &mut inner,
            MpEvent {
                kind: EventKind::Remove,
                key: mailbox.to_string(),
                old: Some(unpacked(&old)),
                new: None,
                channel,
            },
        );
        Ok(())
    }

    pub fn mailboxes(&self) -> Vec<String> {
        self.lock().mailboxes.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_generates_unique_immutable_id() {
        let s = Store::new("mp");
        let r1 = s
            .add(
                record([(fields::MAILBOX, "9123"), (fields::SUBSCRIBER, "Doe, John")]),
                Channel::Console,
            )
            .unwrap();
        let r2 = s
            .add(
                record([
                    (fields::MAILBOX, "9124"),
                    (fields::SUBSCRIBER, "Smith, Pat"),
                ]),
                Channel::Console,
            )
            .unwrap();
        let id1 = r1.get(fields::MBID).unwrap();
        let id2 = r2.get(fields::MBID).unwrap();
        assert_ne!(id1, id2);
        assert!(id1.starts_with("MB-"));
        // Client-supplied id is ignored.
        let r3 = s
            .add(
                record([(fields::MAILBOX, "9125"), (fields::MBID, "MB-999999")]),
                Channel::Console,
            )
            .unwrap();
        assert_ne!(r3.get(fields::MBID).unwrap(), "MB-999999");
        // Changing the id is rejected…
        let err = s
            .change(
                "9123",
                record([(fields::MBID, "MB-000777")]),
                Channel::Console,
            )
            .unwrap_err();
        assert_eq!(err, MpError::ImmutableField(fields::MBID.into()));
        // …but echoing the same id back (a reapplied update) is fine.
        s.change(
            "9123",
            record([(fields::MBID, id1.as_str())]),
            Channel::Console,
        )
        .unwrap();
    }

    #[test]
    fn add_event_carries_generated_id() {
        let s = Store::new("mp");
        let rx = s.subscribe();
        s.add(record([(fields::MAILBOX, "9123")]), Channel::Console)
            .unwrap();
        let ev = rx.recv().unwrap();
        assert_eq!(ev.kind, EventKind::Add);
        assert!(ev.new.unwrap().contains_key(fields::MBID));
    }

    #[test]
    fn change_and_remove() {
        let s = Store::new("mp");
        s.add(
            record([(fields::MAILBOX, "9123"), (fields::COS, "standard")]),
            Channel::Console,
        )
        .unwrap();
        let new = s
            .change(
                "9123",
                record([(fields::COS, "executive")]),
                Channel::Console,
            )
            .unwrap();
        assert_eq!(new.get(fields::COS).map(String::as_str), Some("executive"));
        // blanking
        s.change("9123", record([(fields::COS, "")]), Channel::Console)
            .unwrap();
        assert!(!s.get("9123").unwrap().contains_key(fields::COS));
        s.remove("9123", Channel::Console).unwrap();
        assert!(s.get("9123").is_none());
        assert!(matches!(
            s.remove("9123", Channel::Console),
            Err(MpError::NoSuchMailbox(_))
        ));
    }

    #[test]
    fn validation() {
        let s = Store::new("mp");
        assert!(matches!(
            s.add(record([(fields::SUBSCRIBER, "X")]), Channel::Console),
            Err(MpError::InvalidField { .. })
        ));
        assert!(matches!(
            s.add(record([(fields::MAILBOX, "12a4")]), Channel::Console),
            Err(MpError::InvalidField { .. })
        ));
        s.add(record([(fields::MAILBOX, "9123")]), Channel::Console)
            .unwrap();
        assert!(matches!(
            s.add(record([(fields::MAILBOX, "9123")]), Channel::Console),
            Err(MpError::DuplicateMailbox(_))
        ));
        assert!(matches!(
            s.change(
                "9123",
                record([(fields::MAILBOX, "9200")]),
                Channel::Console
            ),
            Err(MpError::InvalidField { .. })
        ));
    }

    #[test]
    fn dump_ordered() {
        let s = Store::new("mp");
        s.add(record([(fields::MAILBOX, "9200")]), Channel::Console)
            .unwrap();
        s.add(record([(fields::MAILBOX, "9100")]), Channel::Console)
            .unwrap();
        assert_eq!(s.mailboxes(), vec!["9100", "9200"]);
        let mut ids = Vec::new();
        s.for_each(|rec| ids.push(rec.get(fields::MBID).unwrap().to_string()));
        assert_eq!(ids, ["MB-000002", "MB-000001"]);
    }

    #[test]
    fn a_change_overwrites_the_stored_field_where_it_lives() {
        let s = Store::new("mp");
        let rx = s.subscribe();
        s.add(
            record([(fields::MAILBOX, "9123"), (fields::COS, "executive")]),
            Channel::Console,
        )
        .unwrap();
        // Where the stored block starts: its first key is one length byte in.
        let block = || {
            let inner = s.lock();
            let first = inner.mailboxes["9123"].fields().next();
            first.expect("a field").0.as_ptr()
        };
        let change = |cos: &str| {
            let patch = record([(fields::COS, cos)]);
            crate::asked::by(|| s.change("9123", patch, Channel::Console).unwrap())
        };
        let at = block();
        // The same length: written over the stored bytes. The blocks
        // allocated are the API's: the event's key, and three maps of
        // three fields (the event's two images and the record returned), a
        // node and six strings each.
        const MAPS: u64 = 1 + 3 * 7;
        let (post, asked) = change("standard!");
        assert_eq!(asked, (MAPS, 0));
        assert_eq!(block(), at, "the stored block was swapped for a copy");
        assert_eq!(post[fields::COS], "standard!");
        assert_eq!(s.get("9123").unwrap()[fields::COS], "standard!");
        // Longer: the stored block is resized by `realloc`, never replaced
        // by a block allocated next to it.
        let (post, asked) = change("standard, with fax");
        assert_eq!(asked, (MAPS, 1));
        assert_eq!(post[fields::COS], "standard, with fax");
        let mut changes = rx.try_iter().skip(1);
        let change = changes.next().expect("the change event");
        assert_eq!(change.old.unwrap()[fields::COS], "executive");
        assert_eq!(change.new.unwrap()[fields::COS], "standard!");
        let change = changes.next().expect("the longer change's event");
        assert_eq!(change.old.unwrap()[fields::COS], "standard!");
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ids_stay_unique_under_concurrent_adds() {
        let s = Arc::new(Store::new("mp"));
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mb = format!("{}{:03}", t + 1, i);
                    s.add(record([(fields::MAILBOX, mb.as_str())]), Channel::Console)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut ids: Vec<String> = Vec::new();
        s.for_each(|r| ids.push(r.get(fields::MBID).unwrap().to_string()));
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "generated ids must be unique");
        assert_eq!(before, 200);
    }

    #[test]
    fn events_chain_gaplessly() {
        let s = Store::new("mp");
        let rx = s.subscribe();
        s.add(record([(fields::MAILBOX, "9123")]), Channel::Console)
            .unwrap();
        for i in 0..10 {
            s.change(
                "9123",
                record([(fields::COS, format!("cos{i}").as_str())]),
                Channel::Console,
            )
            .unwrap();
        }
        s.remove("9123", Channel::Console).unwrap();
        let events: Vec<MpEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 12);
        for w in events.windows(2) {
            assert_eq!(w[0].new, w[1].old, "event chain must be gapless");
        }
        assert!(events.last().unwrap().new.is_none());
    }
}
