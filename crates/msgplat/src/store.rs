//! The messaging platform's subscriber store: the one device store
//! ([`pbx::Store`]) with the platform's [`Platform`] kind.
//!
//! The crucial behaviour for MetaComm (paper §5.5 "Device-generated
//! information"): when a mailbox is added, the platform assigns a unique,
//! immutable mailbox id at commit. That generated id must flow back into
//! the directory — MetaComm handles it by reapplying the augmented update
//! until a fixpoint is reached.

use crate::error::MpError;
use pbx::{Kind, Mint, Refusal};
use std::collections::BTreeMap;

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

/// A mailbox: the PBX's packed record, one block of its fields.
pub use pbx::Record;

/// Build a record from pairs.
pub fn record<K: AsRef<str>, V: AsRef<str>>(pairs: impl IntoIterator<Item = (K, V)>) -> Record {
    Record::from_pairs(pairs)
}

/// A mailbox's fields as a map of strings, the form [`Store::get`] hands
/// out.
pub type Fields = BTreeMap<String, String>;

/// Which administration path performed an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The platform's own admin console (a direct device update).
    Console,
    /// MetaComm's protocol converter.
    Metacomm,
}

/// The messaging platform: mailboxes keyed by a numeric mailbox number,
/// each given an `MB-nnnnnn` id at add-commit.
pub struct Platform;

fn mint(n: u64) -> String {
    format!("MB-{n:06}")
}

impl Kind for Platform {
    const KEY: &'static str = fields::MAILBOX;
    const MINTED: Option<(&'static str, Mint)> = Some((fields::MBID, mint));
    type Channel = Channel;
    const TERMINAL: Channel = Channel::Console;
    const METACOMM: Channel = Channel::Metacomm;
    type Error = MpError;

    fn admit(&self, key: &str, _device: &str) -> crate::Result<()> {
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_digit()) {
            return Err(MpError::InvalidField {
                field: fields::MAILBOX.into(),
                detail: format!("`{key}` is not numeric"),
            });
        }
        Ok(())
    }

    fn refuse(refusal: Refusal<'_>) -> MpError {
        match refusal {
            Refusal::Missing(key) => MpError::NoSuchMailbox(key.to_string()),
            Refusal::Duplicate(key) => MpError::DuplicateMailbox(key.to_string()),
            Refusal::Invalid { field, detail } => MpError::InvalidField {
                field: field.to_string(),
                detail,
            },
            Refusal::Immutable(field) => MpError::ImmutableField(field.to_string()),
        }
    }

    fn is_missing(e: &MpError) -> bool {
        matches!(e, MpError::NoSuchMailbox(_))
    }
}

/// The platform store. Every store call but [`Store::get`] is the one
/// device store's, reached through `Deref`.
pub struct Store(pbx::Store<Platform>);

impl Store {
    pub fn new(name: impl Into<String>) -> Store {
        Store(pbx::Store::with_kind(name, Platform))
    }

    /// The mailbox's fields as a map: the one place the platform builds a
    /// map, for readers that take a mailbox as one. The packed record is
    /// [`pbx::Store::get`]'s, and [`pbx::Store::read`] borrows it.
    pub fn get(&self, mailbox: &str) -> Option<Fields> {
        let fields = |held: &Record| {
            let pairs = held.fields();
            pairs.map(|(k, v)| (k.to_string(), v.to_string())).collect()
        };
        self.0.read(mailbox, fields)
    }
}

impl std::ops::Deref for Store {
    type Target = pbx::Store<Platform>;

    fn deref(&self) -> &pbx::Store<Platform> {
        &self.0
    }
}

impl AsRef<pbx::Store<Platform>> for Store {
    fn as_ref(&self) -> &pbx::Store<Platform> {
        &self.0
    }
}

/// What the platform's kind adds to the one store: the minted id, the
/// numeric mailbox number, and the map `get` hands out. The store itself
/// is tested once, in `pbx`.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The id the platform minted for `mailbox`.
    fn id(s: &Store, mailbox: &str) -> String {
        s.get(mailbox).expect("mailbox")[fields::MBID].clone()
    }

    fn add(s: &Store, pairs: &[(&str, &str)]) -> crate::Result<()> {
        s.add(record(pairs.iter().copied()), Channel::Console)
    }

    #[test]
    fn add_generates_unique_immutable_id() {
        let s = Store::new("mp");
        let rx = s.subscribe();
        add(
            &s,
            &[(fields::MAILBOX, "9123"), (fields::SUBSCRIBER, "Doe, John")],
        )
        .unwrap();
        add(
            &s,
            &[
                (fields::MAILBOX, "9124"),
                (fields::SUBSCRIBER, "Smith, Pat"),
            ],
        )
        .unwrap();
        let (id1, id2) = (id(&s, "9123"), id(&s, "9124"));
        assert_eq!((id1.as_str(), id2.as_str()), ("MB-000001", "MB-000002"));
        // The add's event carries the id the platform minted.
        let added = rx.recv().unwrap().new.unwrap();
        assert_eq!(added.get(fields::MBID), Some(id1.as_str()));
        // Client-supplied id is ignored.
        add(
            &s,
            &[(fields::MAILBOX, "9125"), (fields::MBID, "MB-999999")],
        )
        .unwrap();
        assert_eq!(id(&s, "9125"), "MB-000003");
        // Changing the id is rejected…
        for changed in ["MB-000777", ""] {
            let patch = record([(fields::MBID, changed)]);
            let err = s.change("9123", patch, Channel::Console).unwrap_err();
            assert_eq!(err, MpError::ImmutableField(fields::MBID.into()));
        }
        // …but echoing the same id back (a reapplied update) is fine.
        let patch = record([(fields::MBID, id1.as_str())]);
        s.change("9123", patch, Channel::Metacomm).unwrap();
        assert_eq!(id(&s, "9123"), id1);
    }

    #[test]
    fn validation() {
        let s = Store::new("mp");
        for refused in [&[(fields::SUBSCRIBER, "X")], &[(fields::MAILBOX, "12a4")]] {
            let err = add(&s, refused).unwrap_err();
            assert!(matches!(err, MpError::InvalidField { .. }), "{err:?}");
        }
        add(&s, &[(fields::MAILBOX, "9123")]).unwrap();
        assert!(matches!(
            add(&s, &[(fields::MAILBOX, "9123")]),
            Err(MpError::DuplicateMailbox(_))
        ));
        let renumber = record([(fields::MAILBOX, "9200")]);
        assert!(matches!(
            s.change("9123", renumber, Channel::Console),
            Err(MpError::InvalidField { .. })
        ));
        assert!(matches!(
            s.remove("9200", Channel::Console),
            Err(MpError::NoSuchMailbox(_))
        ));
    }

    #[test]
    fn get_hands_a_mailbox_out_as_a_map() {
        let s = Store::new("mp");
        add(&s, &[(fields::MAILBOX, "9123"), (fields::COS, "standard")]).unwrap();
        let patch = record([(fields::COS, "executive")]);
        s.change("9123", patch, Channel::Console).unwrap();
        let held = s.get("9123").unwrap();
        assert_eq!(held.get(fields::COS).map(String::as_str), Some("executive"));
        assert_eq!(held.keys().collect::<Vec<_>>(), ["Cos", "Mailbox", "MbId"]);
        s.remove("9123", Channel::Console).unwrap();
        assert!(s.get("9123").is_none());
    }

    #[test]
    fn ids_stay_unique_under_concurrent_adds() {
        let s = Arc::new(Store::new("mp"));
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mb = format!("{}{:03}", t + 1, i);
                    add(&s, &[(fields::MAILBOX, mb.as_str())]).unwrap();
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
}
