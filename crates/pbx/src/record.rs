//! Weakly-typed device records.
//!
//! The Definity stores administration data as flat field/value forms; every
//! value is a string and the device itself enforces almost nothing — the
//! "extremely weak typing" the paper's consistency machinery must survive.

use std::collections::BTreeMap;
use std::fmt;

/// The well-known station fields this simulator administers. Anything else
/// is accepted too (weak typing) but these are what the OSSI interface and
/// the MetaComm mappings use.
pub mod fields {
    pub const EXTENSION: &str = "Extension";
    pub const NAME: &str = "Name";
    pub const ROOM: &str = "Room";
    pub(crate) const PORT: &str = "Port";
    pub(crate) const SET_TYPE: &str = "Type";
    pub(crate) const COVERAGE_PATH: &str = "CoveragePath";
    pub(crate) const COR: &str = "Cor";
}

/// A flat, string-typed record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    map: BTreeMap<String, String>,
}

impl Record {
    pub fn new() -> Record {
        Record::default()
    }

    pub fn from_pairs<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Record {
        let mut r = Record::new();
        for (k, v) in pairs {
            r.set(k, v);
        }
        r
    }

    pub fn get(&self, field: &str) -> Option<&str> {
        self.map.get(field).map(String::as_str)
    }

    pub fn set(&mut self, field: impl Into<String>, value: impl Into<String>) {
        self.map.insert(field.into(), value.into());
    }

    pub fn fields(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Write `patch`'s fields into this record where it lives: a field it
    /// already has is overwritten in its own string (which keeps its block
    /// when the new value fits), an empty value clears the field (Definity
    /// semantics for blanking a form field), and only a new field is
    /// inserted.
    pub(crate) fn patch(&mut self, patch: &Record) {
        for (k, v) in patch.fields() {
            if v.is_empty() {
                self.map.remove(k);
            } else if let Some(held) = self.map.get_mut(k) {
                held.clear();
                held.push_str(v);
            } else {
                self.map.insert(k.to_string(), v.to_string());
            }
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.fields() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{k}={v:?}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut r = Record::from_pairs([("Extension", "9123"), ("Name", "Doe, John")]);
        assert_eq!(r.get("Extension"), Some("9123"));
        assert_eq!(r.get("Missing"), None);
        r.set("Room", "2B-401");
        assert_eq!(r.fields().count(), 3);
        assert_eq!(r.get("Room"), Some("2B-401"));
        r.patch(&Record::from_pairs([("Room", "")]));
        assert!(r.get("Room").is_none());
    }

    #[test]
    fn update_with_blanking() {
        let mut out = Record::from_pairs([("Extension", "9123"), ("Name", "Doe"), ("Room", "2B")]);
        let patch = Record::from_pairs([("Name", "Smith"), ("Room", "")]);
        out.patch(&patch);
        assert_eq!(out.get("Name"), Some("Smith"));
        assert_eq!(out.get("Room"), None, "empty value blanks the field");
        assert_eq!(out.get("Extension"), Some("9123"));
    }

    #[test]
    fn weak_typing_accepts_anything() {
        let mut r = Record::new();
        r.set("CoveragePath", "not-a-number");
        r.set("SomeUnknownField", "☎");
        assert_eq!(r.get("SomeUnknownField"), Some("☎"));
    }
}
