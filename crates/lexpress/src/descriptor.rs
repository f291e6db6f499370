//! Canonical update descriptors — the exchange format between MetaComm
//! filters and lexpress (paper §4.1: "it creates a lexpress update
//! descriptor of the change").

use std::collections::BTreeMap;
use std::fmt;

/// A case-insensitive attribute image: attribute name → values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// lowercase name → (display name, values)
    map: BTreeMap<String, (String, Vec<String>)>,
}

impl Image {
    pub fn new() -> Image {
        Image::default()
    }

    /// Build from `(name, value)` pairs, accumulating repeated names.
    pub fn from_pairs<N: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (N, V)>,
    ) -> Image {
        let mut img = Image::new();
        for (n, v) in pairs {
            img.add(n.into(), v.into());
        }
        img
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All values of `name` (empty when absent).
    pub fn values(&self, name: &str) -> &[String] {
        self.map
            .get(&name.to_ascii_lowercase())
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// First value of `name`.
    pub fn first(&self, name: &str) -> Option<&str> {
        self.values(name).first().map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.map.contains_key(&name.to_ascii_lowercase())
    }

    /// Replace all values of `name` (removes when empty).
    pub fn set(&mut self, name: impl Into<String>, values: Vec<String>) {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        if values.is_empty() {
            self.map.remove(&key);
        } else {
            self.map.insert(key, (name, values));
        }
    }

    /// Append one value.
    pub(crate) fn add(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        self.map
            .entry(key)
            .or_insert_with(|| (name, Vec::new()))
            .1
            .push(value.into());
    }

    pub fn remove(&mut self, name: &str) -> Option<Vec<String>> {
        self.map.remove(&name.to_ascii_lowercase()).map(|(_, v)| v)
    }

    /// Iterate `(display-name, values)` in normalized order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.map.values().map(|(n, v)| (n.as_str(), v.as_slice()))
    }

    /// Names (lowercase) whose value sets differ between the images.
    pub fn changed_attrs(&self, other: &Image) -> Vec<String> {
        let mut out = Vec::new();
        for key in self.map.keys().chain(other.map.keys()) {
            if out.contains(key) {
                continue;
            }
            let a = self.values(key);
            let b = other.values(key);
            if a != b {
                out.push(key.clone());
            }
        }
        out
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, vs) in self.iter() {
            for v in vs {
                if !first {
                    f.write_str(", ")?;
                }
                write!(f, "{n}={v}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// The kind of update a descriptor carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    Add,
    Modify,
    Delete,
}

/// A canonical update descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateDescriptor {
    pub kind: UpdateKind,
    /// Value of the source key attribute (pre-update value for renames).
    pub key: String,
    /// Attribute image before the update (empty for Add).
    pub old: Image,
    /// Attribute image after the update (empty for Delete).
    pub new: Image,
    /// Repository that originated the update (e.g. `pbx-west`, `ldap`, `wba`).
    pub origin: String,
    /// Attributes the client set explicitly (lowercase). The transitive
    /// closure never overwrites these (paper §4.2).
    pub explicit: Vec<String>,
}

impl UpdateDescriptor {
    pub fn add(key: impl Into<String>, new: Image, origin: impl Into<String>) -> Self {
        let explicit = new.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
        UpdateDescriptor {
            kind: UpdateKind::Add,
            key: key.into(),
            old: Image::new(),
            new,
            origin: origin.into(),
            explicit,
        }
    }

    pub fn modify(
        key: impl Into<String>,
        old: Image,
        new: Image,
        origin: impl Into<String>,
    ) -> Self {
        let explicit = old.changed_attrs(&new);
        UpdateDescriptor {
            kind: UpdateKind::Modify,
            key: key.into(),
            old,
            new,
            origin: origin.into(),
            explicit,
        }
    }

    pub fn delete(key: impl Into<String>, old: Image, origin: impl Into<String>) -> Self {
        UpdateDescriptor {
            kind: UpdateKind::Delete,
            key: key.into(),
            old,
            new: Image::new(),
            origin: origin.into(),
            explicit: Vec::new(),
        }
    }

    /// Was `attr` explicitly set by the client?
    pub fn is_explicit(&self, attr: &str) -> bool {
        let a = attr.to_ascii_lowercase();
        self.explicit.contains(&a)
    }
}

/// The operation kind lexpress emits toward a target repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Add,
    Modify,
    Delete,
    /// The object is not (and was not) under this target's management.
    Skip,
}

/// One translated operation against a target repository (paper §4.2: "the
/// correct series of add, delete and modify operations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetOp {
    pub kind: OpKind,
    /// `true` when this is a *conditional* (reapplied) operation: the target
    /// is the repository that originated the update (paper §5.4). Conditional
    /// adds are attempted as modify-then-add; conditional deletes tolerate
    /// not-found.
    pub conditional: bool,
    /// Target key value computed from the *old* image (addressing), when the
    /// object previously existed under this target.
    pub old_key: Option<String>,
    /// Target key value computed from the *new* image.
    pub new_key: Option<String>,
    /// New attribute image in the target schema.
    pub attrs: Image,
    /// Old attribute image in the target schema (undo / diffing).
    pub old_attrs: Image,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_case_insensitive() {
        let mut img = Image::new();
        img.set("TelephoneNumber", vec!["9123".into()]);
        assert_eq!(img.first("telephonenumber"), Some("9123"));
        assert!(img.has("TELEPHONENUMBER"));
        img.add("telephoneNumber", "9124");
        assert_eq!(img.values("telephoneNumber").len(), 2);
    }

    #[test]
    fn image_diff() {
        let a = Image::from_pairs([("x", "1"), ("y", "2")]);
        let b = Image::from_pairs([("y", "3"), ("z", "4")]);
        let mut changed = a.changed_attrs(&b);
        changed.sort();
        assert_eq!(changed, vec!["x", "y", "z"]);
        assert!(a.changed_attrs(&a).is_empty());
    }

    #[test]
    fn descriptor_constructors_track_explicit() {
        let old = Image::from_pairs([("Extension", "9123"), ("Name", "Doe, John")]);
        let mut new = old.clone();
        new.set("Extension", vec!["9200".into()]);
        let d = UpdateDescriptor::modify("9123", old, new, "pbx-west");
        assert!(d.is_explicit("extension"));
        assert!(!d.is_explicit("name"));
        let d = UpdateDescriptor::add("1", Image::from_pairs([("A", "x")]), "mp");
        assert!(d.is_explicit("a"));
    }
}
