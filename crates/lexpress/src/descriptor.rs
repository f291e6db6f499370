//! Canonical update descriptors — the exchange format between MetaComm
//! filters and lexpress (paper §4.1: "it creates a lexpress update
//! descriptor of the change").

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

/// Distinct name spellings the pool will hold.
const POOL_CAP: usize = 4096;

/// Longest name, in bytes, the pool will hold — longer than any schema's.
const POOLED_LEN_MAX: usize = 64;

/// Every attribute name an image or a compiled rule holds, each spelling
/// once per process. The universe of names is the schemas', not the data's,
/// so the pool stays tiny; the caps keep it so against a device that
/// invents field names (a name it will not take gets a block of its own).
static NAME_POOL: LazyLock<RwLock<HashSet<Arc<str>>>> = LazyLock::new(Default::default);

/// The shared block for `name`; allocates only the first time a spelling
/// is seen.
pub(crate) fn shared_name(name: &str) -> Arc<str> {
    if name.len() > POOLED_LEN_MAX {
        return Arc::from(name);
    }
    // A panic elsewhere cannot leave the set half-updated: an insert is the
    // only write, and it either happened or did not.
    if let Some(found) = NAME_POOL
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
    {
        return found.clone();
    }
    let mut pool = NAME_POOL.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(found) = pool.get(name) {
        return found.clone();
    }
    let block = Arc::<str>::from(name);
    if pool.len() < POOL_CAP {
        pool.insert(block.clone());
    }
    block
}

/// Attribute-name order: byte order of the ASCII-lowercased names, without
/// lowercasing either into a buffer.
fn cmp_folded(a: &str, b: &str) -> Ordering {
    let fold = |c: u8| c.to_ascii_lowercase();
    a.bytes().map(fold).cmp(b.bytes().map(fold))
}

/// An attribute's values. Almost every attribute has exactly one, and it is
/// held without a vector around it. Equality is by value sequence.
#[derive(Debug, Clone)]
pub(crate) enum Values {
    One(String),
    Many(Vec<String>),
}

impl Values {
    pub(crate) fn as_slice(&self) -> &[String] {
        match self {
            Values::One(v) => std::slice::from_ref(v),
            Values::Many(vs) => vs,
        }
    }

    fn push(&mut self, value: String) {
        match self {
            Values::One(first) => *self = Values::Many(vec![std::mem::take(first), value]),
            Values::Many(vs) => vs.push(value),
        }
    }

    fn into_vec(self) -> Vec<String> {
        match self {
            Values::One(v) => vec![v],
            Values::Many(vs) => vs,
        }
    }
}

impl std::ops::Deref for Values {
    type Target = [String];
    fn deref(&self) -> &[String] {
        self.as_slice()
    }
}

impl From<Vec<String>> for Values {
    fn from(mut vs: Vec<String>) -> Values {
        match vs.len() {
            1 => Values::One(vs.pop().expect("one value")),
            _ => Values::Many(vs),
        }
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Values) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Values {}

/// A case-insensitive attribute image: attribute name → values.
///
/// One vector sorted by case-folded name, searched in place, so a lookup
/// copies nothing. A name is a pointer to a block the process shares:
/// names set from a string come from a capped pool, and a translation's
/// output names are its compiled rules' own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// No two names fold alike; no attribute has no value.
    attrs: Vec<(Arc<str>, Values)>,
}

impl Image {
    pub fn new() -> Image {
        Image::default()
    }

    /// Build from `(name, value)` pairs, accumulating repeated names.
    pub fn from_pairs<N: AsRef<str>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (N, V)>,
    ) -> Image {
        let pairs = pairs.into_iter();
        let mut img = Image::with_capacity(pairs.size_hint().0);
        for (n, v) in pairs {
            img.add(n.as_ref(), v);
        }
        img
    }

    /// An empty image with room for `n` attributes.
    pub(crate) fn with_capacity(n: usize) -> Image {
        Image {
            attrs: Vec::with_capacity(n),
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|(n, _)| cmp_folded(n, name))
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// All values of `name` (empty when absent).
    pub fn values(&self, name: &str) -> &[String] {
        match self.find(name) {
            Ok(i) => self.attrs[i].1.as_slice(),
            Err(_) => &[],
        }
    }

    /// First value of `name`.
    pub fn first(&self, name: &str) -> Option<&str> {
        self.values(name).first().map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Replace all values of `name` (removes when empty).
    pub fn set(&mut self, name: impl AsRef<str>, values: Vec<String>) {
        let name = name.as_ref();
        if values.is_empty() {
            self.remove(name);
        } else {
            self.put(shared_name(name), values.into());
        }
    }

    /// [`Image::set`] under a name the caller already shares.
    pub(crate) fn put(&mut self, name: Arc<str>, values: Values) {
        match self.find(&name) {
            Ok(i) => self.attrs[i] = (name, values),
            Err(i) => self.attrs.insert(i, (name, values)),
        }
    }

    /// Append one value.
    pub(crate) fn add(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        match self.find(name) {
            Ok(i) => self.attrs[i].1.push(value),
            Err(i) => self
                .attrs
                .insert(i, (shared_name(name), Values::One(value))),
        }
    }

    pub fn remove(&mut self, name: &str) -> Option<Vec<String>> {
        let i = self.find(name).ok()?;
        Some(self.attrs.remove(i).1.into_vec())
    }

    /// Iterate `(display-name, values)` in normalized order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(n, v)| (&**n, v.as_slice()))
    }

    /// The shared names, in normalized order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.attrs.iter().map(|(n, _)| n)
    }

    /// Names whose value sets differ between the images, in normalized
    /// order: one merge walk over the two sorted vectors.
    fn changed_names(&self, other: &Image) -> Vec<Arc<str>> {
        let (mut a, mut b) = (self.attrs.iter().peekable(), other.attrs.iter().peekable());
        let mut out = Vec::new();
        loop {
            let order = match (a.peek(), b.peek()) {
                (None, None) => return out,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((x, _)), Some((y, _))) => cmp_folded(x, y),
            };
            match order {
                Ordering::Less => out.push(a.next().expect("peeked").0.clone()),
                Ordering::Greater => out.push(b.next().expect("peeked").0.clone()),
                Ordering::Equal => {
                    let ((name, mine), (_, theirs)) =
                        (a.next().expect("peeked"), b.next().expect("peeked"));
                    if mine != theirs {
                        out.push(name.clone());
                    }
                }
            }
        }
    }

    /// Names (lowercase) whose value sets differ between the images.
    pub fn changed_attrs(&self, other: &Image) -> Vec<String> {
        self.changed_names(other)
            .iter()
            .map(|n| n.to_ascii_lowercase())
            .collect()
    }
}

/// What a program reads its attributes from: an [`Image`], or any record
/// that hands out an attribute's values in place — so that evaluating
/// against it copies nothing.
pub trait Frame {
    /// All values of `name`, matched regardless of ASCII case; empty
    /// ([`NO_VALUES`]) when absent.
    fn values(&self, name: &str) -> &dyn ValueList;

    /// Holds no attribute at all.
    fn is_empty(&self) -> bool;
}

/// One attribute's values as a [`Frame`] hands them out, in place: any
/// owner of a slice of strings — an [`Image`]'s, a `Vec<String>`, or a
/// record's own value type that reads as `str`.
pub trait ValueList {
    fn len(&self) -> usize;

    /// The `i`-th value, `None` past the end.
    fn get(&self, i: usize) -> Option<&str>;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<L, S> ValueList for L
where
    L: std::ops::Deref<Target = [S]>,
    S: AsRef<str> + 'static,
{
    fn len(&self) -> usize {
        self.deref().len()
    }

    fn get(&self, i: usize) -> Option<&str> {
        self.deref().get(i).map(AsRef::as_ref)
    }
}

/// The values of an attribute a frame does not hold.
pub static NO_VALUES: Vec<String> = Vec::new();

/// `list`'s values in order.
pub(crate) fn items(list: &dyn ValueList) -> impl Iterator<Item = &str> {
    (0..list.len()).map_while(|i| list.get(i))
}

impl Frame for Image {
    fn values(&self, name: &str) -> &dyn ValueList {
        match self.find(name) {
            Ok(i) => &self.attrs[i].1,
            Err(_) => &NO_VALUES,
        }
    }

    fn is_empty(&self) -> bool {
        Image::is_empty(self)
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
    /// Attributes the client set explicitly, named as the images name them;
    /// ask [`UpdateDescriptor::is_explicit`], which ignores case. The
    /// transitive closure never overwrites these (paper §4.2).
    pub explicit: Vec<Arc<str>>,
}

impl UpdateDescriptor {
    pub fn add(key: impl Into<String>, new: Image, origin: impl Into<String>) -> Self {
        let explicit = new.names().cloned().collect();
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
        let explicit = old.changed_names(&new);
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
        self.explicit.iter().any(|n| n.eq_ignore_ascii_case(attr))
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
        // The spelling first set is the one shown.
        assert_eq!(img.iter().next().map(|(n, _)| n), Some("TelephoneNumber"));
    }

    #[test]
    fn image_iterates_in_folded_order_and_shares_names() {
        let img = Image::from_pairs([
            ("sn", "Doe"),
            ("CN", "John Doe"),
            ("Room", "2B"),
            ("cn", "J"),
        ]);
        let names: Vec<&str> = img.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["CN", "Room", "sn"]);
        assert_eq!(img.values("cn"), ["John Doe", "J"]);
        let again = Image::from_pairs([("Room", "3C")]);
        let (a, b) = (img.names().nth(1).unwrap(), again.names().next().unwrap());
        assert!(Arc::ptr_eq(a, b), "one block per spelling");
        let mut img = img;
        assert_eq!(img.remove("ROOM"), Some(vec!["2B".to_string()]));
        img.set("sn", Vec::new());
        assert_eq!(img.iter().count(), 1);
    }

    #[test]
    fn a_name_too_long_for_any_schema_is_not_pooled() {
        let long = "x".repeat(POOLED_LEN_MAX + 1);
        assert!(!Arc::ptr_eq(&shared_name(&long), &shared_name(&long)));
        let fits = &long[1..];
        assert!(Arc::ptr_eq(&shared_name(fits), &shared_name(fits)));
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
