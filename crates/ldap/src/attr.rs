//! Attribute names and multi-valued attribute bags.
//!
//! LDAP attribute names are case-insensitive; values here are directory
//! strings (the only syntax MetaComm's schema uses) compared with
//! `caseIgnoreMatch` unless the schema says otherwise.
//!
//! At million-entry scale the same few dozen attribute names appear in
//! every entry, and the overwhelming majority of attributes hold exactly
//! one value. Two representation choices keep per-entry overhead flat:
//! names are reference-counted `Arc<str>` pairs that the compact store
//! deduplicates through a global interner ([`AttrName::intern`]), and
//! value bags are a [`Values`] one-or-many enum so the single-value case
//! costs one `String`, not a `Vec` around it.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Case-insensitive attribute name. Keeps the display form as written and a
/// lowercased form for hashing/equality. Both forms are `Arc<str>`: a name
/// that is already lowercase shares one allocation, and interned names
/// (compact store) share allocations across every entry in the process.
#[derive(Debug, Clone)]
pub struct AttrName {
    display: Arc<str>,
    norm: Arc<str>,
}

impl AttrName {
    pub fn new(name: impl Into<String>) -> AttrName {
        let display: Arc<str> = Arc::from(name.into());
        let norm = if display.bytes().any(|b| b.is_ascii_uppercase()) {
            Arc::from(display.to_ascii_lowercase())
        } else {
            display.clone()
        };
        AttrName { display, norm }
    }

    /// The name as originally written.
    pub fn as_str(&self) -> &str {
        &self.display
    }

    /// Lowercased form used for matching.
    pub fn norm(&self) -> &str {
        &self.norm
    }

    /// Replace this name with the process-wide canonical copy for its
    /// display form, so a million entries holding `telephoneNumber` all
    /// point at the same two allocations. The pool is keyed by display
    /// form; the universe of attribute names is the schema's, not the
    /// data's, so it stays tiny — and `NAME_POOL_CAP` keeps it so when
    /// names arrive from an unauthenticated socket (a name past the cap is
    /// still correct, just not shared).
    pub fn intern(&mut self) {
        if let Some(canon) = NAME_POOL.read().get(&*self.display) {
            *self = canon.clone();
            return;
        }
        let mut pool = NAME_POOL.write();
        match pool.get(&*self.display) {
            Some(canon) => *self = canon.clone(),
            None if pool.len() < NAME_POOL_CAP => {
                pool.insert(self.display.clone(), self.clone());
            }
            None => {}
        }
    }

    /// The pooled name for `name` (see [`AttrName::intern`]); allocates
    /// only the first time a display form is seen.
    pub fn interned(name: &str) -> AttrName {
        if let Some(canon) = NAME_POOL.read().get(name) {
            return canon.clone();
        }
        let mut fresh = AttrName::new(name);
        fresh.intern();
        fresh
    }
}

/// Distinct display forms the name pool will hold.
const NAME_POOL_CAP: usize = 4096;

/// Read-mostly: every DN parse looks its attribute types up here, from
/// every wire and restore worker at once.
static NAME_POOL: LazyLock<parking_lot::RwLock<HashMap<Arc<str>, AttrName>>> =
    LazyLock::new(Default::default);

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        self.norm == other.norm
    }
}
impl Eq for AttrName {}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.norm.cmp(&other.norm)
    }
}

impl std::hash::Hash for AttrName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.norm.hash(state);
    }
}

/// Lets `BTreeMap<AttrName, _>` be looked up by `&str` (must be lowercase).
impl Borrow<str> for AttrName {
    fn borrow(&self) -> &str {
        &self.norm
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> AttrName {
        AttrName::new(s)
    }
}
impl From<String> for AttrName {
    fn from(s: String) -> AttrName {
        AttrName::new(s)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display)
    }
}

/// Run `f` on the ASCII-lowercased form of `name` — the key every
/// name-keyed table in this crate is stored under. A name that is already
/// lowercase is passed through and a mixed-case one is folded on the
/// stack, so a lookup by name costs no heap `String`; only a name too long
/// for any real schema pays for one.
pub(crate) fn with_lower<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return f(name);
    }
    let mut buf = [0u8; 64];
    match buf.get_mut(..name.len()) {
        Some(folded) => {
            folded.copy_from_slice(name.as_bytes());
            folded.make_ascii_lowercase();
            f(std::str::from_utf8(folded).expect("ASCII folding keeps UTF-8 valid"))
        }
        None => f(&name.to_ascii_lowercase()),
    }
}

/// Case-insensitive value equality (`caseIgnoreMatch`): ignores case and
/// squeezes whitespace runs. Compares the two normalized character streams
/// as they are produced; agrees with [`norm_value`] equality.
pub fn value_eq_ci(a: &str, b: &str) -> bool {
    a == b || norm_chars(a).eq(norm_chars(b))
}

/// The characters of [`norm_value`]`(v)`, one at a time: whitespace-separated
/// words, lowercased, one space between them.
fn norm_chars(v: &str) -> impl Iterator<Item = char> + '_ {
    v.split_whitespace().enumerate().flat_map(|(i, word)| {
        let gap = (i > 0).then_some(' ');
        gap.into_iter()
            .chain(word.chars().flat_map(char::to_lowercase))
    })
}

/// Normalized form of a directory-string value.
pub fn norm_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    norm_value_into(v, &mut out);
    out
}

/// [`norm_value`] into a buffer the caller keeps, replacing what it held.
pub(crate) fn norm_value_into(v: &str, out: &mut String) {
    out.clear();
    let mut last_space = true;
    for ch in v.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                out.extend(ch.to_lowercase());
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
}

/// The values of one attribute: almost always exactly one, so the single
/// case is stored inline without a `Vec` (24 bytes saved per attribute,
/// one allocation fewer — at a million entries times five-plus attributes
/// each, that is the difference between fitting in RAM twice over or not).
///
/// `One` always holds exactly one value; the empty bag is `Many(vec![])`.
/// Equality is by value sequence, so `One("a") == Many(["a"])`. Derefs to
/// `&[String]`, so slice methods (`len`, `iter`, indexing) work unchanged.
#[derive(Clone)]
pub enum Values {
    One(String),
    Many(Vec<String>),
}

impl Values {
    pub fn as_slice(&self) -> &[String] {
        match self {
            Values::One(v) => std::slice::from_ref(v),
            Values::Many(vs) => vs,
        }
    }

    pub fn to_vec(&self) -> Vec<String> {
        self.as_slice().to_vec()
    }

    /// Append a value (no dedup — callers check `caseIgnoreMatch` first).
    pub fn push(&mut self, value: String) {
        match self {
            Values::One(_) => {
                let Values::One(first) = std::mem::replace(self, Values::Many(Vec::new())) else {
                    unreachable!()
                };
                *self = Values::Many(vec![first, value]);
            }
            Values::Many(vs) if vs.is_empty() => *self = Values::One(value),
            Values::Many(vs) => vs.push(value),
        }
    }

    /// Keep only values for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&String) -> bool) {
        match self {
            Values::One(v) => {
                if !keep(v) {
                    *self = Values::Many(Vec::new());
                }
            }
            Values::Many(vs) => vs.retain(|v| keep(v)),
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
        if vs.len() == 1 {
            Values::One(vs.pop().expect("len checked"))
        } else {
            Values::Many(vs)
        }
    }
}

impl From<String> for Values {
    fn from(v: String) -> Values {
        Values::One(v)
    }
}

impl<'a> IntoIterator for &'a Values {
    type Item = &'a String;
    type IntoIter = std::slice::Iter<'a, String>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl IntoIterator for Values {
    type Item = String;
    type IntoIter = std::vec::IntoIter<String>;
    fn into_iter(self) -> Self::IntoIter {
        match self {
            Values::One(v) => vec![v].into_iter(),
            Values::Many(vs) => vs.into_iter(),
        }
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Values {}

impl PartialEq<Vec<String>> for Values {
    fn eq(&self, other: &Vec<String>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[&str]> for Values {
    fn eq(&self, other: &[&str]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// An attribute with its (possibly multiple) values. Values keep insertion
/// order; duplicates under `caseIgnoreMatch` are rejected on insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: AttrName,
    pub values: Values,
}

impl Attribute {
    pub fn new(name: impl Into<AttrName>, values: Vec<String>) -> Attribute {
        Attribute {
            name: name.into(),
            values: values.into(),
        }
    }

    pub fn single(name: impl Into<AttrName>, value: impl Into<String>) -> Attribute {
        Attribute {
            name: name.into(),
            values: Values::One(value.into()),
        }
    }

    /// `true` if `value` is present under case-insensitive matching.
    pub fn contains_ci(&self, value: &str) -> bool {
        self.values.iter().any(|v| value_eq_ci(v, value))
    }

    /// Add a value; returns `false` (and leaves the bag unchanged) when an
    /// equal value is already present.
    pub fn add_value(&mut self, value: impl Into<String>) -> bool {
        let value = value.into();
        if self.contains_ci(&value) {
            return false;
        }
        self.values.push(value);
        true
    }

    /// Remove a value under case-insensitive matching; returns `true` when a
    /// value was removed.
    pub fn remove_value(&mut self, value: &str) -> bool {
        let before = self.values.len();
        self.values.retain(|v| !value_eq_ci(v, value));
        self.values.len() != before
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{}: {}", self.name, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_case_insensitive() {
        assert_eq!(
            AttrName::new("telephoneNumber"),
            AttrName::new("TELEPHONENUMBER")
        );
        assert_eq!(AttrName::new("cn").norm(), "cn");
        assert_eq!(AttrName::new("CN").as_str(), "CN");
    }

    #[test]
    fn name_ordering_is_normalized() {
        let mut names = [
            AttrName::new("SN"),
            AttrName::new("cn"),
            AttrName::new("OU"),
        ];
        names.sort();
        let order: Vec<&str> = names.iter().map(|n| n.norm()).collect();
        assert_eq!(order, vec!["cn", "ou", "sn"]);
    }

    #[test]
    fn interning_dedups_allocations() {
        let mut a = AttrName::new("telephoneNumber");
        let mut b = AttrName::new("telephoneNumber");
        a.intern();
        b.intern();
        assert!(Arc::ptr_eq(&a.display, &b.display));
        assert!(Arc::ptr_eq(&a.norm, &b.norm));
        // Display forms are preserved exactly; a different casing is a
        // different pool entry (both still equal under CI matching).
        let mut c = AttrName::new("TELEPHONENUMBER");
        c.intern();
        assert_eq!(a, c);
        assert_eq!(c.as_str(), "TELEPHONENUMBER");
    }

    #[test]
    fn value_ci_matching() {
        assert!(value_eq_ci("John  Doe", "john doe"));
        assert!(value_eq_ci(" John Doe ", "JOHN DOE"));
        assert!(!value_eq_ci("John", "Johnny"));
    }

    #[test]
    fn values_one_many_equivalence() {
        assert_eq!(Values::One("a".into()), Values::Many(vec!["a".into()]));
        let mut v = Values::One("a".into());
        v.push("b".into());
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], "a");
        v.retain(|s| s == "b");
        assert_eq!(v.to_vec(), vec!["b".to_string()]);
        v.retain(|_| false);
        assert!(v.is_empty());
        v.push("c".into());
        assert!(matches!(v, Values::One(_)));
    }

    #[test]
    fn attribute_add_remove() {
        let mut a = Attribute::single("cn", "John Doe");
        assert!(!a.add_value("JOHN DOE")); // duplicate under CI match
        assert!(a.add_value("Johnny"));
        assert_eq!(a.values.len(), 2);
        assert!(a.remove_value("john doe"));
        assert_eq!(a.values, vec!["Johnny".to_string()]);
        assert!(!a.remove_value("nobody"));
    }

    #[test]
    fn borrow_str_lookup() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<AttrName, u32> = BTreeMap::new();
        m.insert(AttrName::new("TelephoneNumber"), 7);
        assert_eq!(m.get("telephonenumber"), Some(&7));
    }
}
