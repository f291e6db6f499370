//! Directory entries and the modification operations that act on them.

#![forbid(unsafe_code)]

use crate::attr::{repeated_value, value_eq_ci, with_lower, AttrName, Attribute, Value};
use crate::dn::Dn;
use crate::error::{LdapError, Result, ResultCode};
use std::fmt;

/// A directory entry: a DN plus a set of multi-valued attributes.
///
/// The attributes are one vector sorted by normalized name, from the first
/// value on: a handful of attributes cost one allocation, a lookup is a
/// binary search over at most a dozen names, and an insert or a removal is
/// that search and a splice. Everything observable (search streams, LDIF
/// export, diffing) sees the attributes in that order.
///
/// The `objectClass` attribute is stored like any other but has dedicated
/// accessors because schema checking and MetaComm's auxiliary-class design
/// both hinge on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    dn: Dn,
    attrs: Vec<Attribute>,
}

impl Entry {
    pub fn new(dn: Dn) -> Entry {
        Entry {
            dn,
            attrs: Vec::new(),
        }
    }

    /// Where the attribute named `norm` (lowercased) sits, or would go.
    fn find(&self, norm: &str) -> std::result::Result<usize, usize> {
        self.attrs.binary_search_by(|a| a.name.norm().cmp(norm))
    }

    /// Insert or replace by the attribute's own name.
    fn insert(&mut self, attr: Attribute) {
        match self.find(attr.name.norm()) {
            Ok(i) => self.attrs[i] = attr,
            Err(i) => self.attrs.insert(i, attr),
        }
    }

    fn remove(&mut self, norm: &str) -> Option<Attribute> {
        self.find(norm).ok().map(|i| self.attrs.remove(i))
    }

    /// Convenience constructor from `(name, value)` pairs; repeated names
    /// accumulate values.
    pub fn with_attrs<N, V>(dn: Dn, pairs: impl IntoIterator<Item = (N, V)>) -> Entry
    where
        N: Into<AttrName>,
        V: Into<Value>,
    {
        let mut e = Entry::new(dn);
        for (n, v) in pairs {
            e.add_value(n, v);
        }
        e
    }

    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    pub fn set_dn(&mut self, dn: Dn) {
        self.dn = dn;
    }

    pub(crate) fn dn_mut(&mut self) -> &mut Dn {
        &mut self.dn
    }

    /// Size the attribute vector exactly, intern attribute names and swap
    /// the `objectClass` list for the copy every entry of the class shares
    /// (an edit copies it first). The compact store calls this on every
    /// entry it takes.
    pub fn compact_for_store(&mut self) {
        self.attrs.shrink_to_fit();
        for a in &mut self.attrs {
            a.name.intern();
            if a.name.norm() == "objectclass" {
                a.values.share();
            }
        }
    }

    /// Heap bytes behind the attributes as requested from the allocator,
    /// one figure per allocation: the attribute vector and each
    /// many-valued slice to `slot`, each value string to `value`. Interned
    /// names and a shared class list are their pools'.
    pub(crate) fn attr_heap_blocks(
        &self,
        mut slot: impl FnMut(usize),
        mut value: impl FnMut(usize),
    ) {
        slot(self.attrs.capacity() * std::mem::size_of::<Attribute>());
        for a in &self.attrs {
            a.values.heap_blocks(&mut slot, &mut value);
        }
    }

    /// All attributes in normalized-name order.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> {
        self.attrs.iter()
    }

    /// The attribute named `name` (in any case), if present.
    pub fn get(&self, name: &str) -> Option<&Attribute> {
        with_lower(name, |norm| self.find(norm).ok().map(|i| &self.attrs[i]))
    }

    /// First value of the attribute, if any.
    pub fn first(&self, name: &str) -> Option<&str> {
        self.get(name)
            .and_then(|a| a.values.first())
            .map(Value::as_str)
    }

    /// All values of the attribute (empty slice when absent).
    pub fn values(&self, name: &str) -> &[Value] {
        self.get(name).map(|a| a.values.as_slice()).unwrap_or(&[])
    }

    pub fn has_attr(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// `true` when `name` has a value equal to `value` (case-insensitive).
    pub fn has_value(&self, name: &str, value: &str) -> bool {
        self.get(name).is_some_and(|a| a.contains_ci(value))
    }

    /// Add one value, creating the attribute when missing. Returns `false`
    /// when the value was already present.
    pub fn add_value(&mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> bool {
        let name = name.into();
        match self.find(name.norm()) {
            Ok(i) => self.attrs[i].add_value(value),
            Err(i) => {
                self.attrs.insert(i, Attribute::single(name, value));
                true
            }
        }
    }

    /// Replace all values of the attribute (removes it when `values` is empty).
    pub fn put<V: Into<Value>>(
        &mut self,
        name: impl Into<AttrName>,
        values: impl IntoIterator<Item = V>,
    ) {
        let name = name.into();
        let values: Vec<Value> = values.into_iter().map(Into::into).collect();
        if values.is_empty() {
            self.remove(name.norm());
        } else {
            self.insert(Attribute::new(name, values));
        }
    }

    /// Remove an entire attribute; returns it when present.
    pub fn remove_attr(&mut self, name: &str) -> Option<Attribute> {
        with_lower(name, |norm| self.remove(norm))
    }

    /// Remove one value; prunes the attribute when it becomes empty.
    /// Returns `true` when a value was removed.
    pub fn remove_value(&mut self, name: &str, value: &str) -> bool {
        with_lower(name, |norm| {
            let Ok(i) = self.find(norm) else {
                return false;
            };
            let removed = self.attrs[i].remove_value(value);
            if self.attrs[i].is_empty() {
                self.attrs.remove(i);
            }
            removed
        })
    }

    /// The entry's object classes (values of `objectClass`).
    pub fn object_classes(&self) -> &[Value] {
        self.values("objectclass")
    }

    pub fn has_object_class(&self, oc: &str) -> bool {
        self.object_classes().iter().any(|c| value_eq_ci(c, oc))
    }

    /// Keep only the named attributes (used by search attribute selection);
    /// an empty list, or one containing `*` ("all user attributes"), keeps
    /// everything, per RFC 2251 §4.5.1.
    pub fn project(&self, names: &[String]) -> Entry {
        if names.is_empty() || names.iter().any(|n| n == "*") {
            return self.clone();
        }
        let mut out = Entry::new(self.dn.clone());
        for n in names {
            if let Some(attr) = self.get(n) {
                out.insert(attr.clone());
            }
        }
        out
    }

    /// Apply a list of modifications atomically: either all succeed or the
    /// entry is left untouched. (This is the single-entry atomicity LDAP
    /// guarantees — and the *only* atomicity it guarantees.)
    pub fn apply_modifications(&mut self, mods: &[Modification]) -> Result<()> {
        let mut scratch = self.clone();
        scratch.apply_in_place(mods)?;
        *self = scratch;
        Ok(())
    }

    /// [`Entry::apply_modifications`] without the private copy: on an error
    /// the modifications before the failing one have been applied. For a
    /// caller that already works on a copy it discards on failure.
    pub(crate) fn apply_in_place(&mut self, mods: &[Modification]) -> Result<()> {
        mods.iter().try_for_each(|m| self.apply_one(m))
    }

    /// Make this entry equal to `new`, an edited copy of it under the same
    /// name, by writing only the attributes that differ into this entry's
    /// own vector. An unchanged attribute keeps its slot and the blocks
    /// behind its values, and the vector stays the block it was: where it
    /// has to grow or shrink, `realloc` keeps it in the heap arena it was
    /// allocated from, whichever thread makes the change.
    pub(crate) fn take_changes(&mut self, new: Entry) {
        debug_assert_eq!(self.dn, new.dn);
        let mut at = 0;
        for attr in new.attrs {
            let norm = attr.name.norm();
            while (self.attrs.get(at)).is_some_and(|old| old.name.norm() < norm) {
                self.attrs.remove(at);
            }
            match self.attrs.get_mut(at) {
                Some(old) if old.name.norm() == norm => {
                    if old.name.as_str() != attr.name.as_str() || old.values != attr.values {
                        *old = attr;
                    }
                }
                _ => self.attrs.insert(at, attr),
            }
            at += 1;
        }
        self.attrs.truncate(at);
    }

    /// Where the attribute vector's block is.
    #[cfg(test)]
    pub(crate) fn attrs_block(&self) -> *const Attribute {
        self.attrs.as_ptr()
    }

    fn apply_one(&mut self, m: &Modification) -> Result<()> {
        match &m.op {
            ModOp::Add => {
                if m.values.is_empty() {
                    return Err(LdapError::protocol("add modification with no values"));
                }
                let holds = |v: &String| self.has_value(m.attr.as_str(), v);
                let held = m.values.iter().position(holds);
                if let Some(i) = held.or_else(|| repeated_value(&m.values)) {
                    return Err(value_exists(m, &m.values[i]));
                }
                for v in &m.values {
                    self.add_value(m.attr.clone(), v);
                }
                Ok(())
            }
            ModOp::Delete => {
                if m.values.is_empty() {
                    // delete whole attribute
                    if self.remove_attr(m.attr.as_str()).is_none() {
                        return Err(LdapError::new(
                            ResultCode::NoSuchAttribute,
                            format!("no attribute `{}` to delete", m.attr),
                        ));
                    }
                    Ok(())
                } else {
                    for v in &m.values {
                        if !self.remove_value(m.attr.as_str(), v) {
                            return Err(LdapError::new(
                                ResultCode::NoSuchAttribute,
                                format!("no value `{v}` of `{}` to delete", m.attr),
                            ));
                        }
                    }
                    Ok(())
                }
            }
            ModOp::Replace => {
                if let Some(i) = repeated_value(&m.values) {
                    return Err(value_exists(m, &m.values[i]));
                }
                self.put(m.attr.clone(), &m.values);
                Ok(())
            }
        }
    }
}

/// A modification names a value the bag would then hold twice.
fn value_exists(m: &Modification, value: &str) -> LdapError {
    LdapError::new(
        ResultCode::AttributeOrValueExists,
        format!("value `{value}` already exists for `{}`", m.attr),
    )
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dn: {}", self.dn)?;
        for attr in self.attributes() {
            for v in &attr.values {
                writeln!(f, "{}: {}", attr.name, v)?;
            }
        }
        Ok(())
    }
}

/// The three RFC 2251 modification operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModOp {
    Add,
    Delete,
    Replace,
}

/// One element of a Modify request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modification {
    pub op: ModOp,
    pub attr: AttrName,
    pub values: Vec<String>,
}

impl Modification {
    pub fn add(attr: impl Into<AttrName>, values: Vec<String>) -> Modification {
        Modification {
            op: ModOp::Add,
            attr: attr.into(),
            values,
        }
    }

    pub fn delete(attr: impl Into<AttrName>, values: Vec<String>) -> Modification {
        Modification {
            op: ModOp::Delete,
            attr: attr.into(),
            values,
        }
    }

    /// Delete the entire attribute.
    pub fn delete_attr(attr: impl Into<AttrName>) -> Modification {
        Modification {
            op: ModOp::Delete,
            attr: attr.into(),
            values: Vec::new(),
        }
    }

    pub fn replace(attr: impl Into<AttrName>, values: Vec<String>) -> Modification {
        Modification {
            op: ModOp::Replace,
            attr: attr.into(),
            values,
        }
    }

    /// Replace with a single value.
    pub fn set(attr: impl Into<AttrName>, value: impl Into<String>) -> Modification {
        Modification::replace(attr, vec![value.into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Entry {
        Entry::with_attrs(
            Dn::parse("cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("telephoneNumber", "+1 908 582 9000"),
            ],
        )
    }

    #[test]
    fn accessors() {
        let e = person();
        assert_eq!(e.first("CN"), Some("John Doe"));
        assert_eq!(e.values("objectclass").len(), 2);
        assert!(e.has_object_class("PERSON"));
        assert!(e.has_value("sn", "doe"));
        assert!(!e.has_attr("mail"));
    }

    #[test]
    fn attributes_stay_name_sorted_and_compacting_changes_nothing_seen() {
        let built = person();
        let mut stored = person();
        stored.compact_for_store();
        assert_eq!(built, stored);
        assert_eq!(stored.first("CN"), Some("John Doe"));
        for mut e in [built, stored] {
            e.add_value("mail", "jd@lucent.com");
            e.put("ou", ["x", "y"]);
            e.remove_attr("sn");
            e.remove_value("objectClass", "top");
            let names: Vec<&str> = e.attributes().map(|a| a.name.norm()).collect();
            assert_eq!(
                names,
                ["cn", "mail", "objectclass", "ou", "telephonenumber"]
            );
            assert_eq!(e.project(&["OU".into()]).values("ou"), ["x", "y"]);
        }
    }

    #[test]
    fn modify_add_and_duplicate() {
        let mut e = person();
        e.apply_modifications(&[Modification::add("mail", vec!["jd@lucent.com".into()])])
            .unwrap();
        assert_eq!(e.first("mail"), Some("jd@lucent.com"));
        let err = e
            .apply_modifications(&[Modification::add("mail", vec!["JD@LUCENT.COM".into()])])
            .unwrap_err();
        assert_eq!(err.code, ResultCode::AttributeOrValueExists);
    }

    #[test]
    fn a_modification_that_names_a_value_twice_is_refused_whole() {
        use crate::dit::{Dit, Scope};
        use crate::filter::Filter;
        let dit = Dit::with_schema_indexed(
            std::sync::Arc::new(crate::schema::Schema::permissive()),
            &["l", "description"],
        );
        let mut e = person();
        e.add_value("l", "Holmdel");
        let dn = e.dn().clone();
        dit.add(Entry::with_attrs(dn.parent().unwrap(), [("o", "Lucent")]))
            .unwrap();
        dit.add(e).unwrap();
        let before = (dit.get(&dn), dit.seq(), dit.footprint());
        for (m, named) in [
            (
                Modification::replace("l", vec!["Murray Hill".into(), "murray  hill".into()]),
                "`murray  hill`",
            ),
            (
                Modification::add("description", vec!["a".into(), "A".into()]),
                "`A`",
            ),
        ] {
            let err = dit.modify(&dn, &[m]).unwrap_err();
            assert_eq!(err.code, ResultCode::AttributeOrValueExists);
            assert!(err.message.contains(named), "{err}");
            assert_eq!((dit.get(&dn), dit.seq(), dit.footprint()), before);
        }
        let held = |filter: &str| {
            let filter = Filter::parse(filter).unwrap();
            dit.search(&Dn::root(), Scope::Sub, &filter, &[], 0)
                .unwrap()
                .len()
        };
        assert_eq!(
            (
                held("(l=holmdel)"),
                held("(l=murray hill)"),
                held("(description=a)")
            ),
            (1, 0, 0)
        );
    }

    #[test]
    fn the_constructors_keep_the_first_spelling_of_a_repeated_value() {
        let mut e = person();
        e.put("l", ["Murray Hill", "murray  hill"]);
        assert_eq!(e.values("l"), ["Murray Hill"]);
        // One delete then empties the bag, as `caseIgnoreMatch` promises.
        e.apply_modifications(&[Modification::delete("l", vec!["MURRAY HILL".into()])])
            .unwrap();
        assert!(!e.has_attr("l"));
    }

    #[test]
    fn compacting_shares_the_class_list_and_an_edit_copies_it() {
        let (mut a, mut b) = (person(), person());
        a.compact_for_store();
        b.compact_for_store();
        assert_eq!(a.object_classes().as_ptr(), b.object_classes().as_ptr());
        assert_eq!(a, person());
        b.apply_modifications(&[Modification::add(
            "objectClass",
            vec!["definityUser".into()],
        )])
        .unwrap();
        assert_eq!(b.object_classes(), ["top", "person", "definityUser"]);
        assert_eq!(a.object_classes(), ["top", "person"]);
        assert_eq!(a.object_classes().as_ptr(), {
            let mut c = person();
            c.compact_for_store();
            c.object_classes().as_ptr()
        });
    }

    #[test]
    fn modify_delete_value_and_attr() {
        let mut e = person();
        e.apply_modifications(&[Modification::delete(
            "telephoneNumber",
            vec!["+1 908 582 9000".into()],
        )])
        .unwrap();
        assert!(!e.has_attr("telephoneNumber"));
        let err = e
            .apply_modifications(&[Modification::delete_attr("telephoneNumber")])
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchAttribute);
    }

    #[test]
    fn modify_replace_and_remove_by_empty_replace() {
        let mut e = person();
        e.apply_modifications(&[Modification::set("sn", "Smith")])
            .unwrap();
        assert_eq!(e.first("sn"), Some("Smith"));
        e.apply_modifications(&[Modification::replace("sn", vec![])])
            .unwrap();
        assert!(!e.has_attr("sn"));
    }

    #[test]
    fn modifications_are_atomic() {
        let mut e = person();
        let before = e.clone();
        // Second modification fails; the first must not stick.
        let err = e.apply_modifications(&[
            Modification::set("sn", "Smith"),
            Modification::delete_attr("nonexistent"),
        ]);
        assert!(err.is_err());
        assert_eq!(e, before);
    }

    #[test]
    fn projection() {
        let e = person();
        let p = e.project(&["cn".into(), "SN".into()]);
        assert_eq!(p.attributes().count(), 2);
        assert!(p.has_attr("cn"));
        assert!(!p.has_attr("telephoneNumber"));
        // empty selection keeps everything
        assert_eq!(e.project(&[]), e);
    }

    #[test]
    fn star_selects_all_user_attributes() {
        // RFC 2251 §4.5.1: what `ldapsearch … '*'` and directory browsers send.
        let e = person();
        assert_eq!(e.project(&["*".into()]), e);
        assert_eq!(e.project(&["*".into(), "cn".into()]), e);
    }
}
