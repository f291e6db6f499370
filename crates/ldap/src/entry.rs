//! Directory entries and the modification operations that act on them.

#![forbid(unsafe_code)]

use crate::attr::{repeated_value, value_eq_ci, with_lower, AttrName, AttrValues, Attribute};
use crate::block::Block;
use crate::dn::Dn;
use crate::error::{LdapError, Result, ResultCode};
use std::fmt;

/// A directory entry: a DN plus a set of multi-valued attributes.
///
/// The attributes are one exactly-sized byte block, in normalized-name
/// order (the layout is `crate::block`'s): a name is a 2-byte pool id, an
/// `objectClass` list that every entry of its class repeats is a 2-byte id
/// into the class-list pool, and a value is its length and its bytes. A
/// reader gets borrowed views over the block ([`Attribute`],
/// [`AttrValues`]) that decode in place; a lookup walks the handful of
/// attributes to the one it wants. Everything observable (search streams,
/// LDIF export, diffing) sees the attributes in that order.
///
/// An edit rewrites the block where it lives: it opens or closes a gap with
/// `realloc`, so the block stays in the heap arena that allocated it.
///
/// The `objectClass` attribute is stored like any other but has dedicated
/// accessors because schema checking and MetaComm's auxiliary-class design
/// both hinge on it.
#[derive(Debug, Clone)]
pub struct Entry {
    dn: Dn,
    attrs: Block,
}

impl Entry {
    pub fn new(dn: Dn) -> Entry {
        Entry {
            dn,
            attrs: Block::default(),
        }
    }

    /// Convenience constructor from `(name, value)` pairs; repeated names
    /// accumulate values, and a value that repeats an earlier one of its
    /// attribute is dropped. The block is written once, at its size.
    pub fn with_attrs<N, V>(dn: Dn, pairs: impl IntoIterator<Item = (N, V)>) -> Entry
    where
        N: Into<AttrName>,
        V: AsRef<str>,
    {
        let mut items: Vec<(AttrName, V)> =
            (pairs.into_iter()).map(|(n, v)| (n.into(), v)).collect();
        Entry::packed(dn, &mut items, &(), |(), v| v.as_ref())
    }

    /// [`Entry::with_attrs`] over pairs a reader has gathered, each value
    /// `value(source, item)`; `items` ends sorted by name.
    pub(crate) fn packed<S: ?Sized, T>(
        dn: Dn,
        items: &mut Vec<(AttrName, T)>,
        source: &S,
        value: impl for<'a> Fn(&'a S, &'a T) -> &'a str,
    ) -> Entry {
        Entry {
            dn,
            attrs: Block::pack(items, source, value),
        }
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

    /// Bytes of the attribute block as requested from the allocator.
    /// Pooled names and class lists are their pools'.
    pub(crate) fn attr_heap_bytes(&self) -> usize {
        self.attrs.heap_len()
    }

    /// All attributes in normalized-name order.
    pub fn attributes(&self) -> impl Iterator<Item = Attribute<'_>> {
        self.attrs.attributes()
    }

    /// [`Entry::attributes`], each with the class-list pool's id when its
    /// values are a pooled list.
    pub(crate) fn attributes_listed(&self) -> impl Iterator<Item = (Attribute<'_>, Option<u16>)> {
        self.attrs.attributes_listed()
    }

    /// The class-list pool's id for the entry's `objectClass` list; `None`
    /// for an entry with none, or with one the pool does not hold.
    pub(crate) fn class_list_id(&self) -> Option<u16> {
        self.attrs.class_list_id()
    }

    /// The attribute named `name` (in any case), if present.
    pub fn get(&self, name: &str) -> Option<Attribute<'_>> {
        with_lower(name, |norm| self.attrs.get(norm))
    }

    /// First value of the attribute, if any.
    pub fn first(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(|a| a.values.first())
    }

    /// All values of the attribute (none when absent).
    pub fn values(&self, name: &str) -> AttrValues<'_> {
        self.get(name).map_or(AttrValues::NONE, |a| a.values)
    }

    pub fn has_attr(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// `true` when `name` has a value equal to `value` (case-insensitive).
    pub fn has_value(&self, name: &str, value: &str) -> bool {
        self.get(name).is_some_and(|a| a.values.contains_ci(value))
    }

    /// Add one value, creating the attribute when missing. Returns `false`
    /// when the value was already present.
    pub fn add_value(&mut self, name: impl Into<AttrName>, value: impl AsRef<str>) -> bool {
        let (name, value) = (name.into(), value.as_ref());
        match self.attrs.get(name.norm()) {
            Some(a) if a.values.contains_ci(value) => return false,
            Some(_) => self.attrs.push_values(name.norm(), std::iter::once(value)),
            None => self.attrs.put(&name, std::iter::once(value)),
        }
        true
    }

    /// Replace all values of the attribute (removes it when `values` is
    /// empty); a value that repeats an earlier one is dropped.
    pub fn put<V: AsRef<str>>(
        &mut self,
        name: impl Into<AttrName>,
        values: impl IntoIterator<Item = V, IntoIter: Clone>,
    ) {
        let (name, values) = (name.into(), values.into_iter());
        let first = |&(j, ref v): &(usize, V)| {
            let mut earlier = values.clone().take(j);
            !earlier.any(|w| value_eq_ci(w.as_ref(), v.as_ref()))
        };
        let values = values.clone().enumerate().filter(first).map(|(_, v)| v);
        self.put_distinct(&name, values);
    }

    /// [`Entry::put`] of values known to be distinct.
    fn put_distinct<V: AsRef<str>>(
        &mut self,
        name: &AttrName,
        values: impl Iterator<Item = V> + Clone,
    ) {
        match values.clone().next() {
            None => drop(self.attrs.remove(name.norm())),
            Some(_) => self.attrs.put(name, values),
        }
    }

    /// Remove an entire attribute; `false` when there was none.
    pub fn remove_attr(&mut self, name: &str) -> bool {
        with_lower(name, |norm| self.attrs.remove(norm))
    }

    /// Remove one value; prunes the attribute when it becomes empty.
    /// Returns `true` when a value was removed.
    pub fn remove_value(&mut self, name: &str, value: &str) -> bool {
        with_lower(name, |norm| self.attrs.remove_value(norm, value))
    }

    /// The entry's object classes (values of `objectClass`).
    pub fn object_classes(&self) -> AttrValues<'_> {
        self.values("objectclass")
    }

    pub fn has_object_class(&self, oc: &str) -> bool {
        self.object_classes().contains_ci(oc)
    }

    /// Keep only the named attributes (used by search attribute selection);
    /// an empty list, or one containing `*` ("all user attributes"), keeps
    /// everything, per RFC 2251 §4.5.1.
    pub fn project(&self, names: &[String]) -> Entry {
        if names.is_empty() || names.iter().any(|n| n == "*") {
            return self.clone();
        }
        Entry {
            dn: self.dn.clone(),
            attrs: (self.attrs).project(|norm| names.iter().any(|n| n.eq_ignore_ascii_case(norm))),
        }
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
    /// name, by writing `new`'s attributes into this entry's own block: over
    /// its bytes when the length is unchanged, and otherwise through
    /// `realloc`, which keeps the block in the heap arena it was allocated
    /// from, whichever thread makes the change.
    pub(crate) fn take_changes(&mut self, new: Entry) {
        debug_assert_eq!(self.dn, new.dn);
        self.attrs.assign(&new.attrs);
    }

    /// Where the attribute block is.
    #[cfg(test)]
    pub(crate) fn attrs_block(&self) -> *const u8 {
        self.attrs.as_ptr()
    }

    fn apply_one(&mut self, m: &Modification) -> Result<()> {
        let name = m.attr.as_str();
        match &m.op {
            ModOp::Add => {
                if m.values.is_empty() {
                    return Err(LdapError::protocol("add modification with no values"));
                }
                let held = m.values.iter().position(|v| self.has_value(name, v));
                if let Some(i) = held.or_else(|| repeated_value(&m.values)) {
                    return Err(value_exists(m, &m.values[i]));
                }
                let values = m.values.iter().map(String::as_str);
                if self.has_attr(name) {
                    self.attrs.push_values(m.attr.norm(), values);
                } else {
                    self.attrs.put(&m.attr, values);
                }
                Ok(())
            }
            ModOp::Delete => {
                if m.values.is_empty() {
                    // delete whole attribute
                    if !self.remove_attr(name) {
                        return Err(LdapError::new(
                            ResultCode::NoSuchAttribute,
                            format!("no attribute `{}` to delete", m.attr),
                        ));
                    }
                    Ok(())
                } else {
                    for v in &m.values {
                        if !self.remove_value(name, v) {
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
                self.put_distinct(&m.attr, m.values.iter());
                Ok(())
            }
        }
    }
}

/// Names compared case-insensitively, values as exact sequences.
impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.dn == other.dn && self.attrs.same_as(&other.attrs)
    }
}
impl Eq for Entry {}

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
            for v in attr.values {
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
    use crate::attr::{POOLED_LEN_MAX, POOLED_LIST_MAX};

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
    fn attributes_stay_name_sorted_however_the_entry_was_built() {
        let built = person();
        let mut grown = Entry::new(built.dn().clone());
        for a in built.attributes().collect::<Vec<_>>().into_iter().rev() {
            for v in a.values {
                grown.add_value(a.name.as_str(), v);
            }
        }
        assert_eq!(built, grown);
        assert_eq!(format!("{built:?}"), format!("{grown:?}"));
        assert_eq!(grown.first("CN"), Some("John Doe"));
        for mut e in [built, grown] {
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
        use crate::Directory;
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
    fn entries_of_a_class_share_its_list_and_an_edit_moves_only_the_editor() {
        let (a, mut b) = (person(), person());
        assert_eq!(a.object_classes().as_ptr(), b.object_classes().as_ptr());
        b.apply_modifications(&[Modification::add(
            "objectClass",
            vec!["definityUser".into()],
        )])
        .unwrap();
        assert_eq!(b.object_classes(), ["top", "person", "definityUser"]);
        assert_eq!(a.object_classes(), ["top", "person"]);
        assert_ne!(a.object_classes().as_ptr(), b.object_classes().as_ptr());
        assert_eq!(
            a.object_classes().as_ptr(),
            person().object_classes().as_ptr()
        );
        // Back to the class's list, back to the pool's copy of it.
        b.remove_value("objectClass", "DEFINITYUSER");
        assert_eq!(a.object_classes().as_ptr(), b.object_classes().as_ptr());
        assert_eq!(a, b);
        // Too many values, or a value too long: each holder keeps its own.
        let wide: Vec<String> = (0..=POOLED_LIST_MAX).map(|i| format!("c{i}")).collect();
        let long = ["top".to_string(), "x".repeat(POOLED_LEN_MAX + 1)];
        for classes in [&wide[..], &long[..]] {
            let holders = [person(), person()].map(|mut e| {
                e.put("objectClass", classes);
                e
            });
            assert_eq!(holders[0].object_classes(), classes);
            assert_eq!(holders[0], holders[1]);
            let at = |e: &Entry| e.object_classes().as_ptr();
            assert_ne!(at(&holders[0]), at(&holders[1]));
        }
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

    /// The model an entry must agree with: normalized name to the name as
    /// spelled and the values in order.
    type Model = std::collections::BTreeMap<String, (String, Vec<String>)>;

    /// Two spellings of a name, of the class list, and of a name too long
    /// for the name pool (spelled out in the block).
    fn model_names() -> [String; 7] {
        let long = format!("{}Long", "x".repeat(POOLED_LEN_MAX));
        [
            "cn".into(),
            "CN".into(),
            "objectClass".into(),
            "OBJECTCLASS".into(),
            "description".into(),
            long.to_ascii_uppercase(),
            long,
        ]
    }

    /// Value lengths on either side of each varint boundary, and one long
    /// enough for a three-byte length.
    const LENS: [usize; 7] = [1, 22, 23, 127, 128, 300, 70_000];

    /// The `i`-th value word, `LENS` long, in one of two cases that
    /// `caseIgnoreMatch` takes for one value.
    fn word(i: usize, shout: bool) -> String {
        let text = format!("{}{}", i / LENS.len(), "v".repeat(LENS[i % LENS.len()] - 1));
        match shout {
            true => text.to_ascii_uppercase(),
            false => text,
        }
    }

    /// More class names than the class-list pool takes in one list.
    fn wide() -> Vec<String> {
        (0..=POOLED_LIST_MAX).map(|i| format!("class{i}")).collect()
    }

    fn model_add(m: &mut Model, name: &str, v: &str) -> bool {
        let norm = name.to_ascii_lowercase();
        let (_, values) = m
            .entry(norm)
            .or_insert_with(|| (name.to_string(), Vec::new()));
        let fresh = !values.iter().any(|w| value_eq_ci(w, v));
        if fresh {
            values.push(v.to_string());
        }
        fresh
    }

    fn model_remove(m: &mut Model, name: &str, v: &str) -> bool {
        let norm = name.to_ascii_lowercase();
        let Some((_, values)) = m.get_mut(&norm) else {
            return false;
        };
        let before = values.len();
        values.retain(|w| !value_eq_ci(w, v));
        let removed = values.len() != before;
        if values.is_empty() {
            m.remove(&norm);
        }
        removed
    }

    fn model_put(m: &mut Model, name: &str, values: &[String]) {
        m.remove(&name.to_ascii_lowercase());
        for v in values {
            model_add(m, name, v);
        }
    }

    /// RFC 2251 modify semantics on the model, all or nothing.
    fn model_apply(m: &mut Model, mods: &[Modification]) -> bool {
        let mut next = m.clone();
        for md in mods {
            let (name, vs) = (md.attr.as_str(), &md.values);
            let held = |m: &Model, v: &str| {
                (m.get(&name.to_ascii_lowercase()))
                    .is_some_and(|(_, values)| values.iter().any(|w| value_eq_ci(w, v)))
            };
            let ok = match md.op {
                ModOp::Add if vs.is_empty() || repeated_value(vs).is_some() => false,
                ModOp::Add if vs.iter().any(|v| held(&next, v)) => false,
                ModOp::Add => vs.iter().all(|v| model_add(&mut next, name, v)),
                ModOp::Delete if vs.is_empty() => next.remove(&name.to_ascii_lowercase()).is_some(),
                ModOp::Delete => vs.iter().all(|v| model_remove(&mut next, name, v)),
                ModOp::Replace if repeated_value(vs).is_some() => false,
                ModOp::Replace => {
                    model_put(&mut next, name, vs);
                    true
                }
            };
            if !ok {
                return false;
            }
        }
        *m = next;
        true
    }

    /// `e` reads as `m` through every door.
    fn agrees(
        e: &Entry,
        m: &Model,
    ) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        let seen: Vec<(&str, &str, Vec<String>)> = (e.attributes())
            .map(|a| (a.name.norm(), a.name.as_str(), a.values.to_vec()))
            .collect();
        let want: Vec<(&str, &str, Vec<String>)> = (m.iter())
            .map(|(norm, (name, values))| (norm.as_str(), name.as_str(), values.clone()))
            .collect();
        prop_assert_eq!(seen, want);
        for name in model_names() {
            let held = m.get(&name.to_ascii_lowercase()).map(|(_, vs)| vs.clone());
            prop_assert_eq!(e.get(&name).map(|a| a.values.to_vec()), held.clone());
            let held = held.unwrap_or_default();
            prop_assert_eq!(e.values(&name), held.clone());
            prop_assert_eq!(e.first(&name), held.first().map(String::as_str));
            for i in [0, 13] {
                let w = word(i, true);
                let has = held.iter().any(|v| value_eq_ci(v, &w));
                prop_assert_eq!(e.has_value(&name, &w), has);
            }
        }
        // Names compare by their normalized form, values as spelled.
        let shouted = m.iter().flat_map(|(_, (name, values))| {
            values
                .iter()
                .map(move |v| (name.to_ascii_uppercase(), v.as_str()))
        });
        prop_assert_eq!(e, &Entry::with_attrs(e.dn().clone(), shouted));
        let mut ldif = Vec::new();
        crate::ldif::write_entry(&mut ldif, e);
        let mut model_ldif = Vec::new();
        crate::ldif::write_line(&mut model_ldif, "dn", e.dn());
        for (name, values) in m.values() {
            values
                .iter()
                .for_each(|v| crate::ldif::write_line(&mut model_ldif, name, v.as_str()));
        }
        prop_assert_eq!(ldif, model_ldif);
        Ok(())
    }

    proptest::proptest! {
        // A case with a 70,000-byte value in play folds it whole at every
        // comparison: fewer cases keep the debug build's run short.
        #![proptest_config(proptest::test_runner::Config::with_cases(16))]

        /// An entry driven through every door that changes or copies it
        /// reads as a plain map of names to value lists, and no copy taken
        /// on the way ever sees a later write.
        #[test]
        fn a_packed_entry_follows_a_map_model(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..7, 0usize..2 * LENS.len(), 0u8..4),
                0..40,
            ),
        ) {
            let names = model_names();
            let mut e = Entry::new(Dn::parse("cn=model,o=Lucent").unwrap());
            let mut m = Model::new();
            let mut copies: Vec<(Entry, Model)> = Vec::new();
            for (op, n, v, bits) in ops {
                let (name, shout) = (names[n].as_str(), bits & 1 == 1);
                let value = word(v, shout);
                match op {
                    0 => proptest::prop_assert_eq!(
                        e.add_value(name, &value),
                        model_add(&mut m, name, &value)
                    ),
                    1 => proptest::prop_assert_eq!(
                        e.remove_value(name, &value),
                        model_remove(&mut m, name, &value)
                    ),
                    2 => {
                        // None, one, or three with a repeat in another case.
                        let values: Vec<String> = match bits {
                            0 => Vec::new(),
                            1 => vec![value],
                            _ => vec![value, word(v + 1, !shout), word(v, !shout)],
                        };
                        e.put(name, &values);
                        model_put(&mut m, name, &values);
                    }
                    3 => {
                        let other = word(v + 3, shout);
                        let mods = match bits {
                            0 => vec![Modification::add(name, vec![value, other])],
                            1 => vec![Modification::delete(name, vec![value])],
                            2 => vec![Modification::replace(name, vec![other]), Modification::delete_attr(name)],
                            _ => vec![Modification::delete_attr(name), Modification::add(name, vec![value])],
                        };
                        let before = e.clone();
                        let applied = e.apply_modifications(&mods).is_ok();
                        proptest::prop_assert_eq!(applied, model_apply(&mut m, &mods));
                        if !applied {
                            proptest::prop_assert_eq!(&e, &before);
                        }
                    }
                    4 => {
                        let copy = e.clone();
                        copies.push((std::mem::replace(&mut e, copy), m.clone()));
                    }
                    _ => {
                        e.put(name, wide());
                        model_put(&mut m, name, &wide());
                    }
                }
                agrees(&e, &m)?;
            }
            for (copy, then) in &copies {
                agrees(copy, then)?;
            }
        }
    }
}
