//! Conversions between LDAP entries and lexpress attribute images, plus
//! construction of integrated-schema entries from images.

use crate::schema::{DEFINITY_USER, MESSAGING_USER};
use ldap::attr::{value_eq_ci, Value};
use ldap::dn::Dn;
use ldap::entry::{Entry, Modification};
use lexpress::{Frame, Image, ValueList, NO_VALUES};

/// Attributes that never flow through lexpress translation.
fn is_structural(attr: &str) -> bool {
    attr.eq_ignore_ascii_case("objectclass") || attr.eq_ignore_ascii_case("dn")
}

/// The device auxiliary classes `img`'s attributes call for: an attribute
/// named `definity…` (in any case) needs `definityUser`, one named `mp…`
/// `messagingUser`.
pub(crate) fn aux_classes(img: &Image) -> impl Iterator<Item = &'static str> + '_ {
    let has_prefix = |name: &str, prefix: &str| {
        name.get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
    };
    [("definity", DEFINITY_USER), ("mp", MESSAGING_USER)]
        .into_iter()
        .filter(move |(prefix, _)| img.iter().any(|(name, _)| has_prefix(name, prefix)))
        .map(|(_, class)| class)
}

/// Is `name` one of the attributes `e`'s RDN names? Those values are the
/// entry's name and change only by a rename.
fn in_rdn(e: &Entry, name: &str) -> bool {
    e.dn().rdn().is_some_and(|r| {
        r.avas()
            .iter()
            .any(|a| a.norm_attr().eq_ignore_ascii_case(name))
    })
}

/// Entry → attribute image (objectClass excluded; the schema side is
/// recomputed from the attributes present).
pub fn entry_to_image(e: &Entry) -> Image {
    Image::from_pairs(
        e.attributes()
            .filter(|a| !is_structural(a.name.norm()))
            .flat_map(|a| a.values.iter().map(|v| (a.name.as_str(), v.as_str()))),
    )
}

/// An entry as lexpress reads it, in place: the attributes
/// [`entry_to_image`] would copy, and nothing copied.
pub(crate) struct EntryFrame<'e>(pub(crate) &'e Entry);

impl Frame for EntryFrame<'_> {
    fn values(&self, name: &str) -> &dyn ValueList {
        match self.0.get(name) {
            Some(attr) if !is_structural(name) => &attr.values,
            _ => &NO_VALUES,
        }
    }

    fn is_empty(&self) -> bool {
        self.0.attributes().all(|a| is_structural(a.name.norm()))
    }
}

/// Image → full integrated-schema entry at `dn`: adds `top`, `person`,
/// `organizationalPerson`, and whichever device auxiliary classes the
/// present attributes call for.
pub fn image_to_entry(dn: Dn, img: &Image) -> Entry {
    let mut e = Entry::new(dn);
    for (name, values) in img.iter() {
        match values {
            _ if is_structural(name) => {}
            [one] => {
                e.add_value(name, one.as_str());
            }
            many => e.put(name, many),
        }
    }
    let classes = ["top", "person", "organizationalPerson"]
        .into_iter()
        .chain(aux_classes(img));
    e.put("objectClass", classes);
    // A person entry must have cn/sn; images produced by device mappings
    // always carry cn — derive sn when the mapping did not set it.
    if !e.has_attr("sn") {
        if let Some(cn) = e.first("cn") {
            let sn = Value::new(cn.split_whitespace().last().unwrap_or(cn));
            e.put("sn", [sn]);
        }
    }
    e
}

/// Compute the modification list turning `current` into the entry implied
/// by `target_img` (never touching objectClass, the RDN attribute values,
/// or attributes absent from both).
pub fn diff_mods(current: &Entry, target_img: &Image) -> Vec<Modification> {
    target_img
        .iter()
        .filter(|(name, values)| {
            !is_structural(name)
                && !in_rdn(current, name)
                && !same_values(current.values(name), values)
        })
        .map(|(name, values)| Modification::replace(name, values.to_vec()))
        .collect()
}

/// Like [`diff_mods`] but treats `target_img` as the *complete* post-update
/// image: attributes present on `current` but absent from the image are
/// deleted (objectClass and RDN attributes excepted). Used by the Update
/// Manager when applying the augmented update to the directory.
pub fn diff_mods_full(current: &Entry, target_img: &Image) -> Vec<Modification> {
    let mut mods = diff_mods(current, target_img);
    for attr in current.attributes() {
        let name = attr.name.norm();
        if !is_structural(name) && !in_rdn(current, name) && !target_img.has(name) {
            mods.push(Modification::delete_attr(attr.name.as_str()));
        }
    }
    mods
}

/// `a` and `b` hold the same values, as multisets under the directory's
/// `caseIgnoreMatch`: every value occurs as often on each side. Compared
/// in place — the lists are an attribute's few values.
fn same_values(a: &[impl AsRef<str>], b: &[impl AsRef<str>]) -> bool {
    fn count(vs: &[impl AsRef<str>], v: &str) -> usize {
        vs.iter().filter(|w| value_eq_ci(w.as_ref(), v)).count()
    }
    let same_count = |v: &str| count(a, v) == count(b, v);
    a.len() == b.len() && a.iter().all(|v| same_count(v.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::LAST_UPDATER;
    use lexpress::Image;

    #[test]
    fn entry_image_round_trip() {
        let dn = Dn::parse("cn=John Doe,o=Lucent").unwrap();
        let img = Image::from_pairs([
            ("cn", "John Doe"),
            ("sn", "Doe"),
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
            ("mpMailbox", "9123"),
            (LAST_UPDATER, "pbx-west"),
        ]);
        let e = image_to_entry(dn, &img);
        assert!(e.has_object_class("person"));
        assert!(e.has_object_class(DEFINITY_USER));
        assert!(e.has_object_class(MESSAGING_USER));
        crate::schema::integrated_schema()
            .validate_entry(&e)
            .unwrap();
        let back = entry_to_image(&e);
        assert_eq!(back.first("telephoneNumber"), Some("+1 908 582 9123"));
        assert!(!back.has("objectClass"));
    }

    #[test]
    fn an_entry_frame_reads_what_its_image_holds() {
        let e = Entry::with_attrs(
            Dn::parse("cn=X,o=L").unwrap(),
            [("objectClass", "person"), ("cn", "X"), ("Room", "1")],
        );
        let (frame, image) = (EntryFrame(&e), entry_to_image(&e));
        for name in ["cn", "ROOM", "objectclass", "dn", "missing"] {
            let held = Frame::values(&frame, name);
            let held: Vec<&str> = (0..held.len()).filter_map(|i| held.get(i)).collect();
            assert_eq!(held, image.values(name), "{name}");
        }
        assert!(!Frame::is_empty(&frame));
        let bare = Entry::with_attrs(Dn::parse("cn=Y,o=L").unwrap(), [("objectClass", "top")]);
        assert!(Frame::is_empty(&EntryFrame(&bare)));
    }

    #[test]
    fn aux_classes_only_when_needed() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        let img = Image::from_pairs([("cn", "X"), ("sn", "X")]);
        let e = image_to_entry(dn, &img);
        assert!(!e.has_object_class(DEFINITY_USER));
        assert!(!e.has_object_class(MESSAGING_USER));
    }

    #[test]
    fn sn_derived_when_missing() {
        let dn = Dn::parse("cn=John Doe,o=L").unwrap();
        let img = Image::from_pairs([("cn", "John Doe")]);
        let e = image_to_entry(dn, &img);
        assert_eq!(e.first("sn"), Some("Doe"));
    }

    fn strings(vs: &[&str]) -> Vec<String> {
        vs.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn values_compare_as_the_directory_matches_them() {
        // Case and whitespace runs do not count, as in `caseIgnoreMatch`;
        // order does not, and a repeat is a value of its own.
        let same = |a: &[&str], b: &[&str]| same_values(&strings(a), &strings(b));
        assert!(same(&["Doe,  John"], &["doe, john"]));
        assert!(same(&[" 2B-401 "], &["2b-401"]));
        assert!(same(&["a", "B"], &["b", "A"]));
        assert!(!same(&["a", "a"], &["a", "b"]));
        assert!(!same(&["a"], &["a", "a"]));
        assert!(!same(&["Doe, John"], &["Doe, Jon"]));
        // So a device value the directory already holds as equal is no
        // repair.
        let current = Entry::with_attrs(
            Dn::parse("cn=John Doe,o=L").unwrap(),
            [("cn", "John Doe"), ("description", "Doe, John")],
        );
        let target = Image::from_pairs([("description", "DOE,   john")]);
        assert!(diff_mods(&current, &target).is_empty());
    }

    #[test]
    fn diff_mods_skips_rdn_and_objectclass() {
        let dn = Dn::parse("cn=John Doe,o=L").unwrap();
        let current = Entry::with_attrs(
            dn,
            [
                ("objectClass", "person"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("roomNumber", "2B-401"),
            ],
        );
        let target = Image::from_pairs([
            ("cn", "Someone Else"),      // RDN attr: must be skipped
            ("sn", "Doe"),               // unchanged: skipped
            ("roomNumber", "2C-115"),    // changed: replaced
            ("telephoneNumber", "9123"), // new: replaced in
        ]);
        let mods = diff_mods(&current, &target);
        assert_eq!(mods.len(), 2);
        assert!(mods.iter().all(|m| m.attr.norm() != "cn"));
        assert!(mods.iter().any(|m| m.attr.norm() == "roomnumber"));
        assert!(mods.iter().any(|m| m.attr.norm() == "telephonenumber"));
    }
}

#[cfg(test)]
mod full_diff_tests {
    use super::*;
    use lexpress::Image;

    #[test]
    fn full_diff_deletes_vanished_attributes() {
        let dn = Dn::parse("cn=John Doe,o=L").unwrap();
        let current = Entry::with_attrs(
            dn,
            [
                ("objectClass", "person"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("roomNumber", "2B-401"),
                ("definityExtension", "9123"),
            ],
        );
        let target = Image::from_pairs([("cn", "John Doe"), ("sn", "Doe")]);
        let mods = diff_mods_full(&current, &target);
        // roomNumber and definityExtension deleted; cn (RDN) and
        // objectClass untouched.
        assert_eq!(mods.len(), 2);
        assert!(mods
            .iter()
            .all(|m| matches!(m.op, ldap::ModOp::Delete) && m.values.is_empty()));
        let mut e = current;
        e.apply_modifications(&mods).unwrap();
        assert!(!e.has_attr("roomNumber"));
        assert!(!e.has_attr("definityExtension"));
        assert!(e.has_attr("cn"));
        assert!(e.has_attr("objectClass"));
    }

    #[test]
    fn full_diff_equals_overlay_when_nothing_vanished() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        let current = Entry::with_attrs(dn, [("objectClass", "person"), ("cn", "X"), ("sn", "X")]);
        let target = Image::from_pairs([("cn", "X"), ("sn", "X"), ("roomNumber", "1")]);
        assert_eq!(
            diff_mods_full(&current, &target),
            diff_mods(&current, &target)
        );
    }

    #[test]
    fn full_diff_is_idempotent() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        let current = Entry::with_attrs(
            dn,
            [
                ("objectClass", "person"),
                ("cn", "X"),
                ("sn", "X"),
                ("mail", "x@l"),
            ],
        );
        let target = Image::from_pairs([("cn", "X"), ("sn", "Y")]);
        let mut e = current.clone();
        e.apply_modifications(&diff_mods_full(&current, &target))
            .unwrap();
        assert!(
            diff_mods_full(&e, &target).is_empty(),
            "fixpoint after one apply"
        );
    }
}
