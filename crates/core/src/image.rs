//! Conversions between LDAP entries and lexpress attribute images, plus
//! construction of integrated-schema entries from images.

use crate::schema::{DEFINITY_USER, MESSAGING_USER};
use ldap::dn::Dn;
use ldap::entry::{Entry, Modification};
use lexpress::Image;

/// Attributes that never flow through lexpress translation.
fn is_structural(attr: &str) -> bool {
    matches!(attr.to_ascii_lowercase().as_str(), "objectclass" | "dn")
}

/// Entry → attribute image (objectClass excluded; the schema side is
/// recomputed from the attributes present).
pub fn entry_to_image(e: &Entry) -> Image {
    let mut img = Image::new();
    for attr in e.attributes() {
        if is_structural(attr.name.norm()) {
            continue;
        }
        img.set(attr.name.as_str().to_string(), attr.values.to_vec());
    }
    img
}

/// Image → full integrated-schema entry at `dn`: adds `top`, `person`,
/// `organizationalPerson`, and whichever device auxiliary classes the
/// present attributes call for.
pub fn image_to_entry(dn: Dn, img: &Image) -> Entry {
    let mut e = Entry::new(dn);
    e.add_value("objectClass", "top");
    e.add_value("objectClass", "person");
    e.add_value("objectClass", "organizationalPerson");
    let mut has_definity = false;
    let mut has_mp = false;
    for (name, values) in img.iter() {
        let lower = name.to_ascii_lowercase();
        if is_structural(&lower) {
            continue;
        }
        if lower.starts_with("definity") {
            has_definity = true;
        }
        if lower.starts_with("mp") {
            has_mp = true;
        }
        e.put(name.to_string(), values.to_vec());
    }
    if has_definity {
        e.add_value("objectClass", DEFINITY_USER);
    }
    if has_mp {
        e.add_value("objectClass", MESSAGING_USER);
    }
    // A person entry must have cn/sn; images produced by device mappings
    // always carry cn — derive sn when the mapping did not set it.
    if !e.has_attr("sn") {
        if let Some(cn) = e.first("cn") {
            let sn = cn.split_whitespace().last().unwrap_or(cn).to_string();
            e.put("sn", vec![sn]);
        }
    }
    e
}

/// Compute the modification list turning `current` into the entry implied
/// by `target_img` (never touching objectClass, the RDN attribute values,
/// or attributes absent from both).
pub fn diff_mods(current: &Entry, target_img: &Image) -> Vec<Modification> {
    let mut mods = Vec::new();
    let rdn_attrs: Vec<String> = current
        .dn()
        .rdn()
        .map(|r| r.avas().iter().map(|a| a.norm_attr().to_string()).collect())
        .unwrap_or_default();
    for (name, values) in target_img.iter() {
        let lower = name.to_ascii_lowercase();
        if is_structural(&lower) || rdn_attrs.contains(&lower) {
            continue;
        }
        let cur = current.values(&lower);
        if !same_values(cur, values) {
            mods.push(Modification::replace(name.to_string(), values.to_vec()));
        }
    }
    mods
}

/// Like [`diff_mods`] but treats `target_img` as the *complete* post-update
/// image: attributes present on `current` but absent from the image are
/// deleted (objectClass and RDN attributes excepted). Used by the Update
/// Manager when applying the augmented update to the directory.
pub fn diff_mods_full(current: &Entry, target_img: &Image) -> Vec<Modification> {
    let mut mods = diff_mods(current, target_img);
    let rdn_attrs: Vec<String> = current
        .dn()
        .rdn()
        .map(|r| r.avas().iter().map(|a| a.norm_attr().to_string()).collect())
        .unwrap_or_default();
    for attr in current.attributes() {
        let lower = attr.name.norm().to_string();
        if is_structural(&lower) || rdn_attrs.contains(&lower) {
            continue;
        }
        if !target_img.has(&lower) {
            mods.push(Modification::delete_attr(attr.name.as_str()));
        }
    }
    mods
}

fn same_values(a: &[String], b: &[String]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let norm = |v: &[String]| {
        let mut out: Vec<String> = v.iter().map(|s| s.trim().to_ascii_lowercase()).collect();
        out.sort();
        out
    };
    norm(a) == norm(b)
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
