//! The schema validator against the walk it replaced, and streaming value
//! comparison against the normalized strings it no longer builds.
//!
//! `Schema::validate_entry` answers from class tables compiled when a class
//! is registered. [`reference`] is the validator as it was before that: it
//! walks the superclass chain of every `objectClass` value, collects the
//! `must` / allowed names into sets and re-derives the chains per pair of
//! structural classes, on every call. Over randomly damaged entries of the
//! integrated schema and of the X.500 core the two must return the
//! identical `Result` — code *and* message, so also which failure wins.

use ldap::attr::{norm_value, value_eq_ci};
use ldap::dn::{Dn, Rdn};
use ldap::entry::Entry;
use ldap::schema::{ClassKind, ObjectClass, Schema};
use ldap::{LdapError, ResultCode};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Both schemas under test are strict and have this one operational name.
const STRICT: bool = true;
const OPERATIONAL: &[&str] = &["lastupdater"];

fn violation(message: String) -> LdapError {
    LdapError::new(ResultCode::ObjectClassViolation, message)
}

/// `name` and all its superiors, nearest first.
fn class_chain<'s>(schema: &'s Schema, name: &str) -> ldap::Result<Vec<&'s ObjectClass>> {
    let mut out = Vec::new();
    let mut cur = Some(name.to_string());
    while let Some(n) = cur {
        let oc = schema
            .class(&n)
            .ok_or_else(|| violation(format!("unknown object class `{n}`")))?;
        cur = oc.superior.clone();
        out.push(oc);
    }
    Ok(out)
}

fn is_structural(schema: &Schema, name: &str) -> bool {
    schema
        .class(name)
        .is_some_and(|c| c.kind == ClassKind::Structural)
}

/// Every structural class among `classes` lies on one superclass chain.
fn all_one_chain(schema: &Schema, classes: ldap::AttrValues<'_>) -> bool {
    let lowered_chain = |name: &str| -> Option<Vec<String>> {
        let chain = class_chain(schema, name).ok()?;
        Some(chain.iter().map(|c| c.name.to_ascii_lowercase()).collect())
    };
    let structurals: Vec<&str> = (classes.iter())
        .filter(|c| is_structural(schema, c))
        .collect();
    structurals.iter().all(|a| {
        structurals.iter().all(|b| {
            let (Some(a_chain), Some(b_chain)) = (lowered_chain(a), lowered_chain(b)) else {
                return false;
            };
            a == b
                || a_chain.contains(&b.to_ascii_lowercase())
                || b_chain.contains(&a.to_ascii_lowercase())
        })
    })
}

/// The validator before the class tables: same checks, same precedence,
/// same texts, everything derived from the definitions on the spot.
fn reference(
    schema: &Schema,
    strict: bool,
    operational: &[&str],
    entry: &Entry,
) -> ldap::Result<()> {
    let dn = entry.dn();
    let classes = entry.object_classes();
    if classes.is_empty() {
        return Err(violation(format!("entry `{dn}` has no objectClass")));
    }
    let mut must: BTreeSet<String> = BTreeSet::new();
    let mut allowed: BTreeSet<String> = BTreeSet::from(["objectclass".to_string()]);
    for name in classes {
        for oc in class_chain(schema, name)? {
            for a in &oc.must {
                must.insert(a.to_ascii_lowercase());
            }
            for a in oc.must.iter().chain(&oc.may) {
                allowed.insert(a.to_ascii_lowercase());
            }
        }
    }
    let structural = (classes.iter())
        .filter(|c| is_structural(schema, c))
        .count();
    if structural == 0 {
        return Err(violation(format!(
            "entry `{dn}` has no structural object class"
        )));
    }
    if structural > 1 && !all_one_chain(schema, classes) {
        return Err(violation(format!(
            "entry `{dn}` has multiple unrelated structural classes"
        )));
    }
    for m in must.iter().filter(|m| *m != "objectclass") {
        if !entry.has_attr(m) {
            return Err(violation(format!(
                "entry `{dn}` missing mandatory attribute `{m}`"
            )));
        }
    }
    for attr in entry.attributes() {
        let (name, norm) = (&attr.name, attr.name.norm());
        let at = schema.attribute(norm).ok_or_else(|| {
            LdapError::new(
                ResultCode::UndefinedAttributeType,
                format!("unknown attribute type `{name}`"),
            )
        })?;
        if strict && !allowed.contains(norm) && !operational.contains(&norm) {
            return Err(violation(format!(
                "attribute `{name}` not allowed by object classes of `{dn}`"
            )));
        }
        if at.single_valued && attr.values.len() > 1 {
            return Err(LdapError::new(
                ResultCode::ConstraintViolation,
                format!("attribute `{name}` is single-valued"),
            ));
        }
        if let Some(v) = attr.values.iter().find(|v| !at.syntax.validate(v)) {
            return Err(LdapError::new(
                ResultCode::InvalidAttributeSyntax,
                format!("value `{v}` violates syntax of `{name}`"),
            ));
        }
    }
    for ava in dn.rdn().map_or(&[][..], |rdn| rdn.avas()) {
        if !entry.has_value(ava.attr(), ava.value()) {
            return Err(LdapError::new(
                ResultCode::NamingViolation,
                format!(
                    "RDN `{}={}` not present among entry attributes",
                    ava.attr(),
                    ava.value()
                ),
            ));
        }
    }
    Ok(())
}

// --- entries: a conforming shape, then damage --------------------------------

const CLASSES: &[&str] = &[
    "top",
    "person",
    "organizationalPerson",
    "ORGANIZATIONALPERSON",
    "Person",
    "organization",
    "organizationalUnit",
    "definityUser",
    "DefinityUser",
    "messagingUser",
    "metacommError",
    "noSuchClass",
    " person",
];

const ATTRS: &[&str] = &[
    "cn",
    "CN",
    "sn",
    "telephoneNumber",
    "TELEPHONENUMBER",
    "roomNumber",
    "l",
    "o",
    "ou",
    "employeeNumber",
    "EmployeeNumber",
    "seeAlso",
    "definityExtension",
    "mpMailbox",
    "lastUpdater",
    "LASTUPDATER",
    "metacommErrorId",
    "frobnicator",
];

const VALUES: &[&str] = &[
    "John Doe",
    "JOHN   doe",
    "Doe",
    "+1 908 582-9123",
    "not a number!",
    "9123",
    "cn=a,o=b",
    "no-equals",
    "Lucent",
];

#[derive(Debug, Clone)]
enum Damage {
    AddClass(usize),
    DropClass(usize),
    OnlyClasses(Vec<usize>),
    AddValue(usize, usize),
    DropAttr(usize),
    Rename(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0..CLASSES.len()).prop_map(Damage::AddClass),
        (0..CLASSES.len()).prop_map(Damage::DropClass),
        proptest::collection::vec(0..CLASSES.len(), 0..3).prop_map(Damage::OnlyClasses),
        (0..ATTRS.len(), 0..VALUES.len()).prop_map(|(a, v)| Damage::AddValue(a, v)),
        (0..ATTRS.len()).prop_map(Damage::DropAttr),
        (0..VALUES.len()).prop_map(Damage::Rename),
    ]
}

/// A conforming entry of either schema: a person or an organization.
fn conforming(shape: usize) -> Entry {
    match shape % 2 {
        0 => Entry::with_attrs(
            Dn::parse("cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("telephoneNumber", "+1 908 582 9000"),
                ("roomNumber", "2B-401"),
                ("l", "site-07"),
            ],
        ),
        _ => Entry::with_attrs(
            Dn::parse("o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "organization"),
                ("o", "Lucent"),
            ],
        ),
    }
}

fn damaged(shape: usize, damages: &[Damage]) -> Entry {
    let mut e = conforming(shape);
    for d in damages {
        match d {
            Damage::AddClass(c) => {
                e.add_value("objectClass", CLASSES[*c]);
            }
            Damage::DropClass(c) => {
                e.remove_value("objectClass", CLASSES[*c]);
            }
            Damage::OnlyClasses(cs) => {
                e.put("objectClass", cs.iter().map(|c| CLASSES[*c]));
            }
            Damage::AddValue(a, v) => {
                e.add_value(ATTRS[*a], VALUES[*v]);
            }
            Damage::DropAttr(a) => {
                e.remove_attr(ATTRS[*a]);
            }
            Damage::Rename(v) => {
                let parent = e.dn().parent().expect("not the root");
                e.set_dn(parent.child(Rdn::new("cn", VALUES[*v])));
            }
        }
    }
    e
}

fn schemas() -> [Schema; 2] {
    [metacomm::schema::integrated_schema(), Schema::x500_core()]
}

/// The compiled validator's verdict on `entry` as built whole and as grown
/// a value at a time, which must be one entry and one verdict.
fn verdict(schema: &Schema, entry: &Entry) -> ldap::Result<()> {
    let built = schema.validate_entry(entry);
    let mut grown = Entry::new(entry.dn().clone());
    for a in entry.attributes() {
        for v in a.values {
            grown.add_value(a.name.as_str(), v);
        }
    }
    assert_eq!(grown, *entry);
    assert_eq!(schema.validate_entry(&grown), built, "{entry:?}");
    built
}

#[test]
fn every_kind_of_verdict_is_reached_and_agreed_on() {
    use Damage::*;
    let class = |name: &str| CLASSES.iter().position(|c| *c == name).unwrap();
    let attr = |name: &str| ATTRS.iter().position(|a| *a == name).unwrap();
    let value = |text: &str| VALUES.iter().position(|v| *v == text).unwrap();
    let table: Vec<(Vec<Damage>, Option<ResultCode>, &str)> = vec![
        (vec![], None, ""),
        (
            vec![
                AddClass(class("DefinityUser")),
                AddValue(attr("LASTUPDATER"), value("9123")),
            ],
            None,
            "",
        ),
        (
            vec![OnlyClasses(vec![])],
            Some(ResultCode::ObjectClassViolation),
            "has no objectClass",
        ),
        (
            vec![AddClass(class("noSuchClass"))],
            Some(ResultCode::ObjectClassViolation),
            "unknown object class `noSuchClass`",
        ),
        (
            vec![OnlyClasses(vec![class("top"), class("definityUser")])],
            Some(ResultCode::ObjectClassViolation),
            "no structural object class",
        ),
        (
            vec![AddClass(class("organization"))],
            Some(ResultCode::ObjectClassViolation),
            "multiple unrelated structural classes",
        ),
        (
            vec![DropAttr(attr("sn"))],
            Some(ResultCode::ObjectClassViolation),
            "missing mandatory attribute `sn`",
        ),
        (
            vec![AddValue(attr("frobnicator"), value("9123"))],
            Some(ResultCode::UndefinedAttributeType),
            "unknown attribute type `frobnicator`",
        ),
        (
            vec![AddValue(attr("o"), value("Lucent"))],
            Some(ResultCode::ObjectClassViolation),
            "attribute `o` not allowed",
        ),
        (
            vec![
                AddValue(attr("employeeNumber"), value("9123")),
                AddValue(attr("EmployeeNumber"), value("Doe")),
            ],
            Some(ResultCode::ConstraintViolation),
            "`employeeNumber` is single-valued",
        ),
        (
            vec![AddValue(attr("TELEPHONENUMBER"), value("not a number!"))],
            Some(ResultCode::InvalidAttributeSyntax),
            "violates syntax of `telephoneNumber`",
        ),
        (
            vec![Rename(value("Doe"))],
            Some(ResultCode::NamingViolation),
            "RDN `cn=Doe` not present",
        ),
    ];
    let schema = metacomm::schema::integrated_schema();
    for (damages, code, text) in table {
        let e = damaged(0, &damages);
        let got = verdict(&schema, &e);
        assert_eq!(got, reference(&schema, STRICT, OPERATIONAL, &e), "{e:?}");
        assert_eq!(got.as_ref().err().map(|e| e.code), code, "{damages:?}");
        if let Err(e) = got {
            assert!(e.message.contains(text), "{}: no `{text}`", e.message);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn validate_entry_returns_what_the_reference_walk_returns(
        shape in 0usize..2,
        damages in proptest::collection::vec(damage(), 0..5),
    ) {
        let e = damaged(shape, &damages);
        for schema in schemas() {
            prop_assert_eq!(
                verdict(&schema, &e),
                reference(&schema, STRICT, OPERATIONAL, &e)
            );
        }
    }
}

// --- value_eq_ci against norm_value ------------------------------------------

/// Characters that exercise `caseIgnoreMatch`: whitespace of several kinds
/// (NBSP and the em space are `char::is_whitespace`), letters whose
/// lowercase is more than one `char` (`İ`), that have none (`ß`) or several
/// sources (`ẞ`, `Σ`/`σ`/`ς`, the titlecase `ǅ`), and plain ASCII.
const ALPHABET: &[char] = &[
    ' ', ' ', '\t', '\n', '\u{a0}', '\u{2003}', 'a', 'A', 'b', 'B', 'z', 'Z', '0', '-', 'İ', 'i',
    '\u{307}', 'ß', 'ẞ', 's', 'S', 'Σ', 'σ', 'ς', 'ǅ', 'ǆ', 'é', 'É',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `a` respelled: case flipped and whitespace stretched by `how`'s bits, so
/// that equal-under-matching pairs are common and not a coincidence.
fn respelled(a: &str, how: u64) -> String {
    let mut out = String::from(if how & 1 == 1 { " \t" } else { "" });
    for (i, c) in a.chars().enumerate() {
        match (how >> (1 + i % 60)) & 1 {
            0 if c.is_whitespace() => out.push_str("\u{a0} "),
            0 => out.extend(c.to_uppercase()),
            _ => out.push(c),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn value_eq_ci_is_equality_of_normalized_values(
        a in text(),
        b in text(),
        how in any::<u64>(),
    ) {
        for b in [b, respelled(&a, how)] {
            let same = norm_value(&a) == norm_value(&b);
            prop_assert_eq!(value_eq_ci(&a, &b), same, "{:?} vs {:?}", a, b);
            prop_assert_eq!(value_eq_ci(&b, &a), same, "{:?} vs {:?}", b, a);
        }
    }
}
