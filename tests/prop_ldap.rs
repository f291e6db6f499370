//! Property-based tests for the LDAP substrate: round-trip laws for DNs,
//! filters, BER messages, and LDIF; atomicity of modification batches; and
//! the shared-storage `Dn` against a reference model made of plain strings.

use ldap::backup;
use ldap::dit::{ChangeOp, ChangeRecord};
use ldap::dn::{Ava, Dn, Rdn};
use ldap::entry::{Entry, ModOp, Modification};
use ldap::filter::Filter;
use ldap::ldif::{self, Record};
use ldap::proto::{LdapMessage, ProtocolOp};
use proptest::prelude::*;

/// Printable-ASCII values that exercise the escaping paths.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{1,24}")
        .expect("regex")
        .prop_filter("no lone surrogate issues", |s| !s.trim().is_empty())
}

fn attr_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z][a-zA-Z0-9-]{0,14}").expect("regex")
}

/// Names and values a plain LDIF line cannot carry as they are: line
/// breaks, non-ASCII, RFC 4514 specials, blanks at either end.
fn wide_text_strategy() -> impl Strategy<Value = String> {
    const CHARS: [char; 20] = [
        'a', 'Z', '7', ' ', '\t', ',', '+', '=', '#', ';', '\\', '<', ':', '-', '\n', '\r', 'é',
        'ß', '中', '😀',
    ];
    proptest::collection::vec(0..CHARS.len(), 1..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Every name a record carries, as written: `Dn` and `Rdn` equality is by
/// match, and a name must come back spelled the way it went out.
fn written_names(records: &[Record]) -> Vec<String> {
    let mut out = Vec::new();
    for r in records {
        match r {
            Record::Content(e) | Record::Add(e) => out.push(e.dn().to_string()),
            Record::Delete(dn) | Record::Modify(dn, _) => out.push(dn.to_string()),
            Record::ModRdn {
                dn,
                new_rdn,
                new_superior,
                ..
            } => {
                out.extend([dn.to_string(), new_rdn.to_string()]);
                out.extend(new_superior.as_ref().map(Dn::to_string));
            }
        }
    }
    out
}

// --- reference model of a DN --------------------------------------------------
//
// Owned strings, nothing shared, nothing cached, every rule spelled out the
// long way. `Dn` must agree with it on everything a caller can observe.

#[derive(Debug, Clone)]
struct ModelAva {
    attr: String,
    value: String,
    /// Written with `\XX` escapes where an escape is needed.
    hex: bool,
    /// Spaces written around the attribute, the `=` and the value.
    pad: usize,
}

/// RDNs leaf first, AVAs in the order written.
#[derive(Debug, Clone)]
struct ModelDn(Vec<Vec<ModelAva>>);

fn model_norm(value: &str) -> String {
    value
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

/// A normalized value as a key spells it: `\`, `,` and `+` escaped, so that
/// no value reads as a separator.
fn model_key_value(value: &str) -> String {
    model_norm(value)
        .replace('\\', r"\\")
        .replace(',', r"\,")
        .replace('+', r"\+")
}

impl ModelDn {
    fn rdn_key(rdn: &[ModelAva]) -> String {
        let mut avas: Vec<String> = rdn
            .iter()
            .map(|a| {
                format!(
                    "{}={}",
                    a.attr.to_ascii_lowercase(),
                    model_key_value(&a.value)
                )
            })
            .collect();
        avas.sort_by(|a, b| a.split('=').next().cmp(&b.split('=').next()));
        avas.join("+")
    }

    fn key(&self) -> String {
        let rdns: Vec<String> = self.0.iter().map(|r| ModelDn::rdn_key(r)).collect();
        rdns.join(",")
    }

    /// The same name as another client would write it: other case.
    fn shouted(&self) -> ModelDn {
        let mut other = self.clone();
        for ava in other.0.iter_mut().flatten() {
            ava.attr = ava.attr.to_ascii_uppercase();
            ava.value = ava.value.to_uppercase();
        }
        other
    }

    fn is_within(&self, ancestor: &ModelDn) -> bool {
        let (mine, theirs) = (&self.0, &ancestor.0);
        theirs.len() <= mine.len()
            && mine[mine.len() - theirs.len()..]
                .iter()
                .zip(theirs)
                .all(|(a, b)| ModelDn::rdn_key(a) == ModelDn::rdn_key(b))
    }

    /// RFC 2253 text with this model's odd spacing, `;` for every other
    /// separator, and either escape style.
    fn text(&self) -> String {
        let mut out = String::new();
        for (i, rdn) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(if i % 2 == 0 { ';' } else { ',' });
            }
            for (j, ava) in rdn.iter().enumerate() {
                if j > 0 {
                    out.push('+');
                }
                let pad = " ".repeat(ava.pad);
                out.push_str(&format!("{pad}{}{pad}={pad}", ava.attr));
                let last = ava.value.chars().count() - 1;
                for (k, c) in ava.value.chars().enumerate() {
                    let escape = matches!(c, ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=')
                        || (c == '#' && k == 0)
                        || (c == ' ' && (k == 0 || k == last));
                    match (escape, ava.hex) {
                        (false, _) => out.push(c),
                        (true, false) => out.extend(['\\', c]),
                        (true, true) => out.push_str(&format!("\\{:02X}", c as u32)),
                    }
                }
                out.push_str(&pad);
            }
        }
        out
    }

    /// Built through the constructors instead of the parser.
    fn build(&self) -> Dn {
        self.0.iter().rev().fold(Dn::root(), |dn, rdn| {
            dn.child(
                Rdn::multi(rdn.iter().map(|a| Ava::new(&a.attr, &a.value)).collect())
                    .expect("distinct attribute types"),
            )
        })
    }
}

fn model_rdn_strategy() -> impl Strategy<Value = Vec<ModelAva>> {
    let ava = (
        proptest::string::string_regex("[a-zA-Z][a-zA-Z0-9-]{0,6}").expect("regex"),
        value_strategy(),
        any::<bool>(),
        0..3usize,
    )
        .prop_map(|(attr, value, hex, pad)| ModelAva {
            attr,
            value,
            hex,
            pad,
        });
    proptest::collection::vec(ava, 1..4).prop_map(|mut avas| {
        // One AVA per attribute type, as X.501 requires.
        let mut seen = std::collections::HashSet::new();
        avas.retain(|a| seen.insert(a.attr.to_ascii_lowercase()));
        avas
    })
}

fn model_dn_strategy() -> impl Strategy<Value = ModelDn> {
    proptest::collection::vec(model_rdn_strategy(), 1..5).prop_map(ModelDn)
}

fn model_ava(attr: &str, value: &str) -> ModelAva {
    ModelAva {
        attr: attr.to_string(),
        value: value.to_string(),
        hex: false,
        pad: 0,
    }
}

/// Two names the key once merged: a value holding a separator, and the
/// name that separator would make.
#[test]
fn a_separator_inside_a_value_keeps_two_names_apart() {
    let x = vec![model_ava("o", "x")];
    let pairs = [
        (
            r"cn=a\,ou=b,o=x",
            ModelDn(vec![vec![model_ava("cn", "a,ou=b")], x.clone()]),
            "cn=a,ou=b,o=x",
            ModelDn(vec![
                vec![model_ava("cn", "a")],
                vec![model_ava("ou", "b")],
                x.clone(),
            ]),
        ),
        (
            r"cn=p\+sn=q,o=x",
            ModelDn(vec![vec![model_ava("cn", "p+sn=q")], x.clone()]),
            "cn=p+sn=q,o=x",
            ModelDn(vec![vec![model_ava("cn", "p"), model_ava("sn", "q")], x]),
        ),
    ];
    for (text, model, other_text, other) in pairs {
        let (dn, other_dn) = (Dn::parse(text).unwrap(), Dn::parse(other_text).unwrap());
        assert_eq!(dn, model.build(), "{text}");
        assert_eq!(other_dn, other.build(), "{other_text}");
        assert_eq!(dn.norm_key(), model.key(), "{text}");
        assert_eq!(other_dn.norm_key(), other.key(), "{other_text}");
        assert_ne!(model.key(), other.key());
        assert_ne!(dn, other_dn);
    }
}

fn hash_of(dn: &Dn) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dn.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dn_agrees_with_the_reference_model(
        model in model_dn_strategy(),
        other in model_dn_strategy(),
        new_leaf in model_rdn_strategy(),
        cut in 0..5usize,
    ) {
        let text = model.text();
        let dn = Dn::parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(dn.norm_key(), model.key(), "key of `{}`", text);
        prop_assert_eq!(dn.depth(), model.0.len());
        // What was written is what is kept, AVA by AVA (sorted by type).
        for (rdn, written) in dn.rdns().zip(&model.0) {
            let mut written: Vec<&ModelAva> = written.iter().collect();
            written.sort_by_key(|a| a.attr.to_ascii_lowercase());
            prop_assert_eq!(rdn.avas().len(), written.len());
            for (ava, w) in rdn.avas().iter().zip(written) {
                prop_assert_eq!(ava.attr(), w.attr.as_str());
                prop_assert_eq!(ava.value(), w.value.as_str());
                prop_assert_eq!(ava.norm_attr(), w.attr.to_ascii_lowercase());
                prop_assert_eq!(ldap::attr::norm_value(ava.value()), model_norm(&w.value));
            }
        }
        // Parser and constructors build the same name, and printing it and
        // reading it back changes nothing.
        let built = model.build();
        prop_assert_eq!(&built, &dn);
        prop_assert_eq!(built.to_string(), dn.to_string());
        let reread = Dn::parse(&dn.to_string()).expect("display must parse");
        prop_assert_eq!(&reread, &dn);
        prop_assert_eq!(reread.to_string(), dn.to_string());
        // Equality and hashing are by match, not by spelling.
        let shouted = Dn::parse(&model.shouted().text()).expect("parse");
        prop_assert_eq!(&shouted, &dn);
        prop_assert_eq!(hash_of(&shouted), hash_of(&dn));
        prop_assert_eq!(shouted.norm_key(), dn.norm_key());
        // Two names compare the way their keys do.
        let other_dn = other.build();
        prop_assert_eq!(other_dn == dn, other.key() == model.key());
        prop_assert_eq!(other_dn.norm_key().cmp(&dn.norm_key()), other.key().cmp(&model.key()));
        // Containment: against an unrelated name and a real ancestor.
        prop_assert_eq!(dn.is_within(&other_dn), model.is_within(&other));
        let ancestor = ModelDn(model.0[cut.min(model.0.len())..].to_vec()).shouted();
        prop_assert!(model.is_within(&ancestor));
        prop_assert!(dn.is_within(&ancestor.build()));
        prop_assert_eq!(ancestor.build().is_within(&dn), ancestor.0.len() == model.0.len());
        // Parent, and the leaf replaced.
        let parent = ModelDn(model.0[1..].to_vec());
        prop_assert_eq!(dn.parent().expect("non-root").norm_key(), parent.key());
        let mut renamed = model.clone();
        renamed.0[0] = new_leaf.clone();
        let with = dn
            .with_rdn(ModelDn(vec![new_leaf]).build().rdn().expect("one RDN").clone())
            .expect("non-root");
        prop_assert_eq!(with.norm_key(), renamed.key());
        prop_assert_eq!(&with, &renamed.build());
    }

    #[test]
    fn dn_display_parse_round_trip(
        attrs in proptest::collection::vec((attr_strategy(), value_strategy()), 1..5)
    ) {
        let mut dn = Dn::root();
        for (a, v) in &attrs {
            dn = dn.child(Rdn::new(a.clone(), v.clone()));
        }
        let s = dn.to_string();
        let parsed = Dn::parse(&s).expect("display must parse");
        prop_assert_eq!(&parsed, &dn, "round trip of `{}`", s);
        // Normalized keys agree too.
        prop_assert_eq!(parsed.norm_key(), dn.norm_key());
    }

    /// RFC 4514 §3: `\XX` pairs are UTF-8 octets, so a value written with
    /// every byte hex-escaped names the entry the value itself names.
    #[test]
    fn a_value_written_in_hex_escapes_parses_to_itself(
        attr in attr_strategy(),
        value in wide_text_strategy(),
    ) {
        let hex: String = value.bytes().map(|b| format!("\\{b:02X}")).collect();
        let parsed = Dn::parse(&format!("{attr}={hex},o=x")).expect("hex escapes parse");
        prop_assert_eq!(parsed.rdn().expect("a leaf").first().value(), value.as_str());
        let plain = Dn::parse("o=x").expect("suffix").child(Rdn::new(&attr, value.as_str()));
        prop_assert_eq!(&parsed, &plain);
        prop_assert_eq!(parsed.to_string(), plain.to_string());
    }

    #[test]
    fn dn_hierarchy_laws(
        attrs in proptest::collection::vec((attr_strategy(), value_strategy()), 1..5)
    ) {
        let mut dn = Dn::root();
        for (a, v) in &attrs {
            dn = dn.child(Rdn::new(a.clone(), v.clone()));
        }
        // parent/child are inverses, down to the hash.
        let rdn = dn.rdn().expect("non-root").clone();
        let parent = dn.parent().expect("non-root");
        let again = parent.child(rdn);
        prop_assert_eq!(&again, &dn);
        prop_assert_eq!(hash_of(&again), hash_of(&dn));
        // A built chain is the parsed name, and prints the same text.
        let parsed = Dn::parse(&dn.to_string()).expect("display must parse");
        prop_assert_eq!(&parsed, &dn);
        prop_assert_eq!(hash_of(&parsed), hash_of(&dn));
        prop_assert_eq!(parsed.to_string(), dn.to_string());
        // is_within is reflexive and respects ancestry.
        prop_assert!(dn.is_within(&dn));
        prop_assert!(dn.is_within(&parent));
        prop_assert!(dn.is_within(&Dn::root()));
        if !parent.is_root() {
            prop_assert!(!parent.is_within(&dn));
        }
    }

    #[test]
    fn filter_display_parse_round_trip(f in filter_strategy()) {
        let s = f.to_string();
        let parsed = Filter::parse(&s).unwrap_or_else(|e| panic!("`{s}`: {e}"));
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn ber_message_round_trip(
        id in 1i64..100000,
        dn in value_strategy(),
        attr in attr_strategy(),
        values in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        for op in [
            ProtocolOp::AddRequest {
                dn: dn.clone(),
                attrs: vec![(attr.clone(), values.clone())],
            },
            ProtocolOp::DelRequest { dn: dn.clone() },
            ProtocolOp::ModifyRequest {
                dn: dn.clone(),
                mods: vec![Modification {
                    op: ModOp::Replace,
                    attr: attr.clone().into(),
                    values: values.clone(),
                }],
            },
            ProtocolOp::CompareRequest {
                dn: dn.clone(),
                attr: attr.clone(),
                value: values.first().cloned().unwrap_or_default(),
            },
        ] {
            let msg = LdapMessage { id, op };
            let decoded = LdapMessage::decode(&msg.encode()).expect("decode");
            prop_assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn ldif_entry_round_trip(
        name in wide_text_strategy(),
        pairs in proptest::collection::vec((attr_strategy(), value_strategy()), 1..8)
    ) {
        let mut e = Entry::new(Dn::parse("o=L").unwrap().child(Rdn::new("cn", name.clone())));
        e.add_value("cn", name);
        for (a, v) in &pairs {
            e.add_value(a.clone(), v.clone());
        }
        let text = ldif::to_ldif(std::slice::from_ref(&e));
        let records = ldif::parse(&text).expect("parse own output");
        prop_assert_eq!(written_names(&records), written_names(&[Record::Content(e.clone())]));
        prop_assert_eq!(records, vec![Record::Content(e)]);
    }

    #[test]
    fn change_records_round_trip_through_a_wal_payload(
        seq in any::<u64>(),
        kind in 0..4usize,
        names in proptest::collection::vec(wide_text_strategy(), 3),
        flags in (any::<bool>(), any::<bool>()),
        pairs in proptest::collection::vec((attr_strategy(), wide_text_strategy()), 1..6),
        mods in proptest::collection::vec(
            (0..3usize, attr_strategy(), proptest::collection::vec(wide_text_strategy(), 0..3)),
            0..4,
        ),
    ) {
        let (moved, delete_old) = flags;
        let dn = Dn::parse("o=L").unwrap().child(Rdn::new("cn", names[0].clone()));
        let (op, expected) = match kind {
            0 => {
                let e = Entry::with_attrs(dn.clone(), pairs);
                (ChangeOp::Add(e.clone()), Record::Add(e))
            }
            1 => {
                let mods: Vec<Modification> = mods
                    .into_iter()
                    .map(|(op, attr, values)| Modification {
                        op: [ModOp::Add, ModOp::Delete, ModOp::Replace][op],
                        attr: attr.into(),
                        values,
                    })
                    .collect();
                (ChangeOp::Modify(mods.clone()), Record::Modify(dn.clone(), mods))
            }
            2 => {
                let new_rdn = Rdn::new("cn", names[1].clone());
                let new_superior = moved.then(|| Dn::root().child(Rdn::new("ou", names[2].clone())));
                let op = ChangeOp::ModifyRdn {
                    new_rdn: new_rdn.clone(),
                    delete_old,
                    new_superior: new_superior.clone(),
                };
                let record = Record::ModRdn { dn: dn.clone(), new_rdn, delete_old, new_superior };
                (op, record)
            }
            _ => (ChangeOp::Delete, Record::Delete(dn.clone())),
        };
        let payload = backup::wal_payload(&ChangeRecord { seq, dn, op });
        let (back, text) = backup::decode_wal_payload(&payload).expect("decode own payload");
        prop_assert_eq!(back, seq);
        let records = ldif::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(written_names(&records), written_names(std::slice::from_ref(&expected)));
        prop_assert_eq!(records, vec![expected]);
    }

    #[test]
    fn base64_round_trip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let enc = ldif::b64_encode(&data);
        prop_assert_eq!(ldif::b64_decode(&enc).expect("decode"), data);
    }

    #[test]
    fn modification_batches_are_atomic(
        vals in proptest::collection::vec(value_strategy(), 1..4),
    ) {
        let mut e = Entry::with_attrs(
            Dn::parse("cn=probe,o=L").unwrap(),
            [("objectClass", "person"), ("cn", "probe"), ("sn", "probe")],
        );
        let before = e.clone();
        // A batch whose last step always fails must leave no trace.
        let mods = vec![
            Modification::replace("description", vals.clone()),
            Modification::add("seeAlso", vec!["cn=x".into()]),
            Modification::delete_attr("never-existed"),
        ];
        prop_assert!(e.apply_modifications(&mods).is_err());
        prop_assert_eq!(e, before);
    }
}

/// Recursive filter generator.
fn filter_strategy() -> impl Strategy<Value = Filter> {
    fn clean_value() -> proptest::string::RegexGeneratorStrategy<String> {
        proptest::string::string_regex("[a-zA-Z0-9 +._-]{1,12}").expect("regex")
    }
    let leaf = prop_oneof![
        (attr_strategy(), clean_value()).prop_map(|(a, v)| Filter::Equality(a, v)),
        attr_strategy().prop_map(Filter::Present),
        (attr_strategy(), clean_value()).prop_map(|(a, v)| Filter::GreaterOrEqual(a, v)),
        (attr_strategy(), clean_value()).prop_map(|(a, v)| Filter::LessOrEqual(a, v)),
        (attr_strategy(), clean_value()).prop_map(|(a, v)| Filter::Approx(a, v)),
        (
            attr_strategy(),
            proptest::option::of(clean_value()),
            proptest::collection::vec(clean_value(), 0..3),
            proptest::option::of(clean_value()),
        )
            .prop_filter_map("substring needs some part", |(attr, i, any, f)| {
                if i.is_none() && any.is_empty() && f.is_none() {
                    None
                } else {
                    Some(Filter::Substring {
                        attr,
                        initial: i,
                        any,
                        final_: f,
                    })
                }
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}
