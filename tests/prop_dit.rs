//! Property-based tests of the DIT's structural invariants: after ANY
//! sequence of add/delete/modify/modifyRDN operations (some succeeding,
//! some failing), the tree stays well-formed — every entry's parent exists,
//! stored DNs agree with their index keys, and search scopes partition the
//! tree. Plus a decoder-totality fuzz for the BER layer.
//!
//! And sibling order under random insertion: children added one at a time,
//! in any order, are served in the order a bulk load sorts them into and in
//! the order of their names' normalized keys ([`Dn::norm_key`]); a delete
//! and a rename afterwards find each of them where it was placed. Those
//! RDNs are drawn to make folding hard: non-ASCII letters whose lowercase is
//! longer or shorter than they are, the `,` `+` `\` a key escapes,
//! whitespace runs, case variants, and names of up to three AVAs.

use ldap::dit::{Dit, Scope};
use ldap::dn::{Ava, Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::proto::LdapMessage;
use ldap::ResultCode;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Add { parent: usize, name: usize },
    Delete { node: usize },
    Modify { node: usize, value: String },
    Rename { node: usize, new_name: usize },
    Move { node: usize, under: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..8usize, 0..12usize).prop_map(|(parent, name)| Op::Add { parent, name }),
        (0..8usize).prop_map(|node| Op::Delete { node }),
        (0..8usize, "[a-z]{1,6}").prop_map(|(node, value)| Op::Modify { node, value }),
        (0..8usize, 0..12usize).prop_map(|(node, new_name)| Op::Rename { node, new_name }),
        (0..8usize, 0..8usize).prop_map(|(node, under)| Op::Move { node, under }),
    ]
}

/// All live entry DNs, index 0 meaning the suffix.
fn live(dit: &Dit) -> Vec<Dn> {
    dit.export().iter().map(|e| e.dn().clone()).collect()
}

fn person(dn: Dn, cn: &str) -> Entry {
    Entry::with_attrs(dn, [("objectClass", "person"), ("cn", cn), ("sn", "p")])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dit_structure_survives_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let dit = Dit::new();
        let mut suffix = Entry::new(Dn::parse("o=Root").unwrap());
        suffix.add_value("objectClass", "organization");
        suffix.add_value("o", "Root");
        ldap::Dit::add(&dit, suffix).unwrap();

        for op in &ops {
            let nodes = live(&dit);
            if nodes.is_empty() {
                // The suffix itself was deleted (it was a leaf): recreate it
                // so the run continues — an empty tree has no invariants.
                let mut suffix = Entry::new(Dn::parse("o=Root").unwrap());
                suffix.add_value("objectClass", "organization");
                suffix.add_value("o", "Root");
                ldap::Dit::add(&dit, suffix).unwrap();
                continue;
            }
            match op {
                Op::Add { parent, name } => {
                    let parent_dn = &nodes[parent % nodes.len()];
                    let dn = parent_dn.child(Rdn::new("cn", format!("n{name}")));
                    let _ = ldap::Dit::add(&dit, person(dn, &format!("n{name}")));
                }
                Op::Delete { node } => {
                    let dn = &nodes[node % nodes.len()];
                    let _ = ldap::Dit::delete(&dit, dn);
                }
                Op::Modify { node, value } => {
                    let dn = &nodes[node % nodes.len()];
                    let _ = ldap::Dit::modify(
                        &dit,
                        dn,
                        &[Modification::set("description", value.clone())],
                    );
                }
                Op::Rename { node, new_name } => {
                    let dn = &nodes[node % nodes.len()];
                    let _ = ldap::Dit::modify_rdn(
                        &dit,
                        dn,
                        &Rdn::new("cn", format!("n{new_name}")),
                        true,
                        None,
                    );
                }
                Op::Move { node, under } => {
                    let dn = nodes[node % nodes.len()].clone();
                    let target = nodes[under % nodes.len()].clone();
                    if let Some(rdn) = dn.rdn() {
                        let _ = ldap::Dit::modify_rdn(&dit, &dn, rdn, false, Some(&target));
                    }
                }
            }

            // --- invariants after EVERY step ---------------------------
            let entries = dit.export();
            for e in &entries {
                // 1. Every non-suffix entry's parent exists.
                let parent = e.dn().parent().expect("no root entries");
                if !parent.is_root() {
                    prop_assert!(
                        dit.exists(&parent),
                        "orphan {} after {:?}", e.dn(), op
                    );
                }
                // 2. Index key agrees with the stored DN.
                prop_assert!(dit.exists(e.dn()));
                let fetched = dit.get(e.dn()).unwrap();
                prop_assert_eq!(fetched.dn(), e.dn());
                // 3. RDN values present among the entry's attributes.
                for ava in e.dn().rdn().unwrap().avas() {
                    prop_assert!(
                        e.has_value(ava.attr(), ava.value()),
                        "naming violated on {} after {:?}", e.dn(), op
                    );
                }
            }
            // 4. Scope partition: |base| + Σ|one over every entry| == |sub|.
            let base = Dn::parse("o=Root").unwrap();
            if dit.exists(&base) {
                use ldap::Directory;
                let all = ldap::Dit::search(&dit, &base, Scope::Sub, &Filter::match_all(), &[], 0)
                    .unwrap()
                    .len();
                let mut counted = 1; // the base itself
                for e in &entries {
                    if e.dn().is_within(&base) {
                        counted += ldap::Dit::search(
                            &dit, e.dn(), Scope::One, &Filter::match_all(), &[], 0,
                        )
                        .unwrap()
                        .len();
                    }
                }
                prop_assert_eq!(counted, all, "scope partition after {:?}", op);
            }
        }
    }

    /// The BER/LDAP decoder is total: arbitrary bytes never panic.
    #[test]
    fn ber_decoder_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = LdapMessage::decode(&bytes); // Ok or Err, never panic
        let mut r = ldap::ber::Reader::new(&bytes);
        while !r.is_empty() {
            if r.tlv().is_err() {
                break;
            }
        }
    }

    /// Decoding a mutated valid message never panics either (tag/length
    /// corruption exercises deeper paths than pure noise).
    #[test]
    fn ber_decoder_total_on_corrupted_messages(
        flip_at in 0usize..64,
        xor in 1u8..255,
    ) {
        let msg = LdapMessage {
            id: 7,
            op: ldap::proto::ProtocolOp::SearchRequest {
                base: "o=Lucent".into(),
                scope: Scope::Sub,
                size_limit: 10,
                filter: Filter::parse("(&(cn=J*)(objectClass=person))").unwrap(),
                attrs: vec!["cn".into()],
            },
        };
        let mut bytes = msg.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= xor;
        let _ = LdapMessage::decode(&bytes); // must not panic
    }
}

// --- sibling order ----------------------------------------------------------

const ATTRS: &[&str] = &["cn", "CN", "ou", "uid", "sn"];

const PIECES: &[&str] = &[
    "a",
    "A",
    "b",
    "Z",
    "0",
    "9",
    "é",
    "É",
    "İ",
    "ß",
    "ẞ",
    "Σ",
    "ς",
    ",",
    "+",
    "\\",
    " ",
    "  ",
    "\t",
    "-",
    "a,b",
    "x+y",
    "Doe, John",
    "q\\r",
];

/// An RDN as drawn: one to three AVAs, each a type and the pieces of its
/// value.
type RdnSpec = Vec<(usize, Vec<usize>)>;

fn rdn_spec() -> impl Strategy<Value = RdnSpec> {
    proptest::collection::vec(
        (
            0..ATTRS.len(),
            proptest::collection::vec(0..PIECES.len(), 1..6),
        ),
        1..4,
    )
}

/// The RDN `spec` names; `None` when two of its AVAs share a type.
fn rdn(spec: &RdnSpec) -> Option<Rdn> {
    let value = |pieces: &[usize]| pieces.iter().map(|&p| PIECES[p]).collect::<String>();
    let avas = spec
        .iter()
        .map(|(a, pieces)| Ava::new(ATTRS[*a], value(pieces)));
    Rdn::multi(avas.collect()).ok()
}

/// An entry named `dn` holding its RDN's values.
fn named(dn: &Dn) -> Entry {
    let rdn = dn.rdn().expect("not the root");
    let avas = rdn.avas().iter().map(|a| (a.attr(), a.value()));
    Entry::with_attrs(dn.clone(), avas.chain([("objectClass", "top")]))
}

/// The normalized keys of `parent`'s children, in the order served.
fn served(dit: &Dit, parent: &Dn) -> Vec<String> {
    use ldap::Directory;
    let children = dit.search(parent, Scope::One, &Filter::match_all(), &[], 0);
    (children.expect("one-level search").iter())
        .map(|e| e.dn().norm_key())
        .collect()
}

fn tree(under: &Option<Dn>) -> std::sync::Arc<Dit> {
    let dit = Dit::new();
    if let Some(parent) = under {
        dit.add(named(parent)).expect("the parent");
    }
    dit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn siblings_placed_one_at_a_time_sort_as_a_bulk_load_and_are_found_again(
        under_parent in any::<bool>(),
        specs in proptest::collection::vec(rdn_spec(), 1..40),
        gone in proptest::collection::vec(any::<bool>(), 40),
        renames in proptest::collection::vec(rdn_spec(), 0..10),
    ) {
        let under = under_parent.then(|| Dn::parse("o=Te\\,st").expect("parent"));
        let parent = under.clone().unwrap_or_else(Dn::root);
        let (dit, bulk) = (tree(&under), tree(&under));
        bulk.begin_bulk();
        // Normalized key to name: what the siblings are.
        let mut model: BTreeMap<String, Dn> = BTreeMap::new();
        for dn in specs.iter().filter_map(rdn).map(|r| parent.child(r)) {
            let fresh = !model.contains_key(&dn.norm_key());
            let added = dit.add(named(&dn)).map_err(|e| e.code);
            prop_assert_eq!(added, if fresh { Ok(()) } else { Err(ResultCode::EntryAlreadyExists) });
            if fresh {
                bulk.add(named(&dn)).expect("bulk add");
                model.insert(dn.norm_key(), dn);
            }
        }
        bulk.finish_bulk();
        let sorted: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(served(&dit, &parent), sorted.clone());
        prop_assert_eq!(served(&bulk, &parent), sorted);

        let doomed: Vec<Dn> = (model.values().zip(&gone))
            .filter(|(_, &gone)| gone)
            .map(|(dn, _)| dn.clone())
            .collect();
        for dn in doomed {
            prop_assert_eq!(dit.delete(&dn), Ok(()));
            prop_assert!(!dit.exists(&dn));
            model.remove(&dn.norm_key());
        }
        prop_assert_eq!(served(&dit, &parent), model.keys().cloned().collect::<Vec<_>>());

        let movers: Vec<Dn> = model.values().cloned().collect();
        for (old, new_rdn) in movers.iter().zip(renames.iter().filter_map(rdn)) {
            let new = parent.child(new_rdn.clone());
            if model.contains_key(&new.norm_key()) {
                continue;
            }
            prop_assert_eq!(dit.modify_rdn(old, &new_rdn, true, None), Ok(()));
            prop_assert!(dit.exists(&new) && !dit.exists(old));
            model.remove(&old.norm_key());
            model.insert(new.norm_key(), new);
        }
        prop_assert_eq!(served(&dit, &parent), model.keys().cloned().collect::<Vec<_>>());
        for dn in model.values() {
            prop_assert_eq!(dit.delete(dn), Ok(()));
        }
        prop_assert!(served(&dit, &parent).is_empty());
    }
}
