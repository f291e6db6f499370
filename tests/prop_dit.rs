//! Property-based tests of the DIT's structural invariants: after ANY
//! sequence of add/delete/modify/modifyRDN operations (some succeeding,
//! some failing), the tree stays well-formed — every entry's parent exists,
//! stored DNs agree with their index keys, and search scopes partition the
//! tree. Plus a decoder-totality fuzz for the BER layer.

use ldap::dit::{Dit, Scope};
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::proto::LdapMessage;
use proptest::prelude::*;

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
