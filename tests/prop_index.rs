//! Property tests for the DIT's equality indexes: an indexed directory and
//! a scan-only directory fed the exact same randomized operation sequence
//! (add/delete/modify/modifyRDN, some succeeding, some failing) must give
//! the same answer to every operation AND to every probe search — same
//! entries, same order (the planner reproduces the scan's BFS emission
//! order), same sizes under a size limit. This is the "bit-identical
//! semantics" contract the filter planner promises.

use ldap::dit::{Dit, Scope};
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Add { parent: usize, name: usize },
    Delete { node: usize },
    Modify { node: usize, value: String },
    Retag { node: usize, name: usize },
    Rename { node: usize, new_name: usize },
    Move { node: usize, under: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..8usize, 0..10usize).prop_map(|(parent, name)| Op::Add { parent, name }),
        (0..8usize).prop_map(|node| Op::Delete { node }),
        (0..8usize, "[a-z]{1,6}").prop_map(|(node, value)| Op::Modify { node, value }),
        (0..8usize, 0..10usize).prop_map(|(node, name)| Op::Retag { node, name }),
        (0..8usize, 0..10usize).prop_map(|(node, new_name)| Op::Rename { node, new_name }),
        (0..8usize, 0..8usize).prop_map(|(node, under)| Op::Move { node, under }),
    ]
}

fn fresh(indexed: bool) -> Arc<Dit> {
    let dit = if indexed {
        Dit::new()
    } else {
        Dit::with_schema_indexed(Arc::new(ldap::Schema::permissive()), &[])
    };
    let mut suffix = Entry::new(Dn::parse("o=Root").unwrap());
    suffix.add_value("objectClass", "organization");
    suffix.add_value("o", "Root");
    ldap::Dit::add(&dit, suffix).unwrap();
    dit
}

fn person(dn: Dn, cn: &str) -> Entry {
    let phone = format!("9{}", cn.len());
    Entry::with_attrs(
        dn,
        [
            ("objectClass", "person"),
            ("cn", cn),
            ("sn", "p"),
            ("telephoneNumber", phone.as_str()),
        ],
    )
}

/// Apply `op` identically to both directories; their outcomes must agree.
fn apply(op: &Op, dit: &Dit) -> (bool, Vec<Dn>) {
    let nodes: Vec<Dn> = dit.export().iter().map(|e| e.dn().clone()).collect();
    if nodes.is_empty() {
        let mut suffix = Entry::new(Dn::parse("o=Root").unwrap());
        suffix.add_value("objectClass", "organization");
        suffix.add_value("o", "Root");
        ldap::Dit::add(dit, suffix).unwrap();
        return (true, vec![Dn::parse("o=Root").unwrap()]);
    }
    let ok = match op {
        Op::Add { parent, name } => {
            let parent_dn = &nodes[parent % nodes.len()];
            let dn = parent_dn.child(Rdn::new("cn", format!("n{name}")));
            ldap::Dit::add(dit, person(dn, &format!("n{name}"))).is_ok()
        }
        Op::Delete { node } => ldap::Dit::delete(dit, &nodes[node % nodes.len()]).is_ok(),
        Op::Modify { node, value } => ldap::Dit::modify(
            dit,
            &nodes[node % nodes.len()],
            &[Modification::set("description", value.clone())],
        )
        .is_ok(),
        Op::Retag { node, name } => ldap::Dit::modify(
            dit,
            &nodes[node % nodes.len()],
            // Churn an INDEXED attribute so postings must follow modifies.
            &[Modification::set("telephoneNumber", format!("8{name}"))],
        )
        .is_ok(),
        Op::Rename { node, new_name } => ldap::Dit::modify_rdn(
            dit,
            &nodes[node % nodes.len()],
            &Rdn::new("cn", format!("n{new_name}")),
            true,
            None,
        )
        .is_ok(),
        Op::Move { node, under } => {
            let dn = nodes[node % nodes.len()].clone();
            let target = nodes[under % nodes.len()].clone();
            match dn.rdn() {
                Some(rdn) => ldap::Dit::modify_rdn(dit, &dn, rdn, false, Some(&target)).is_ok(),
                None => false,
            }
        }
    };
    (ok, nodes)
}

/// Probe filters spanning the planner's applicability space: pure equality
/// (indexable), AND-with-equality (indexable), unindexed-attribute
/// equality, substring, negation, presence (all scan fallbacks).
fn probes(k: usize) -> Vec<Filter> {
    vec![
        Filter::parse("(objectClass=person)").unwrap(),
        Filter::parse(&format!("(cn=n{k})")).unwrap(),
        Filter::parse(&format!("(&(objectClass=person)(cn=n{k}))")).unwrap(),
        Filter::parse(&format!("(telephoneNumber=8{k})")).unwrap(),
        Filter::parse("(description=zzz-never)").unwrap(),
        Filter::parse("(sn=p)").unwrap(),
        Filter::parse("(cn=n*)").unwrap(),
        Filter::parse(&format!("(!(cn=n{k}))")).unwrap(),
        Filter::parse("(cn=*)").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_search_equals_scan_after_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        k in 0usize..10,
    ) {
        let indexed = fresh(true);
        let scan = fresh(false);
        let base = Dn::parse("o=Root").unwrap();

        for op in &ops {
            let (ok_i, nodes) = apply(op, &indexed);
            let (ok_s, _) = apply(op, &scan);
            prop_assert_eq!(ok_i, ok_s, "op outcome diverged on {:?}", op);

            // Full-content equality after every mutation.
            prop_assert_eq!(indexed.export(), scan.export(), "tree diverged after {:?}", op);

            // Probe from the suffix and from an arbitrary interior node,
            // in every scope, with and without a size limit.
            let mut bases = vec![base.clone()];
            if let Some(n) = nodes.first() {
                bases.push(n.clone());
            }
            for b in &bases {
                for scope in [Scope::Base, Scope::One, Scope::Sub] {
                    for f in probes(k) {
                        for limit in [0usize, 3] {
                            use ldap::Directory;
                            let a = ldap::Dit::search(&indexed, b, scope, &f, &[], limit);
                            let e = ldap::Dit::search(&scan, b, scope, &f, &[], limit);
                            match (a, e) {
                                (Ok(a), Ok(e)) => prop_assert_eq!(
                                    a, e,
                                    "results diverged: base={} scope={:?} filter={:?} limit={}",
                                    b, scope, f, limit
                                ),
                                (Err(_), Err(_)) => {}
                                (a, e) => prop_assert!(
                                    false,
                                    "one side errored: {:?} vs {:?} (filter {:?})", a, e, f
                                ),
                            }
                        }
                    }
                }
            }
        }

        // The equivalence above must actually have exercised the index.
        let (served, _) = indexed.index_stats();
        prop_assert!(served > 0, "indexed side never used its index");
        let (served_scan, scanned_scan) = scan.index_stats();
        prop_assert_eq!(served_scan, 0, "scan side must have no index");
        prop_assert!(scanned_scan > 0);
    }
}
