//! Model-based property test of the DIT store: after ANY sequence of
//! add/delete/modify/modifyRDN operations the store and a plain
//! map-and-walk model of a directory agree — same per-op result codes, same
//! `search_visit` streams (content *and* order, for every scope and for
//! indexed and scanning filters), same commit counter, same export, the
//! snapshot file the model's walk renders to, and the same tree again after
//! a snapshot → restore cold start.
//!
//! The model is the specification, written to be read: entries in one
//! `BTreeMap` keyed by normalized DN, children found by looking at every
//! entry's parent, searches a level-by-level walk that asks
//! `Filter::matches` of each entry. No ids, no index, no sibling lists, no
//! bulk window.

use ldap::dit::{Dit, Scope};
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::ldif::to_ldif;
use ldap::schema::Schema;
use ldap::ResultCode;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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

/// What a directory is, with nothing done to make it fast.
#[derive(Default)]
struct Model {
    /// Normalized DN → entry. The map's order is key order, which is the
    /// order siblings are served in.
    entries: BTreeMap<String, Entry>,
    /// Successful updates so far.
    seq: u64,
}

type Outcome = Result<(), ResultCode>;

impl Model {
    fn has(&self, dn: &Dn) -> bool {
        dn.is_root() || self.entries.contains_key(&dn.norm_key())
    }

    /// Entries directly under `dn`, in key order.
    fn children(&self, dn: &Dn) -> Vec<&Entry> {
        let key = dn.norm_key();
        self.entries
            .values()
            .filter(|e| e.dn().parent().is_some_and(|p| p.norm_key() == key))
            .collect()
    }

    /// `dn` (when it names an entry) and everything under it, level by
    /// level, siblings in key order.
    fn walk(&self, dn: &Dn) -> Vec<&Entry> {
        let mut out = Vec::new();
        let mut queue: VecDeque<&Entry> = match self.entries.get(&dn.norm_key()) {
            Some(e) => VecDeque::from([e]),
            None => self.children(dn).into(),
        };
        while let Some(e) = queue.pop_front() {
            queue.extend(self.children(e.dn()));
            out.push(e);
        }
        out
    }

    fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&Entry> {
        let scoped = match scope {
            Scope::Base => self.entries.get(&base.norm_key()).into_iter().collect(),
            Scope::One => self.children(base),
            Scope::Sub => self.walk(base),
        };
        scoped.into_iter().filter(|e| filter.matches(e)).collect()
    }

    fn add(&mut self, entry: Entry) -> Outcome {
        if self.entries.contains_key(&entry.dn().norm_key()) {
            return Err(ResultCode::EntryAlreadyExists);
        }
        if !self.has(&entry.dn().parent().expect("never the root")) {
            return Err(ResultCode::NoSuchObject);
        }
        self.entries.insert(entry.dn().norm_key(), entry);
        self.seq += 1;
        Ok(())
    }

    fn delete(&mut self, dn: &Dn) -> Outcome {
        if !self.entries.contains_key(&dn.norm_key()) {
            return Err(ResultCode::NoSuchObject);
        }
        if !self.children(dn).is_empty() {
            return Err(ResultCode::NotAllowedOnNonLeaf);
        }
        self.entries.remove(&dn.norm_key());
        self.seq += 1;
        Ok(())
    }

    fn modify(&mut self, dn: &Dn, mods: &[Modification]) -> Outcome {
        let entry = self
            .entries
            .get_mut(&dn.norm_key())
            .ok_or(ResultCode::NoSuchObject)?;
        let mut updated = entry.clone();
        updated.apply_modifications(mods).map_err(|e| e.code)?;
        let rdn = dn.rdn().expect("never the root");
        if !(rdn.avas().iter()).all(|ava| updated.has_value(ava.attr(), ava.value())) {
            return Err(ResultCode::NotAllowedOnRdn);
        }
        *entry = updated;
        self.seq += 1;
        Ok(())
    }

    fn modify_rdn(&mut self, dn: &Dn, rdn: &Rdn, delete_old: bool, sup: Option<&Dn>) -> Outcome {
        let new_dn = match sup {
            Some(sup) => sup.child(rdn.clone()),
            None => dn.parent().expect("never the root").child(rdn.clone()),
        };
        if !self.entries.contains_key(&dn.norm_key()) {
            return Err(ResultCode::NoSuchObject);
        }
        if let Some(sup) = sup {
            if !self.has(sup) {
                return Err(ResultCode::NoSuchObject);
            }
            if sup.is_within(dn) {
                return Err(ResultCode::UnwillingToPerform);
            }
        }
        if new_dn.norm_key() != dn.norm_key() && self.entries.contains_key(&new_dn.norm_key()) {
            return Err(ResultCode::EntryAlreadyExists);
        }
        // Take the subtree out, top first, and put every entry back under
        // the name it now has: its own RDNs below `dn`, then `new_dn`.
        let subtree: Vec<Entry> = self.walk(dn).into_iter().cloned().collect();
        for e in &subtree {
            self.entries.remove(&e.dn().norm_key());
        }
        for (i, mut e) in subtree.into_iter().enumerate() {
            let renamed = moved(e.dn(), dn, &new_dn);
            e.set_dn(renamed);
            if i == 0 {
                if delete_old {
                    for ava in dn.rdn().expect("never the root").avas() {
                        e.remove_value(ava.attr(), ava.value());
                    }
                }
                for ava in rdn.avas() {
                    e.add_value(ava.attr(), ava.value());
                }
            }
            self.entries.insert(e.dn().norm_key(), e);
        }
        self.seq += 1;
        Ok(())
    }

    /// The snapshot file of this tree: sequence header, the walk as LDIF,
    /// checksum of everything before the footer.
    fn snapshot_text(&self) -> String {
        let walk: Vec<Entry> = self.walk(&Dn::root()).into_iter().cloned().collect();
        let mut text = format!("# seq: {}\n{}", self.seq, to_ldif(&walk));
        let crc = ldap::wal::crc32(text.as_bytes());
        text.push_str(&format!("# crc32: {crc:08x}\n"));
        text
    }
}

/// `name`, which lies under `from`, with `from` replaced by `to`: its own
/// RDNs below `from`, on top of `to`.
fn moved(name: &Dn, from: &Dn, to: &Dn) -> Dn {
    match name == from {
        true => to.clone(),
        false => {
            let above = moved(&name.parent().expect("under `from`"), from, to);
            above.child(name.rdn().expect("never the root").clone())
        }
    }
}

fn new_store() -> Arc<Dit> {
    Dit::with_schema_indexed(Arc::new(Schema::permissive()), &["cn", "description"])
}

fn suffix() -> Entry {
    Entry::with_attrs(
        Dn::parse("o=Root").unwrap(),
        [("objectClass", "organization"), ("o", "Root")],
    )
}

fn person(dn: Dn, cn: &str) -> Entry {
    Entry::with_attrs(dn, [("objectClass", "person"), ("cn", cn), ("sn", "p")])
}

/// One entry as a comparable line: DN plus every attribute in iteration
/// order.
fn line(e: &Entry) -> String {
    let mut line = e.dn().to_string();
    for a in e.attributes() {
        line.push('\u{1}');
        line.push_str(a.name.as_str());
        for v in a.values.as_slice() {
            line.push('\u{2}');
            line.push_str(v);
        }
    }
    line
}

/// The store's `search_visit` stream, or its refusal.
fn stream(dit: &Dit, base: &Dn, scope: Scope, filter: &Filter) -> Result<Vec<String>, ResultCode> {
    let mut out = Vec::new();
    dit.search_visit(base, scope, filter, &[], 0, &mut |e| out.push(line(e)))
        .map_err(|e| e.code)?;
    Ok(out)
}

/// Every observable surface on which the store must match the model.
fn assert_store_matches(dit: &Dit, model: &Model, context: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(dit.len(), model.entries.len(), "len {}", context);
    prop_assert_eq!(dit.seq(), model.seq, "commit counter {}", context);
    let base = Dn::parse("o=Root").unwrap();
    let filters = [
        Filter::match_all(),
        Filter::Equality("cn".into(), "n3".into()), // indexed path
        Filter::Equality("sn".into(), "p".into()),  // scanning path
        Filter::Present("description".into()),
        Filter::parse("(&(objectClass=person)(cn=n3))").unwrap(),
    ];
    for f in &filters {
        // The op sequence may delete the search base (even the suffix, as
        // a leaf): the store must then refuse the search.
        let expected = if model.has(&base) {
            Ok(model
                .search(&base, Scope::Sub, f)
                .into_iter()
                .map(line)
                .collect())
        } else {
            Err(ResultCode::NoSuchObject)
        };
        prop_assert_eq!(
            stream(dit, &base, Scope::Sub, f),
            expected,
            "sub stream {} {:?}",
            context,
            f
        );
        // From the root: several suffixes once the suffix was renamed.
        let expected: Vec<String> = (model.search(&Dn::root(), Scope::Sub, f).into_iter())
            .map(line)
            .collect();
        prop_assert_eq!(
            stream(dit, &Dn::root(), Scope::Sub, f),
            Ok(expected),
            "root sub stream {} {:?}",
            context,
            f
        );
    }
    // One-level and base streams from every live node (sibling emission
    // order included).
    for e in model.entries.values() {
        for scope in [Scope::One, Scope::Base] {
            let expected: Vec<String> = (model.search(e.dn(), scope, &filters[0]).into_iter())
                .map(line)
                .collect();
            prop_assert_eq!(
                stream(dit, e.dn(), scope, &filters[0]),
                Ok(expected),
                "{:?} stream at {} {}",
                scope,
                e.dn(),
                context
            );
        }
    }
    let walk: Vec<Entry> = model.walk(&Dn::root()).into_iter().cloned().collect();
    prop_assert_eq!(dit.export(), walk, "export {}", context);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive the store and the model through the same random op sequence;
    /// they must agree on every op's result code and every observable
    /// surface, and the store must survive a snapshot → cold-start round
    /// trip as the tree the model holds.
    #[test]
    fn store_matches_the_map_and_walk_model(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let dit = new_store();
        let mut model = Model::default();
        dit.add(suffix()).unwrap();
        model.add(suffix()).unwrap();

        for op in &ops {
            let nodes: Vec<Dn> = model.walk(&Dn::root()).iter().map(|e| e.dn().clone()).collect();
            if nodes.is_empty() {
                dit.add(suffix()).unwrap();
                model.add(suffix()).unwrap();
                continue;
            }
            let pick = |i: &usize| nodes[i % nodes.len()].clone();
            let (got, expected) = match op {
                Op::Add { parent, name } => {
                    let cn = format!("n{name}");
                    let e = person(pick(parent).child(Rdn::new("cn", &cn)), &cn);
                    (dit.add(e.clone()), model.add(e))
                }
                Op::Delete { node } => (dit.delete(&pick(node)), model.delete(&pick(node))),
                Op::Modify { node, value } => {
                    let mods = [
                        Modification::set("description", value.clone()),
                        Modification::add("description", vec![format!("{value}-2")]),
                    ];
                    (dit.modify(&pick(node), &mods), model.modify(&pick(node), &mods))
                }
                Op::Rename { node, new_name } => {
                    let rdn = Rdn::new("cn", format!("n{new_name}"));
                    (
                        dit.modify_rdn(&pick(node), &rdn, true, None),
                        model.modify_rdn(&pick(node), &rdn, true, None),
                    )
                }
                Op::Move { node, under } => {
                    let (dn, target) = (pick(node), pick(under));
                    let rdn = dn.rdn().expect("live nodes are not the root").clone();
                    (
                        dit.modify_rdn(&dn, &rdn, false, Some(&target)),
                        model.modify_rdn(&dn, &rdn, false, Some(&target)),
                    )
                }
            };
            prop_assert_eq!(got.map_err(|e| e.code), expected, "op outcome diverged on {:?}", op);
        }

        assert_store_matches(&dit, &model, "after ops")?;

        // The snapshot writer must produce the file the model renders…
        let dir = std::env::temp_dir().join(format!("metacomm-prop-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.ldif");
        ldap::backup::snapshot(&dit, &snap).unwrap();
        prop_assert_eq!(
            String::from_utf8(std::fs::read(&snap).unwrap()).unwrap(),
            model.snapshot_text(),
            "snapshot file diverged"
        );

        // …and a cold start from it (bulk window, one index build) must
        // serve the model's tree. A bulk load counts a commit per entry.
        let cold = new_store();
        ldap::backup::restore_snapshot(&cold, &snap).unwrap();
        model.seq = model.entries.len() as u64;
        assert_store_matches(&cold, &model, "after cold start")?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
