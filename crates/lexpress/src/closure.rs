//! Transitive closure of attribute mappings (paper §4.2).
//!
//! "Since setting one attribute may affect a set of related attributes,
//! lexpress calculates the transitive closure of the attribute mappings.
//! … When such a conflict arises, the first mapping in the transitive
//! closure to be satisfied sets all other unset attributes in the
//! transitive closure. The algorithm does not change the values of
//! explicitly set attributes."
//!
//! A [`Closure`] holds *intra-schema* dependency rules (the hub rules of the
//! integrated LDAP schema, e.g. `telephoneNumber ↔ definityExtension`) and
//! augments update descriptors until a fixpoint. It also implements the
//! cycle analysis the paper lists as in-progress work: at *compile* time,
//! cycles whose composed transformation can never converge are rejected
//! (detected by probing); at *run* time, updates whose propagation does not
//! converge within a bounded number of passes fail with
//! [`RuntimeError::FixpointNotReached`].

use crate::bytecode::{Bundle, CompiledRule};
use crate::compile::compile;
use crate::descriptor::{shared_name, Image, UpdateDescriptor};
use crate::error::{CompileError, RuntimeError};
use crate::value::Value;
use crate::vm::Vm;
use std::borrow::Cow;
use std::sync::Arc;

/// Maximum closure passes before declaring non-convergence at run time.
const MAX_PASSES: usize = 8;
/// Iterations per probe during compile-time cycle analysis.
const PROBE_PASSES: usize = 12;
/// Sample values used to probe cyclic rule compositions.
const PROBES: &[&str] = &["9123", "+1 908 582 9123", "Doe, John", "x", ""];

/// A set of intra-schema dependency rules over one (hub) schema.
#[derive(Debug, Clone, Default)]
pub struct Closure {
    bundle: Bundle,
    /// Flattened `(mapping source name, rule)` list in declaration order —
    /// declaration order defines "first mapping … to be satisfied".
    rules: Vec<CompiledRule>,
}

impl Closure {
    /// Build from lexpress source whose mappings all describe intra-schema
    /// dependencies (source and target name the same schema). Runs the
    /// compile-time convergence analysis.
    pub fn from_source(src: &str) -> Result<Closure, CompileError> {
        let bundle = compile(src)?;
        Closure::from_bundle(bundle)
    }

    pub(crate) fn from_bundle(bundle: Bundle) -> Result<Closure, CompileError> {
        let rules: Vec<CompiledRule> = bundle
            .mappings
            .iter()
            .flat_map(|m| m.rules.iter().cloned())
            .collect();
        let c = Closure { bundle, rules };
        c.check_convergence()?;
        Ok(c)
    }

    #[cfg(test)]
    pub(crate) fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Compile-time analysis: find dependency cycles and probe each with
    /// sample values; a cycle that fails to converge for any probe is
    /// rejected (the paper's "if a fixpoint can never be reached").
    fn check_convergence(&self) -> Result<(), CompileError> {
        for cycle in self.find_cycles() {
            for probe in PROBES {
                // Seed only the first attribute of the cycle and mark it
                // changed.
                let mut img = Image::new();
                img.set(&cycle[0], vec![probe.to_string()]);
                let seed = [shared_name(&cycle[0])];
                if self.run_passes(&mut img, &[], &seed, PROBE_PASSES).is_err() {
                    return Err(CompileError::NonConvergentCycle { attrs: cycle });
                }
            }
        }
        Ok(())
    }

    /// All simple cycles in the attr-dependency graph (as attr lists).
    fn find_cycles(&self) -> Vec<Vec<String>> {
        // edge: input attr -> target attr
        let mut edges: Vec<(String, String)> = Vec::new();
        for r in &self.rules {
            for i in &r.inputs {
                edges.push((i.clone(), r.target.to_ascii_lowercase()));
            }
        }
        let mut nodes: Vec<String> = Vec::new();
        for (a, b) in &edges {
            if !nodes.contains(a) {
                nodes.push(a.clone());
            }
            if !nodes.contains(b) {
                nodes.push(b.clone());
            }
        }
        // DFS cycle collection (small graphs; exponential worst case is fine
        // for schema-sized inputs).
        let mut cycles: Vec<Vec<String>> = Vec::new();
        for start in &nodes {
            let mut stack = vec![start.clone()];
            collect_cycles(start, &mut stack, &edges, &mut cycles);
        }
        // Deduplicate by rotation-normalized form.
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for c in cycles {
            let mut norm = c.clone();
            norm.sort();
            if !seen.contains(&norm) {
                seen.push(norm);
                out.push(c);
            }
        }
        out
    }

    /// Augment a descriptor: propagate the explicitly changed attributes
    /// through the dependency rules until nothing changes. Explicitly set
    /// attributes are never overwritten, and rules fire only when one of
    /// their inputs actually changed (the paper: "if either *changes*,
    /// lexpress changes the other").
    pub fn augment(&self, d: &mut UpdateDescriptor) -> Result<(), RuntimeError> {
        self.run_passes(&mut d.new, &d.explicit, &d.explicit, MAX_PASSES)
    }

    /// Iterate rules over `img` until fixpoint (or `max_passes`), firing
    /// only rules with at least one input in the dirty set.
    fn run_passes(
        &self,
        img: &mut Image,
        protected: &[Arc<str>],
        seed_dirty: &[Arc<str>],
        max_passes: usize,
    ) -> Result<(), RuntimeError> {
        let named = |set: &[Arc<str>], name: &str| set.iter().any(|n| n.eq_ignore_ascii_case(name));
        let mut dirty = seed_dirty.to_vec();
        for _pass in 0..max_passes {
            let mut changed = false;
            for rule in &self.rules {
                if named(protected, &rule.target) {
                    continue; // never touch explicitly set attributes
                }
                // Rule fires only when at least one input changed…
                if !rule.inputs.iter().any(|i| named(&dirty, i)) {
                    continue;
                }
                // …and is present.
                if !rule.inputs.iter().any(|i| img.has(i)) {
                    continue;
                }
                // The values borrow `img` until they are copied out here.
                let values = {
                    let mut vm = Vm::new(&self.bundle);
                    if let Some(guard) = &rule.guard {
                        if !vm.eval(guard, img)?.truthy() {
                            continue;
                        }
                    }
                    let mut v = vm.eval(&rule.prog, img)?;
                    if v.is_null() {
                        if let Some(dflt) = &rule.default {
                            v = Value::Str(Cow::Borrowed(dflt));
                        }
                    }
                    v.into_values()
                };
                let Some(values) = values else {
                    continue;
                };
                if img.values(&rule.target) != values.as_slice() {
                    img.put(rule.target.clone(), values);
                    if !named(&dirty, &rule.target) {
                        dirty.push(rule.target.clone());
                    }
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        // One extra pass to confirm instability.
        let mut attrs: Vec<String> = Vec::new();
        for rule in &self.rules {
            if !attrs.iter().any(|a| **a == *rule.target) {
                attrs.push(rule.target.to_string());
            }
        }
        Err(RuntimeError::FixpointNotReached { attrs })
    }
}

fn collect_cycles(
    start: &str,
    stack: &mut Vec<String>,
    edges: &[(String, String)],
    cycles: &mut Vec<Vec<String>>,
) {
    let current = stack.last().expect("non-empty").clone();
    for (a, b) in edges {
        if *a != current {
            continue;
        }
        if b == start {
            cycles.push(stack.clone());
        } else if !stack.contains(b) && stack.len() < 16 {
            stack.push(b.clone());
            collect_cycles(start, stack, edges, cycles);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::UpdateKind;

    /// The paper's running example: telephoneNumber and definityExtension
    /// related through the PBX Extension — expressed as hub rules over the
    /// integrated LDAP schema.
    const HUB: &str = r#"
mapping hub_phone {
    source ldap; target ldap;
    key source dn; key target dn;
    map telephoneNumber -> definityExtension : digits(substr(telephoneNumber, -4, 4));
    map definityExtension -> telephoneNumber : concat("+1 908 582 ", definityExtension);
}
"#;

    #[test]
    fn converging_cycle_accepted_at_compile_time() {
        // tn -> ext -> tn composes to the identity on consistent values.
        Closure::from_source(HUB).unwrap();
    }

    #[test]
    fn phone_change_propagates_to_extension() {
        let c = Closure::from_source(HUB).unwrap();
        let old = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
            ("cn", "J"),
        ]);
        let mut new = old.clone();
        new.set("telephoneNumber", vec!["+1 908 582 9200".into()]);
        let mut d = UpdateDescriptor::modify("cn=J", old, new, "wba");
        assert_eq!(d.kind, UpdateKind::Modify);
        c.augment(&mut d).unwrap();
        assert_eq!(d.new.first("definityExtension"), Some("9200"));
        // And the phone number itself is untouched.
        assert_eq!(d.new.first("telephoneNumber"), Some("+1 908 582 9200"));
    }

    #[test]
    fn extension_change_propagates_to_phone() {
        let c = Closure::from_source(HUB).unwrap();
        let old = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
        ]);
        let mut new = old.clone();
        new.set("definityExtension", vec!["9200".into()]);
        let mut d = UpdateDescriptor::modify("cn=J", old, new, "wba");
        c.augment(&mut d).unwrap();
        assert_eq!(d.new.first("telephoneNumber"), Some("+1 908 582 9200"));
    }

    #[test]
    fn inconsistent_explicit_sets_do_not_clobber_each_other() {
        // Paper §4.2: "If telephoneNumber and DefinityExtension are set
        // inconsistently … the inconsistently set attributes do not affect
        // each other's values."
        let c = Closure::from_source(HUB).unwrap();
        let old = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
        ]);
        let mut new = old.clone();
        new.set("telephoneNumber", vec!["+1 908 582 9200".into()]);
        new.set("definityExtension", vec!["9300".into()]); // inconsistent!
        let mut d = UpdateDescriptor::modify("cn=J", old, new, "wba");
        c.augment(&mut d).unwrap();
        // Both keep their explicitly set values.
        assert_eq!(d.new.first("telephoneNumber"), Some("+1 908 582 9200"));
        assert_eq!(d.new.first("definityExtension"), Some("9300"));
    }

    #[test]
    fn chain_propagates_transitively() {
        // extension -> phone -> mailbox id: a 3-attribute chain; changing
        // the extension must reach the mailbox id (paper's PBX→LDAP→MP
        // example).
        let src = r#"
mapping hub {
    source ldap; target ldap;
    key source dn; key target dn;
    map definityExtension -> telephoneNumber : concat("+1 908 582 ", definityExtension);
    map telephoneNumber -> mpMailbox : digits(substr(telephoneNumber, -4, 4));
}
"#;
        let c = Closure::from_source(src).unwrap();
        let old = Image::from_pairs([
            ("definityExtension", "9123"),
            ("telephoneNumber", "+1 908 582 9123"),
            ("mpMailbox", "9123"),
        ]);
        let mut new = old.clone();
        new.set("definityExtension", vec!["9200".into()]);
        let mut d = UpdateDescriptor::modify("x", old, new, "wba");
        c.augment(&mut d).unwrap();
        assert_eq!(d.new.first("telephoneNumber"), Some("+1 908 582 9200"));
        assert_eq!(d.new.first("mpMailbox"), Some("9200"));
    }

    #[test]
    fn non_convergent_cycle_rejected_at_compile_time() {
        // a -> b appends, b -> a copies: grows forever.
        let src = r#"
mapping bad {
    source ldap; target ldap;
    key source dn; key target dn;
    map a -> b : concat(a, "x");
    map b -> a : b;
}
"#;
        let err = Closure::from_source(src).unwrap_err();
        assert!(
            matches!(err, CompileError::NonConvergentCycle { .. }),
            "{err}"
        );
    }

    #[test]
    fn runtime_fixpoint_failure_detected() {
        // A cycle that converges for every compile-time probe but diverges
        // for a pathological runtime value reached through a third rule.
        let src = r#"
mapping tricky {
    source ldap; target ldap;
    key source dn; key target dn;
    map c -> a : c;
    map a -> b : if(matches(a, "T*"), concat(a, "x"), a);
    map b -> a : b;
}
"#;
        // Probes ("9123" etc.) never match `T*`, so compile passes…
        let c = Closure::from_source(src).unwrap();
        // …and benign runtime updates converge:
        let old = Image::from_pairs([("a", "1"), ("b", "1"), ("c", "1")]);
        let mut new = old.clone();
        new.set("c", vec!["2".into()]);
        let mut d = UpdateDescriptor::modify("k", old.clone(), new, "wba");
        c.augment(&mut d).unwrap();
        assert_eq!(d.new.first("a"), Some("2"));
        assert_eq!(d.new.first("b"), Some("2"));
        // …but a toggle-shaped value injected via `c` diverges at run time:
        // c -> a = "T0", a -> b = "T0x", b -> a = "T0x", a -> b = "T0xx", …
        let mut new = old.clone();
        new.set("c", vec!["T0".into()]);
        let mut d = UpdateDescriptor::modify("k", old, new, "wba");
        let err = c.augment(&mut d).unwrap_err();
        assert!(
            matches!(err, RuntimeError::FixpointNotReached { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn no_rules_is_a_noop() {
        let c = Closure::from_source("").unwrap();
        let mut d = UpdateDescriptor::add("k", Image::from_pairs([("a", "1")]), "x");
        c.augment(&mut d).unwrap();
        assert_eq!(d.new.first("a"), Some("1"));
    }
}
