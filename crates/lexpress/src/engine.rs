//! The translation engine: applies a compiled mapping to an update
//! descriptor, producing the correct series of target operations —
//! including the partitioning-constraint routing matrix (§4.2) and
//! conditional (reapplied) updates (§5.4).

use crate::bytecode::{Bundle, CompiledMapping, Program};
use crate::descriptor::{Frame, Image, OpKind, TargetOp, UpdateDescriptor, UpdateKind, Values};
use crate::error::RuntimeError;
use crate::value::Value;
use crate::vm::Vm;
use std::borrow::Cow;

/// A loaded bundle plus the operations MetaComm filters need.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    bundle: Bundle,
}

impl Engine {
    pub(crate) fn new(bundle: Bundle) -> Engine {
        Engine { bundle }
    }

    /// Compile and load a description source (convenience).
    pub fn from_source(src: &str) -> Result<Engine, crate::error::CompileError> {
        Ok(Engine::new(crate::compile::compile(src)?))
    }

    /// Dynamically load more descriptions into the running engine
    /// (paper §4.2: descriptions "can be added dynamically (to running
    /// programs) by compiling them at run-time").
    pub fn load(&mut self, src: &str) -> Result<(), crate::error::CompileError> {
        let extra = crate::compile::compile(src)?;
        self.bundle.absorb(extra)
    }

    pub fn bundle(&self) -> &Bundle {
        &self.bundle
    }

    pub fn mapping(&self, name: &str) -> Option<&CompiledMapping> {
        self.bundle.mapping(name)
    }

    /// Apply every rule of `mapping` to a source image, producing the
    /// target-schema image.
    fn apply_rules<'a>(
        vm: &mut Vm<'a>,
        mapping: &'a CompiledMapping,
        source: &'a Image,
    ) -> Result<Image, RuntimeError> {
        // One slot per rule and the originator stamp, at most.
        let mut out = Image::with_capacity(mapping.rules.len() + 1);
        for rule in &mapping.rules {
            if let Some(guard) = &rule.guard {
                if !vm.eval(guard, source)?.truthy() {
                    continue;
                }
            }
            let mut v = vm.eval(&rule.prog, source)?;
            if v.is_null() {
                if let Some(d) = &rule.default {
                    v = Value::Str(Cow::Borrowed(d));
                }
            }
            if let Some(values) = v.into_values() {
                out.put(rule.target.clone(), values);
            }
        }
        Ok(out)
    }

    /// Compute the target key for a *source* image (None when the image is
    /// empty or the key expression yields null).
    fn target_key<'a>(
        vm: &mut Vm<'a>,
        mapping: &'a CompiledMapping,
        source: &'a Image,
        target_image: &Image,
    ) -> Result<Option<String>, RuntimeError> {
        if source.is_empty() && target_image.is_empty() {
            return Ok(None);
        }
        match &mapping.target_key_prog {
            Some(prog) => Ok(vm.eval(prog, source)?.into_str().map(Cow::into_owned)),
            None => Ok(target_image
                .first(&mapping.target_key_attr)
                .map(str::to_string)),
        }
    }

    /// Is the partitioning constraint satisfied by this *source* image?
    /// (Paper §4.2: "lexpress checks the partitioning constraints against
    /// both the old and new attributes of the object" — the object's
    /// global-schema attributes, e.g. its phone number.)
    fn partition_satisfied<'a>(
        vm: &mut Vm<'a>,
        partition: Option<&'a Program>,
        source_image: &'a dyn Frame,
    ) -> Result<bool, RuntimeError> {
        if source_image.is_empty() {
            return Ok(false);
        }
        match partition {
            None => Ok(true),
            Some(p) => Ok(vm.eval(p, source_image)?.truthy()),
        }
    }

    /// Does `mapping_name`'s partitioning constraint claim this *source*
    /// image? The row of the routing matrix on its own: no rule is applied
    /// and no key computed, so a caller that only needs "is this object
    /// under that repository at all" (the synchronization sweep over
    /// another switch's entries) can ask before it builds a descriptor —
    /// of the object as it holds it, through any [`Frame`].
    pub fn partition_claims(
        &self,
        mapping_name: &str,
        source_image: &dyn Frame,
    ) -> Result<bool, RuntimeError> {
        let mapping = self.loaded(mapping_name)?;
        let mut vm = Vm::new(&self.bundle);
        Self::partition_satisfied(&mut vm, mapping.partition.as_ref(), source_image)
    }

    fn loaded(&self, mapping_name: &str) -> Result<&CompiledMapping, RuntimeError> {
        self.bundle
            .mapping(mapping_name)
            .ok_or_else(|| RuntimeError::BadBytecode(format!("no mapping `{mapping_name}` loaded")))
    }

    /// Translate an update descriptor through `mapping` into the operation
    /// to forward to the mapping's target repository.
    pub fn translate(
        &self,
        mapping_name: &str,
        d: &UpdateDescriptor,
    ) -> Result<TargetOp, RuntimeError> {
        let mapping = self.loaded(mapping_name)?;
        let vm = &mut Vm::new(&self.bundle);
        // Old/new images in the target schema.
        let old_target = if d.old.is_empty() {
            Image::new()
        } else {
            Self::apply_rules(vm, mapping, &d.old)?
        };
        let mut new_target = if d.new.is_empty() {
            Image::new()
        } else {
            Self::apply_rules(vm, mapping, &d.new)?
        };
        // Stamp the originator attribute (device→directory direction).
        if let Some(attr) = &mapping.originator {
            if !new_target.is_empty() {
                new_target.put(attr.clone(), Values::One(d.origin.clone()));
            }
        }
        // Conditional (reapplied) operation detection:
        //  - the descriptor's origin IS this mapping's target (direct echo), or
        //  - the declared origin-check attribute of the source image names
        //    this mapping's target (second-hop echo through the directory).
        let mut conditional = d.origin == mapping.target;
        if let Some(check) = &mapping.origin_check {
            if let Some(orig) = d.new.first(check).or_else(|| d.old.first(check)) {
                if orig == mapping.target {
                    conditional = true;
                }
            }
        }
        // Keys.
        let old_key = Self::target_key(vm, mapping, &d.old, &old_target)?;
        let new_key = Self::target_key(vm, mapping, &d.new, &new_target)?;
        // Partitioning matrix.
        let part = mapping.partition.as_ref();
        let old_sat = Self::partition_satisfied(vm, part, &d.old)?;
        let new_sat = Self::partition_satisfied(vm, part, &d.new)?;
        let kind = match d.kind {
            UpdateKind::Add => {
                if new_sat {
                    OpKind::Add
                } else {
                    OpKind::Skip
                }
            }
            UpdateKind::Delete => {
                if old_sat {
                    OpKind::Delete
                } else {
                    OpKind::Skip
                }
            }
            UpdateKind::Modify => match (old_sat, new_sat) {
                (false, true) => OpKind::Add,
                (true, true) => OpKind::Modify,
                (true, false) => OpKind::Delete,
                (false, false) => OpKind::Skip,
            },
        };
        // Key sanity for non-skip operations.
        if kind != OpKind::Skip {
            let needs_new = matches!(kind, OpKind::Add | OpKind::Modify);
            let needs_old = matches!(kind, OpKind::Delete | OpKind::Modify);
            if needs_new && new_key.is_none() {
                return Err(RuntimeError::MissingKey {
                    mapping: mapping.name.clone(),
                    detail: format!("new image {} yields no target key", d.new),
                });
            }
            if needs_old && old_key.is_none() {
                return Err(RuntimeError::MissingKey {
                    mapping: mapping.name.clone(),
                    detail: format!("old image {} yields no target key", d.old),
                });
            }
        }
        Ok(TargetOp {
            kind,
            conditional,
            old_key,
            new_key,
            attrs: new_target,
            old_attrs: old_target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PBX_TO_LDAP: &str = r#"
transform surname(n) {
    match n {
        "*,*" => trim(split(n, ",", 0));
        "* *" => split(n, " ", -1);
        _     => n;
    }
}
transform fullname(n) {
    match n {
        "*,*" => concat(trim(split(n, ",", 1)), " ", trim(split(n, ",", 0)));
        _     => n;
    }
}
mapping pbx_to_ldap {
    source pbx-west;
    target ldap;
    key source Extension;
    key target dn : concat("cn=", fullname(Name), ",o=Lucent");
    originator lastUpdater;

    map Extension -> definityExtension;
    map Extension -> telephoneNumber : concat("+1 908 582 ", Extension);
    map Name -> cn : fullname(Name);
    map Name -> sn : surname(Name);
    map Room -> roomNumber;
}
"#;

    const LDAP_TO_PBX: &str = r#"
mapping ldap_to_pbx_west {
    source ldap;
    target pbx-west;
    key source dn;
    key target Extension : definityExtension || digits(substr(telephoneNumber, -4, 4));
    origin-check lastUpdater;

    map definityExtension -> Extension;
    map telephoneNumber -> Extension : digits(substr(telephoneNumber, -4, 4));
    map cn -> Name;
    map roomNumber -> Room;

    partition when matches(telephoneNumber, "+1 908 582 9*");
}
"#;

    fn engine() -> Engine {
        let mut e = Engine::from_source(PBX_TO_LDAP).unwrap();
        e.load(LDAP_TO_PBX).unwrap();
        e
    }

    #[test]
    fn pbx_add_translates_to_ldap_add() {
        let e = engine();
        let d = UpdateDescriptor::add(
            "9123",
            Image::from_pairs([
                ("Extension", "9123"),
                ("Name", "Doe, John"),
                ("Room", "2B-401"),
            ]),
            "pbx-west",
        );
        let op = e.translate("pbx_to_ldap", &d).unwrap();
        assert_eq!(op.kind, OpKind::Add);
        assert!(!op.conditional);
        assert_eq!(op.new_key.as_deref(), Some("cn=John Doe,o=Lucent"));
        assert_eq!(op.attrs.first("cn"), Some("John Doe"));
        assert_eq!(op.attrs.first("sn"), Some("Doe"));
        assert_eq!(op.attrs.first("definityExtension"), Some("9123"));
        assert_eq!(op.attrs.first("telephoneNumber"), Some("+1 908 582 9123"));
        assert_eq!(op.attrs.first("roomNumber"), Some("2B-401"));
        // originator stamped
        assert_eq!(op.attrs.first("lastUpdater"), Some("pbx-west"));
    }

    #[test]
    fn echo_back_to_origin_is_conditional() {
        let e = engine();
        // Direct echo: descriptor originated at pbx-west, translated back.
        let d = UpdateDescriptor::add(
            "9123",
            Image::from_pairs([
                ("definityExtension", "9123"),
                ("telephoneNumber", "+1 908 582 9123"),
                ("cn", "John Doe"),
            ]),
            "pbx-west",
        );
        let op = e.translate("ldap_to_pbx_west", &d).unwrap();
        assert!(op.conditional, "direct echo must be conditional");

        // Second hop: LDAP-originated descriptor whose lastUpdater says the
        // update came from pbx-west.
        let d = UpdateDescriptor::add(
            "cn=John Doe,o=Lucent",
            Image::from_pairs([
                ("definityExtension", "9123"),
                ("telephoneNumber", "+1 908 582 9123"),
                ("cn", "John Doe"),
                ("lastUpdater", "pbx-west"),
            ]),
            "ldap",
        );
        let op = e.translate("ldap_to_pbx_west", &d).unwrap();
        assert!(op.conditional, "lastUpdater echo must be conditional");

        // Fresh WBA update: not conditional.
        let d = UpdateDescriptor::add(
            "cn=John Doe,o=Lucent",
            Image::from_pairs([
                ("definityExtension", "9123"),
                ("telephoneNumber", "+1 908 582 9123"),
                ("cn", "John Doe"),
                ("lastUpdater", "wba"),
            ]),
            "ldap",
        );
        let op = e.translate("ldap_to_pbx_west", &d).unwrap();
        assert!(!op.conditional);
    }

    #[test]
    fn partition_matrix_all_four_cases() {
        let e = engine();
        let in_range = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
            ("cn", "J"),
        ]);
        let out_of_range = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 3456"),
            ("definityExtension", "3456"),
            ("cn", "J"),
        ]);
        // old out, new in → ADD
        let d = UpdateDescriptor::modify("cn=J", out_of_range.clone(), in_range.clone(), "wba");
        assert_eq!(
            e.translate("ldap_to_pbx_west", &d).unwrap().kind,
            OpKind::Add
        );
        // old in, new in → MODIFY
        let mut renumbered = in_range.clone();
        renumbered.set("telephoneNumber", vec!["+1 908 582 9200".into()]);
        renumbered.set("definityExtension", vec!["9200".into()]);
        let d = UpdateDescriptor::modify("cn=J", in_range.clone(), renumbered, "wba");
        assert_eq!(
            e.translate("ldap_to_pbx_west", &d).unwrap().kind,
            OpKind::Modify
        );
        // old in, new out → DELETE
        let d = UpdateDescriptor::modify("cn=J", in_range, out_of_range.clone(), "wba");
        let op = e.translate("ldap_to_pbx_west", &d).unwrap();
        assert_eq!(op.kind, OpKind::Delete);
        assert_eq!(op.old_key.as_deref(), Some("9123"));
        // old out, new out → SKIP
        let mut other = out_of_range.clone();
        other.set("telephoneNumber", vec!["+1 908 582 3999".into()]);
        other.set("definityExtension", vec!["3999".into()]);
        let d = UpdateDescriptor::modify("cn=J", out_of_range, other, "wba");
        assert_eq!(
            e.translate("ldap_to_pbx_west", &d).unwrap().kind,
            OpKind::Skip
        );
    }

    #[test]
    fn add_and_delete_respect_partition() {
        let e = engine();
        let out_of_range = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 3456"),
            ("definityExtension", "3456"),
            ("cn", "J"),
        ]);
        let d = UpdateDescriptor::add("cn=J", out_of_range.clone(), "wba");
        assert_eq!(
            e.translate("ldap_to_pbx_west", &d).unwrap().kind,
            OpKind::Skip
        );
        let d = UpdateDescriptor::delete("cn=J", out_of_range.clone(), "wba");
        assert_eq!(
            e.translate("ldap_to_pbx_west", &d).unwrap().kind,
            OpKind::Skip
        );
        let in_range = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9123"),
            ("definityExtension", "9123"),
            ("cn", "J"),
        ]);
        let d = UpdateDescriptor::delete("cn=J", in_range.clone(), "wba");
        let op = e.translate("ldap_to_pbx_west", &d).unwrap();
        assert_eq!(op.kind, OpKind::Delete);
        // The partition row alone gives the verdicts the full translation
        // just did.
        assert!(e.partition_claims("ldap_to_pbx_west", &in_range).unwrap());
        assert!(!e
            .partition_claims("ldap_to_pbx_west", &out_of_range)
            .unwrap());
        assert!(!e
            .partition_claims("ldap_to_pbx_west", &Image::new())
            .unwrap());
        assert!(e.partition_claims("pbx_to_ldap", &in_range).unwrap());
        assert!(e.partition_claims("nope", &in_range).is_err());
    }

    #[test]
    fn guards_and_defaults_in_rules() {
        let src = r#"
mapping m {
    source a; target b;
    key source K; key target K2;
    map K -> K2;
    map X -> guarded : X when matches(X, "yes*");
    map Y -> defaulted : Y default "fallback";
}
"#;
        let e = Engine::from_source(src).unwrap();
        let d = UpdateDescriptor::add(
            "1",
            Image::from_pairs([("K", "1"), ("X", "no-thanks")]),
            "a",
        );
        let op = e.translate("m", &d).unwrap();
        assert!(!op.attrs.has("guarded"), "guard suppressed the rule");
        assert_eq!(op.attrs.first("defaulted"), Some("fallback"));
    }

    #[test]
    fn missing_key_is_an_error() {
        let e = engine();
        // No Name → key expression yields null.
        let d = UpdateDescriptor::add(
            "9123",
            Image::from_pairs([("Extension", "9123")]),
            "pbx-west",
        );
        let err = e.translate("pbx_to_ldap", &d).unwrap_err();
        assert!(matches!(err, RuntimeError::MissingKey { .. }));
    }

    #[test]
    fn unknown_mapping_is_an_error() {
        let e = engine();
        let d = UpdateDescriptor::add("x", Image::from_pairs([("a", "b")]), "a");
        assert!(e.translate("nope", &d).is_err());
    }

    #[test]
    fn multi_valued_attributes_translate() {
        let src = r#"
mapping m {
    source a; target b;
    key source K; key target K2;
    map K -> K2;
    map ou -> groups : values(ou);
}
"#;
        let e = Engine::from_source(src).unwrap();
        let mut img = Image::from_pairs([("K", "1")]);
        img.add("ou", "alpha");
        img.add("ou", "beta");
        let d = UpdateDescriptor::add("1", img, "a");
        let op = e.translate("m", &d).unwrap();
        assert_eq!(op.attrs.values("groups"), &["alpha", "beta"]);
    }
}
