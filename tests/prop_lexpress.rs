//! Property-based tests for lexpress: glob matching vs. an oracle, VM
//! string-function laws, telecom-mapping round trips, partition-matrix
//! totality, and closure convergence/idempotence.

use lexpress::value::glob_match;
use lexpress::{library, Closure, Engine, Image, OpKind, UpdateDescriptor};
use proptest::prelude::*;

/// Naive reference implementation of glob matching.
fn glob_oracle(value: &str, pattern: &str) -> bool {
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    fn rec(v: &[char], p: &[char]) -> bool {
        if p.is_empty() {
            return v.is_empty();
        }
        match p[0] {
            '*' => rec(v, &p[1..]) || (!v.is_empty() && rec(&v[1..], p)),
            '?' => !v.is_empty() && rec(&v[1..], &p[1..]),
            c => !v.is_empty() && v[0] == c && rec(&v[1..], &p[1..]),
        }
    }
    rec(&v, &p)
}

/// A pattern of many stars against a long value that fails only at its
/// last character: a matcher that tried every split of the value among the
/// stars would never finish this.
#[test]
fn glob_with_many_stars_is_not_exponential() {
    let value = "a".repeat(4096);
    assert!(!glob_match(&value, "*a*a*a*a*a*a*a*b"));
    assert!(glob_match(&value, "*a*a*a*a*a*a*a*"));
    assert!(glob_match(&format!("{value}b"), "*a*a*a*a*a*a*a*b"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `é` is two bytes: `?` takes one char, and a literal matches its
    /// bytes whole.
    #[test]
    fn glob_matches_oracle(
        value in "[abé?*]{0,8}",
        pattern in "[abé?*]{0,6}",
    ) {
        prop_assert_eq!(
            glob_match(&value, &pattern),
            glob_oracle(&value, &pattern),
            "value `{}` pattern `{}`", value, pattern
        );
    }

    #[test]
    fn glob_star_matches_everything(value in "[ -~]{0,20}") {
        prop_assert!(glob_match(&value, "*"));
    }

    /// The telecom name transforms invert each other: directory form →
    /// PBX form → directory form is the identity for `Given Surname…` names.
    #[test]
    fn name_transforms_round_trip(
        given in "[A-Z][a-z]{1,8}",
        surname in "[A-Z][a-z]{1,8}( [0-9]{1,4})?",
    ) {
        let src = format!(
            "{}\nmapping m {{ source a; target b; key source K; key target T;\n\
             map K -> T;\n\
             map K -> pbx : pbxname(K);\n\
             map K -> back : fullname(pbxname(K));\n}}",
            library::NAME_TRANSFORMS
        );
        let engine = Engine::from_source(&src).expect("compile");
        let cn = format!("{given} {surname}");
        let d = UpdateDescriptor::add("k", Image::from_pairs([("K", cn.as_str())]), "a");
        let op = engine.translate("m", &d).expect("translate");
        let pbx_form = op.attrs.first("pbx").expect("pbx name");
        prop_assert!(pbx_form.contains(", "), "pbx form `{}`", pbx_form);
        prop_assert_eq!(op.attrs.first("back").expect("round trip"), cn.as_str());
    }

    /// Extension/phone transforms are inverse on 4-digit extensions.
    #[test]
    fn phone_transforms_round_trip(ext in "[1-9][0-9]{3}") {
        let src = format!(
            "{}\nmapping m {{ source a; target b; key source K; key target T;\n\
             map K -> T;\n\
             map K -> phone : mh_number(K);\n\
             map K -> back : extension4(mh_number(K));\n}}",
            library::PHONE_TRANSFORMS
        );
        let engine = Engine::from_source(&src).expect("compile");
        let d = UpdateDescriptor::add("k", Image::from_pairs([("K", ext.as_str())]), "a");
        let op = engine.translate("m", &d).expect("translate");
        prop_assert_eq!(op.attrs.first("back").expect("round trip"), ext.as_str());
    }

    /// The partition matrix is total and exclusive: exactly one of
    /// add/modify/delete/skip for every old/new combination.
    #[test]
    fn partition_matrix_total(
        old_ext in proptest::option::of("[1-2][0-9]{3}"),
        new_ext in proptest::option::of("[1-2][0-9]{3}"),
    ) {
        let src = library::pbx_mappings("pbx-1", "1???", "o=L");
        let engine = Engine::from_source(&src).expect("compile");
        let img = |ext: &Option<String>| {
            let mut i = Image::from_pairs([("cn", "Probe Person")]);
            if let Some(e) = ext {
                i.set("definityExtension", vec![e.clone()]);
                i.set("telephoneNumber", vec![format!("+1 908 582 {e}")]);
            }
            i
        };
        let d = UpdateDescriptor::modify("cn=Probe Person,o=L", img(&old_ext), img(&new_ext), "wba");
        let op = engine.translate("ldap_to_pbx-1", &d).expect("translate");
        let owned = |e: &Option<String>| e.as_deref().is_some_and(|x| x.starts_with('1'));
        let expected = match (owned(&old_ext), owned(&new_ext)) {
            (false, true) => OpKind::Add,
            (true, true) => OpKind::Modify,
            (true, false) => OpKind::Delete,
            (false, false) => OpKind::Skip,
        };
        prop_assert_eq!(op.kind, expected, "old {:?} new {:?}", old_ext, new_ext);
    }

    /// Closure augmentation over the telecom hub rules converges and is
    /// idempotent for arbitrary extension changes.
    #[test]
    fn hub_closure_converges_and_is_idempotent(ext in "[1-9][0-9]{3}") {
        let closure = Closure::from_source(&library::hub_rules()).expect("hub");
        let old = Image::from_pairs([
            ("telephoneNumber", "+1 908 582 9000"),
            ("definityExtension", "9000"),
            ("mpMailbox", "9000"),
        ]);
        let mut new = old.clone();
        new.set("definityExtension", vec![ext.clone()]);
        let mut d = UpdateDescriptor::modify("k", old, new, "wba");
        closure.augment(&mut d).expect("converges");
        prop_assert_eq!(d.new.first("telephoneNumber").unwrap(), format!("+1 908 582 {ext}"));
        prop_assert_eq!(d.new.first("mpMailbox").unwrap(), ext.as_str());
        // Idempotent: augmenting the augmented descriptor changes nothing.
        let snapshot = d.new.clone();
        closure.augment(&mut d).expect("still converges");
        prop_assert_eq!(d.new, snapshot);
    }

    /// translate() never panics on arbitrary attribute soup — it returns
    /// Ok or a typed error.
    #[test]
    fn translate_total_on_arbitrary_images(
        pairs in proptest::collection::vec(("[a-zA-Z]{1,10}", "[ -~]{0,16}"), 0..8)
    ) {
        let src = library::pbx_mappings("pbx-1", "1???", "o=L");
        let engine = Engine::from_source(&src).expect("compile");
        let img = Image::from_pairs(pairs);
        let d = UpdateDescriptor::add("k", img, "pbx-1");
        let _ = engine.translate("pbx-1_to_ldap", &d); // must not panic
        let d2 = UpdateDescriptor::delete("k", Image::from_pairs([("cn", "x")]), "ldap");
        let _ = engine.translate("ldap_to_pbx-1", &d2);
    }
}
