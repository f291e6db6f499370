//! Directory schema: attribute types, object classes, and entry validation.
//!
//! The model follows X.501 as profiled by the paper:
//! - object classes are *structural*, *auxiliary*, or *abstract*;
//! - auxiliary classes **cannot declare mandatory attributes** — the
//!   practical limitation §5.2 of the paper reports, which is why the
//!   presence of `definityUser` on an entry only means the person *may* use
//!   a PBX (one must check whether the extension attribute is set);
//! - attribute types carry a syntax, a matching rule, and a
//!   single-valued flag. Typing is deliberately shallow ("very weak typing",
//!   §5.3): syntaxes validate the value's *shape* only.

use crate::attr::{with_lower, AttrValues, Attribute, NameRef, POOL_CAP};
use crate::dn::Dn;
use crate::entry::Entry;
use crate::error::{LdapError, Result, ResultCode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Value syntaxes. Deliberately few — LDAP typing is weak and MetaComm's
/// integrated schema only uses these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// Any UTF-8 string.
    DirectoryString,
    /// Digits, `+`, spaces, `-`, `(`, `)`, `.`.
    TelephoneNumber,
    /// Optional sign + digits.
    Integer,
    /// Must parse as a DN.
    DnSyntax,
    /// `TRUE` or `FALSE`.
    Boolean,
}

impl Syntax {
    /// Shape-check a value against the syntax.
    pub fn validate(self, value: &str) -> bool {
        match self {
            Syntax::DirectoryString => true,
            Syntax::TelephoneNumber => {
                !value.trim().is_empty()
                    && value.chars().all(|c| {
                        c.is_ascii_digit() || matches!(c, '+' | ' ' | '-' | '(' | ')' | '.')
                    })
            }
            Syntax::Integer => {
                let v = value.trim();
                let v = v.strip_prefix('-').unwrap_or(v);
                !v.is_empty() && v.chars().all(|c| c.is_ascii_digit())
            }
            Syntax::DnSyntax => crate::dn::Dn::parse(value).is_ok(),
            Syntax::Boolean => matches!(value, "TRUE" | "FALSE"),
        }
    }
}

/// An attribute-type definition.
#[derive(Debug, Clone)]
pub struct AttributeType {
    pub name: String,
    pub syntax: Syntax,
    pub single_valued: bool,
    /// `true` when the attribute may appear in RDNs (naming attribute).
    pub naming: bool,
}

impl AttributeType {
    pub fn string(name: &str) -> AttributeType {
        AttributeType {
            name: name.into(),
            syntax: Syntax::DirectoryString,
            single_valued: false,
            naming: true,
        }
    }

    pub fn single(mut self) -> AttributeType {
        self.single_valued = true;
        self
    }

    pub fn syntax(mut self, s: Syntax) -> AttributeType {
        self.syntax = s;
        self
    }
}

/// Object-class kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    Structural,
    Auxiliary,
    Abstract,
}

/// An object-class definition.
#[derive(Debug, Clone)]
pub struct ObjectClass {
    pub name: String,
    pub kind: ClassKind,
    /// Superclass name (`None` only for `top`).
    pub superior: Option<String>,
    pub must: Vec<String>,
    pub may: Vec<String>,
}

/// A registered object class with what [`Schema::validate_entry`] asks of
/// it, worked out once by [`Schema::add_class`]: a class can only name
/// superiors and attribute types that are already registered, so the
/// closure over its superclass chain is final when it is built.
#[derive(Debug, Clone)]
struct Class {
    def: ObjectClass,
    /// Lowercased `must` names of the class and all its superiors, sorted.
    must: Vec<String>,
    /// Lowercased `must` and `may` names of the class and all its
    /// superiors, sorted.
    allowed: Vec<String>,
    /// Registry keys of the class and then its superiors, nearest first.
    chain: Vec<String>,
}

/// Longest superclass chain a class may have, itself included.
const MAX_CHAIN: usize = 32;

/// The schema: a registry of attribute types and object classes plus the
/// entry validator.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Lowercased name to the type's index in `types`.
    attrs: BTreeMap<String, usize>,
    types: Vec<AttributeType>,
    classes: BTreeMap<String, Class>,
    /// When `true`, attributes not brought in by any present class are
    /// rejected (`ObjectClassViolation`). Operational attributes registered
    /// via [`Schema::add_operational`] are always allowed.
    strict: bool,
    operational: BTreeSet<String>,
    /// What the validator has worked out from these definitions; every
    /// change to them drops it.
    plans: Plans,
}

/// Slots in one chunk of a [`ById`] table.
const CHUNK: usize = 64;

/// One slot per id a pool hands out, each chunk of [`CHUNK`] slots
/// allocated the first time an id in it is asked for; read with no lock.
struct ById<T> {
    chunks: [OnceLock<Box<[T; CHUNK]>>; POOL_CAP / CHUNK],
}

impl<T: Default> ById<T> {
    fn slot(&self, id: u16) -> &T {
        let (chunk, at) = (usize::from(id) / CHUNK, usize::from(id) % CHUNK);
        let make = || Box::new(std::array::from_fn(|_| T::default()));
        &self.chunks[chunk].get_or_init(make)[at]
    }
}

impl<T> Default for ById<T> {
    fn default() -> ById<T> {
        ById {
            chunks: [const { OnceLock::new() }; POOL_CAP / CHUNK],
        }
    }
}

/// What [`Schema::validate_entry`] works out once from the definitions,
/// keyed by the pools' ids: the type each pooled attribute name names, and
/// a [`Plan`] for each pooled class list.
#[derive(Default)]
struct Plans {
    /// Name-pool id to 1 + the index of the type the name names,
    /// [`NO_TYPE`] when no type has it, 0 until it is first asked for.
    types: ById<AtomicU32>,
    lists: ById<OnceLock<Plan>>,
}

/// A pooled name no attribute type has.
const NO_TYPE: u32 = u32::MAX;

/// A copy of a schema works its plans out again.
impl Clone for Plans {
    fn clone(&self) -> Plans {
        Plans::default()
    }
}

impl std::fmt::Debug for Plans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Plans")
    }
}

/// What validation asks of an entry that holds one class list, worked out
/// from the list alone.
struct Plan {
    /// The list's own verdict: every class known, one structural chain.
    verdict: std::result::Result<(), ListFault>,
    /// Lowercased `must` names of the classes and their superiors, sorted,
    /// `objectclass` left out.
    must: Vec<String>,
    /// Bit `i % 64` of word `i / 64` is set when the type at index `i`
    /// may be held: a `must` or `may` name of the classes, an operational
    /// attribute, or `objectClass`.
    allowed: Vec<u64>,
}

impl Plan {
    fn allows(&self, ty: usize) -> bool {
        self.allowed
            .get(ty / 64)
            .is_some_and(|w| w & (1 << (ty % 64)) != 0)
    }
}

/// Why a class list is refused whatever the entry holds.
enum ListFault {
    Unknown(String),
    NoStructural,
    UnrelatedStructurals,
}

impl ListFault {
    fn error(&self, dn: &Dn) -> LdapError {
        let message = match self {
            ListFault::Unknown(name) => format!("unknown object class `{name}`"),
            ListFault::NoStructural => format!("entry `{dn}` has no structural object class"),
            ListFault::UnrelatedStructurals => {
                format!("entry `{dn}` has multiple unrelated structural classes")
            }
        };
        LdapError::new(ResultCode::ObjectClassViolation, message)
    }
}

impl Schema {
    /// An empty schema that accepts anything (schema checking off).
    pub fn permissive() -> Schema {
        Schema::default()
    }

    /// The standard X.500 core used by the paper's integrated schema:
    /// `top`, `person`, `organizationalPerson`, `organization`,
    /// `organizationalUnit`, plus the operational attributes MetaComm needs.
    pub fn x500_core() -> Schema {
        let mut s = Schema {
            strict: true,
            ..Schema::default()
        };
        for at in [
            AttributeType::string("objectClass"),
            AttributeType::string("cn"),
            AttributeType::string("sn"),
            AttributeType::string("o"),
            AttributeType::string("ou"),
            AttributeType::string("c"),
            AttributeType::string("description"),
            AttributeType::string("seeAlso").syntax(Syntax::DnSyntax),
            AttributeType::string("userPassword"),
            AttributeType::string("telephoneNumber").syntax(Syntax::TelephoneNumber),
            AttributeType::string("facsimileTelephoneNumber").syntax(Syntax::TelephoneNumber),
            AttributeType::string("title"),
            AttributeType::string("postalAddress"),
            AttributeType::string("postalCode"),
            AttributeType::string("l"),
            AttributeType::string("st"),
            AttributeType::string("street"),
            AttributeType::string("mail"),
            AttributeType::string("uid"),
            AttributeType::string("roomNumber"),
            AttributeType::string("employeeNumber").single(),
        ] {
            s.add_attribute(at).expect("builtin attr");
        }
        for oc in [
            ObjectClass {
                name: "top".into(),
                kind: ClassKind::Abstract,
                superior: None,
                must: vec!["objectClass".into()],
                may: vec![],
            },
            ObjectClass {
                name: "person".into(),
                kind: ClassKind::Structural,
                superior: Some("top".into()),
                must: vec!["cn".into(), "sn".into()],
                may: vec![
                    "telephoneNumber".into(),
                    "userPassword".into(),
                    "description".into(),
                    "seeAlso".into(),
                ],
            },
            ObjectClass {
                name: "organizationalPerson".into(),
                kind: ClassKind::Structural,
                superior: Some("person".into()),
                must: vec![],
                may: vec![
                    "ou".into(),
                    "title".into(),
                    "postalAddress".into(),
                    "postalCode".into(),
                    "l".into(),
                    "st".into(),
                    "street".into(),
                    "facsimileTelephoneNumber".into(),
                    "roomNumber".into(),
                    "mail".into(),
                    "uid".into(),
                    "employeeNumber".into(),
                ],
            },
            ObjectClass {
                name: "organization".into(),
                kind: ClassKind::Structural,
                superior: Some("top".into()),
                must: vec!["o".into()],
                may: vec!["description".into(), "telephoneNumber".into()],
            },
            ObjectClass {
                name: "organizationalUnit".into(),
                kind: ClassKind::Structural,
                superior: Some("top".into()),
                must: vec!["ou".into()],
                may: vec!["description".into(), "telephoneNumber".into()],
            },
            ObjectClass {
                name: "country".into(),
                kind: ClassKind::Structural,
                superior: Some("top".into()),
                must: vec!["c".into()],
                may: vec!["description".into()],
            },
        ] {
            s.add_class(oc).expect("builtin class");
        }
        s
    }

    /// Register an attribute type. Re-registration with the same name fails.
    pub fn add_attribute(&mut self, at: AttributeType) -> Result<()> {
        let key = at.name.to_ascii_lowercase();
        if self.attrs.contains_key(&key) {
            return Err(LdapError::new(
                ResultCode::Other,
                format!("attribute type `{}` already defined", at.name),
            ));
        }
        self.plans = Plans::default();
        self.attrs.insert(key, self.types.len());
        self.types.push(at);
        Ok(())
    }

    /// Register an *operational* attribute: always allowed on any entry,
    /// never required. MetaComm uses this for `lastUpdater`.
    pub fn add_operational(&mut self, at: AttributeType) -> Result<()> {
        self.plans = Plans::default();
        self.operational.insert(at.name.to_ascii_lowercase());
        self.add_attribute(at)
    }

    /// Register an object class. Enforces the paper's auxiliary-class
    /// limitation: auxiliary classes cannot declare `must` attributes.
    /// The `must` / allowed closure over the superclass chain is computed
    /// here, once; a chain deeper than 32 classes is refused.
    pub fn add_class(&mut self, oc: ObjectClass) -> Result<()> {
        if oc.kind == ClassKind::Auxiliary && !oc.must.is_empty() {
            return Err(LdapError::new(
                ResultCode::ObjectClassViolation,
                format!(
                    "auxiliary class `{}` cannot have mandatory attributes",
                    oc.name
                ),
            ));
        }
        let (mut must, mut allowed, mut chain) = (Vec::new(), Vec::new(), Vec::new());
        if let Some(named) = &oc.superior {
            let Some(sup) = self.classes.get(&named.to_ascii_lowercase()) else {
                return Err(LdapError::new(
                    ResultCode::Other,
                    format!("unknown superior class `{named}` for `{}`", oc.name),
                ));
            };
            if sup.chain.len() >= MAX_CHAIN {
                let top = &self.classes[&sup.chain[MAX_CHAIN - 1]].def.name;
                return Err(LdapError::new(
                    ResultCode::Other,
                    format!("object class chain too deep at `{top}`"),
                ));
            }
            (must, allowed, chain) = (sup.must.clone(), sup.allowed.clone(), sup.chain.clone());
        }
        for a in oc.must.iter().chain(&oc.may) {
            let lower = a.to_ascii_lowercase();
            if !self.attrs.contains_key(&lower) {
                return Err(LdapError::new(
                    ResultCode::UndefinedAttributeType,
                    format!("class `{}` references unknown attribute `{a}`", oc.name),
                ));
            }
            allowed.push(lower);
        }
        let key = oc.name.to_ascii_lowercase();
        if self.classes.contains_key(&key) {
            return Err(LdapError::new(
                ResultCode::Other,
                format!("object class `{}` already defined", oc.name),
            ));
        }
        must.extend(oc.must.iter().map(|a| a.to_ascii_lowercase()));
        for names in [&mut must, &mut allowed] {
            names.sort();
            names.dedup();
        }
        chain.insert(0, key.clone());
        self.plans = Plans::default();
        let class = Class {
            def: oc,
            must,
            allowed,
            chain,
        };
        self.classes.insert(key, class);
        Ok(())
    }

    pub fn attribute(&self, name: &str) -> Option<&AttributeType> {
        with_lower(name, |key| self.attrs.get(key)).map(|&ty| &self.types[ty])
    }

    pub fn class(&self, name: &str) -> Option<&ObjectClass> {
        self.compiled(name).map(|c| &c.def)
    }

    fn compiled(&self, name: &str) -> Option<&Class> {
        with_lower(name, |key| self.classes.get(key))
    }

    /// Validate an entry against the schema:
    /// structural-class presence, `must` attributes, `may` closure,
    /// syntaxes, single-valued constraints, and RDN attributes present in
    /// the entry (naming).
    ///
    /// An entry whose class list the class-list pool holds is checked
    /// against that list's plan, worked out the first time the list is
    /// seen, and its attribute names are resolved by name-pool id; an entry
    /// whose list the pool refused is checked class by class. Both
    /// return the same `Result`, code and message.
    pub fn validate_entry(&self, entry: &Entry) -> Result<()> {
        if self.classes.is_empty() {
            return Ok(()); // permissive schema
        }
        let Some(list) = entry.class_list_id() else {
            return self.walk(entry);
        };
        let plan =
            (self.plans.lists.slot(list)).get_or_init(|| self.plan(crate::block::listed(list)));
        let dn = entry.dn();
        if let Err(fault) = &plan.verdict {
            return Err(fault.error(dn));
        }
        // One walk: the entry's names are sorted as `must` is, so a `must`
        // name is missing when the walk passes where it would be. A missing
        // one outranks any attribute's own fault, so the first of those is
        // kept until the walk is over.
        let mut must = plan.must.iter().map(String::as_str).peekable();
        let mut fault = None;
        for attr in entry.attributes() {
            let norm = attr.name.norm();
            if let Some(m) = must.next_if(|m| *m <= norm) {
                if m != norm {
                    return Err(missing(dn, m));
                }
            }
            if fault.is_none() {
                fault = self.check_planned(plan, &attr, dn).err();
            }
        }
        if let Some(m) = must.next() {
            return Err(missing(dn, m));
        }
        fault.map_or_else(|| check_naming(entry), Err)
    }

    /// The type of `attr`, whether the plan allows it, and its values.
    fn check_planned(&self, plan: &Plan, attr: &Attribute<'_>, dn: &Dn) -> Result<()> {
        let ty = self.type_of(&attr.name)?;
        if self.strict && !plan.allows(ty) {
            return Err(not_allowed(attr, dn));
        }
        check_values(&self.types[ty], attr)
    }

    /// The index of the type `name` names: through the plans' table for a
    /// pooled name, by its text for one the block spells out.
    fn type_of(&self, name: &NameRef<'_>) -> Result<usize> {
        let by_text = || self.attrs.get(name.norm()).copied();
        let ty = match name.pool_id() {
            None => by_text(),
            Some(id) => {
                let slot = self.plans.types.slot(id);
                let known = match slot.load(Ordering::Relaxed) {
                    0 => {
                        let found = by_text().map_or(NO_TYPE, |ty| ty as u32 + 1);
                        slot.store(found, Ordering::Relaxed);
                        found
                    }
                    known => known,
                };
                (known != NO_TYPE).then(|| known as usize - 1)
            }
        };
        ty.ok_or_else(|| {
            LdapError::new(
                ResultCode::UndefinedAttributeType,
                format!("unknown attribute type `{}`", name),
            )
        })
    }

    /// The plan for entries holding the class list `names`.
    fn plan(&self, names: AttrValues<'_>) -> Plan {
        let verdict = self.judge(names);
        let (mut must, mut allowed) = (Vec::new(), vec![0u64; self.types.len().div_ceil(64)]);
        let mut allow = |name: &str| {
            if let Some(&ty) = self.attrs.get(name) {
                allowed[ty / 64] |= 1 << (ty % 64);
            }
        };
        allow("objectclass");
        self.operational.iter().for_each(|name| allow(name));
        for class in names.iter().filter_map(|name| self.compiled(name)) {
            class.allowed.iter().for_each(|name| allow(name));
            must.extend(class.must.iter().filter(|m| *m != "objectclass").cloned());
        }
        must.sort();
        must.dedup();
        Plan {
            verdict,
            must,
            allowed,
        }
    }

    /// What a class list decides on its own: every class known, and at
    /// least one structural class, all of them on one superclass chain.
    fn judge(&self, names: AttrValues<'_>) -> std::result::Result<(), ListFault> {
        let mut structurals = Vec::new();
        for name in names {
            let class = (self.compiled(name)).ok_or_else(|| ListFault::Unknown(name.into()))?;
            if class.def.kind == ClassKind::Structural {
                structurals.push(class);
            }
        }
        if structurals.is_empty() {
            return Err(ListFault::NoStructural);
        }
        // `person` + `organizationalPerson` is one chain, not two structurals.
        let on_chain_of = |a: &Class, b: &Class| a.chain.contains(&b.chain[0]);
        let apart =
            |a: &&Class| (structurals.iter()).any(|b| !on_chain_of(a, b) && !on_chain_of(b, a));
        match structurals.iter().any(apart) {
            true => Err(ListFault::UnrelatedStructurals),
            false => Ok(()),
        }
    }

    /// [`Schema::validate_entry`] for an entry whose class list the pool
    /// refused (more classes than it takes, a class name too long for it,
    /// the pool full) or that has none: the classes are looked up by name
    /// and every attribute checked against each of them.
    fn walk(&self, entry: &Entry) -> Result<()> {
        let names = entry.object_classes();
        if names.is_empty() {
            return Err(LdapError::new(
                ResultCode::ObjectClassViolation,
                format!("entry `{}` has no objectClass", entry.dn()),
            ));
        }
        self.judge(names).map_err(|fault| fault.error(entry.dn()))?;
        let classes = || names.iter().filter_map(|name| self.compiled(name));
        // The first missing name in sorted order over every class's `must`.
        let absent = |m: &&String| *m != "objectclass" && !entry.has_attr(m);
        if let Some(m) = classes().filter_map(|c| c.must.iter().find(absent)).min() {
            return Err(missing(entry.dn(), m));
        }
        for attr in entry.attributes() {
            let norm = attr.name.norm();
            let ty = self.type_of(&attr.name)?;
            let allowed = || {
                norm == "objectclass"
                    || classes()
                        .any(|c| c.allowed.binary_search_by(|a| a.as_str().cmp(norm)).is_ok())
                    || self.operational.contains(norm)
            };
            if self.strict && !allowed() {
                return Err(not_allowed(&attr, entry.dn()));
            }
            check_values(&self.types[ty], &attr)?;
        }
        check_naming(entry)
    }
}

fn missing(dn: &Dn, name: &str) -> LdapError {
    LdapError::new(
        ResultCode::ObjectClassViolation,
        format!("entry `{dn}` missing mandatory attribute `{name}`"),
    )
}

fn not_allowed(attr: &Attribute<'_>, dn: &Dn) -> LdapError {
    LdapError::new(
        ResultCode::ObjectClassViolation,
        format!(
            "attribute `{}` not allowed by object classes of `{dn}`",
            attr.name
        ),
    )
}

/// The single-valued constraint and the syntax of every value.
fn check_values(at: &AttributeType, attr: &Attribute<'_>) -> Result<()> {
    if at.single_valued && attr.values.len() > 1 {
        return Err(LdapError::new(
            ResultCode::ConstraintViolation,
            format!("attribute `{}` is single-valued", attr.name),
        ));
    }
    if at.syntax == Syntax::DirectoryString {
        return Ok(());
    }
    for v in &attr.values {
        if !at.syntax.validate(v) {
            return Err(LdapError::new(
                ResultCode::InvalidAttributeSyntax,
                format!("value `{v}` violates syntax of `{}`", attr.name),
            ));
        }
    }
    Ok(())
}

/// Naming: every RDN AVA must be an attribute value of the entry.
fn check_naming(entry: &Entry) -> Result<()> {
    if let Some(rdn) = entry.dn().rdn() {
        for ava in rdn.avas() {
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
    }
    Ok(())
}

/// Shared schema handle used by the DIT.
pub type SchemaRef = Arc<Schema>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    fn person_entry() -> Entry {
        Entry::with_attrs(
            Dn::parse("cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
            ],
        )
    }

    #[test]
    fn valid_person_passes() {
        Schema::x500_core().validate_entry(&person_entry()).unwrap();
    }

    #[test]
    fn missing_must_fails() {
        let mut e = person_entry();
        e.remove_attr("sn");
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
        assert!(err.message.contains("sn"));
    }

    #[test]
    fn attribute_outside_may_fails() {
        let mut e = person_entry();
        e.add_value("o", "Lucent"); // `o` is not in person's may set
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn unknown_attribute_fails() {
        let mut e = person_entry();
        e.add_value("frobnicator", "x");
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::UndefinedAttributeType);
    }

    #[test]
    fn no_structural_class_fails() {
        let e = Entry::with_attrs(
            Dn::parse("cn=X,o=Lucent").unwrap(),
            [("objectClass", "top"), ("cn", "X")],
        );
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn chained_structural_classes_allowed() {
        let mut e = person_entry();
        e.add_value("objectClass", "organizationalPerson");
        e.add_value("ou", "Research");
        Schema::x500_core().validate_entry(&e).unwrap();
    }

    #[test]
    fn unrelated_structural_classes_rejected() {
        let mut e = person_entry();
        e.add_value("objectClass", "organization");
        e.add_value("o", "Lucent");
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn auxiliary_class_with_must_rejected_at_registration() {
        let mut s = Schema::x500_core();
        let err = s
            .add_class(ObjectClass {
                name: "badAux".into(),
                kind: ClassKind::Auxiliary,
                superior: Some("top".into()),
                must: vec!["cn".into()],
                may: vec![],
            })
            .unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn chain_deeper_than_32_is_refused_at_registration() {
        let mut s = Schema::x500_core();
        let level = |n: usize, superior: String| ObjectClass {
            name: format!("level{n}"),
            kind: ClassKind::Structural,
            superior: Some(superior),
            must: vec![],
            may: vec![],
        };
        // `top` is level 1; 31 more below it make the 32 a chain may have.
        s.add_class(level(2, "top".into())).unwrap();
        for n in 3..=32 {
            s.add_class(level(n, format!("LEVEL{}", n - 1))).unwrap();
        }
        let err = s.add_class(level(33, "level32".into())).unwrap_err();
        assert_eq!(err.code, ResultCode::Other);
        assert_eq!(err.message, "object class chain too deep at `top`");
        assert!(s.class("level33").is_none());
        // The deepest class that did register validates entries as any other.
        let e = Entry::with_attrs(
            Dn::parse("cn=X,o=Lucent").unwrap(),
            [("objectClass", "level32"), ("cn", "X")],
        );
        let err = s.validate_entry(&e).unwrap_err();
        assert!(err.message.contains("`cn` not allowed"), "{err}");
    }

    #[test]
    fn auxiliary_class_attributes_allowed_when_class_present() {
        let mut s = Schema::x500_core();
        s.add_attribute(AttributeType::string("definityExtension").single())
            .unwrap();
        s.add_class(ObjectClass {
            name: "definityUser".into(),
            kind: ClassKind::Auxiliary,
            superior: Some("top".into()),
            must: vec![],
            may: vec!["definityExtension".into()],
        })
        .unwrap();
        let mut e = person_entry();
        // attribute without class: violation
        e.add_value("definityExtension", "9123");
        assert!(s.validate_entry(&e).is_err());
        // with the auxiliary class present: fine
        e.add_value("objectClass", "definityUser");
        s.validate_entry(&e).unwrap();
        // paper's §5.2 anomaly: class present but extension absent is LEGAL
        let mut anomaly = person_entry();
        anomaly.add_value("objectClass", "definityUser");
        s.validate_entry(&anomaly).unwrap();
    }

    #[test]
    fn an_entry_of_a_pooled_list_is_planned_and_one_of_a_refused_list_walked() {
        let mut s = Schema::x500_core();
        for i in 0..20 {
            s.add_class(ObjectClass {
                name: format!("aux{i}"),
                kind: ClassKind::Auxiliary,
                superior: Some("top".into()),
                must: vec![],
                may: vec!["mail".into()],
            })
            .unwrap();
        }
        let (mut planned, mut walked) = (person_entry(), person_entry());
        planned.add_value("objectClass", "aux0");
        for i in 0..20 {
            walked.add_value("objectClass", format!("aux{i}"));
        }
        assert!(planned.class_list_id().is_some());
        assert_eq!(
            walked.class_list_id(),
            None,
            "more classes than the pool takes"
        );
        for e in [&mut planned, &mut walked] {
            s.validate_entry(e).unwrap();
            e.add_value("mail", "jd@lucent.com");
            s.validate_entry(e).unwrap();
            e.remove_attr("sn");
        }
        let (a, b) = (s.validate_entry(&planned), s.validate_entry(&walked));
        assert_eq!(a.unwrap_err().message, b.unwrap_err().message);
        // A name the pool will not take is looked up by its text.
        let long = "x".repeat(crate::attr::POOLED_LEN_MAX + 1);
        s.add_attribute(AttributeType::string(&long)).unwrap();
        planned.add_value("sn", "Doe");
        planned.add_value(long.as_str(), "1");
        let spelled = planned
            .attributes()
            .find(|a| a.name.as_str() == long)
            .unwrap();
        assert_eq!(spelled.name.pool_id(), None);
        let err = s.validate_entry(&planned).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
        assert!(err.message.contains("not allowed"), "{err}");
    }

    #[test]
    fn telephone_syntax_enforced() {
        let mut e = person_entry();
        e.add_value("telephoneNumber", "not a number!");
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::InvalidAttributeSyntax);
    }

    #[test]
    fn single_valued_enforced() {
        let mut s = Schema::x500_core();
        s.add_attribute(AttributeType::string("mbid").single())
            .unwrap();
        s.add_class(ObjectClass {
            name: "mbAux".into(),
            kind: ClassKind::Auxiliary,
            superior: Some("top".into()),
            must: vec![],
            may: vec!["mbid".into()],
        })
        .unwrap();
        let mut e = person_entry();
        e.add_value("objectClass", "mbAux");
        e.put("mbid", ["1", "2"]);
        let err = s.validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ConstraintViolation);
    }

    #[test]
    fn naming_violation_detected() {
        let mut e = person_entry();
        e.put("cn", ["Different Name"]);
        let err = Schema::x500_core().validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::NamingViolation);
    }

    #[test]
    fn operational_attribute_always_allowed() {
        let mut s = Schema::x500_core();
        s.add_operational(AttributeType::string("lastUpdater").single())
            .unwrap();
        let mut e = person_entry();
        e.add_value("lastUpdater", "pbx-1");
        s.validate_entry(&e).unwrap();
    }

    #[test]
    fn permissive_schema_accepts_anything() {
        let s = Schema::permissive();
        let e = Entry::with_attrs(Dn::parse("x=y").unwrap(), [("whatever", "value")]);
        s.validate_entry(&e).unwrap();
    }

    #[test]
    fn syntaxes() {
        assert!(Syntax::TelephoneNumber.validate("+1 908 582-9123"));
        assert!(!Syntax::TelephoneNumber.validate("ext. nine"));
        assert!(Syntax::Integer.validate("-42"));
        assert!(!Syntax::Integer.validate("4.2"));
        assert!(Syntax::DnSyntax.validate("cn=a,o=b"));
        assert!(!Syntax::DnSyntax.validate("no-equals"));
        assert!(Syntax::Boolean.validate("TRUE"));
        assert!(!Syntax::Boolean.validate("yes"));
    }
}
