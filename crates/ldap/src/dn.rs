//! Distinguished names (RFC 2253).
//!
//! A [`Dn`] is a sequence of [`Rdn`]s ordered leaf-first (LDAP order: the
//! string `cn=John Doe, o=Marketing, o=Lucent` names an entry whose parent is
//! `o=Marketing, o=Lucent`). Each RDN is one or more attribute/value pairs
//! ([`Ava`]); multi-AVA RDNs are joined with `+`.
//!
//! Matching is case-insensitive on both attribute names and values and
//! insensitive to insignificant whitespace, which matches the
//! `caseIgnoreMatch` behaviour of the directory-string syntax that all
//! MetaComm naming attributes use.

use crate::attr::{norm_value_into, AttrName, Value};
use crate::error::{LdapError, Result};
use std::fmt;
use std::sync::Arc;

/// One attribute/value pair inside an RDN, e.g. `cn=John Doe`.
///
/// At rest an AVA is an interned attribute type (one pointer into the
/// [`AttrName`] pool), the value, and the normalized value only when
/// normalizing changes it. Each is a [`Value`], so a value of up to 22
/// bytes costs no heap block of its own.
#[derive(Debug, Clone)]
pub struct Ava {
    /// Attribute type: display form as written, lowercased form for
    /// matching.
    attr: AttrName,
    /// Attribute value exactly as written (unescaped).
    value: Value,
    /// Normalized (lowercased, space-squeezed) value when it differs from
    /// `value`.
    norm_value: Option<Value>,
}

/// `caseIgnoreMatch` leaves this value as it is: printable lowercase ASCII
/// with single interior spaces. Spares the common value (`dept-017`, a
/// telephone number) the normalizing pass and its allocation.
fn is_normalized(v: &str) -> bool {
    let b = v.as_bytes();
    b.first() != Some(&b' ')
        && b.last() != Some(&b' ')
        && b.iter()
            .all(|c| (0x20..0x7f).contains(c) && !c.is_ascii_uppercase())
        && !b.windows(2).any(|w| w == b"  ")
}

impl Ava {
    pub fn new(attr: impl AsRef<str>, value: impl Into<Value>) -> Ava {
        Ava::from_parts(attr.as_ref().trim(), value.into(), &mut String::new())
    }

    /// The AVA for `attr` and `value`; `scratch` is where the normalized
    /// value is worked out, kept by a caller that builds many.
    fn from_parts(attr: &str, value: Value, scratch: &mut String) -> Ava {
        let norm_value = if is_normalized(&value) {
            None
        } else {
            norm_value_into(&value, scratch);
            (**scratch != *value).then(|| Value::new(scratch))
        };
        Ava {
            attr: AttrName::interned(attr),
            value,
            norm_value,
        }
    }

    /// Attribute name as originally written.
    pub fn attr(&self) -> &str {
        self.attr.as_str()
    }

    /// Unescaped value as originally written.
    pub fn value(&self) -> &str {
        &self.value
    }

    /// Lowercased attribute name used for matching.
    pub fn norm_attr(&self) -> &str {
        self.attr.norm()
    }

    /// Case/whitespace-normalized value used for matching.
    pub fn norm_value(&self) -> &str {
        self.norm_value.as_deref().unwrap_or(&self.value)
    }

    fn matches(&self, other: &Ava) -> bool {
        self.norm_attr() == other.norm_attr() && self.norm_value() == other.norm_value()
    }

    /// What equality, ordering and hashing look at: an `Ava` compares as
    /// written (the normalized forms follow from that), unlike an [`Rdn`],
    /// which compares as matched.
    fn as_written(&self) -> (&str, &str) {
        (self.attr(), self.value())
    }
}

impl PartialEq for Ava {
    fn eq(&self, other: &Self) -> bool {
        self.as_written() == other.as_written()
    }
}
impl Eq for Ava {}

impl PartialOrd for Ava {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ava {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_written().cmp(&other.as_written())
    }
}

impl std::hash::Hash for Ava {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_written().hash(state);
    }
}

/// A relative distinguished name: one or more AVAs (`cn=J+ou=Sales`).
///
/// Invariant: at least one AVA; AVAs are kept sorted by normalized attribute
/// name so equality is order-insensitive, per X.501.
///
/// An RDN is one shared immutable allocation: cloning it (and so cloning,
/// extending or truncating a [`Dn`]) copies a pointer, and the store keeps
/// one RDN per subtree however many entries sit underneath it.
#[derive(Debug, Clone)]
pub struct Rdn(Arc<RdnRepr>);

#[derive(Debug)]
enum RdnRepr {
    /// The common case (`cn=John Doe`), held without a vector.
    One(Ava),
    Many(Box<[Ava]>),
}

impl Rdn {
    /// Single-AVA RDN, the common case (`cn=John Doe`).
    pub fn new(attr: impl AsRef<str>, value: impl Into<Value>) -> Rdn {
        Rdn(Arc::new(RdnRepr::One(Ava::new(attr, value))))
    }

    /// Multi-AVA RDN. Returns an error when `avas` is empty or two AVAs use
    /// the same attribute type.
    pub fn multi(mut avas: Vec<Ava>) -> Result<Rdn> {
        Rdn::take(&mut avas)
    }

    /// Build from (and empty) a scratch vector, so a parser can reuse it.
    fn take(avas: &mut Vec<Ava>) -> Result<Rdn> {
        let repr = match avas.len() {
            0 => return Err(LdapError::invalid_dn("empty RDN")),
            1 => RdnRepr::One(avas.pop().expect("one AVA")),
            _ => {
                avas.sort_by(|a, b| a.norm_attr().cmp(b.norm_attr()));
                for w in avas.windows(2) {
                    if w[0].norm_attr() == w[1].norm_attr() {
                        return Err(LdapError::invalid_dn(format!(
                            "duplicate attribute `{}` in RDN",
                            w[0].attr()
                        )));
                    }
                }
                RdnRepr::Many(avas.drain(..).collect())
            }
        };
        Ok(Rdn(Arc::new(repr)))
    }

    pub fn avas(&self) -> &[Ava] {
        match &*self.0 {
            RdnRepr::One(ava) => std::slice::from_ref(ava),
            RdnRepr::Many(avas) => avas,
        }
    }

    /// The first (or only) AVA.
    pub fn first(&self) -> &Ava {
        &self.avas()[0]
    }

    /// Parse one RDN from its RFC 2253 string form.
    pub(crate) fn parse(s: &str) -> Result<Rdn> {
        let dn = Dn::parse(s)?;
        if dn.depth() != 1 {
            return Err(LdapError::invalid_dn(format!(
                "expected a single RDN, got `{s}`"
            )));
        }
        Ok(dn.rdns[0].clone())
    }

    /// This RDN as [`Dn::norm_key`] spells it, in runs of bytes borrowed
    /// from the RDN (some empty): `attr=value` per AVA, both normalized,
    /// `+` between AVAs, and a `\` before every `,`, `+` and `\` inside a
    /// value — so no two distinct RDNs, and no RDN and a run of several,
    /// spell alike.
    pub(crate) fn key_runs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.avas().iter().enumerate().flat_map(|(i, ava)| {
            let plus: &[u8] = if i > 0 { b"+" } else { b"" };
            [plus, ava.norm_attr().as_bytes(), b"="]
                .into_iter()
                .chain(escaped_runs(ava.norm_value()))
        })
    }

    /// Bytes [`Rdn::key_runs`] yields when no value needs an escape.
    fn key_len(&self) -> usize {
        let avas = self.avas();
        let text: usize = (avas.iter())
            .map(|a| a.norm_attr().len() + a.norm_value().len())
            .sum();
        text + 2 * avas.len() - 1
    }

    /// `true` when both are the same allocation — what the store arranges
    /// for an entry's ancestor RDNs and its parent's.
    pub fn shares_storage(&self, other: &Rdn) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Heap bytes behind this RDN as requested from the allocator, one
    /// figure per allocation (the shared block, then each value too long
    /// for its slot, 0 for one that is not); interned attribute types are
    /// the pool's, not the RDN's.
    pub(crate) fn heap_blocks(&self, mut block: impl FnMut(usize)) {
        block(2 * std::mem::size_of::<usize>() + std::mem::size_of::<RdnRepr>());
        if let RdnRepr::Many(avas) = &*self.0 {
            block(std::mem::size_of_val(&**avas));
        }
        for ava in self.avas() {
            block(ava.value.heap_len());
            block(ava.norm_value.as_ref().map_or(0, Value::heap_len));
        }
    }
}

impl PartialEq for Rdn {
    fn eq(&self, other: &Self) -> bool {
        self.shares_storage(other)
            || (self.avas().len() == other.avas().len()
                && self
                    .avas()
                    .iter()
                    .zip(other.avas())
                    .all(|(a, b)| a.matches(b)))
    }
}
impl Eq for Rdn {}

impl std::hash::Hash for Rdn {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for ava in self.avas() {
            ava.norm_attr().hash(state);
            ava.norm_value().hash(state);
        }
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ava) in self.avas().iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            f.write_str(ava.attr())?;
            f.write_str("=")?;
            write_escaped(f, ava.value())?;
        }
        Ok(())
    }
}

/// A distinguished name: RDNs ordered leaf-first. The empty DN (zero RDNs)
/// names the root of the DIT.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dn {
    rdns: Box<[Rdn]>,
}

impl Dn {
    /// The empty DN (the DIT root).
    pub fn root() -> Dn {
        Dn::default()
    }

    /// Build from leaf-first RDNs.
    pub(crate) fn from_rdns(rdns: Vec<Rdn>) -> Dn {
        Dn {
            rdns: rdns.into_boxed_slice(),
        }
    }

    /// Parse an RFC 2253 string like `cn=John Doe, o=Marketing, o=Lucent`.
    ///
    /// Supported escapes: `\` followed by a special character
    /// (`,` `+` `"` `\` `<` `>` `;` `=` `#` or space) or two hex digits. A
    /// run of hex pairs is a run of UTF-8 octets (RFC 4514 §3), so
    /// `cn=Caf\C3\A9` and `cn=Café` name one entry; octets that are not
    /// UTF-8 are an `invalidDNSyntax` error.
    pub fn parse(s: &str) -> Result<Dn> {
        if s.trim().is_empty() {
            return Ok(Dn::root());
        }
        let s = s.trim_start();
        // One RDN per unescaped separator, so the vector is sized once and
        // handed over as it is.
        let mut rdns = Vec::with_capacity(1 + count_rdn_separators(s));
        // Scratch reused across AVAs: what the DN keeps is cut to size from
        // these.
        let mut avas: Vec<Ava> = Vec::new();
        let mut attr = String::new();
        let mut value = String::new();
        let mut norm = String::new();
        // The octets of a run of `\XX` escapes, decoded once the run ends.
        let mut octets: Vec<u8> = Vec::new();
        let mut chars = s.chars().peekable();
        loop {
            // Parse one AVA: attr '=' value
            attr.clear();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                if c == ',' || c == '+' || c == ';' {
                    return Err(LdapError::invalid_dn(format!(
                        "expected `=` in AVA while parsing `{s}`"
                    )));
                }
                attr.push(c);
                chars.next();
            }
            if chars.next() != Some('=') {
                return Err(LdapError::invalid_dn(format!("missing `=` in `{s}`")));
            }
            let attr = attr.trim();
            if attr.is_empty() {
                return Err(LdapError::invalid_dn(format!("empty attribute in `{s}`")));
            }
            // Value: read until unescaped ',' ';' or '+'.
            value.clear();
            // skip leading unescaped spaces
            while chars.peek() == Some(&' ') {
                chars.next();
            }
            let mut terminator: Option<char> = None;
            // Length of `value` up to and including the last escaped char —
            // trailing spaces beyond this point are insignificant.
            let mut escaped_end = 0usize;
            while let Some(c) = chars.next() {
                if c == '\\' && chars.peek().is_some_and(char::is_ascii_hexdigit) {
                    let hex = |d: Option<char>| d.and_then(|d| d.to_digit(16));
                    let (hi, lo) = (hex(chars.next()), hex(chars.next()));
                    let (Some(hi), Some(lo)) = (hi, lo) else {
                        return Err(LdapError::invalid_dn("bad hex escape"));
                    };
                    octets.push(u8::try_from(hi * 16 + lo).expect("two hex digits"));
                    continue;
                }
                if !octets.is_empty() {
                    push_octets(&mut octets, &mut value)?;
                    escaped_end = value.len();
                }
                match c {
                    '\\' => match chars.next() {
                        Some(e) if is_special(e) => {
                            value.push(e);
                            escaped_end = value.len();
                        }
                        Some(other) => {
                            return Err(LdapError::invalid_dn(format!(
                                "invalid escape `\\{other}`"
                            )))
                        }
                        None => return Err(LdapError::invalid_dn("trailing backslash")),
                    },
                    ',' | ';' | '+' => {
                        terminator = Some(if c == ';' { ',' } else { c });
                        break;
                    }
                    other => value.push(other),
                }
            }
            if !octets.is_empty() {
                push_octets(&mut octets, &mut value)?;
                escaped_end = value.len();
            }
            // Trim only unescaped trailing spaces.
            while value.len() > escaped_end && value.ends_with(' ') {
                value.pop();
            }
            avas.push(Ava::from_parts(attr, Value::new(&value), &mut norm));
            match terminator {
                Some('+') => continue, // next AVA of same RDN
                Some(',') => {
                    rdns.push(Rdn::take(&mut avas)?);
                    // skip spaces before next RDN
                    while chars.peek() == Some(&' ') {
                        chars.next();
                    }
                    if chars.peek().is_none() {
                        return Err(LdapError::invalid_dn(format!(
                            "trailing separator in `{s}`"
                        )));
                    }
                    continue;
                }
                _ => {
                    rdns.push(Rdn::take(&mut avas)?);
                    break;
                }
            }
        }
        Ok(Dn::from_rdns(rdns))
    }

    /// RDNs leaf-first.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// Number of RDNs. The root has depth 0.
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    /// Leaf RDN, or `None` for the root.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// Parent DN, or `None` for the root.
    pub fn parent(&self) -> Option<Dn> {
        let (_, above) = self.rdns.split_first()?;
        Some(Dn { rdns: above.into() })
    }

    /// A child of `self` named by `rdn`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        Dn::join(&[rdn], &self.rdns)
    }

    fn join(below: &[Rdn], above: &[Rdn]) -> Dn {
        let mut rdns = Vec::with_capacity(below.len() + above.len());
        rdns.extend_from_slice(below);
        rdns.extend_from_slice(above);
        Dn::from_rdns(rdns)
    }

    /// `true` when `self` equals `ancestor` or lies underneath it.
    pub fn is_within(&self, ancestor: &Dn) -> bool {
        if ancestor.rdns.len() > self.rdns.len() {
            return false;
        }
        let offset = self.rdns.len() - ancestor.rdns.len();
        self.rdns[offset..] == ancestor.rdns[..]
    }

    /// Replace the leaf RDN (the LDAP ModifyRDN operation on names).
    pub fn with_rdn(&self, rdn: Rdn) -> Result<Dn> {
        if self.rdns.is_empty() {
            return Err(LdapError::invalid_dn("root has no RDN to replace"));
        }
        let mut rdns = self.rdns.clone();
        rdns[0] = rdn;
        Ok(Dn { rdns })
    }

    /// The name of a descendant after its ancestor at depth `old_depth` was
    /// renamed or moved to `new_base`: the RDNs below that ancestor stay,
    /// everything from it upwards is `new_base`'s.
    pub(crate) fn rebased(&self, old_depth: usize, new_base: &Dn) -> Dn {
        Dn::join(&self.rdns[..self.rdns.len() - old_depth], &new_base.rdns)
    }

    /// Point every RDN that reads the same as `other`'s at the same height
    /// above the root at `other`'s storage. With `other` the parent entry's
    /// name this is what the store does to each entry it takes in, so an
    /// RDN is held once per subtree; with a neighbour's name it is how a
    /// parser keeps one copy per document. An RDN a client wrote in another
    /// case or spacing keeps its own copy, and its bytes.
    pub(crate) fn share_with(&mut self, other: &Dn) {
        for (mine, theirs) in self.rdns.iter_mut().rev().zip(other.rdns.iter().rev()) {
            if !mine.shares_storage(theirs) && mine.avas() == theirs.avas() {
                *mine = theirs.clone();
            }
        }
    }

    /// Canonical normalized string: `attr=value` per AVA, both normalized,
    /// `+` between AVAs, `,` between RDNs, and a `\` before every `,`, `+`
    /// and `\` inside a value — so it is equal for two names exactly when
    /// the names are equal, and orders siblings as the directory serves
    /// them.
    pub fn norm_key(&self) -> String {
        let len = self.rdns.iter().map(|r| r.key_len() + 1).sum();
        let mut out = Vec::with_capacity(len);
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            rdn.key_runs().for_each(|run| out.extend_from_slice(run));
        }
        String::from_utf8(out).expect("an escape is an ASCII byte before an ASCII byte")
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Dn {
    type Err = LdapError;
    fn from_str(s: &str) -> Result<Dn> {
        Dn::parse(s)
    }
}

/// `value`'s bytes in runs, with a `\` run before each `,`, `+` and `\`.
fn escaped_runs(value: &str) -> impl Iterator<Item = &[u8]> {
    let special = |b: &u8| matches!(b, b',' | b'+' | b'\\');
    (value.as_bytes().split_inclusive(special)).flat_map(move |run| match run.split_last() {
        Some((last, head)) if special(last) => [head, b"\\", std::slice::from_ref(last)],
        _ => [run, b"", b""],
    })
}

/// Unescaped `,` and `;` in `s`.
fn count_rdn_separators(s: &str) -> usize {
    let mut n = 0;
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        match b {
            b'\\' => {
                bytes.next();
            }
            b',' | b';' => n += 1,
            _ => {}
        }
    }
    n
}

fn is_special(c: char) -> bool {
    matches!(
        c,
        ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=' | '#' | ' '
    )
}

/// Decode a run of `\XX` octets onto `value` and empty it.
fn push_octets(octets: &mut Vec<u8>, value: &mut String) -> Result<()> {
    let text = std::str::from_utf8(octets)
        .map_err(|_| LdapError::invalid_dn("hex-escaped octets are not UTF-8"))?;
    value.push_str(text);
    octets.clear();
    Ok(())
}

/// Write `v` escaped for RFC 2253 output, in runs cut at each character
/// that needs a `\`. Every such character is ASCII, so each cut falls on a
/// character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, v: &str) -> fmt::Result {
    let last = v.len().saturating_sub(1);
    let mut run = 0;
    for (i, b) in v.bytes().enumerate() {
        let needs = match b {
            b',' | b'+' | b'"' | b'\\' | b'<' | b'>' | b';' => true,
            b'#' => i == 0,
            b' ' => i == 0 || i == last,
            _ => false,
        };
        if needs {
            f.write_str(&v[run..i])?;
            f.write_str("\\")?;
            run = i;
        }
    }
    f.write_str(&v[run..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_dn() {
        let dn = Dn::parse("cn=John Doe, o=Marketing, o=Lucent").unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(dn.rdn().unwrap().first().attr(), "cn");
        assert_eq!(dn.rdn().unwrap().first().value(), "John Doe");
        assert_eq!(dn.parent().unwrap().to_string(), "o=Marketing,o=Lucent");
    }

    #[test]
    fn empty_dn_is_root() {
        let dn = Dn::parse("").unwrap();
        assert!(dn.is_root());
        assert_eq!(dn.depth(), 0);
        assert!(dn.parent().is_none());
    }

    #[test]
    fn case_insensitive_equality() {
        let a = Dn::parse("CN=John Doe,O=Lucent").unwrap();
        let b = Dn::parse("cn=john doe, o=lucent").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.norm_key(), b.norm_key());
    }

    #[test]
    fn whitespace_normalization_in_values() {
        let a = Dn::parse("cn=John   Doe,o=Lucent").unwrap();
        let b = Dn::parse("cn=John Doe,o=Lucent").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn escaped_comma_in_value() {
        let dn = Dn::parse(r"cn=Doe\, John,o=Lucent").unwrap();
        assert_eq!(dn.depth(), 2);
        assert_eq!(dn.rdn().unwrap().first().value(), "Doe, John");
        // round-trips through Display
        let again = Dn::parse(&dn.to_string()).unwrap();
        assert_eq!(dn, again);
    }

    #[test]
    fn hex_escape() {
        let dn = Dn::parse(r"cn=a\2Cb,o=x").unwrap();
        assert_eq!(dn.rdn().unwrap().first().value(), "a,b");
    }

    #[test]
    fn hex_escapes_are_utf8_octets() {
        let escaped = Dn::parse(r"cn=Caf\C3\A9,o=x").unwrap();
        assert_eq!(escaped.rdn().unwrap().first().value(), "Café");
        assert_eq!(escaped, Dn::parse("cn=Café,o=x").unwrap());
        // A run may mix with plain characters and other escapes.
        let mixed = Dn::parse(r"cn=\E2\82\AC 5\2C\20,o=x").unwrap();
        assert_eq!(mixed.rdn().unwrap().first().value(), "€ 5, ");
        for bad in [r"cn=\C3,o=x", r"cn=a\C3b,o=x", r"cn=\FF\FE,o=x"] {
            let err = Dn::parse(bad).unwrap_err();
            assert_eq!(err.code, crate::ResultCode::InvalidDnSyntax, "{bad}");
        }
    }

    #[test]
    fn multi_ava_rdn() {
        let dn = Dn::parse("cn=John+ou=Sales,o=Lucent").unwrap();
        assert_eq!(dn.depth(), 2);
        assert_eq!(dn.rdn().unwrap().avas().len(), 2);
        // order-insensitive equality
        let dn2 = Dn::parse("ou=Sales+cn=John,o=Lucent").unwrap();
        assert_eq!(dn, dn2);
    }

    #[test]
    fn duplicate_attr_in_rdn_rejected() {
        assert!(Dn::parse("cn=a+cn=b,o=x").is_err());
    }

    #[test]
    fn hierarchy_relations() {
        let root = Dn::parse("o=Lucent").unwrap();
        let child = Dn::parse("o=Marketing,o=Lucent").unwrap();
        let grandchild = Dn::parse("cn=Pat Smith,o=Marketing,o=Lucent").unwrap();
        assert!(child.is_within(&root));
        assert!(grandchild.is_within(&root));
        assert!(grandchild.is_within(&child));
        assert!(!root.is_within(&child));
        assert!(grandchild.is_within(&grandchild));
        assert_eq!(grandchild.parent().unwrap(), child);
        assert_eq!(root.child(Rdn::new("o", "Marketing")), child);
    }

    #[test]
    fn with_rdn_replaces_leaf() {
        let dn = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let renamed = dn.with_rdn(Rdn::new("cn", "Jack Doe")).unwrap();
        assert_eq!(renamed.to_string(), "cn=Jack Doe,o=Marketing,o=Lucent");
    }

    #[test]
    fn semicolon_separator_accepted() {
        let dn = Dn::parse("cn=a;o=b").unwrap();
        assert_eq!(dn.depth(), 2);
    }

    #[test]
    fn trailing_separator_rejected() {
        assert!(Dn::parse("cn=a,").is_err());
        assert!(Dn::parse("cn=a,o=b,").is_err());
    }

    #[test]
    fn missing_equals_rejected() {
        assert!(Dn::parse("john doe").is_err());
        assert!(Dn::parse("cn").is_err());
    }

    #[test]
    fn escape_value_round_trip() {
        for v in [
            "plain",
            "a,b",
            "a+b",
            " leading",
            "trailing ",
            "#hash",
            r"back\slash",
        ] {
            let dn = Dn::root().child(Rdn::new("cn", v));
            let parsed = Dn::parse(&dn.to_string()).unwrap();
            assert_eq!(parsed.rdn().unwrap().first().value(), v, "value {v:?}");
        }
    }

    #[test]
    fn normalized_value_is_kept_only_when_it_differs() {
        let plain = Ava::new("ou", "dept-017");
        assert!(plain.norm_value.is_none());
        assert_eq!(plain.norm_value(), "dept-017");
        let mixed = Ava::new("CN", "John   Doe");
        assert_eq!(mixed.norm_value.as_deref(), Some("john doe"));
        assert_eq!((mixed.attr(), mixed.norm_attr()), ("CN", "cn"));
        // An AVA compares as written, an RDN as matched.
        assert_ne!(Ava::new("cn", "John Doe"), Ava::new("CN", "john doe"));
        assert_eq!(Rdn::new("cn", "John Doe"), Rdn::new("CN", "john doe"));
    }

    #[test]
    fn share_with_repoints_equal_text_and_keeps_other_spellings() {
        let parent = Dn::parse("ou=Sales,o=Lucent").unwrap();
        let mut same = Dn::parse("cn=a,ou=Sales,o=Lucent").unwrap();
        same.share_with(&parent);
        assert!(same.rdns()[1].shares_storage(&parent.rdns()[0]));
        assert!(same.rdns()[2].shares_storage(&parent.rdns()[1]));
        assert!(same.parent().unwrap().rdns()[0].shares_storage(&parent.rdns()[0]));

        let mut shouted = Dn::parse("cn=b,OU=SALES,o=Lucent").unwrap();
        shouted.share_with(&parent);
        assert!(!shouted.rdns()[1].shares_storage(&parent.rdns()[0]));
        assert!(shouted.rdns()[2].shares_storage(&parent.rdns()[1]));
        assert_eq!(shouted.to_string(), "cn=b,OU=SALES,o=Lucent");
        assert_eq!(shouted.parent().unwrap(), parent);
    }

    #[test]
    fn rdn_parse_single() {
        let rdn = Rdn::parse("cn=John Doe").unwrap();
        assert_eq!(rdn.first().value(), "John Doe");
        assert!(Rdn::parse("cn=a,o=b").is_err());
    }
}
