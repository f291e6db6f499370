//! Distinguished names (RFC 2253).
//!
//! A [`Dn`] is a sequence of [`Rdn`]s ordered leaf-first (LDAP order: the
//! string `cn=John Doe, o=Marketing, o=Lucent` names an entry whose parent is
//! `o=Marketing, o=Lucent`). Each RDN is one or more attribute/value pairs
//! ([`Ava`]); multi-AVA RDNs are joined with `+`.
//!
//! A name is a chain: one shared block holds the leaf RDN and the parent's
//! name, so a name shares its ancestors with every name built on it.
//! [`Dn::parent`] copies a pointer, [`Dn::child`] allocates one block, and
//! the store points each entry's parent link at its parent entry's own name.
//! A chain is as deep as a request makes it, so everything that walks one —
//! dropping, comparing, hashing, printing — loops and never recurses.
//!
//! Matching is case-insensitive on both attribute names and values and
//! insensitive to insignificant whitespace, which matches the
//! `caseIgnoreMatch` behaviour of the directory-string syntax that all
//! MetaComm naming attributes use. No normalized copy is kept: matching,
//! hashing and ordering fold each value as they read it.

#![forbid(unsafe_code)]

use crate::attr::{is_space, norm_bytes, norm_each, value_eq_ci, AttrName, Value};
use crate::error::{LdapError, Result};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One attribute/value pair inside an RDN, e.g. `cn=John Doe`.
///
/// At rest an AVA is an interned attribute type (one pointer into the
/// [`AttrName`] pool) and the value as written, a [`Value`], so a value of
/// up to 22 bytes costs no heap block of its own.
#[derive(Debug, Clone)]
pub struct Ava {
    /// Attribute type: display form as written, lowercased form for
    /// matching.
    attr: AttrName,
    /// Attribute value exactly as written (unescaped).
    value: Value,
}

impl Ava {
    pub fn new(attr: impl AsRef<str>, value: impl Into<Value>) -> Ava {
        Ava {
            attr: AttrName::interned(attr.as_ref().trim()),
            value: value.into(),
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

    fn matches(&self, other: &Ava) -> bool {
        self.norm_attr() == other.norm_attr() && value_eq_ci(&self.value, &other.value)
    }

    /// What equality, ordering and hashing look at: an `Ava` compares as
    /// written (the normalized forms follow from that), unlike an [`Rdn`],
    /// which compares as matched.
    fn as_written(&self) -> (&str, &str) {
        (self.attr(), self.value())
    }

    /// `attr=value` as [`Dn::norm_key`] spells it: both normalized, and a
    /// `\` before every `,`, `+` and `\` inside the value.
    fn key_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let escaped = |b: u8| is_key_special(b).then_some(b'\\').into_iter().chain([b]);
        (self.norm_attr().bytes())
            .chain([b'='])
            .chain(norm_bytes(&self.value).flat_map(escaped))
    }

    /// How [`Ava::key_bytes`] followed by `tail` orders against `key`,
    /// folded a byte at a time up to the first byte that differs; `None`
    /// when an ASCII fold cannot tell, because a character outside ASCII
    /// comes first.
    fn cmp_key(&self, tail: Option<u8>, key: &[u8]) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let mut at = 0;
        // The next byte of this AVA's key against the next one of `key`;
        // `Some` once they differ.
        let mut differs = |b: u8| match key.get(at) {
            None => Some(Greater),
            Some(k) if *k == b => {
                at += 1;
                None
            }
            Some(k) => Some(b.cmp(k)),
        };
        let head = self.norm_attr().bytes().chain([b'=']);
        if let Some(ord) = head.into_iter().find_map(&mut differs) {
            return Some(ord);
        }
        let (mut started, mut gap) = (false, false);
        for &b in self.value.as_bytes() {
            if !b.is_ascii() {
                return None;
            }
            if is_space(b) {
                gap = started;
                continue;
            }
            let space = gap.then_some(b' ');
            let escape = is_key_special(b).then_some(b'\\');
            let folded = space
                .into_iter()
                .chain(escape)
                .chain([b.to_ascii_lowercase()]);
            if let Some(ord) = folded.into_iter().find_map(&mut differs) {
                return Some(ord);
            }
            (started, gap) = (true, false);
        }
        if let Some(ord) = tail.and_then(&mut differs) {
            return Some(ord);
        }
        Some(if at < key.len() { Less } else { Equal })
    }

    /// [`Ava::key_bytes`] handed to `push` in runs: what hashing and
    /// [`Dn::norm_key`] spell.
    fn spell_key(&self, push: &mut impl FnMut(&[u8])) {
        push(self.norm_attr().as_bytes());
        push(b"=");
        norm_each(&self.value, |run| {
            if !run.iter().any(|&b| is_key_special(b)) {
                return push(run);
            }
            for b in run {
                if is_key_special(*b) {
                    push(b"\\");
                }
                push(std::slice::from_ref(b));
            }
        });
    }
}

/// A byte a key escapes inside a value.
fn is_key_special(b: u8) -> bool {
    matches!(b, b',' | b'+' | b'\\')
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

impl Hash for Ava {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_written().hash(state);
    }
}

/// A relative distinguished name: one or more AVAs (`cn=J+ou=Sales`).
///
/// Invariant: at least one AVA; AVAs are kept sorted by normalized attribute
/// name so equality is order-insensitive, per X.501.
///
/// An RDN is a plain 32-byte value: its one AVA in place (the common case,
/// `cn=John Doe`), or an exactly-sized slice of them. A name holds it in
/// its chain block, so the RDNs above an entry are its ancestors' own.
#[derive(Debug, Clone)]
pub struct Rdn(RdnRepr);

#[derive(Debug, Clone)]
enum RdnRepr {
    One(Ava),
    Many(Box<[Ava]>),
}

impl Rdn {
    /// Single-AVA RDN, the common case (`cn=John Doe`).
    pub fn new(attr: impl AsRef<str>, value: impl Into<Value>) -> Rdn {
        Rdn(RdnRepr::One(Ava::new(attr, value)))
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
        Ok(Rdn(repr))
    }

    pub fn avas(&self) -> &[Ava] {
        match &self.0 {
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
        match Dn::parse(s)?.0.as_deref() {
            Some(link) if link.parent.is_root() => Ok(link.rdn.clone()),
            _ => Err(LdapError::invalid_dn(format!(
                "expected a single RDN, got `{s}`"
            ))),
        }
    }

    /// This RDN as [`Dn::norm_key`] spells it, a byte at a time:
    /// `attr=value` per AVA, both normalized, `+` between AVAs, and a `\`
    /// before every `,`, `+` and `\` inside a value — so no two distinct
    /// RDNs, and no RDN and a run of several, spell alike.
    pub(crate) fn key_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.avas().iter().enumerate().flat_map(|(i, ava)| {
            let plus = (i > 0).then_some(b'+');
            plus.into_iter().chain(ava.key_bytes())
        })
    }

    /// [`Rdn::key_bytes`] handed to `push` in runs.
    fn spell_key(&self, push: &mut impl FnMut(&[u8])) {
        for (i, ava) in self.avas().iter().enumerate() {
            if i > 0 {
                push(b"+");
            }
            ava.spell_key(push);
        }
    }

    /// Run `f` on [`Rdn::key_bytes`] followed by `tail`, spelled once: on
    /// the stack, or for a key longer than 256 bytes in a heap buffer.
    pub(crate) fn with_key<R>(&self, tail: Option<u8>, f: impl FnOnce(&[u8]) -> R) -> R {
        let (mut stack, mut len, mut heap) = ([0u8; 256], 0, Vec::new());
        let mut push = |run: &[u8]| match stack.get_mut(len..len + run.len()) {
            Some(room) if heap.is_empty() => {
                room.copy_from_slice(run);
                len += run.len();
            }
            _ => {
                if heap.is_empty() {
                    heap.extend_from_slice(&stack[..len]);
                }
                heap.extend_from_slice(run);
            }
        };
        self.spell_key(&mut push);
        if let Some(tail) = tail {
            push(&[tail]);
        }
        match heap.is_empty() {
            true => f(&stack[..len]),
            false => f(&heap),
        }
    }

    /// How [`Rdn::key_bytes`] followed by `tail` orders against `key`, a
    /// key spelled by [`Rdn::with_key`]. One AVA is folded a byte at a time
    /// and compared as it is folded, up to the first byte that differs
    /// (most often one of the value's first few); a character outside ASCII
    /// or a second AVA sends the comparison through [`Rdn::key_bytes`].
    pub(crate) fn cmp_key(&self, tail: Option<u8>, key: &[u8]) -> std::cmp::Ordering {
        let folded = match self.avas() {
            [ava] => ava.cmp_key(tail, key),
            _ => None,
        };
        folded.unwrap_or_else(|| (self.key_bytes().chain(tail)).cmp(key.iter().copied()))
    }

    /// This RDN as RFC 2253 text, what `Display` shows, written onto `w`.
    pub(crate) fn write_text<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        for (i, ava) in self.avas().iter().enumerate() {
            if i > 0 {
                w.write_str("+")?;
            }
            w.write_str(ava.attr())?;
            w.write_str("=")?;
            write_escaped(w, ava.value())?;
        }
        Ok(())
    }

    /// Heap bytes behind this RDN as requested from the allocator, one
    /// figure per allocation (the slice of a multi-AVA RDN, then each value
    /// too long for its slot, 0 for one that is not); interned attribute
    /// types are the pool's, not the RDN's.
    pub(crate) fn heap_blocks(&self, mut block: impl FnMut(usize)) {
        if let RdnRepr::Many(avas) = &self.0 {
            block(std::mem::size_of_val(&**avas));
        }
        for ava in self.avas() {
            block(ava.value.heap_len());
        }
    }
}

impl PartialEq for Rdn {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.avas(), other.avas());
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.matches(y))
    }
}
impl Eq for Rdn {}

impl Hash for Rdn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut runs = Runs::new(state);
        self.spell_key(&mut |run| runs.push(run));
        runs.finish();
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

/// A key on its way into a hasher: gathered into runs of 64 bytes, each
/// fed whole, and an end marker after the last. What the hasher sees is
/// fixed by the key's bytes alone, however they were produced, so equal
/// keys hash alike under any hasher.
struct Runs<'h, H> {
    state: &'h mut H,
    run: [u8; 64],
    len: usize,
}

impl<'h, H: Hasher> Runs<'h, H> {
    fn new(state: &'h mut H) -> Self {
        Runs {
            state,
            run: [0; 64],
            len: 0,
        }
    }

    fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.len >= self.run.len() {
                self.state.write(&self.run);
                self.len = 0;
            }
            let n = bytes.len().min(self.run.len() - self.len);
            self.run[self.len..self.len + n].copy_from_slice(&bytes[..n]);
            (self.len, bytes) = (self.len + n, &bytes[n..]);
        }
    }

    fn finish(self) {
        self.state.write(&self.run[..self.len]);
        self.state.write_u8(0xff);
    }
}

/// A distinguished name: RDNs ordered leaf-first, as a chain of shared
/// blocks. The empty DN (no block) names the root of the DIT.
///
/// Equality, hashing and [`Dn::norm_key`] read the names as matched, and
/// two names that are one block are equal without reading them.
#[derive(Clone, Default)]
pub struct Dn(Option<Arc<Link>>);

/// One block of a chain: a name's leaf RDN and its parent's name, 40 bytes
/// (56 with the reference counts).
struct Link {
    rdn: Rdn,
    parent: Dn,
}

impl Drop for Link {
    /// Release the ancestors this block held the last reference to one at
    /// a time, so no name is too deep to drop.
    fn drop(&mut self) {
        let mut next = self.parent.0.take();
        while let Some(mut link) = next.take().and_then(Arc::into_inner) {
            next = link.parent.0.take();
        }
    }
}

impl Dn {
    /// The empty DN (the DIT root).
    pub fn root() -> Dn {
        Dn::default()
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
        // The RDNs leaf-first as they are read; the chain is built from the
        // root down once all are in.
        let mut rdns = Vec::with_capacity(1 + count_rdn_separators(s));
        // Scratch reused across AVAs: what the DN keeps is cut to size from
        // these.
        let mut avas: Vec<Ava> = Vec::new();
        let mut attr = String::new();
        let mut value = String::new();
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
            avas.push(Ava::new(attr, Value::new(&value)));
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
        Ok(rdns
            .into_iter()
            .rev()
            .fold(Dn::root(), |dn, rdn| dn.child(rdn)))
    }

    /// The blocks of the chain, leaf first.
    fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        std::iter::successors(self.0.as_deref(), |link| link.parent.0.as_deref())
    }

    /// RDNs leaf-first.
    pub fn rdns(&self) -> impl Iterator<Item = &Rdn> + '_ {
        self.links().map(|link| &link.rdn)
    }

    /// Number of RDNs. The root has depth 0.
    pub fn depth(&self) -> usize {
        self.links().count()
    }

    pub fn is_root(&self) -> bool {
        self.0.is_none()
    }

    /// Leaf RDN, or `None` for the root.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.0.as_ref().map(|link| &link.rdn)
    }

    /// Parent DN, or `None` for the root: the block this name points at,
    /// shared.
    pub fn parent(&self) -> Option<Dn> {
        self.0.as_ref().map(|link| link.parent.clone())
    }

    /// A child of `self` named by `rdn`: one block, on top of `self`'s.
    pub fn child(&self, rdn: Rdn) -> Dn {
        Dn(Some(Arc::new(Link {
            rdn,
            parent: self.clone(),
        })))
    }

    /// `true` when `self` equals `ancestor` or lies underneath it.
    pub fn is_within(&self, ancestor: &Dn) -> bool {
        let Some(below) = self.depth().checked_sub(ancestor.depth()) else {
            return false;
        };
        let mut at = self;
        for _ in 0..below {
            at = &at.0.as_ref().expect("deeper than the ancestor").parent;
        }
        at == ancestor
    }

    /// Replace the leaf RDN (the LDAP ModifyRDN operation on names).
    pub fn with_rdn(&self, rdn: Rdn) -> Result<Dn> {
        match &self.0 {
            Some(link) => Ok(link.parent.child(rdn)),
            None => Err(LdapError::invalid_dn("root has no RDN to replace")),
        }
    }

    /// `true` when both are the same block (or both the root) — what the
    /// store arranges for an entry's parent link and its parent entry's
    /// name.
    pub fn shares_storage(&self, other: &Dn) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Point this name's parent link at `parent` when the parent is
    /// written exactly as `parent` is: in place when this block is not
    /// shared, or as one new block when it is. With `parent` the parent
    /// entry's name this is what the store does to each entry it takes in,
    /// so an ancestor is held once per subtree; with a neighbour's parent
    /// it is how a reader keeps one copy per batch. A parent a client wrote
    /// in another case or spacing keeps its own chain, and its bytes.
    pub(crate) fn share_parent(&mut self, parent: &Dn) {
        let Some(link) = &mut self.0 else { return };
        // Same RDNs, written alike, at every level.
        let written_as = |a: &Rdn, b: &Rdn| a.avas() == b.avas();
        if link.parent.shares_storage(parent) || !link.parent.agrees(parent, written_as) {
            return;
        }
        match Arc::get_mut(link) {
            Some(mine) => mine.parent = parent.clone(),
            None => *self = parent.child(link.rdn.clone()),
        }
    }

    /// Heap bytes behind this name as requested from the allocator, one
    /// figure per allocation: the block that ends it, and above it each
    /// block that is not `parent`'s at the same height, each with its
    /// RDN's [`Rdn::heap_blocks`]. With `parent` the parent entry's name
    /// that is what this entry holds of its own.
    pub(crate) fn heap_blocks(&self, parent: &Dn, mut block: impl FnMut(usize)) {
        let Some(leaf) = &self.0 else { return };
        let mut own = |link: &Link| {
            block(2 * std::mem::size_of::<usize>() + std::mem::size_of::<Link>());
            link.rdn.heap_blocks(&mut block);
        };
        own(leaf);
        let (mut mine, mut theirs) = (&leaf.parent, parent);
        while let Some(link) = mine.0.as_deref() {
            if mine.shares_storage(theirs) {
                return;
            }
            own(link);
            mine = &link.parent;
            theirs = theirs.0.as_ref().map_or(theirs, |t| &t.parent);
        }
    }

    /// `true` when both names are as deep and `same` holds for the RDNs
    /// at every level, walked leaf first; a block both names share holds
    /// the same RDNs to the root.
    fn agrees(&self, other: &Dn, same: impl Fn(&Rdn, &Rdn) -> bool) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            match (&a.0, &b.0) {
                (Some(x), Some(y)) if Arc::ptr_eq(x, y) => return true,
                (Some(x), Some(y)) if same(&x.rdn, &y.rdn) => (a, b) = (&x.parent, &y.parent),
                (x, y) => return x.is_none() && y.is_none(),
            }
        }
    }

    /// This name's key handed to `push` in runs: its RDNs' keys, leaf
    /// first, `,` between them.
    fn spell_key(&self, push: &mut impl FnMut(&[u8])) {
        for (i, rdn) in self.rdns().enumerate() {
            if i > 0 {
                push(b",");
            }
            rdn.spell_key(push);
        }
    }

    /// This name as RFC 2253 text, what `Display` shows, written onto `w`
    /// a string at a time.
    pub(crate) fn write_text<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        for (i, rdn) in self.rdns().enumerate() {
            if i > 0 {
                w.write_str(",")?;
            }
            rdn.write_text(w)?;
        }
        Ok(())
    }

    /// Canonical normalized string: `attr=value` per AVA, both normalized,
    /// `+` between AVAs, `,` between RDNs, and a `\` before every `,`, `+`
    /// and `\` inside a value — so it is equal for two names exactly when
    /// the names are equal, and orders siblings as the directory serves
    /// them.
    pub fn norm_key(&self) -> String {
        let written: usize = (self.rdns().flat_map(Rdn::avas))
            .map(|a| a.norm_attr().len() + a.value().len() + 2)
            .sum();
        let mut out = Vec::with_capacity(written);
        self.spell_key(&mut |run| out.extend_from_slice(run));
        String::from_utf8(out).expect("folding keeps UTF-8, an escape is an ASCII byte")
    }
}

impl PartialEq for Dn {
    fn eq(&self, other: &Self) -> bool {
        self.agrees(other, Rdn::eq)
    }
}
impl Eq for Dn {}

/// The bytes of [`Dn::norm_key`], so equal names hash alike and a parent's
/// hash is the hash of the name's parent chain.
impl Hash for Dn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut runs = Runs::new(state);
        self.spell_key(&mut |run| runs.push(run));
        runs.finish();
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

impl fmt::Debug for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dn({:?})", self.to_string())
    }
}

impl std::str::FromStr for Dn {
    type Err = LdapError;
    fn from_str(s: &str) -> Result<Dn> {
        Dn::parse(s)
    }
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
fn write_escaped<W: fmt::Write>(f: &mut W, v: &str) -> fmt::Result {
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
    fn an_ava_compares_as_written_and_an_rdn_as_matched() {
        let mixed = Ava::new("CN", "John   Doe");
        assert_eq!((mixed.attr(), mixed.norm_attr()), ("CN", "cn"));
        assert_eq!(mixed.value(), "John   Doe");
        assert_ne!(Ava::new("cn", "John Doe"), Ava::new("CN", "john doe"));
        assert_eq!(Rdn::new("cn", "John Doe"), Rdn::new("CN", "john doe"));
        assert_eq!(
            Rdn::new("cn", " Café  AU lait"),
            Rdn::new("cn", "café au LAIT ")
        );
        assert_ne!(Rdn::new("cn", "a b"), Rdn::new("cn", "ab"));
    }

    #[test]
    fn an_rdn_is_32_bytes_and_a_chain_block_40() {
        assert_eq!(std::mem::size_of::<Ava>(), 32);
        assert_eq!(std::mem::size_of::<Rdn>(), 32);
        assert_eq!(std::mem::size_of::<Link>(), 40);
        assert_eq!(std::mem::size_of::<Dn>(), 8);
    }

    #[test]
    fn a_name_shares_its_ancestors_block() {
        let parent = Dn::parse("ou=Sales,o=Lucent").unwrap();
        let child = parent.child(Rdn::new("cn", "a"));
        assert!(child.parent().unwrap().shares_storage(&parent));
        assert!(child.is_within(&parent));
        let renamed = child.with_rdn(Rdn::new("cn", "b")).unwrap();
        assert!(renamed.parent().unwrap().shares_storage(&parent));
        assert!(Dn::root().shares_storage(&Dn::root()));
        assert!(!parent.shares_storage(&Dn::parse("ou=Sales,o=Lucent").unwrap()));
    }

    #[test]
    fn share_parent_repoints_equal_text_and_keeps_other_spellings() {
        let parent = Dn::parse("ou=Sales,o=Lucent").unwrap();
        let mut same = Dn::parse("cn=a,ou=Sales,o=Lucent").unwrap();
        same.share_parent(&parent);
        assert!(same.parent().unwrap().shares_storage(&parent));
        // A block someone else holds too is left to them: the name gets a
        // block of its own on top of `parent`.
        let mut held = Dn::parse("cn=b,ou=Sales,o=Lucent").unwrap();
        let other = held.clone();
        held.share_parent(&parent);
        assert!(held.parent().unwrap().shares_storage(&parent));
        assert!(!other.parent().unwrap().shares_storage(&parent));
        assert_eq!(held, other);

        let mut shouted = Dn::parse("cn=c,OU=SALES,o=Lucent").unwrap();
        shouted.share_parent(&parent);
        assert!(!shouted.parent().unwrap().shares_storage(&parent));
        assert_eq!(shouted.to_string(), "cn=c,OU=SALES,o=Lucent");
        assert_eq!(shouted.parent().unwrap(), parent);
    }

    #[test]
    fn equal_names_hash_alike_and_keys_agree() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        let long = "x".repeat(150);
        for (a, b) in [
            ("CN=John   Doe,O=Lucent", "cn=john doe, o=lucent"),
            ("cn=Caf\\C3\\A9 AU LAIT,o=x", "cn=café  au lait,o=x"),
            (&format!("cn={long} A,o=x"), &format!("cn={long}  a,o=X")),
            ("cn=a\\,b+sn=Q,o=x", "SN=q+cn=A\\,B,o=x"),
        ] {
            let (a, b) = (Dn::parse(a).unwrap(), Dn::parse(b).unwrap());
            assert_eq!(a, b);
            assert_eq!(a.norm_key(), b.norm_key());
            assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b), "{a} / {b}");
            // The key sibling order reads is the key a name spells.
            let leaf = a.rdn().unwrap();
            let key: Vec<u8> = leaf.key_bytes().collect();
            assert_eq!(key, Dn::root().child(leaf.clone()).norm_key().into_bytes());
            assert_eq!(hasher.hash_one(leaf), hasher.hash_one(b.rdn().unwrap()));
        }
    }

    #[test]
    fn a_name_of_any_depth_drops_hashes_compares_and_prints_without_recursion() {
        const DEPTH: usize = 250_000;
        let worker = std::thread::Builder::new().stack_size(256 * 1024);
        let run = move || {
            use std::hash::BuildHasher;
            let text = "a=b,".repeat(DEPTH - 1) + "a=b";
            let dn = Dn::parse(&text).unwrap();
            assert_eq!(dn.depth(), DEPTH);
            let hasher = std::collections::hash_map::RandomState::new();
            let copy = Dn::parse(&text).unwrap();
            assert_eq!(hasher.hash_one(&dn), hasher.hash_one(&copy));
            assert_eq!(dn, copy);
            assert_eq!(dn, dn.clone());
            let differs = Dn::parse(&("a=b,".repeat(DEPTH - 1) + "a=c")).unwrap();
            assert_ne!(dn, differs);
            assert!(dn.is_within(&copy.parent().unwrap()));
            assert_eq!(dn.norm_key().len(), text.len());
            assert_eq!(dn.to_string(), text);
            drop((dn, copy, differs));
        };
        worker.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn a_key_spelled_once_orders_as_the_keys_do() {
        let rdns: Vec<Rdn> = [
            "cn=a",
            "cn=A",
            "cn=ab",
            "cn=a b",
            "cn=a  b",
            "cn= a",
            "cn=a\\,b",
            "cn=a\\+b",
            "cn=a\\\\b",
            "cn=a\\,",
            "cn=Café",
            "cn=cafe",
            "cn=ß",
            "cn=\\C4\\B0x",
            "cn=a\tb",
            "CN=b",
            "ou=a",
            "o=a",
            "cn=a+ou=b",
            "cn=a+ou=a",
            "uid=x+cn=a",
            "cn=",
            "cn=a\u{a0}b",
            "cn=Doe\\, John",
            "cn=doe\\,john",
        ]
        .iter()
        .map(|text| match Dn::parse(text) {
            Ok(dn) => dn.rdn().expect("one RDN").clone(),
            Err(_) => Rdn::new("cn", text.split_once('=').unwrap().1),
        })
        .collect();
        for a in &rdns {
            for b in &rdns {
                for tail in [None, Some(b',')] {
                    let want = (a.key_bytes().chain(tail)).cmp(b.key_bytes().chain(tail));
                    let got = b.with_key(tail, |key| a.cmp_key(tail, key));
                    assert_eq!(got, want, "{a} against {b} with {tail:?}");
                }
            }
            for tail in [None, Some(b',')] {
                let spelled: Vec<u8> = a.key_bytes().chain(tail).collect();
                a.with_key(tail, |key| assert_eq!(key, spelled));
            }
        }
        let long = Rdn::new("cn", "x".repeat(300));
        long.with_key(None, |key| assert_eq!(key.len(), 303));
        assert!(long.with_key(None, |key| long.cmp_key(None, key)).is_eq());
    }

    #[test]
    fn rdn_parse_single() {
        let rdn = Rdn::parse("cn=John Doe").unwrap();
        assert_eq!(rdn.first().value(), "John Doe");
        assert!(Rdn::parse("cn=a,o=b").is_err());
    }
}
