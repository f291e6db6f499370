//! Attribute names and values, and the pools that share them.
//!
//! LDAP attribute names are case-insensitive; values here are directory
//! strings (the only syntax MetaComm's schema uses) compared with
//! `caseIgnoreMatch` unless the schema says otherwise.
//!
//! At million-entry scale the same few dozen attribute names appear in
//! every entry and every entry of a class repeats the class's `objectClass`
//! list. So both live in process-wide pools and an entry's attribute block
//! (`crate::block`) holds a 2-byte id for each: a name is an [`AttrName`]
//! the name pool holds, a class list a value section the class-list pool
//! holds. A pool member is found by key, every time an entry is written
//! with it: in the writing thread's table of recent lookups, or else under
//! the pool's lock. It is read by id without one, every time an entry is
//! read.
//!
//! Both pools are read-mostly, never free, and are fed from unauthenticated
//! sockets, so both are capped by count *and* by size: `POOL_CAP` members,
//! none longer than `POOLED_LEN_MAX` bytes (still correct, just not shared:
//! a block spells such a name out and lists such values one by one).

use crate::unpoison;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, LazyLock, OnceLock, RwLock};

pub use crate::block::{AttrValues, Attribute, NameRef, ValuesIter};

/// Case-insensitive attribute name: one pointer to a shared block that
/// keeps the display form as written and, only when it differs, the
/// lowercased form used for hashing and equality. Names built from a
/// string come from the pool, so a million entries holding
/// `telephoneNumber` all point at one block.
#[derive(Debug, Clone)]
pub struct AttrName(Arc<NameBlock>);

#[derive(Debug)]
struct NameBlock {
    display: Box<str>,
    /// `None` when `display` is already lowercase.
    lower: Option<Box<str>>,
    /// The pool's id, when this block is the pool's copy for its display
    /// form.
    id: Option<u16>,
}

impl AttrName {
    /// A name with a block of its own; [`AttrName::interned`] (and `From`)
    /// share the pool's.
    pub(crate) fn new(name: impl Into<String>) -> AttrName {
        AttrName::block(name.into(), None)
    }

    fn block(display: String, id: Option<u16>) -> AttrName {
        let lower = display
            .bytes()
            .any(|b| b.is_ascii_uppercase())
            .then(|| display.to_ascii_lowercase().into_boxed_str());
        AttrName(Arc::new(NameBlock {
            display: display.into_boxed_str(),
            lower,
            id,
        }))
    }

    /// The name as originally written.
    pub fn as_str(&self) -> &str {
        &self.0.display
    }

    /// Lowercased form used for matching.
    pub fn norm(&self) -> &str {
        self.0.lower.as_deref().unwrap_or(&self.0.display)
    }

    /// The pooled name for `name`; allocates only the first time a display
    /// form is seen, and takes no lock when the thread looked it up lately.
    /// The universe of attribute names is the schema's, not the data's, so
    /// the pool stays tiny — and the caps keep it so against an
    /// unauthenticated socket (a name it will not take gets its own block).
    pub(crate) fn interned(name: &str) -> AttrName {
        name_id(name).map_or_else(|| AttrName::new(name), |id| pooled_name(id).clone())
    }

    /// The name pool's id for this display form; `None` for a form the
    /// pool will not take.
    pub(crate) fn pool_id(&self) -> Option<u16> {
        self.0.id.or_else(|| name_id(self.as_str()))
    }
}

/// Members either pool will hold: distinct display forms, distinct lists.
pub(crate) const POOL_CAP: usize = 4096;

/// Longest name or value, in bytes, either pool will hold — the bound
/// [`with_lower`] calls too long for any real schema.
pub(crate) const POOLED_LEN_MAX: usize = 64;

/// Longest value list the class-list pool will hold.
pub(crate) const POOLED_LIST_MAX: usize = 16;

/// A process-wide pool: read-mostly and never freed. A member is looked up
/// by key under the lock (every entry written looks its names and class
/// list up, from every wire and restore worker at once) and read by id
/// with no lock at all (every entry read reads its names).
struct Pool<K: ?Sized + 'static, T: 'static> {
    members: [OnceLock<T>; POOL_CAP],
    /// Key to id; each key borrows its member.
    ids: LazyLock<RwLock<HashMap<&'static K, u16>>>,
}

impl<K: ?Sized + std::hash::Hash + Eq + Sync, T: Send + Sync> Pool<K, T> {
    const fn new() -> Pool<K, T> {
        Pool {
            members: [const { OnceLock::new() }; POOL_CAP],
            ids: LazyLock::new(|| RwLock::new(HashMap::new())),
        }
    }

    /// The member with id `id`.
    fn get(&'static self, id: u16) -> &'static T {
        self.members[usize::from(id)]
            .get()
            .expect("an id is handed out once its member is set")
    }

    /// The id of the member for `key`, made by `make` the first time the
    /// key is seen; `None` once the pool is full.
    fn id(
        &'static self,
        key: &K,
        make: impl FnOnce(u16) -> T,
        key_of: fn(&'static T) -> &'static K,
    ) -> Option<u16> {
        if let Some(&id) = unpoison(self.ids.read()).get(key) {
            return Some(id);
        }
        let mut ids = unpoison(self.ids.write());
        if let Some(&id) = ids.get(key) {
            return Some(id);
        }
        let id = u16::try_from(ids.len())
            .ok()
            .filter(|&id| usize::from(id) < POOL_CAP)?;
        let member = self.members[usize::from(id)].get_or_init(|| make(id));
        ids.insert(key_of(member), id);
        Some(id)
    }
}

/// Display form to the one block for it.
static NAME_POOL: Pool<str, AttrName> = Pool::new();

/// A class list's value section, exact spelling and order, to the one copy
/// of it.
static LIST_POOL: Pool<[u8], Box<[u8]>> = Pool::new();

/// The name pool's id for the display form `name`: from this thread's
/// recent lookups when it is one of them, from the pool otherwise.
fn name_id(name: &str) -> Option<u16> {
    if name.len() > POOLED_LEN_MAX {
        return None;
    }
    RECENT_NAMES.with(|recent| {
        recent.id(name.as_bytes(), || {
            let make = |id| AttrName::block(name.to_string(), Some(id));
            let id = NAME_POOL.id(name, make, |name| name.as_str())?;
            Some((pooled_name(id).as_str().as_bytes(), id))
        })
    })
}

/// Slots in a thread's table of recent pool lookups.
const RECENT: usize = 64;

/// A thread's most recent pool lookups, in a direct-mapped table: each
/// slot holds the key a pool member is filed under (the member's own
/// bytes, which the pool never frees) and its id. A hit costs a short hash
/// and one comparison, with no lock; a miss asks the pool and takes the
/// slot over.
struct Recent([Cell<Option<Filed>>; RECENT]);

/// A pool member's key and its id.
type Filed = (&'static [u8], u16);

impl Recent {
    const fn new() -> Recent {
        Recent([const { Cell::new(None) }; RECENT])
    }

    /// The id filed under `key`, from the table or else from `lookup`,
    /// which answers with the member's key and id.
    fn id(&self, key: &[u8], lookup: impl FnOnce() -> Option<Filed>) -> Option<u16> {
        // FNV-1a: a name or a class list is a few dozen bytes at most.
        let hash = (key.iter()).fold(0x811c_9dc5_u32, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        let slot = &self.0[hash as usize % RECENT];
        match slot.get() {
            Some((held, id)) if held == key => Some(id),
            _ => {
                let (held, id) = lookup()?;
                slot.set(Some((held, id)));
                Some(id)
            }
        }
    }
}

thread_local! {
    static RECENT_NAMES: Recent = const { Recent::new() };
    static RECENT_LISTS: Recent = const { Recent::new() };
}

/// The pooled name with id `id`.
pub(crate) fn pooled_name(id: u16) -> &'static AttrName {
    NAME_POOL.get(id)
}

/// The class-list pool's id for a list's value section, from this
/// thread's recent lookups when it is one of them.
pub(crate) fn list_pool_id(section: &[u8]) -> Option<u16> {
    RECENT_LISTS.with(|recent| {
        recent.id(section, || {
            let id = LIST_POOL.id(section, |_| Box::from(section), |list| list)?;
            Some((pooled_list(id), id))
        })
    })
}

/// The value section of the pooled class list `id`.
pub(crate) fn pooled_list(id: u16) -> &'static [u8] {
    LIST_POOL.get(id)
}

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.norm() == other.norm()
    }
}
impl Eq for AttrName {}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.norm().cmp(other.norm())
    }
}

impl std::hash::Hash for AttrName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.norm().hash(state);
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> AttrName {
        AttrName::interned(s)
    }
}
impl From<String> for AttrName {
    fn from(s: String) -> AttrName {
        AttrName::interned(&s)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Run `f` on the ASCII-lowercased form of `name` — the key every
/// name-keyed table in this crate is stored under. A name that is already
/// lowercase is passed through and a mixed-case one is folded on the
/// stack, so a lookup by name costs no heap `String`; only a name too long
/// for any real schema pays for one.
pub(crate) fn with_lower<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return f(name);
    }
    let mut buf = [0u8; POOLED_LEN_MAX];
    match buf.get_mut(..name.len()) {
        Some(folded) => {
            folded.copy_from_slice(name.as_bytes());
            folded.make_ascii_lowercase();
            f(std::str::from_utf8(folded).expect("ASCII folding keeps UTF-8 valid"))
        }
        None => f(&name.to_ascii_lowercase()),
    }
}

/// Case-insensitive value equality (`caseIgnoreMatch`): ignores case and
/// squeezes whitespace runs. Compares the two normalized forms as they are
/// produced, without building either; agrees with [`norm_value`] equality.
pub fn value_eq_ci(a: &str, b: &str) -> bool {
    // An ASCII character that is not a space, first in a value, is first
    // in its normalized form too: two values that start with two such
    // characters that differ in more than case differ.
    let first = |v: &str| (v.bytes().next()).filter(|&b| b.is_ascii() && !is_space(b));
    match (first(a), first(b)) {
        (Some(x), Some(y)) if !x.eq_ignore_ascii_case(&y) => false,
        _ => a == b || norm_cmp(a, b).is_eq(),
    }
}

/// The characters of [`norm_value`]`(v)`, one at a time: whitespace-separated
/// words, lowercased, one space between them.
fn norm_chars(v: &str) -> impl Iterator<Item = char> + '_ {
    v.split_whitespace().enumerate().flat_map(|(i, word)| {
        let gap = (i > 0).then_some(' ');
        gap.into_iter()
            .chain(word.chars().flat_map(char::to_lowercase))
    })
}

/// The UTF-8 bytes of [`norm_value`]`(v)`, one at a time and with no
/// buffer. Byte order is code-point order, so values order by their
/// normalized forms as these streams do.
pub(crate) fn norm_bytes(v: &str) -> impl Iterator<Item = u8> + '_ {
    norm_chars(v).flat_map(|c| {
        let mut buf = [0; 4];
        let len = c.encode_utf8(&mut buf).len();
        buf.into_iter().take(len)
    })
}

/// [`norm_bytes`]`(v)` handed to `f` in runs: for an ASCII value folded
/// a byte at a time into runs of up to 64 on the stack, for any other one
/// character of [`norm_chars`] at a time.
pub(crate) fn norm_each(v: &str, mut f: impl FnMut(&[u8])) {
    if !v.is_ascii() {
        return norm_chars(v).for_each(|c| f(c.encode_utf8(&mut [0; 4]).as_bytes()));
    }
    let mut run = [0u8; 64];
    let (mut len, mut started, mut gap) = (0, false, false);
    for &b in v.as_bytes() {
        if is_space(b) {
            gap = started;
            continue;
        }
        if len + 2 > run.len() {
            f(&run[..len]);
            len = 0;
        }
        if gap {
            run[len] = b' ';
            (len, gap) = (len + 1, false);
        }
        run[len] = b.to_ascii_lowercase();
        (len, started) = (len + 1, true);
    }
    f(&run[..len]);
}

/// How [`norm_value`]`(a)` and [`norm_value`]`(b)` order, worked out
/// without building either. Two ASCII values skip the bytes they start with
/// alike — those fold alike — and fold the rest a byte at a time; other
/// values compare [`norm_chars`].
fn norm_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    if !(a.is_ascii() && b.is_ascii()) {
        return norm_chars(a).cmp(norm_chars(b));
    }
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let alike = alike_prefix(a, b);
    AsciiFold::resume(a, alike).cmp(AsciiFold::resume(b, alike))
}

/// How many bytes `a` and `b` start with alike, compared eight at a time.
fn alike_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n && a[i..i + 8] == b[i..i + 8] {
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// What `char::is_whitespace` calls whitespace among the ASCII bytes.
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// [`norm_chars`] of an ASCII value, a byte at a time: each word's bytes
/// lowercased, and one space before every word but the first.
struct AsciiFold<'a> {
    /// What is left of the current word.
    word: &'a [u8],
    /// What follows it: nothing, or spaces and then the next words.
    rest: &'a [u8],
}

impl<'a> AsciiFold<'a> {
    /// The fold of `v` from its byte `at` on: what comes out of the fold
    /// of all of `v` once `v[..at]` has been read.
    fn resume(v: &'a [u8], at: usize) -> AsciiFold<'a> {
        let (read, rest) = v.split_at(at);
        match read.iter().rposition(|&b| !is_space(b)) {
            // Nothing but spaces read: no word yet, so no space is owed.
            None => {
                let (word, rest) = next_word(rest).unwrap_or_default();
                AsciiFold { word, rest }
            }
            // Inside a word: finish it. Past one: a space before the next.
            Some(last) if last + 1 == at => {
                let end = rest.iter().position(|&b| is_space(b)).unwrap_or(rest.len());
                let (word, rest) = rest.split_at(end);
                AsciiFold { word, rest }
            }
            Some(_) => AsciiFold { word: &[], rest },
        }
    }
}

/// The first word of `v` and what follows it; `None` when `v` is all
/// spaces.
fn next_word(v: &[u8]) -> Option<(&[u8], &[u8])> {
    let start = v.iter().position(|&b| !is_space(b))?;
    let v = &v[start..];
    Some(v.split_at(v.iter().position(|&b| is_space(b)).unwrap_or(v.len())))
}

impl Iterator for AsciiFold<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if let Some((&b, word)) = self.word.split_first() {
            self.word = word;
            return Some(b.to_ascii_lowercase());
        }
        (self.word, self.rest) = next_word(self.rest)?;
        Some(b' ')
    }
}

/// Normalized form of a directory-string value.
pub fn norm_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut last_space = true;
    for ch in v.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                out.extend(ch.to_lowercase());
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Index of the first value that repeats an earlier one under
/// `caseIgnoreMatch`. A short list is compared pairwise without a heap
/// `String`; a long one through a set of normalized forms.
pub(crate) fn repeated_value<S: AsRef<str>>(values: &[S]) -> Option<usize> {
    const PAIRWISE_MAX: usize = 16;
    let at = |i: usize| values[i].as_ref();
    if values.len() > PAIRWISE_MAX {
        let mut seen = HashSet::with_capacity(values.len());
        return (0..values.len()).position(|i| !seen.insert(norm_value(at(i))));
    }
    (1..values.len()).find(|&i| (0..i).any(|j| value_eq_ci(at(j), at(i))))
}

/// Longest value, in bytes, that a [`Value`] holds in its own slot.
const INLINE_MAX: usize = 22;

/// One RDN value: a string in 24 bytes that derefs to `str`.
///
/// A value of up to 22 bytes — a common name, an organizational unit —
/// lives in the slot itself, with no heap block behind
/// it; a longer one is an exactly-sized boxed `str`. Equality, ordering and
/// hashing are the string's, so a `Value` compares with a `str`, a `&str`
/// or a `String` as they compare with each other.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is UTF-8: [`Value::inline`], the one place that fills
    /// it, copies it whole from a `&str`.
    Inline {
        len: u8,
        buf: [u8; INLINE_MAX],
    },
    Heap(Box<str>),
}

impl Value {
    pub fn new(s: &str) -> Value {
        Value::inline(s).unwrap_or_else(|| Value(Repr::Heap(Box::from(s))))
    }

    /// `s` in the slot itself; `None` when it is too long for it.
    fn inline(s: &str) -> Option<Value> {
        let mut buf = [0u8; INLINE_MAX];
        buf.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        let len = u8::try_from(s.len()).expect("at most INLINE_MAX bytes");
        Some(Value(Repr::Inline { len, buf }))
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                let bytes = &buf[..usize::from(*len)];
                // SAFETY: `Repr` is private to this module and `inline` is
                // the only code that builds an `Inline` (a clone copies one
                // whole); it copies all of a `&str`'s bytes, and `len` is
                // that string's length, so `bytes` is valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }

    /// Bytes of the heap block behind this value; 0 for one held in its
    /// slot.
    pub(crate) fn heap_len(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(s) => s.len(),
        }
    }
}

impl std::ops::Deref for Value {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Value {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::new(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::new(s)
    }
}

impl From<String> for Value {
    /// Takes the string's block over when it is exactly sized: a block with
    /// spare capacity would be shrunk in place and keep its larger chunk.
    fn from(s: String) -> Value {
        match Value::inline(&s) {
            Some(v) => v,
            None if s.len() == s.capacity() => Value(Repr::Heap(s.into_boxed_str())),
            None => Value(Repr::Heap(Box::from(s.as_str()))),
        }
    }
}

impl From<std::borrow::Cow<'_, str>> for Value {
    fn from(s: std::borrow::Cow<'_, str>) -> Value {
        match s {
            std::borrow::Cow::Borrowed(s) => Value::new(s),
            std::borrow::Cow::Owned(s) => Value::from(s),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// `Value == str`, `Value == &str`, `Value == String` and each the other
/// way round.
macro_rules! eq_as_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Value {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }
        impl PartialEq<Value> for $other {
            fn eq(&self, other: &Value) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}
eq_as_str!(str, &str, String);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_case_insensitive() {
        assert_eq!(
            AttrName::new("telephoneNumber"),
            AttrName::new("TELEPHONENUMBER")
        );
        assert_eq!(AttrName::new("cn").norm(), "cn");
        assert_eq!(AttrName::new("CN").as_str(), "CN");
    }

    #[test]
    fn name_ordering_is_normalized() {
        let mut names = [
            AttrName::new("SN"),
            AttrName::new("cn"),
            AttrName::new("OU"),
        ];
        names.sort();
        let order: Vec<&str> = names.iter().map(|n| n.norm()).collect();
        assert_eq!(order, vec!["cn", "ou", "sn"]);
    }

    #[test]
    fn a_name_is_one_pointer_and_an_rdn_value_24_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<AttrName>(), 8);
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn a_value_of_up_to_22_bytes_lives_in_its_slot() {
        for (text, inline) in [
            ("", true),
            ("+1 908 582 9000", true),
            ("Fiona Fitzgerald 000123", false),
            ("x".repeat(INLINE_MAX).as_str(), true),
            ("x".repeat(INLINE_MAX + 1).as_str(), false),
            // 21 ASCII bytes and a two-byte character: 23 bytes.
            (format!("{}é", "x".repeat(21)).as_str(), false),
        ] {
            for v in [Value::new(text), Value::from(text.to_string())] {
                assert_eq!(v, text);
                assert_eq!(v.heap_len() == 0, inline, "{text:?}");
                assert_eq!(v.heap_len(), if inline { 0 } else { text.len() });
            }
        }
        // A string with spare capacity is not kept as it is.
        let mut spare = String::with_capacity(64);
        spare.push_str(&"y".repeat(30));
        assert_eq!(Value::from(spare).heap_len(), 30);
    }

    #[test]
    fn interning_dedups_allocations() {
        let (a, b) = (
            AttrName::new("telephoneNumber"),
            AttrName::new("telephoneNumber"),
        );
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        // Names built from a string ask the pool first, and the pool's id
        // leads back to the very block.
        let pooled = AttrName::from("telephoneNumber");
        assert!(Arc::ptr_eq(
            &pooled.0,
            &AttrName::interned("telephoneNumber").0
        ));
        let id = a.pool_id().expect("pooled");
        assert_eq!((b.pool_id(), pooled.pool_id()), (Some(id), Some(id)));
        assert!(Arc::ptr_eq(&pooled_name(id).0, &pooled.0));
        // Display forms are preserved exactly; a different casing is a
        // different pool entry (both still equal under CI matching).
        let c = AttrName::from("TELEPHONENUMBER");
        assert_ne!(c.pool_id(), Some(id));
        assert_eq!(a, c);
        assert_eq!(c.as_str(), "TELEPHONENUMBER");
        assert_eq!(c.norm(), "telephonenumber");
    }

    #[test]
    fn a_name_too_long_for_any_schema_is_never_pooled() {
        let long = "x".repeat(POOLED_LEN_MAX + 1);
        let (a, b) = (AttrName::interned(&long), AttrName::from(long.as_str()));
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!((a.pool_id(), b.pool_id()), (None, None));
        assert_eq!(a, b);
        let fits = &long[1..];
        assert!(Arc::ptr_eq(
            &AttrName::interned(fits).0,
            &AttrName::interned(fits).0
        ));
    }

    #[test]
    fn value_ci_matching() {
        assert!(value_eq_ci("John  Doe", "john doe"));
        assert!(value_eq_ci(" John Doe ", "JOHN DOE"));
        assert!(!value_eq_ci("John", "Johnny"));
    }

    #[test]
    fn folding_as_it_reads_agrees_with_norm_value() {
        let values = [
            "",
            "   ",
            "a",
            "A",
            "ab",
            " John \t\x0b Doe\r\n",
            "john doe",
            "John  Doe ",
            "john doe,",
            "john do",
            "a  b",
            "a b",
            "a  c",
            "a c",
            "ab c",
            " a",
            "dept-017",
            "MIXED  case  ",
            " Café  AU  Lait ",
            "café au lait",
            "\u{2003}Ünïcode\u{00a0}\u{00a0}spaces\u{3000}",
            "\u{212a}elvin and \u{130}",
        ];
        for v in values {
            let mut pushed = Vec::new();
            norm_each(v, |run| pushed.extend_from_slice(run));
            assert_eq!(String::from_utf8(pushed).unwrap(), norm_value(v), "{v:?}");
            let pulled: Vec<u8> = norm_bytes(v).collect();
            assert_eq!(String::from_utf8(pulled).unwrap(), norm_value(v), "{v:?}");
        }
        for a in values {
            for b in values {
                let expected = norm_value(a).cmp(&norm_value(b));
                assert_eq!(norm_cmp(a, b), expected, "{a:?} {b:?}");
                assert_eq!(value_eq_ci(a, b), norm_value(a) == norm_value(b));
            }
        }
    }

    #[test]
    fn a_repeated_value_is_found_pairwise_and_hashed_alike() {
        let strings = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert_eq!(
            repeated_value(&["Murray Hill", "x", "murray  hill"]),
            Some(2)
        );
        let mut many: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        assert_eq!(repeated_value(&many), None);
        many.push("V7".into());
        assert_eq!(repeated_value(&many), Some(40));
        assert_eq!(repeated_value(&many[5..]), Some(35));
        assert_eq!(repeated_value(&strings(&["a", "b", "B", "a"])), Some(2));
    }

    proptest::proptest! {
        /// A value reads, compares, orders and hashes as the string it was
        /// built from, whichever side of the slot's 22 bytes it falls on.
        #[test]
        fn a_value_is_its_string(
            a in (0usize..=20, "[aZ0 é€😀]{0,5}"),
            b in (0usize..=20, "[aZ0 é€😀]{0,5}"),
        ) {
            let text = |(n, tail): (usize, String)| "k".repeat(n) + &tail;
            let (a, b) = (text(a), text(b));
            let (va, vb) = (Value::new(&a), Value::from(b.clone()));
            proptest::prop_assert_eq!(va.as_str(), a.as_str());
            proptest::prop_assert_eq!(vb.as_str(), b.as_str());
            proptest::prop_assert_eq!(va.heap_len() == 0, a.len() <= INLINE_MAX);
            proptest::prop_assert_eq!(va == vb, a == b);
            proptest::prop_assert_eq!(va == b, a == b);
            proptest::prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
            use std::hash::BuildHasher;
            let state = std::hash::RandomState::new();
            proptest::prop_assert_eq!(state.hash_one(&va), state.hash_one(&a));
            proptest::prop_assert_eq!(state.hash_one(&vb), state.hash_one(b.as_str()));
        }
    }
}
