//! Attribute names and multi-valued attribute bags.
//!
//! LDAP attribute names are case-insensitive; values here are directory
//! strings (the only syntax MetaComm's schema uses) compared with
//! `caseIgnoreMatch` unless the schema says otherwise.
//!
//! At million-entry scale the same few dozen attribute names appear in
//! every entry, most attributes hold exactly one value, most values are
//! short, and every entry of a class repeats the class's `objectClass`
//! list. So an [`Attribute`] at rest is a 32-byte slot: the name is one
//! pointer to a block the whole process shares through a pool
//! (`AttrName::interned`), and the [`Values`] bag is 24 bytes — one
//! [`Value`], an exactly-sized boxed slice of them, or a pointer to the one
//! copy of a class list (`Values::share`). A [`Value`] of up to 22 bytes
//! lives in the slot itself, so a typical entry's values cost no heap block
//! at all.
//!
//! Both pools are read-mostly, never free, and are fed from unauthenticated
//! sockets, so both are capped by count *and* by size: `POOL_CAP` members,
//! none longer than `POOLED_LEN_MAX` bytes (still correct, just not shared).

use crate::unpoison;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, LazyLock, RwLock};

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
    /// This block is the pool's copy for its display form.
    pooled: bool,
}

impl AttrName {
    /// A name with a block of its own; [`AttrName::interned`] (and `From`)
    /// share the pool's.
    pub(crate) fn new(name: impl Into<String>) -> AttrName {
        AttrName::block(name.into(), false)
    }

    fn block(display: String, pooled: bool) -> AttrName {
        let lower = display
            .bytes()
            .any(|b| b.is_ascii_uppercase())
            .then(|| display.to_ascii_lowercase().into_boxed_str());
        AttrName(Arc::new(NameBlock {
            display: display.into_boxed_str(),
            lower,
            pooled,
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

    /// Replace this name with the process-wide canonical copy for its
    /// display form; nothing to do for a name that already is that copy.
    pub(crate) fn intern(&mut self) {
        if !self.0.pooled {
            if let Some(canon) = AttrName::pooled(self.as_str()) {
                *self = canon;
            }
        }
    }

    /// The pooled name for `name`; allocates only the first time a display
    /// form is seen. The universe of attribute names is the schema's, not
    /// the data's, so the pool stays tiny — and the caps keep it so against
    /// an unauthenticated socket (a name it will not take gets its own block).
    pub(crate) fn interned(name: &str) -> AttrName {
        AttrName::pooled(name).unwrap_or_else(|| AttrName::new(name))
    }

    fn pooled(name: &str) -> Option<AttrName> {
        let block = || AttrName::block(name.to_string(), true);
        (name.len() <= POOLED_LEN_MAX)
            .then(|| pooled(&NAME_POOL, name, block))
            .flatten()
    }
}

/// Members either pool will hold: distinct display forms, distinct lists.
const POOL_CAP: usize = 4096;

/// Longest name or value, in bytes, either pool will hold — the bound
/// [`with_lower`] calls too long for any real schema.
const POOLED_LEN_MAX: usize = 64;

/// Longest value list the class-list pool will hold.
const POOLED_LIST_MAX: usize = 16;

/// Read-mostly and never freed: every DN parse looks its attribute types
/// up in the one and every entry stored looks its class list up in the
/// other, from every wire and restore worker at once.
type Pool<K, V> = LazyLock<RwLock<HashMap<Box<K>, V>>>;

/// Display form to the one block for it.
static NAME_POOL: Pool<str, AttrName> = LazyLock::new(Default::default);

/// Exact value sequence to the one copy of it.
static LIST_POOL: Pool<[Value], Arc<[Value]>> = LazyLock::new(Default::default);

/// The pool's member for `key`, made the first time the key is seen;
/// `None` once the pool is full.
fn pooled<K, V: Clone>(pool: &Pool<K, V>, key: &K, make: impl FnOnce() -> V) -> Option<V>
where
    K: ?Sized + std::hash::Hash + Eq,
    Box<K>: for<'a> From<&'a K>,
{
    if let Some(found) = unpoison(pool.read()).get(key) {
        return Some(found.clone());
    }
    let mut pool = unpoison(pool.write());
    if pool.len() >= POOL_CAP && !pool.contains_key(key) {
        return None;
    }
    Some(pool.entry(key.into()).or_insert_with(make).clone())
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
    a == b || norm_cmp(a, b, None).is_eq()
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

/// How [`norm_value`]`(a)` and [`norm_value`]`(b)` order, each followed by
/// `tail`, worked out without building either. Two ASCII values skip the
/// bytes they start with alike — those fold alike — and fold the rest a
/// byte at a time; other values compare [`norm_chars`].
pub(crate) fn norm_cmp(a: &str, b: &str, tail: Option<u8>) -> std::cmp::Ordering {
    if !(a.is_ascii() && b.is_ascii()) {
        let tail = tail.map(char::from);
        return norm_chars(a).chain(tail).cmp(norm_chars(b).chain(tail));
    }
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let alike = alike_prefix(a, b);
    (AsciiFold::resume(a, alike).chain(tail)).cmp(AsciiFold::resume(b, alike).chain(tail))
}

/// How many bytes `a` and `b` start with alike, compared eight at a time.
pub(crate) fn alike_prefix(a: &[u8], b: &[u8]) -> usize {
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
fn is_space(b: u8) -> bool {
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
    norm_value_into(v, &mut out);
    out
}

/// [`norm_value`] into a buffer the caller keeps, replacing what it held.
pub(crate) fn norm_value_into(v: &str, out: &mut String) {
    out.clear();
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

/// One attribute or RDN value: a string in 24 bytes that derefs to `str`.
///
/// A value of up to 22 bytes — a name, an extension, a room, a site, a
/// class of service — lives in the slot itself, with no heap block behind
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

/// The values of one attribute, in 24 bytes: almost always exactly one, so
/// the single case is the [`Value`] itself with no vector around it;
/// several are an exactly-sized boxed slice; and a list that every entry of
/// a class repeats is a pointer to the pool's one copy, which nobody may
/// change — a write (`Values::push`, `Values::retain`) copies it first.
///
/// `One` always holds exactly one value; the empty bag is `Many([])`.
/// Equality is by value sequence, so `One("a") == Many(["a"])`. Derefs to
/// `&[Value]`, so slice methods (`len`, `iter`, indexing) work unchanged.
/// Only this module names the variants.
#[derive(Clone)]
pub enum Values {
    One(Value),
    Many(Box<[Value]>),
    Shared(Arc<[Value]>),
}

impl Values {
    pub fn as_slice(&self) -> &[Value] {
        match self {
            Values::One(v) => std::slice::from_ref(v),
            Values::Many(vs) => vs,
            Values::Shared(vs) => vs,
        }
    }

    /// Values that are known to be distinct under `caseIgnoreMatch`.
    fn from_distinct(mut vs: Vec<Value>) -> Values {
        if vs.len() == 1 {
            Values::One(vs.pop().expect("len checked"))
        } else {
            Values::Many(vs.into_boxed_slice())
        }
    }

    /// Append a value (no dedup — callers check `caseIgnoreMatch` first).
    pub(crate) fn push(&mut self, value: Value) {
        let mut vs = Vec::with_capacity(self.len() + 1);
        match std::mem::replace(self, Values::Many(Box::default())) {
            Values::One(first) => vs.push(first),
            Values::Many(own) => vs.extend(own.into_vec()),
            Values::Shared(pooled) => vs.extend(pooled.iter().cloned()),
        }
        vs.push(value);
        *self = Values::from_distinct(vs);
    }

    /// Keep only values for which `keep` returns `true`.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Value) -> bool) {
        let kept = match self {
            Values::One(v) if keep(v) => return,
            Values::One(_) => Vec::new(),
            Values::Many(own) => {
                let mut vs = std::mem::take(own).into_vec();
                vs.retain(|v| keep(v));
                vs
            }
            Values::Shared(pooled) => pooled.iter().filter(|v| keep(v)).cloned().collect(),
        };
        *self = Values::from_distinct(kept);
    }

    /// Swap this list for the process-wide copy of the same exact value
    /// sequence (spelling and order are the key, so what a search returns
    /// is still what the client stored). A list the pool will not take —
    /// too many values, a value too long, the pool full — stays owned.
    pub(crate) fn share(&mut self) {
        if matches!(self, Values::Shared(_))
            || self.len() > POOLED_LIST_MAX
            || self.iter().any(|v| v.len() > POOLED_LEN_MAX)
        {
            return;
        }
        let exact = || self.iter().cloned().collect();
        if let Some(list) = pooled(&LIST_POOL, self.as_slice(), exact) {
            *self = Values::Shared(list);
        }
    }

    /// Heap bytes behind the bag as requested from the allocator, one
    /// figure per allocation: the many-valued slice to `slot`, each value
    /// too long for its slot to `value`. A shared list is the pool's, as an
    /// interned name is, and is counted for no holder.
    pub(crate) fn heap_blocks(&self, mut slot: impl FnMut(usize), mut value: impl FnMut(usize)) {
        match self {
            Values::One(v) => value(v.heap_len()),
            Values::Many(vs) => {
                slot(std::mem::size_of_val(&**vs));
                vs.iter().for_each(|v| value(v.heap_len()));
            }
            Values::Shared(_) => {}
        }
    }
}

impl std::ops::Deref for Values {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl<V: Into<Value>> From<Vec<V>> for Values {
    /// Keeps the first spelling of a value and drops a later repeat.
    fn from(vs: Vec<V>) -> Values {
        let mut vs: Vec<Value> = vs.into_iter().map(Into::into).collect();
        while let Some(repeat) = repeated_value(&vs) {
            vs.remove(repeat);
        }
        Values::from_distinct(vs)
    }
}

impl<'a> IntoIterator for &'a Values {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl IntoIterator for Values {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        match self {
            Values::One(v) => vec![v],
            Values::Many(vs) => vs.into_vec(),
            Values::Shared(vs) => Vec::from(&*vs),
        }
        .into_iter()
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Values {}

impl PartialEq<Vec<String>> for Values {
    fn eq(&self, other: &Vec<String>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[&str]> for Values {
    fn eq(&self, other: &[&str]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// An attribute with its (possibly multiple) values. Values keep insertion
/// order; duplicates under `caseIgnoreMatch` are rejected on insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: AttrName,
    pub values: Values,
}

impl Attribute {
    pub(crate) fn new(name: impl Into<AttrName>, values: impl Into<Values>) -> Attribute {
        Attribute {
            name: name.into(),
            values: values.into(),
        }
    }

    pub fn single(name: impl Into<AttrName>, value: impl Into<Value>) -> Attribute {
        Attribute {
            name: name.into(),
            values: Values::One(value.into()),
        }
    }

    /// `true` if `value` is present under case-insensitive matching.
    pub(crate) fn contains_ci(&self, value: &str) -> bool {
        self.values.iter().any(|v| value_eq_ci(v, value))
    }

    /// Add a value; returns `false` (and leaves the bag unchanged) when an
    /// equal value is already present.
    pub(crate) fn add_value(&mut self, value: impl Into<Value>) -> bool {
        let value = value.into();
        if self.contains_ci(&value) {
            return false;
        }
        self.values.push(value);
        true
    }

    /// Remove a value under case-insensitive matching; returns `true` when a
    /// value was removed.
    pub(crate) fn remove_value(&mut self, value: &str) -> bool {
        let before = self.values.len();
        self.values.retain(|v| !value_eq_ci(v, value));
        self.values.len() != before
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{}: {}", self.name, v)?;
        }
        Ok(())
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
    fn an_attribute_is_a_32_byte_slot() {
        use std::mem::size_of;
        assert_eq!(size_of::<AttrName>(), 8);
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<Option<Value>>(), 24);
        assert_eq!(size_of::<Values>(), 24);
        assert_eq!(size_of::<Attribute>(), 32);
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
        let mut a = AttrName::new("telephoneNumber");
        let mut b = AttrName::new("telephoneNumber");
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        a.intern();
        b.intern();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        // Names built from a string ask the pool first.
        assert!(Arc::ptr_eq(&a.0, &AttrName::from("telephoneNumber").0));
        // Display forms are preserved exactly; a different casing is a
        // different pool entry (both still equal under CI matching).
        let mut c = AttrName::new("TELEPHONENUMBER");
        c.intern();
        assert_eq!(a, c);
        assert_eq!(c.as_str(), "TELEPHONENUMBER");
        assert_eq!(c.norm(), "telephonenumber");
    }

    #[test]
    fn a_name_too_long_for_any_schema_is_never_pooled() {
        let long = "x".repeat(POOLED_LEN_MAX + 1);
        let (a, mut b) = (AttrName::interned(&long), AttrName::from(long.as_str()));
        b.intern();
        assert!(!Arc::ptr_eq(&a.0, &b.0));
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
                for tail in [None, Some(b',')] {
                    let key = |v: &str| norm_value(v).into_bytes().into_iter().chain(tail);
                    let expected = key(a).cmp(key(b));
                    assert_eq!(norm_cmp(a, b, tail), expected, "{a:?} {b:?} {tail:?}");
                }
                assert_eq!(value_eq_ci(a, b), norm_value(a) == norm_value(b));
            }
        }
    }

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn values_one_many_shared_equivalence() {
        let one = Values::One("a".into());
        let many = Values::Many(Box::new(["a".into()]));
        let mut shared = one.clone();
        shared.share();
        assert!(matches!(shared, Values::Shared(_)));
        assert_eq!(one, many);
        assert_eq!(many, shared);
        let mut v = Values::One("a".into());
        v.push("b".into());
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], "a");
        v.retain(|s| s == "b");
        assert_eq!(v.to_vec(), vec!["b".to_string()]);
        v.retain(|_| false);
        assert!(v.is_empty());
        v.push("c".into());
        assert!(matches!(v, Values::One(_)));
    }

    #[test]
    fn a_shared_list_is_one_copy_and_writers_copy_it() {
        let classes = strings(&["top", "person", "organizationalPerson"]);
        let (mut a, mut b) = (Values::from(classes.clone()), Values::from(classes.clone()));
        a.share();
        b.share();
        assert_eq!(a.as_ptr(), b.as_ptr());
        // Spelling and order are the key.
        let mut shouted = Values::from(strings(&["TOP", "person", "organizationalPerson"]));
        shouted.share();
        assert_ne!(shouted.as_ptr(), a.as_ptr());
        assert_eq!(shouted[0], "TOP");
        b.push("definityUser".into());
        b.retain(|v| v != "top");
        assert_eq!(
            b,
            strings(&["person", "organizationalPerson", "definityUser"])
        );
        assert_eq!(a, classes);
        // Too many values, or a value too long: the list stays owned.
        let mut wide = Values::from(
            (0..=POOLED_LIST_MAX)
                .map(|i| i.to_string())
                .collect::<Vec<_>>(),
        );
        let mut long = Values::from(vec!["top".to_string(), "x".repeat(POOLED_LEN_MAX + 1)]);
        wide.share();
        long.share();
        assert!(matches!(wide, Values::Many(_)) && matches!(long, Values::Many(_)));
    }

    #[test]
    fn a_repeated_value_keeps_its_first_spelling() {
        let v = Values::from(strings(&["Murray Hill", "x", "murray  hill", "X"]));
        assert_eq!(v, strings(&["Murray Hill", "x"]));
        assert_eq!(
            Attribute::new("l", strings(&["a", "A"])).values,
            strings(&["a"])
        );
        // The same answer from the pairwise and the hashed walk.
        let mut many: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        assert_eq!(repeated_value(&many), None);
        many.push("V7".into());
        assert_eq!(repeated_value(&many), Some(40));
        assert_eq!(repeated_value(&many[5..]), Some(35));
        assert_eq!(repeated_value(&strings(&["a", "b", "B", "a"])), Some(2));
    }

    /// Words for the bag model: class names, short values, and values on
    /// either side of the 22 bytes a slot holds, one of each ending in a
    /// two-byte character.
    const WORDS: [&str; 10] = [
        "top",
        "person",
        "organizationalPerson",
        "definityUser",
        "a",
        "bb",
        "Fiona Fitzgerald 00012",
        "Fiona Fitzgerald 000123",
        "Dolores Dimitrov 001é",
        "Dolores Dimitrov 0001é",
    ];

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

        /// A bag driven through every door that changes or copies it holds
        /// what a plain `Vec<String>` holds, and no copy taken on the way
        /// (a clone, the pool's list) ever sees a later write.
        #[test]
        fn values_follow_a_plain_vec_model(
            ops in proptest::collection::vec((0u8..5, 0usize..WORDS.len()), 0..48),
        ) {
            let mut model: Vec<String> = Vec::new();
            let mut bag = Values::from(Vec::<Value>::new());
            let mut copies: Vec<(Values, Vec<String>)> = Vec::new();
            for (op, k) in ops {
                let word = WORDS[k].to_string();
                match op {
                    0 if !model.contains(&word) => {
                        model.push(word.clone());
                        bag.push(word.into());
                    }
                    0 | 1 => {
                        model.retain(|v| v.len() % 3 != k % 3);
                        bag.retain(|v| v.len() % 3 != k % 3);
                    }
                    2 => {
                        let copy = bag.clone();
                        copies.push((std::mem::replace(&mut bag, copy), model.clone()));
                    }
                    3 => bag.share(),
                    _ => bag = bag.into_iter().collect::<Vec<_>>().into(),
                }
                proptest::prop_assert_eq!(bag.as_slice(), model.as_slice());
                if !matches!(bag, Values::Shared(_)) {
                    proptest::prop_assert_eq!(matches!(bag, Values::One(_)), model.len() == 1);
                }
                for (copy, then) in &copies {
                    proptest::prop_assert_eq!(copy.as_slice(), then.as_slice());
                }
            }
        }
    }

    #[test]
    fn attribute_add_remove() {
        let mut a = Attribute::single("cn", "John Doe");
        assert!(!a.add_value("JOHN DOE")); // duplicate under CI match
        assert!(a.add_value("Johnny"));
        assert_eq!(a.values.len(), 2);
        assert!(a.remove_value("john doe"));
        assert_eq!(a.values, vec!["Johnny".to_string()]);
        assert!(!a.remove_value("nobody"));
    }
}
