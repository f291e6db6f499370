//! The packed attribute block: every attribute of an entry in one
//! exactly-sized byte block, and the borrowed views a reader gets over it.
//!
//! Attributes follow each other in normalized-name order, each written as
//!
//! ```text
//! attribute := name section
//! name      := id:u16le                         a name from the name pool
//!            | FFFF len:varint display lower    any other name: both forms,
//!                                               `len` bytes each
//! section   := n:varint (len:varint bytes){n}   n >= 1 values, in order
//!            | 00 id:u16le                      a list from the class-list pool
//! ```
//!
//! with `varint` a LEB128 length. A benchmark person's eight values under
//! six names take 80 bytes this way: its `objectClass` list is 5, and a
//! one-valued attribute is its value plus 4. The class-list pool keeps each
//! list as a `section` of values, so a pooled list reads exactly as an
//! inline one does.
//!
//! A reader gets [`Attribute`], [`NameRef`] and [`AttrValues`], which borrow
//! the block (or a pool member) and decode as they are walked: nothing is
//! copied out. A writer changes the block where it lives: an edit opens or
//! closes a gap with `realloc`, which keeps the block in the heap arena it
//! was allocated from whichever thread makes the change, and an edit that
//! keeps the length keeps the address.

use crate::attr::{
    list_pool_id, pooled_list, pooled_name, value_eq_ci, AttrName, POOLED_LEN_MAX, POOLED_LIST_MAX,
};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// Name id that says the name is spelled out after it.
const SPELLED: u16 = u16::MAX;

/// Value count that says a class-list id follows instead of values.
const LISTED: usize = 0;

/// The one attribute whose value lists go to the class-list pool.
fn is_class_list(norm: &str) -> bool {
    norm == "objectclass"
}

/// Longest value section the class-list pool takes: its most values, each
/// at its longest.
const LIST_KEY_MAX: usize = 1 + POOLED_LIST_MAX * (1 + POOLED_LEN_MAX);

/// The class-list pool's id for `values`; `None` for a list the pool will
/// not take (too many values, a value too long, the pool full). The pool
/// is keyed by the list's value section, written here on the stack.
fn list_id<V: AsRef<str>>(values: impl Iterator<Item = V> + Clone) -> Option<u16> {
    let too_long = |v: V| v.as_ref().len() > POOLED_LEN_MAX;
    if values.clone().count() > POOLED_LIST_MAX || values.clone().any(too_long) {
        return None;
    }
    let section = SectionCode::Values(values);
    let mut key = [0; LIST_KEY_MAX];
    let key = &mut key[..section.len()];
    section.write(&mut Out(key));
    list_pool_id(key)
}

/// Bytes of `n` as a varint.
fn varint_len(mut n: usize) -> usize {
    let mut len = 1;
    while n >= 0x80 {
        n >>= 7;
        len += 1;
    }
    len
}

/// A window of a block being written: each write fills the front of what
/// is left of it.
struct Out<'a>(&'a mut [u8]);

impl<'a> Out<'a> {
    /// The next `n` bytes of the window, to fill.
    fn next(&mut self, n: usize) -> &mut [u8] {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(n);
        self.0 = rest;
        head
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.next(bytes.len()).copy_from_slice(bytes);
    }

    fn varint(&mut self, mut n: usize) {
        while n >= 0x80 {
            self.bytes(&[n as u8 | 0x80]);
            n >>= 7;
        }
        self.bytes(&[n as u8]);
    }

    fn id(&mut self, id: u16) {
        self.bytes(&id.to_le_bytes());
    }

    /// One value: its length, then its bytes.
    fn value(&mut self, v: &str) {
        self.varint(v.len());
        self.bytes(v.as_bytes());
    }

    fn is_full(&self) -> bool {
        self.0.is_empty()
    }
}

/// A walk over bytes this module wrote.
#[derive(Clone, Copy)]
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let taken = &self.bytes[self.at..self.at + n];
        self.at += n;
        taken
    }

    fn id(&mut self) -> u16 {
        let id = u16::from_le_bytes([self.bytes[self.at], self.bytes[self.at + 1]]);
        self.at += 2;
        id
    }

    fn varint(&mut self) -> usize {
        let (mut n, mut shift) = (0, 0);
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            n |= usize::from(b & 0x7f) << shift;
            if b < 0x80 {
                return n;
            }
            shift += 7;
        }
    }

    fn str(&mut self, n: usize) -> &'a str {
        let bytes = self.take(n);
        debug_assert!(std::str::from_utf8(bytes).is_ok());
        // SAFETY: the bytes walked here are a block's or a pooled list's,
        // and only this module writes those: through `Out`, which copies
        // whole `&str`s (and ASCII-lowercased copies of them, still UTF-8)
        // at exactly the offsets this reader steps to, a length before each.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// The attribute name starting here.
    fn name(&mut self) -> NameRef<'a> {
        match self.id() {
            SPELLED => {
                let len = self.varint();
                let display = self.str(len);
                NameRef {
                    display,
                    norm: self.str(len),
                }
            }
            id => {
                let name = pooled_name(id);
                NameRef {
                    display: name.as_str(),
                    norm: name.norm(),
                }
            }
        }
    }

    /// Step over the value section starting here.
    fn skip_section(&mut self) {
        match self.varint() {
            LISTED => self.at += 2,
            len => {
                for _ in 0..len {
                    let n = self.varint();
                    self.at += n;
                }
            }
        }
    }

    /// The value section starting here, read up to its end.
    fn section(&mut self) -> Section<'a> {
        match self.varint() {
            LISTED => Section::Listed(self.id()),
            len => {
                let first = self.at;
                for _ in 0..len {
                    let n = self.varint();
                    self.at += n;
                }
                Section::Values(AttrValues {
                    len,
                    bytes: &self.bytes[first..self.at],
                })
            }
        }
    }
}

/// What a value section holds.
#[derive(Clone, Copy)]
enum Section<'a> {
    Values(AttrValues<'a>),
    Listed(u16),
}

impl<'a> Section<'a> {
    fn values(self) -> AttrValues<'a> {
        match self {
            Section::Values(values) => values,
            Section::Listed(id) => listed(id),
        }
    }
}

/// The values of the pooled class list `id`: its section is the count,
/// then the values to its end.
fn listed(id: u16) -> AttrValues<'static> {
    let mut read = Reader::new(pooled_list(id));
    let len = read.varint();
    AttrValues {
        len,
        bytes: &read.bytes[read.at..],
    }
}

/// An attribute's name as a block holds it: the display form as written
/// and the lowercased form used for matching. Equality is by the
/// lowercased form, as [`AttrName`]'s is.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    display: &'a str,
    norm: &'a str,
}

impl<'a> NameRef<'a> {
    /// The name as originally written.
    pub fn as_str(&self) -> &'a str {
        self.display
    }

    /// Lowercased form used for matching.
    pub fn norm(&self) -> &'a str {
        self.norm
    }
}

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.norm == other.norm
    }
}
impl Eq for NameRef<'_> {}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display)
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.display, f)
    }
}

/// One attribute's values as a block holds them, in order: iterates
/// `&str`, compares with a slice, an array or a vector of strings by exact
/// sequence, and copies nothing. Empty for an attribute an entry lacks.
#[derive(Clone, Copy)]
pub struct AttrValues<'a> {
    len: usize,
    /// Each value's length and bytes, `len` times.
    bytes: &'a [u8],
}

impl<'a> AttrValues<'a> {
    /// No values.
    pub(crate) const NONE: AttrValues<'static> = AttrValues { len: 0, bytes: &[] };

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> ValuesIter<'a> {
        ValuesIter {
            left: self.len,
            read: Reader::new(self.bytes),
        }
    }

    pub fn first(&self) -> Option<&'a str> {
        self.iter().next()
    }

    /// The `i`-th value.
    pub fn get(&self, i: usize) -> Option<&'a str> {
        self.iter().nth(i)
    }

    /// The same values: for code written against a slice.
    pub fn as_slice(&self) -> AttrValues<'a> {
        *self
    }

    /// Owned copies of the values.
    pub fn to_vec(&self) -> Vec<String> {
        self.iter().map(str::to_string).collect()
    }

    /// Where the values are kept: in the entry's block, or in the pool
    /// for a class list every holder shares.
    pub fn as_ptr(&self) -> *const u8 {
        self.bytes.as_ptr()
    }

    /// `true` if `value` is present under `caseIgnoreMatch`.
    pub(crate) fn contains_ci(&self, value: &str) -> bool {
        self.iter().any(|v| value_eq_ci(v, value))
    }
}

/// The values of an [`AttrValues`], in order.
#[derive(Clone)]
pub struct ValuesIter<'a> {
    left: usize,
    read: Reader<'a>,
}

impl<'a> Iterator for ValuesIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.left = self.left.checked_sub(1)?;
        let len = self.read.varint();
        Some(self.read.str(len))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ValuesIter<'_> {}

impl<'a> IntoIterator for AttrValues<'a> {
    type Item = &'a str;
    type IntoIter = ValuesIter<'a>;
    fn into_iter(self) -> ValuesIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &AttrValues<'a> {
    type Item = &'a str;
    type IntoIter = ValuesIter<'a>;
    fn into_iter(self) -> ValuesIter<'a> {
        self.iter()
    }
}

impl PartialEq for AttrValues<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}
impl Eq for AttrValues<'_> {}

impl<S: AsRef<str>> PartialEq<[S]> for AttrValues<'_> {
    fn eq(&self, other: &[S]) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_ref())
    }
}

impl<S: AsRef<str>> PartialEq<&[S]> for AttrValues<'_> {
    fn eq(&self, other: &&[S]) -> bool {
        *self == **other
    }
}

impl<S: AsRef<str>, const N: usize> PartialEq<[S; N]> for AttrValues<'_> {
    fn eq(&self, other: &[S; N]) -> bool {
        *self == other[..]
    }
}

impl<S: AsRef<str>> PartialEq<Vec<S>> for AttrValues<'_> {
    fn eq(&self, other: &Vec<S>) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for AttrValues<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One attribute of an entry, borrowed from its block: the name and the
/// values. Two attributes are equal when their names match
/// case-insensitively and their values are the same sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attribute<'a> {
    pub name: NameRef<'a>,
    pub values: AttrValues<'a>,
}

/// How a name goes into a block: its pool id, or spelled out.
#[derive(Clone, Copy)]
enum NameCode<'a> {
    Pooled(u16),
    Spelled(&'a str),
}

impl<'a> NameCode<'a> {
    fn of(name: &'a AttrName) -> NameCode<'a> {
        name.pool_id()
            .map_or(NameCode::Spelled(name.as_str()), NameCode::Pooled)
    }

    fn len(self) -> usize {
        match self {
            NameCode::Pooled(_) => 2,
            NameCode::Spelled(s) => 2 + varint_len(s.len()) + 2 * s.len(),
        }
    }

    fn write(self, out: &mut Out<'_>) {
        match self {
            NameCode::Pooled(id) => out.id(id),
            NameCode::Spelled(s) => {
                out.id(SPELLED);
                out.varint(s.len());
                out.bytes(s.as_bytes());
                let lower = out.next(s.len());
                lower.copy_from_slice(s.as_bytes());
                lower.make_ascii_lowercase();
            }
        }
    }
}

/// How a value section goes into a block: a class list the pool holds by
/// id, any other list value by value. `I` yields distinct values, at least
/// one, and is walked once for each thing asked of it.
#[derive(Clone)]
enum SectionCode<I> {
    Listed(u16),
    Values(I),
}

impl<V: AsRef<str>, I: Iterator<Item = V> + Clone> SectionCode<I> {
    /// The section for `values` of the attribute named `norm`.
    fn new(norm: &str, values: I) -> SectionCode<I> {
        match is_class_list(norm)
            .then(|| list_id(values.clone()))
            .flatten()
        {
            Some(id) => SectionCode::Listed(id),
            None => SectionCode::Values(values),
        }
    }

    fn len(&self) -> usize {
        match self {
            SectionCode::Listed(_) => 3,
            SectionCode::Values(values) => {
                let (n, bytes) = values.clone().fold((0, 0), |(n, bytes), v| {
                    let len = v.as_ref().len();
                    (n + 1, bytes + varint_len(len) + len)
                });
                varint_len(n) + bytes
            }
        }
    }

    fn write(&self, out: &mut Out<'_>) {
        match self {
            SectionCode::Listed(id) => {
                out.varint(LISTED);
                out.id(*id);
            }
            SectionCode::Values(values) => {
                out.varint(values.clone().count());
                values.clone().for_each(|v| out.value(v.as_ref()));
            }
        }
    }
}

/// One attribute of a block, with where its bytes are.
struct Packed<'a> {
    attr: Attribute<'a>,
    /// The whole attribute.
    span: Range<usize>,
    /// Its value section: the count and the values, or the list id.
    section: Range<usize>,
    listed: Option<u16>,
}

/// The attributes of a block, in order.
struct Unpack<'a>(Reader<'a>);

impl<'a> Iterator for Unpack<'a> {
    type Item = Packed<'a>;

    fn next(&mut self) -> Option<Packed<'a>> {
        let read = &mut self.0;
        if read.done() {
            return None;
        }
        let start = read.at;
        let name = read.name();
        Some(read.attribute(start, name))
    }
}

impl<'a> Reader<'a> {
    /// The attribute that started at `start` and whose `name` has been
    /// read, with its value section read up to its end.
    fn attribute(&mut self, start: usize, name: NameRef<'a>) -> Packed<'a> {
        let section_start = self.at;
        let section = self.section();
        Packed {
            attr: Attribute {
                name,
                values: section.values(),
            },
            span: start..self.at,
            section: section_start..self.at,
            listed: match section {
                Section::Listed(id) => Some(id),
                Section::Values(_) => None,
            },
        }
    }
}

/// An entry's attributes: see the module docs for the layout. Only this
/// module reads or writes the bytes.
#[derive(Clone, Default)]
pub(crate) struct Block(Box<[u8]>);

impl Block {
    /// The block for `items`, `(name, value)` pairs in any order with each
    /// value `value(source, item)`, written once into a block of exactly
    /// its size. Pairs under one name (in any case) make one attribute
    /// spelled as the first of them, and a value that repeats an earlier
    /// one of its attribute under `caseIgnoreMatch` is dropped, the first
    /// spelling kept. `items` ends sorted, repeats removed.
    pub(crate) fn pack<S: ?Sized, T>(
        items: &mut Vec<(AttrName, T)>,
        source: &S,
        value: impl for<'a> Fn(&'a S, &'a T) -> &'a str,
    ) -> Block {
        // Stable insertion sort: a handful of names, most often in order
        // already, sorted with no buffer.
        for i in 1..items.len() {
            let mut j = i;
            while j > 0 && items[j - 1].0.norm() > items[j].0.norm() {
                items.swap(j - 1, j);
                j -= 1;
            }
        }
        // Keep a value unless an earlier kept one of its name matches it.
        let (mut kept, mut group) = (0, 0);
        for i in 0..items.len() {
            if kept == 0 || items[kept - 1].0 != items[i].0 {
                group = kept;
            }
            let v = value(source, &items[i].1);
            let held = |(_, w): &(AttrName, T)| value_eq_ci(value(source, w), v);
            if !items[group..kept].iter().any(held) {
                items.swap(kept, i);
                kept += 1;
            }
        }
        items.truncate(kept);
        let groups = || items.chunk_by(|a, b| a.0 == b.0);
        // Looked up once, for the two passes below.
        let classes = groups().find(|group| is_class_list(group[0].0.norm()));
        let listed = classes.and_then(|group| list_id(group.iter().map(|(_, v)| value(source, v))));
        let attrs = || {
            groups().map(|group| {
                let name = &group[0].0;
                let section = match listed {
                    Some(id) if is_class_list(name.norm()) => SectionCode::Listed(id),
                    _ => SectionCode::Values(group.iter().map(|(_, v)| value(source, v))),
                };
                (NameCode::of(name), section)
            })
        };
        let len = attrs()
            .map(|(name, section)| name.len() + section.len())
            .sum();
        let mut block = vec![0; len].into_boxed_slice();
        let mut out = Out(&mut block);
        for (name, section) in attrs() {
            name.write(&mut out);
            section.write(&mut out);
        }
        debug_assert!(out.is_full());
        Block(block)
    }

    fn unpack(&self) -> Unpack<'_> {
        Unpack(Reader::new(&self.0))
    }

    pub(crate) fn attributes(&self) -> impl Iterator<Item = Attribute<'_>> {
        self.unpack().map(|p| p.attr)
    }

    /// The attribute named `norm` (lowercased), or the offset where it
    /// would go.
    fn find(&self, norm: &str) -> Result<Packed<'_>, usize> {
        let mut read = Reader::new(&self.0);
        while !read.done() {
            let start = read.at;
            let name = read.name();
            match name.norm.cmp(norm) {
                Ordering::Less => read.skip_section(),
                Ordering::Equal => return Ok(read.attribute(start, name)),
                Ordering::Greater => return Err(start),
            }
        }
        Err(read.at)
    }

    pub(crate) fn get(&self, norm: &str) -> Option<Attribute<'_>> {
        self.find(norm).ok().map(|p| p.attr)
    }

    /// Replace `range` of the block by a gap of `len` bytes and hand the
    /// gap out to be written. The block is resized by `realloc`, so it
    /// stays in the heap arena it came from; at the same length it stays
    /// where it is.
    fn reshape(&mut self, range: Range<usize>, len: usize) -> Out<'_> {
        let old = self.0.len();
        let new = old - range.len() + len;
        if new != old {
            let mut bytes = std::mem::take(&mut self.0).into_vec();
            if new > old {
                bytes.reserve_exact(new - old);
                bytes.resize(new, 0);
            }
            bytes.copy_within(range.end..old, range.start + len);
            bytes.truncate(new);
            self.0 = bytes.into_boxed_slice();
        }
        Out(&mut self.0[range.start..range.start + len])
    }

    /// Write `section` over the value section at `range` of an attribute.
    fn rewrite<V: AsRef<str>>(
        &mut self,
        range: Range<usize>,
        section: SectionCode<impl Iterator<Item = V> + Clone>,
    ) {
        let mut out = self.reshape(range, section.len());
        section.write(&mut out);
        debug_assert!(out.is_full());
    }

    /// Set the attribute `name` to `values` (distinct, at least one),
    /// under this spelling of the name.
    pub(crate) fn put<V: AsRef<str>>(
        &mut self,
        name: &AttrName,
        values: impl Iterator<Item = V> + Clone,
    ) {
        let (code, section) = (NameCode::of(name), SectionCode::new(name.norm(), values));
        let range = match self.find(name.norm()) {
            Ok(p) => p.span,
            Err(at) => at..at,
        };
        let mut out = self.reshape(range, code.len() + section.len());
        code.write(&mut out);
        section.write(&mut out);
        debug_assert!(out.is_full());
    }

    /// Append `values` (distinct from each other and from those held) to
    /// the attribute named `norm`, which the block holds.
    pub(crate) fn push_values<'v>(
        &mut self,
        norm: &str,
        values: impl Iterator<Item = &'v str> + Clone,
    ) {
        let p = self.find(norm).expect("the attribute is held");
        let (section, len) = (p.section, p.attr.values.len);
        if let Some(id) = p.listed {
            let held = listed(id);
            let all = held.iter().chain(values);
            return self.rewrite(section, SectionCode::new(norm, all));
        }
        let added = values.clone().count();
        let bytes = values.clone().map(|v| varint_len(v.len()) + v.len()).sum();
        let mut out = self.reshape(section.end..section.end, bytes);
        values.for_each(|v| out.value(v));
        self.set_count(section.start, len, len + added);
        self.pool_class_list(norm);
    }

    /// Remove the value of the attribute `norm` that matches `value` under
    /// `caseIgnoreMatch`, and the attribute with its last value. `false`
    /// when there is no such value.
    pub(crate) fn remove_value(&mut self, norm: &str, value: &str) -> bool {
        let Ok(p) = self.find(norm) else {
            return false;
        };
        let (span, section, len) = (p.span, p.section, p.attr.values.len);
        if let Some(id) = p.listed {
            let held = listed(id);
            let rest = held.iter().filter(|v| !value_eq_ci(v, value));
            match rest.clone().count() {
                n if n == len => return false,
                0 => drop(self.reshape(span, 0)),
                _ => self.rewrite(section, SectionCode::new(norm, rest)),
            }
            return true;
        }
        let mut read = Reader::new(&self.0[..section.end]);
        read.at = section.start;
        read.varint();
        let found = (0..len).find_map(|_| {
            let start = read.at;
            let n = read.varint();
            value_eq_ci(read.str(n), value).then_some(start..read.at)
        });
        let Some(range) = found else {
            return false;
        };
        if len == 1 {
            self.reshape(span, 0);
        } else {
            self.reshape(range, 0);
            self.set_count(section.start, len, len - 1);
            self.pool_class_list(norm);
        }
        true
    }

    /// Remove the attribute named `norm`; `false` when there is none.
    pub(crate) fn remove(&mut self, norm: &str) -> bool {
        let Ok(span) = self.find(norm).map(|p| p.span) else {
            return false;
        };
        self.reshape(span, 0);
        true
    }

    /// Rewrite the value count at `at` from `old` to `new`.
    fn set_count(&mut self, at: usize, old: usize, new: usize) {
        self.reshape(at..at + varint_len(old), varint_len(new))
            .varint(new);
    }

    /// A class list held value by value that the pool will take goes to
    /// the pool, so that a list has one form however it was reached.
    fn pool_class_list(&mut self, norm: &str) {
        if !is_class_list(norm) {
            return;
        }
        let Ok(p) = self.find(norm) else { return };
        let Some(id) = p
            .listed
            .is_none()
            .then(|| list_id(p.attr.values.iter()))
            .flatten()
        else {
            return;
        };
        let mut out = self.reshape(p.section, 3);
        out.varint(LISTED);
        out.id(id);
    }

    /// Make this block hold what `other` holds: written over these bytes
    /// when the lengths match, through `realloc` when they do not.
    pub(crate) fn assign(&mut self, other: &Block) {
        if self.0.len() == other.0.len() {
            self.0.copy_from_slice(&other.0);
            return;
        }
        let mut bytes = std::mem::take(&mut self.0).into_vec();
        bytes.clear();
        bytes.reserve_exact(other.0.len());
        bytes.extend_from_slice(&other.0);
        self.0 = bytes.into_boxed_slice();
    }

    /// A block holding the attributes whose lowercased name `keep` takes.
    pub(crate) fn project(&self, keep: impl Fn(&str) -> bool) -> Block {
        let kept = || self.unpack().filter(|p| keep(p.attr.name.norm()));
        let mut bytes = Vec::with_capacity(kept().map(|p| p.span.len()).sum());
        kept().for_each(|p| bytes.extend_from_slice(&self.0[p.span]));
        Block(bytes.into_boxed_slice())
    }

    /// Same attributes, names compared case-insensitively and values as
    /// exact sequences.
    pub(crate) fn same_as(&self, other: &Block) -> bool {
        self.0 == other.0 || self.attributes().eq(other.attributes())
    }

    /// Bytes of the heap block.
    pub(crate) fn heap_len(&self) -> usize {
        self.0.len()
    }

    /// Where the block is.
    #[cfg(test)]
    pub(crate) fn as_ptr(&self) -> *const u8 {
        self.0.as_ptr()
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.attributes()).finish()
    }
}
