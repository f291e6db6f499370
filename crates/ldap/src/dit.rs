//! The Directory Information Tree: an in-memory hierarchical entry store
//! implementing the LDAP update and search operations.
//!
//! Faithful to the paper's constraints:
//! - each individual update (add / delete / modify / modifyRDN) is atomic;
//! - there is **no way to group updates into a transaction** — a
//!   ModifyRDN+Modify pair is two separately observable steps (§5.1);
//! - deletes apply to leaves only;
//! - RDN uniqueness among siblings is enforced.
//!
//! ## Equality indexes
//!
//! Searches over equality (and AND-with-equality) filters are served from
//! per-attribute equality indexes instead of a full subtree scan. The
//! indexes are maintained inside the same write lock as every update, so
//! every entry holding a value is in that value's posting, and the planner
//! re-runs the full filter over each candidate — results are bit-identical
//! to the scan path, in the same (BFS, parents-first) order, including
//! size-limit behavior. See [`DEFAULT_INDEXED_ATTRS`] and
//! [`Dit::with_schema_indexed`].
//!
//! ## Storage representation
//!
//! The store keeps each string once, in the entry. Every entry has a `u32`
//! `DnId`; sibling lists and postings hold ids, and the tables that find
//! them hold 32-bit hashes: the DN table maps a DN's hash to the ids
//! carrying it (a lookup settles which one by `Dn ==` against the node's
//! entry), and each equality index maps a normalized value's hash to the
//! ids holding it (a collision is one more candidate the filter re-check
//! turns away). A hash one id holds takes an 8-byte slot.
//! Entries hold interned attribute names, and each entry's name is one
//! chain block whose parent link is its parent entry's own name (DESIGN.md
//! "DIT store and snapshots" has the byte budget, [`Dit::footprint`] reads
//! it back), and a bulk-load mode ([`Dit::begin_bulk`]) defers index and
//! sibling-order maintenance to one build pass — this is what makes
//! million-entry cold starts fit in memory and time budgets.
//!
//! Sibling lists are sorted by one comparator on the leaf RDN, which orders
//! siblings as their full [`Dn::norm_key`]s do, and every search emits
//! level by level in that order (tests/prop_compact_store.rs pins it
//! against a plain map-and-walk model).

#![forbid(unsafe_code)]

use crate::attr::{alike_prefix, norm_cmp, norm_value_into, with_lower};
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, Modification};
use crate::error::{LdapError, Result, ResultCode};
use crate::filter::Filter;
use crate::schema::{Schema, SchemaRef};
use crate::unpoison;
use std::cmp;
use std::collections::hash_map::{self, RandomState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Search scopes (RFC 2251 §4.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Immediate children of the base.
    One,
    /// The base and all descendants.
    Sub,
}

impl Scope {
    pub(crate) fn code(self) -> u32 {
        match self {
            Scope::Base => 0,
            Scope::One => 1,
            Scope::Sub => 2,
        }
    }

    pub(crate) fn from_code(c: u32) -> Result<Scope> {
        match c {
            0 => Ok(Scope::Base),
            1 => Ok(Scope::One),
            2 => Ok(Scope::Sub),
            _ => Err(LdapError::protocol(format!("bad scope {c}"))),
        }
    }
}

/// What changed, for observers (the write-ahead log, tests).
#[derive(Debug, Clone)]
pub enum ChangeOp {
    Add(Entry),
    Delete,
    Modify(Vec<Modification>),
    ModifyRdn {
        new_rdn: Rdn,
        delete_old: bool,
        new_superior: Option<Dn>,
    },
}

/// A committed change, in commit order.
#[derive(Debug, Clone)]
pub struct ChangeRecord {
    /// Monotonic commit sequence number of this DIT.
    pub seq: u64,
    /// DN the operation addressed (pre-rename DN for ModifyRdn).
    pub dn: Dn,
    pub op: ChangeOp,
}

type Observer = Box<dyn Fn(&ChangeRecord) + Send + Sync>;

/// Attributes indexed by default: the hot lookups in a MetaComm deployment
/// (person searches by class/name/extension, plus the lexpress
/// `lastUpdater` origin attribute).
pub const DEFAULT_INDEXED_ATTRS: &[&str] = &["objectClass", "cn", "telephoneNumber", "lastUpdater"];

/// Resident heap bytes of a DIT by structure, from [`Dit::footprint`].
///
/// Computed by a walk of the store when asked for — nothing is counted on
/// the update path. Each allocation is taken at the size the system
/// allocator hands out for it (16-byte classes, 24 bytes at least), so the
/// rows add up to what a counting allocator sees for the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    pub entries: usize,
    /// Every entry's name: the chain block that ends it, and behind it a
    /// multi-AVA slice and the values too long for their slot. A block is
    /// counted at the entry whose name it ends; an ancestor block that is
    /// not the parent entry's own (a parent spelled another way) at each
    /// entry that holds it.
    pub dn_bytes: usize,
    /// The DN id table alone: DN hash to the ids carrying it.
    pub key_arena_bytes: usize,
    /// The node slots (entry header, links) and the free list.
    pub slab_bytes: usize,
    /// The attribute blocks: names as pool ids, values in place. A name
    /// or a class list the pools hold is counted for no entry.
    pub attr_bytes: usize,
    /// The equality indexes: value-hash tables and spilled id sets.
    pub postings_bytes: usize,
    /// The sorted child-id vectors, and the box each non-leaf holds its
    /// vector in.
    pub sibling_bytes: usize,
}

impl Footprint {
    /// `(gauge name, bytes)` for every structure, in a fixed order.
    pub fn rows(&self) -> [(&'static str, usize); 6] {
        [
            ("dnBytes", self.dn_bytes),
            ("keyArenaBytes", self.key_arena_bytes),
            ("slabBytes", self.slab_bytes),
            ("attrBytes", self.attr_bytes),
            ("postingsBytes", self.postings_bytes),
            ("siblingBytes", self.sibling_bytes),
        ]
    }

    pub fn total(&self) -> usize {
        self.rows().iter().map(|(_, bytes)| bytes).sum()
    }
}

/// What the allocator sets aside for a request of `n` bytes.
fn heap_block(n: usize) -> usize {
    match n {
        0 => 0,
        n => ((n + 8 + 15) & !15).max(32) - 8,
    }
}

/// The one allocation behind a std hash table of `capacity` usable slots
/// of `slot` bytes: a power-of-two bucket array at 7/8 load, a control
/// byte per bucket and one trailing control group.
fn hash_table_block(capacity: usize, slot: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity + 1).next_power_of_two();
    heap_block((buckets * slot).next_multiple_of(16) + buckets + 16)
}

/// Arena id of an entry: a `u32` that stands in for its name in the entry
/// slab, the sibling lists and every posting. [`ROOT`] is no entry's id.
type DnId = u32;

/// What a suffix entry's node holds as its parent: the virtual DIT root.
/// The id space stops one short of it.
const ROOT: DnId = DnId::MAX;

/// A map keyed by a 32-bit hash the store has already taken — a DN's, or
/// a normalized value's. The key goes in as it is: the map does not hash
/// it again.
type HashedBy<V> = HashMap<u32, V, BuildHasherDefault<Taken>>;

/// The hasher of a [`HashedBy`] map: it is handed a finished 32-bit hash
/// and repeats it in both halves of the 64 bits the map sees, which takes
/// a bucket from the low bits and a control tag from the top seven. That
/// hash is [`Hashes`]' keyed SipHash, so names and values crafted to
/// collide are no easier to find than under the default hasher.
#[derive(Default)]
struct Taken(u64);

impl Hasher for Taken {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a HashedBy key is a finished u32 hash")
    }

    fn write_u32(&mut self, hash: u32) {
        self.0 = u64::from(hash) << 32 | u64::from(hash);
    }
}

/// The ids under each hash of a DN, or of an indexed value. Names and
/// numbers are unique, so nearly every hash has one id, which takes an
/// 8-byte slot in `one`. A hash that two or more ids share (one value many
/// entries hold, or a collision) has a set in `many` instead. No hash is
/// in both maps.
#[derive(Default)]
struct IdTable {
    one: HashedBy<DnId>,
    many: HashedBy<HashSet<DnId>>,
}

impl IdTable {
    fn get(&self, hash: u32) -> Option<Ids<'_>> {
        match self.one.get(&hash) {
            Some(&id) => Some(Ids::One(id)),
            None => self.many.get(&hash).map(Ids::Many),
        }
    }

    /// Add `id` under `hash`.
    fn post(&mut self, hash: u32, id: DnId) {
        if let Some(set) = self.many.get_mut(&hash) {
            set.insert(id);
            return;
        }
        match self.one.entry(hash) {
            hash_map::Entry::Vacant(slot) => {
                slot.insert(id);
            }
            hash_map::Entry::Occupied(slot) if *slot.get() == id => {}
            hash_map::Entry::Occupied(slot) => {
                let first = slot.remove();
                self.many.insert(hash, HashSet::from([first, id]));
            }
        }
    }

    /// Take `id` out from under `hash`. A set left with one id goes back
    /// to `one`, and a set left with under a quarter of its capacity gives
    /// the rest back: `remove` alone keeps every bucket.
    fn withdraw(&mut self, hash: u32, id: DnId) {
        if self.one.get(&hash) == Some(&id) {
            self.one.remove(&hash);
            return;
        }
        let Some(set) = self.many.get_mut(&hash) else {
            return;
        };
        set.remove(&id);
        if set.len() == 1 {
            let last = *set.iter().next().expect("one id left");
            self.many.remove(&hash);
            self.one.insert(hash, last);
        } else if set.len() < set.capacity() / 4 {
            set.shrink_to_fit();
        }
    }

    fn clear(&mut self) {
        self.one.clear();
        self.many.clear();
    }

    /// Both maps' blocks and every shared hash's set.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let sets: usize = (self.many.values())
            .map(|set| hash_table_block(set.capacity(), size_of::<DnId>()))
            .sum();
        hash_table_block(self.one.capacity(), size_of::<(u32, DnId)>())
            + hash_table_block(self.many.capacity(), size_of::<(u32, HashSet<DnId>)>())
            + sets
    }

    /// Each hash is in exactly one of the two maps, and a set holds two
    /// ids at least.
    #[cfg(test)]
    fn assert_each_hash_in_one_map(&self) {
        for (hash, set) in &self.many {
            assert!(set.len() >= 2, "hash {hash} has a set of {}", set.len());
            assert!(!self.one.contains_key(hash), "hash {hash} is in both maps");
        }
    }
}

/// The ids under one hash, borrowed from an [`IdTable`].
#[derive(Clone, Copy)]
enum Ids<'a> {
    One(DnId),
    Many(&'a HashSet<DnId>),
}

impl<'a> Ids<'a> {
    fn len(self) -> usize {
        match self {
            Ids::One(_) => 1,
            Ids::Many(set) => set.len(),
        }
    }

    fn iter(self) -> impl Iterator<Item = DnId> + 'a {
        let (one, many) = match self {
            Ids::One(id) => (Some(id), None),
            Ids::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// How a store hashes names and values: 32 bits of SipHash under a key of
/// its own. Unit tests keep two bits of every hash, so each test in this
/// module runs on colliding buckets.
struct Hashes(RandomState);

impl Hashes {
    fn finish(&self, item: impl Hash) -> u32 {
        let hash = self.0.hash_one(item) as u32;
        if cfg!(test) {
            hash & 0b11
        } else {
            hash
        }
    }

    /// The hash of `dn`: what `Dn: Hash` hashes, so a parent's hash is
    /// the hash of the parent chain `dn` points at.
    fn dn(&self, dn: &Dn) -> u32 {
        self.finish(dn)
    }

    /// The hash of `value` normalized, which is built in `scratch`.
    fn value(&self, value: &str, scratch: &mut String) -> u32 {
        norm_value_into(value, scratch);
        self.finish(scratch.as_str())
    }
}

/// Sibling order, read off two leaf RDNs: their [`Rdn::key_bytes`], each
/// followed by the `,` that joins it to the parent's key when there is a
/// parent. That is the order of the siblings' full [`Dn::norm_key`]s, and
/// for names with no `,` `+` `\` in a value, of their unescaped keys.
fn sibling_order(a: &Rdn, b: &Rdn, under_parent: bool) -> cmp::Ordering {
    let comma = under_parent.then_some(b',');
    // The common case, siblings named by one type, compares the folded
    // values alone: their keys agree up to them. What both values start
    // with alike is escaped alike, so only a `,` `+` or `\` after it sends
    // the pair down the long way.
    if let ([x], [y]) = (a.avas(), b.avas()) {
        let (v, w) = (x.value(), y.value());
        let alike = alike_prefix(v.as_bytes(), w.as_bytes());
        let plain = |s: &str| {
            !s.as_bytes()[alike..]
                .iter()
                .any(|b| matches!(b, b',' | b'+' | b'\\'))
        };
        if x.norm_attr() == y.norm_attr() && plain(v) && plain(w) {
            return norm_cmp(v, w, comma);
        }
    }
    (a.key_bytes().chain(comma)).cmp(b.key_bytes().chain(comma))
}

/// What the filter planner decided for one search.
#[derive(Clone, Copy)]
enum Plan<'a> {
    /// Serve from this posting list (smallest among the filter's indexed
    /// equality conjuncts); every candidate is re-verified with the full
    /// filter.
    Candidates(Ids<'a>),
    /// An indexed equality conjunct matches no entry at all: the result is
    /// provably empty, no traversal needed.
    Empty,
    /// No indexed equality conjunct applies: fall back to the scan.
    Scan,
}

/// Equality conjuncts of a filter: the filter itself, or — through nested
/// `&`s, which are conjunctive — every equality child.
fn collect_eq<'f>(f: &'f Filter, out: &mut Vec<(&'f str, &'f str)>) {
    match f {
        Filter::Equality(a, v) => out.push((a, v)),
        Filter::And(fs) => {
            for c in fs {
                collect_eq(c, out);
            }
        }
        _ => {}
    }
}

/// Per-attribute equality index: normalized value's hash → the ids of
/// every entry carrying the value, and of any entry whose value collides
/// with it ([`IdTable`]). No value is stored here: the planner re-runs the
/// full filter on every candidate, so a collision costs one check, and a
/// hash with no posting still proves that no entry holds the value. Lives
/// inside the store so maintenance shares the update ops' write lock.
/// Postings are unordered; candidate order is recovered at query time by
/// sorting survivors with the sibling comparator — a few comparisons on
/// what is typically a small candidate set.
struct IdIndex {
    postings: HashMap<String, IdTable>,
    /// The normalized value being hashed: maintenance runs under the
    /// store's write lock, so one buffer serves every call.
    scratch: String,
}

impl IdIndex {
    fn new(attrs: &[&str]) -> IdIndex {
        let mut postings = HashMap::new();
        for a in attrs {
            postings.insert(a.to_ascii_lowercase(), IdTable::default());
        }
        IdIndex {
            postings,
            scratch: String::new(),
        }
    }

    fn enabled(&self) -> bool {
        !self.postings.is_empty()
    }

    fn insert_entry(&mut self, hashes: &Hashes, id: DnId, e: &Entry) {
        self.each_indexed_value(hashes, id, e, IdTable::post);
    }

    fn remove_entry(&mut self, hashes: &Hashes, id: DnId, e: &Entry) {
        self.each_indexed_value(hashes, id, e, IdTable::withdraw);
    }

    /// `post` or `withdraw` every value of `e` that has a table.
    fn each_indexed_value(
        &mut self,
        hashes: &Hashes,
        id: DnId,
        e: &Entry,
        apply: fn(&mut IdTable, u32, DnId),
    ) {
        if !self.enabled() {
            return;
        }
        for attr in e.attributes() {
            if let Some(table) = self.postings.get_mut(attr.name.norm()) {
                for v in &attr.values {
                    apply(table, hashes.value(v, &mut self.scratch), id);
                }
            }
        }
    }

    /// Entry `id` changed from `old` to `new`: re-post the indexed
    /// attributes whose values differ and leave the others' postings alone.
    /// Every old value of an attribute is withdrawn before any new one is
    /// posted, which is also what keeps `id` posted when two of its values
    /// share a hash and only one of them goes.
    fn update_entry(&mut self, hashes: &Hashes, id: DnId, old: &Entry, new: &Entry) {
        for (attr, table) in &mut self.postings {
            let (was, now) = (old.values(attr), new.values(attr));
            if was != now {
                for v in was {
                    table.withdraw(hashes.value(v, &mut self.scratch), id);
                }
                for v in now {
                    table.post(hashes.value(v, &mut self.scratch), id);
                }
            }
        }
    }

    /// Walk the filter for indexed equality conjuncts and pick the smallest
    /// posting list. Applicability rules (DESIGN.md §10): a top-level
    /// equality on an indexed attribute, or an `&` whose conjuncts (nested
    /// `&`s flatten) include one — anything else scans. A missing posting
    /// for an indexed conjunct proves the result empty.
    fn plan(&self, hashes: &Hashes, filter: &Filter) -> Plan<'_> {
        if !self.enabled() {
            return Plan::Scan;
        }
        let mut conjuncts: Vec<(&str, &str)> = Vec::new();
        match filter {
            Filter::Equality(..) | Filter::And(_) => collect_eq(filter, &mut conjuncts),
            _ => return Plan::Scan,
        }
        let mut best: Option<Ids<'_>> = None;
        let mut wanted = String::new();
        for (attr, value) in conjuncts {
            let Some(table) = with_lower(attr, |a| self.postings.get(a)) else {
                continue;
            };
            match table.get(hashes.value(value, &mut wanted)) {
                None => return Plan::Empty,
                Some(ids) => {
                    if best.is_none_or(|b| ids.len() < b.len()) {
                        best = Some(ids);
                    }
                }
            }
        }
        best.map_or(Plan::Scan, Plan::Candidates)
    }

    fn heap_bytes(&self) -> usize {
        let mut bytes = heap_block(self.scratch.capacity())
            + hash_table_block(
                self.postings.capacity(),
                std::mem::size_of::<(String, IdTable)>(),
            );
        for (attr, table) in &self.postings {
            bytes += heap_block(attr.capacity()) + table.heap_bytes();
        }
        bytes
    }
}

/// One arena slot: the entry and the tree links as ids, in 48 bytes.
struct CompactNode {
    entry: Entry,
    /// [`ROOT`] for a suffix entry.
    parent: DnId,
    /// Sorted by [`sibling_order`]; unsorted while a bulk load is active.
    /// Boxed on purpose: nearly every entry is a leaf, and a leaf's `None`
    /// costs 8 bytes where an empty vector's header costs 24. Dropped
    /// again with the last child.
    #[allow(clippy::box_collection)]
    children: Option<Box<Vec<DnId>>>,
}

impl CompactNode {
    /// `None` under the virtual root.
    fn parent(&self) -> Option<DnId> {
        (self.parent != ROOT).then_some(self.parent)
    }

    fn children(&self) -> &[DnId] {
        self.children.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// The store: id-keyed tree and index, and the DN table that finds ids.
struct CompactStore {
    /// DN hash → the ids whose DN has it: one id a name, a set only where
    /// two names collide, settled by `Dn ==` against the node's entry. The
    /// name itself lives in the entry alone.
    dns: IdTable,
    hashes: Hashes,
    slots: Vec<Option<CompactNode>>,
    /// Freed ids, reused by later inserts.
    free: Vec<DnId>,
    /// Children of the virtual root, sorted like [`CompactNode::children`].
    root_children: Vec<DnId>,
    index: IdIndex,
    /// Bulk-load nesting depth (see [`Dit::begin_bulk`]): while non-zero,
    /// sibling lists append unsorted and the index is not maintained —
    /// `finish_bulk_build` restores both invariants in one pass.
    bulk: u32,
}

impl CompactStore {
    fn new(indexed_attrs: &[&str]) -> CompactStore {
        CompactStore {
            dns: IdTable::default(),
            hashes: Hashes(RandomState::new()),
            slots: Vec::new(),
            free: Vec::new(),
            root_children: Vec::new(),
            index: IdIndex::new(indexed_attrs),
            bulk: 0,
        }
    }

    /// Live entries.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn node(&self, id: DnId) -> &CompactNode {
        self.slots[id as usize].as_ref().expect("live id")
    }

    fn node_mut(&mut self, id: DnId) -> &mut CompactNode {
        self.slots[id as usize].as_mut().expect("live id")
    }

    /// The leaf RDN of entry `id`.
    fn rdn(&self, id: DnId) -> &Rdn {
        self.node(id)
            .entry
            .dn()
            .rdn()
            .expect("an entry is never the root")
    }

    /// The id of the entry named `dn`, whose hash is `hash`.
    fn find_hashed(&self, hash: u32, dn: &Dn) -> Option<DnId> {
        (self.dns.get(hash)?)
            .iter()
            .find(|&id| self.node(id).entry.dn() == dn)
    }

    fn find(&self, dn: &Dn) -> Option<DnId> {
        self.find_hashed(self.hashes.dn(dn), dn)
    }

    fn get_entry(&self, dn: &Dn) -> Option<&Entry> {
        self.find(dn).map(|id| &self.node(id).entry)
    }

    /// Where the entry named `dn` hangs: `Some(None)` under the virtual
    /// root (a suffix), `None` when no entry has the parent's name.
    fn parent_of(&self, dn: &Dn) -> Option<Option<DnId>> {
        match dn.parent() {
            Some(above) if !above.is_root() => self.find(&above).map(Some),
            _ => Some(None),
        }
    }

    fn children_of(&self, parent: Option<DnId>) -> &[DnId] {
        match parent {
            Some(p) => self.node(p).children(),
            None => &self.root_children,
        }
    }

    /// `parent`'s children, to be edited: a leaf's are created empty.
    fn children_mut(&mut self, parent: Option<DnId>) -> &mut Vec<DnId> {
        match parent {
            Some(p) => self.node_mut(p).children.get_or_insert_default(),
            None => &mut self.root_children,
        }
    }

    /// Is `id` a strict descendant of `ancestor`?
    fn is_under(&self, mut id: DnId, ancestor: DnId) -> bool {
        while let Some(p) = self.node(id).parent() {
            if p == ancestor {
                return true;
            }
            id = p;
        }
        false
    }

    fn alloc(&mut self, node: CompactNode) -> DnId {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(node);
                id
            }
            None => {
                let id = (DnId::try_from(self.slots.len()).ok())
                    .filter(|&id| id != ROOT)
                    .expect("DnId space exhausted");
                self.slots.push(Some(node));
                id
            }
        }
    }

    /// Where `id` sits, or would sit, among `parent`'s sorted children.
    fn sibling_slot(&self, parent: Option<DnId>, id: DnId) -> std::result::Result<usize, usize> {
        let rdn = self.rdn(id);
        self.children_of(parent)
            .binary_search_by(|&c| sibling_order(self.rdn(c), rdn, parent.is_some()))
    }

    /// Splice `id` into its parent's sibling list at its sorted position
    /// (append unsorted during bulk loads).
    fn link_child(&mut self, parent: Option<DnId>, id: DnId) {
        let pos = match self.bulk {
            0 => self.sibling_slot(parent, id).unwrap_err(),
            _ => self.children_of(parent).len(),
        };
        self.children_mut(parent).insert(pos, id);
    }

    /// Take `id` out of its parent's sibling list, and the list out of a
    /// parent it leaves childless.
    fn unlink_child(&mut self, parent: Option<DnId>, id: DnId) {
        let pos = if self.bulk > 0 {
            self.children_of(parent).iter().position(|&c| c == id)
        } else {
            self.sibling_slot(parent, id).ok()
        }
        .expect("child is linked under its parent");
        let siblings = self.children_mut(parent);
        siblings.remove(pos);
        if let (true, Some(p)) = (siblings.is_empty(), parent) {
            self.node_mut(p).children = None;
        }
    }

    /// Insert an entry, whose DN hashes to `hash`, under `parent`, and
    /// return its id: the caller has already checked that the parent
    /// exists and the name is free. The name's parent link is pointed at
    /// the parent entry's own name, so every path into the tree (add,
    /// rename, subtree move) leaves each name stored once, in one block; a
    /// bulk load does the same for all its entries at once, in
    /// `finish_bulk_build`.
    fn insert_entry(&mut self, hash: u32, parent: Option<DnId>, mut entry: Entry) -> DnId {
        if let (Some(p), 0) = (parent, self.bulk) {
            entry.dn_mut().share_parent(self.node(p).entry.dn());
        }
        let id = self.alloc(CompactNode {
            entry,
            parent: parent.unwrap_or(ROOT),
            children: None,
        });
        self.dns.post(hash, id);
        if self.bulk == 0 {
            let CompactStore {
                slots,
                index,
                hashes,
                ..
            } = self;
            let node = slots[id as usize].as_ref().expect("just allocated");
            index.insert_entry(hashes, id, &node.entry);
        }
        self.link_child(parent, id);
        id
    }

    /// Remove the childless entry `id`, whose DN hashes to `hash`.
    fn remove_leaf(&mut self, id: DnId, hash: u32) -> Entry {
        let parent = self.node(id).parent();
        self.unlink_child(parent, id);
        let node = self.slots[id as usize].take().expect("live id");
        self.dns.withdraw(hash, id);
        if self.bulk == 0 {
            self.index.remove_entry(&self.hashes, id, &node.entry);
        }
        self.free.push(id);
        node.entry
    }

    /// Write `updated`, a validated, modified copy of entry `id`, into the
    /// stored entry itself: the index re-posts what differs between the two
    /// images, then the stored entry takes over only the attributes that
    /// changed ([`Entry::take_changes`]).
    fn update_entry(&mut self, id: DnId, updated: Entry) {
        let CompactStore {
            slots,
            index,
            hashes,
            bulk,
            ..
        } = self;
        let stored = &mut slots[id as usize].as_mut().expect("live id").entry;
        if *bulk == 0 {
            index.update_entry(hashes, id, stored, &updated);
        }
        stored.take_changes(updated);
    }

    /// Rename/move the subtree rooted at `root` (whose DN hashes to
    /// `hash`): remove it leaves-first and reinsert it parents-first, each
    /// descendant named by its own RDN on top of its parent's new name.
    /// `head` is the already-updated image of the renamed entry itself.
    fn rename_subtree(&mut self, root: DnId, hash: u32, head: Entry) {
        let order: Vec<DnId> = self.parents_first(Some(root)).collect();
        // Where the parent of each entry below `root` sits in `order`: the
        // walk yields every entry's children together, in the entries'
        // order.
        let parents: Vec<usize> = (order.iter().enumerate())
            .flat_map(|(i, &id)| std::iter::repeat_n(i, self.node(id).children().len()))
            .collect();
        let mut moved: Vec<Entry> = (order.iter().rev())
            .map(|&id| {
                let hash = match id == root {
                    true => hash,
                    false => self.hashes.dn(self.node(id).entry.dn()),
                };
                self.remove_leaf(id, hash)
            })
            .collect();
        moved.pop(); // the renamed entry's old image: `head` replaces it
        let hash = self.hashes.dn(head.dn());
        let parent = self.parent_of(head.dn()).expect("parent checked");
        let mut new_ids = vec![self.insert_entry(hash, parent, head)];
        for (mut e, p) in moved.into_iter().rev().zip(parents) {
            let parent = new_ids[p];
            let rdn = e.dn().rdn().expect("an entry is never the root").clone();
            e.set_dn(self.node(parent).entry.dn().child(rdn));
            let hash = self.hashes.dn(e.dn());
            new_ids.push(self.insert_entry(hash, Some(parent), e));
        }
    }

    /// Restore the sorted-sibling, shared-name and index invariants after a
    /// bulk load: sort every sibling list, point every entry's parent link
    /// at its parent entry's name, and rebuild the postings in one pass over
    /// the live slots. This replaces ~n per-insert index updates with one
    /// linear build — the core of the fast cold start. The DN table needs
    /// no rebuild: every insert posts to it.
    fn finish_bulk_build(&mut self) {
        let mut rc = std::mem::take(&mut self.root_children);
        rc.sort_unstable_by(|&a, &b| sibling_order(self.rdn(a), self.rdn(b), false));
        self.root_children = rc;
        for i in 0..self.slots.len() {
            let Some(mut kids) = self.slots[i].as_mut().and_then(|n| n.children.take()) else {
                continue;
            };
            kids.sort_unstable_by(|&a, &b| sibling_order(self.rdn(a), self.rdn(b), true));
            self.node_mut(i as DnId).children = Some(kids);
        }
        // Parents first, so that what a name links to is already its
        // parent's final block. Done here and not per insert: while the
        // loader's threads are still allocating next to the copies being
        // released, every release is a contended cache line (4 us an entry
        // in the inserter, against 0.2 us once they are gone).
        let mut queue: VecDeque<DnId> = self.root_children.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            queue.extend(self.node(id).children());
            if let Some(p) = self.node(id).parent() {
                let mut dn = std::mem::take(self.node_mut(id).entry.dn_mut());
                dn.share_parent(self.node(p).entry.dn());
                *self.node_mut(id).entry.dn_mut() = dn;
            }
        }
        for m in self.index.postings.values_mut() {
            m.clear();
        }
        if self.index.enabled() {
            let CompactStore {
                slots,
                index,
                hashes,
                ..
            } = self;
            for (i, slot) in slots.iter().enumerate() {
                if let Some(n) = slot {
                    index.insert_entry(hashes, i as DnId, &n.entry);
                }
            }
        }
    }

    fn footprint(&self) -> Footprint {
        use std::mem::size_of;
        let mut fp = Footprint {
            entries: self.len(),
            key_arena_bytes: self.dns.heap_bytes(),
            slab_bytes: heap_block(self.slots.capacity() * size_of::<Option<CompactNode>>())
                + heap_block(self.free.capacity() * size_of::<DnId>()),
            postings_bytes: self.index.heap_bytes(),
            sibling_bytes: heap_block(self.root_children.capacity() * size_of::<DnId>()),
            ..Footprint::default()
        };
        let root = Dn::root();
        for node in self.slots.iter().flatten() {
            if let Some(kids) = &node.children {
                fp.sibling_bytes += heap_block(size_of::<Vec<DnId>>())
                    + heap_block(kids.capacity() * size_of::<DnId>());
            }
            fp.attr_bytes += heap_block(node.entry.attr_heap_bytes());
            let above = node.parent().map_or(&root, |p| self.node(p).entry.dn());
            (node.entry.dn()).heap_blocks(above, |n| fp.dn_bytes += heap_block(n));
        }
        fp
    }

    /// Plan wrapper: while a bulk load is active the index is stale, so
    /// every search scans.
    fn plan(&self, filter: &Filter) -> Plan<'_> {
        if self.bulk > 0 {
            return Plan::Scan;
        }
        self.index.plan(&self.hashes, filter)
    }

    /// Where two entries fall in the scan's level-by-level walk: shallower
    /// first, then, from the top down, by the sibling order of the first
    /// RDNs on their paths that differ — the first ancestors that are not
    /// one entry.
    fn scan_order(&self, a: DnId, b: DnId) -> cmp::Ordering {
        let depth = |mut id: DnId| {
            let mut depth = 0;
            while let Some(p) = self.node(id).parent() {
                (depth, id) = (depth + 1, p);
            }
            depth
        };
        depth(a).cmp(&depth(b)).then_with(|| {
            // Up both paths to the two children of the lowest ancestor the
            // entries have in common.
            let (mut a, mut b) = (a, b);
            loop {
                match (self.node(a).parent(), self.node(b).parent()) {
                    (pa, pb) if pa == pb => {
                        return match a == b {
                            true => cmp::Ordering::Equal,
                            false => sibling_order(self.rdn(a), self.rdn(b), pa.is_some()),
                        };
                    }
                    (Some(pa), Some(pb)) => (a, b) = (pa, pb),
                    _ => unreachable!("entries of one depth"),
                }
            }
        })
    }

    /// The children of `base` (`None`: the virtual root) under `plan`.
    fn search_one(
        &self,
        base: Option<DnId>,
        plan: Plan<'_>,
        push: &mut dyn FnMut(&Entry) -> Result<()>,
    ) -> Result<()> {
        match plan {
            Plan::Empty => {}
            Plan::Candidates(set) => {
                // Candidate-major: an O(1) parent check per candidate, then
                // the survivors in sibling order — the scan's order.
                let mut hits: Vec<DnId> = set
                    .iter()
                    .filter(|&id| self.node(id).parent() == base)
                    .collect();
                hits.sort_unstable_by(|&a, &b| {
                    sibling_order(self.rdn(a), self.rdn(b), base.is_some())
                });
                for id in hits {
                    push(&self.node(id).entry)?;
                }
            }
            Plan::Scan => {
                for &id in self.children_of(base) {
                    push(&self.node(id).entry)?;
                }
            }
        }
        Ok(())
    }

    /// `base_id` and everything below it (`None`: the whole tree) under
    /// `plan`.
    fn search_sub(
        &self,
        base_id: Option<DnId>,
        plan: Plan<'_>,
        push: &mut dyn FnMut(&Entry) -> Result<()>,
    ) -> Result<()> {
        match plan {
            Plan::Empty => {}
            Plan::Candidates(set) => {
                let mut cands: Vec<DnId> = set
                    .iter()
                    .filter(|&id| base_id.is_none_or(|b| id == b || self.is_under(id, b)))
                    .collect();
                cands.sort_unstable_by(|&a, &b| self.scan_order(a, b));
                for id in cands {
                    push(&self.node(id).entry)?;
                }
            }
            Plan::Scan => {
                for id in self.parents_first(base_id) {
                    push(&self.node(id).entry)?;
                }
            }
        }
        Ok(())
    }

    /// `start` and everything below it (`None`: the whole tree), parents
    /// before children: level by level over the sorted sibling lists.
    fn parents_first(&self, start: Option<DnId>) -> impl Iterator<Item = DnId> + '_ {
        let mut queue: VecDeque<DnId> = match start {
            Some(id) => VecDeque::from([id]),
            None => self.root_children.iter().copied().collect(),
        };
        std::iter::from_fn(move || {
            let id = queue.pop_front()?;
            queue.extend(self.node(id).children());
            Some(id)
        })
    }
}

/// What the DIT's lock guards: the tree and the commit counter.
struct Store {
    tree: CompactStore,
    /// Commit sequence of the most recent update.
    seq: u64,
}

/// The DIT. Cheap to clone the handle (`Arc` inside); all methods take
/// `&self` and are safe for concurrent use.
pub struct Dit {
    store: RwLock<Store>,
    schema: SchemaRef,
    observers: RwLock<Vec<Observer>>,
    /// One/Sub searches answered from the equality index (incl. provably
    /// empty results).
    index_served: AtomicU64,
    /// One/Sub searches that fell back to the scan.
    index_scanned: AtomicU64,
}

impl Dit {
    /// DIT with schema checking off and the default equality indexes.
    pub fn new() -> Arc<Dit> {
        Dit::with_schema(Arc::new(Schema::permissive()))
    }

    /// DIT validating every write against `schema`, with the
    /// [`DEFAULT_INDEXED_ATTRS`] equality indexes.
    pub fn with_schema(schema: SchemaRef) -> Arc<Dit> {
        Dit::with_schema_indexed(schema, DEFAULT_INDEXED_ATTRS)
    }

    /// DIT with an explicit equality-index attribute set. An empty slice
    /// disables indexing entirely (every search scans — the ablation
    /// baseline for benchmarks).
    pub fn with_schema_indexed(schema: SchemaRef, indexed_attrs: &[&str]) -> Arc<Dit> {
        Arc::new(Dit {
            store: RwLock::new(Store {
                tree: CompactStore::new(indexed_attrs),
                seq: 0,
            }),
            schema,
            observers: RwLock::new(Vec::new()),
            index_served: AtomicU64::new(0),
            index_scanned: AtomicU64::new(0),
        })
    }

    /// The attributes carrying an equality index, normalized and sorted.
    #[cfg(test)]
    fn indexed_attrs(&self) -> Vec<String> {
        let mut attrs: Vec<String> = (unpoison(self.store.read()).tree.index.postings.keys())
            .cloned()
            .collect();
        attrs.sort();
        attrs
    }

    /// Every id table keeps each hash in exactly one of its maps.
    #[cfg(test)]
    fn assert_each_hash_in_one_map(&self) {
        let s = unpoison(self.store.read());
        s.tree.dns.assert_each_hash_in_one_map();
        for table in s.tree.index.postings.values() {
            table.assert_each_hash_in_one_map();
        }
    }

    /// `(served, scanned)`: One/Sub searches answered from the equality
    /// index vs. by subtree scan, since construction.
    pub fn index_stats(&self) -> (u64, u64) {
        (
            self.index_served.load(Ordering::Relaxed),
            self.index_scanned.load(Ordering::Relaxed),
        )
    }

    /// Resident bytes by structure (see [`Footprint`]): one walk of the
    /// store under the read lock, linear in the number of entries — for a
    /// monitor read or a rig's report, not for a request path.
    pub fn footprint(&self) -> Footprint {
        unpoison(self.store.read()).tree.footprint()
    }

    /// Register a commit observer (the write-ahead log, tests).
    /// Observers run synchronously inside the commit, in registration order.
    pub fn observe(&self, f: impl Fn(&ChangeRecord) + Send + Sync + 'static) {
        unpoison(self.observers.write()).push(Box::new(f));
    }

    /// The record of a write about to be made to `dn`, or `None` when no
    /// observer is registered: what a record carries (a copy of the entry,
    /// of the modification list) is built only for someone to see it, and
    /// before the write takes the store's lock. An observer that registers
    /// while that write is under way first sees the commit after it. The
    /// commit sequence is [`Dit::emit`]'s to fill in.
    fn record(&self, dn: &Dn, op: impl FnOnce() -> ChangeOp) -> Option<ChangeRecord> {
        self.observed().then(|| ChangeRecord {
            seq: 0,
            dn: dn.clone(),
            op: op(),
        })
    }

    fn observed(&self) -> bool {
        !unpoison(self.observers.read()).is_empty()
    }

    fn emit(&self, rec: Option<ChangeRecord>, seq: u64) {
        let Some(mut rec) = rec else { return };
        rec.seq = seq;
        for obs in unpoison(self.observers.read()).iter() {
            obs(&rec);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        unpoison(self.store.read()).tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Commit sequence of the most recent update.
    pub fn seq(&self) -> u64 {
        unpoison(self.store.read()).seq
    }

    /// Fast-forward the commit sequence (recovery: replaying a snapshot and
    /// log re-runs commits with fresh low sequence numbers, so the counter
    /// must be restored to the pre-crash value before new commits continue
    /// the original numbering). Only ever moves forward.
    pub fn set_seq(&self, seq: u64) {
        let mut s = unpoison(self.store.write());
        s.seq = s.seq.max(seq);
    }

    /// Fetch a copy of one entry.
    pub fn get(&self, dn: &Dn) -> Option<Entry> {
        unpoison(self.store.read()).tree.get_entry(dn).cloned()
    }

    pub fn exists(&self, dn: &Dn) -> bool {
        unpoison(self.store.read()).tree.find(dn).is_some()
    }

    /// Enter bulk-load mode (nestable). Inserts stop maintaining the
    /// equality index and sibling sort order; [`Dit::finish_bulk`] restores
    /// both with one build pass — recovery loads a million-entry snapshot
    /// without a million incremental index updates. While active, searches
    /// fall back to (unordered) scans.
    pub fn begin_bulk(&self) {
        unpoison(self.store.write()).tree.bulk += 1;
    }

    /// Leave bulk-load mode; the outermost call sorts sibling lists and
    /// rebuilds the equality index.
    pub fn finish_bulk(&self) {
        let cs = &mut unpoison(self.store.write()).tree;
        cs.bulk = cs.bulk.saturating_sub(1);
        if cs.bulk == 0 {
            cs.finish_bulk_build();
        }
    }

    /// Add an entry. The parent must exist unless the entry is a suffix
    /// (depth-1) entry.
    pub fn add(&self, entry: Entry) -> Result<()> {
        self.add_inner(entry, true, true)
    }

    /// Bulk-load insert used by snapshot recovery: same structural checks
    /// as [`Dit::add`], but no [`ChangeRecord`] is built or emitted
    /// (recovery attaches observers only after the load), and schema
    /// validation is skipped when `trusted` — the source is this system's
    /// own CRC-verified snapshot, whose entries were validated when first
    /// written.
    pub fn bulk_add(&self, entry: Entry, trusted: bool) -> Result<()> {
        self.add_inner(entry, !trusted, false)
    }

    fn add_inner(&self, entry: Entry, validate: bool, emit: bool) -> Result<()> {
        if entry.dn().is_root() {
            return Err(LdapError::unwilling("cannot add the root DSE"));
        }
        if validate {
            self.schema.validate_entry(&entry)?;
        }
        // Whether a record is wanted is settled before the lock, like
        // `record`; the record itself copies the stored entry, whose name
        // is then the store's block and costs a reference count.
        let observed = emit && self.observed();
        let mut guard = unpoison(self.store.write());
        let s = &mut *guard;
        let hash = s.tree.hashes.dn(entry.dn());
        if s.tree.find_hashed(hash, entry.dn()).is_some() {
            return Err(LdapError::already_exists(entry.dn()));
        }
        let Some(parent) = s.tree.parent_of(entry.dn()) else {
            return Err(LdapError::new(
                ResultCode::NoSuchObject,
                format!("parent of `{}` does not exist", entry.dn()),
            ));
        };
        let id = s.tree.insert_entry(hash, parent, entry);
        let rec = observed.then(|| {
            let stored = &s.tree.node(id).entry;
            ChangeRecord {
                seq: 0,
                dn: stored.dn().clone(),
                op: ChangeOp::Add(stored.clone()),
            }
        });
        s.seq += 1;
        let seq = s.seq;
        drop(guard);
        self.emit(rec, seq);
        Ok(())
    }

    /// Delete a leaf entry.
    pub fn delete(&self, dn: &Dn) -> Result<()> {
        let rec = self.record(dn, || ChangeOp::Delete);
        let mut guard = unpoison(self.store.write());
        let s = &mut *guard;
        let hash = s.tree.hashes.dn(dn);
        let id = (s.tree.find_hashed(hash, dn)).ok_or_else(|| LdapError::no_such_object(dn))?;
        if !s.tree.node(id).children().is_empty() {
            return Err(LdapError::new(
                ResultCode::NotAllowedOnNonLeaf,
                format!("`{dn}` has children"),
            ));
        }
        s.tree.remove_leaf(id, hash);
        s.seq += 1;
        let seq = s.seq;
        drop(guard);
        self.emit(rec, seq);
        Ok(())
    }

    /// Modify an entry in place. All modifications apply atomically; RDN
    /// attribute values cannot be removed (use [`Dit::modify_rdn`]).
    pub fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        let rec = self.record(dn, || ChangeOp::Modify(mods.to_vec()));
        let mut guard = unpoison(self.store.write());
        let s = &mut *guard;
        let id = (s.tree.find(dn)).ok_or_else(|| LdapError::no_such_object(dn))?;
        // Validated on a private copy, dropped on any error below; only a
        // valid result is written into the stored entry.
        let mut updated = s.tree.node(id).entry.clone();
        updated.apply_in_place(mods)?;
        // Naming invariant even under a permissive schema.
        if let Some(rdn) = dn.rdn() {
            for ava in rdn.avas() {
                if !updated.has_value(ava.attr(), ava.value()) {
                    return Err(LdapError::new(
                        ResultCode::NotAllowedOnRdn,
                        format!(
                            "modification would remove RDN value `{}={}`",
                            ava.attr(),
                            ava.value()
                        ),
                    ));
                }
            }
        }
        self.schema.validate_entry(&updated)?;
        s.tree.update_entry(id, updated);
        s.seq += 1;
        let seq = s.seq;
        drop(guard);
        self.emit(rec, seq);
        Ok(())
    }

    /// Rename an entry (and implicitly its subtree) and optionally move it
    /// under `new_superior` (LDAPv3 ModifyDN).
    ///
    /// `delete_old` removes the old RDN values from the entry's attributes.
    pub fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        if dn.is_root() {
            return Err(LdapError::unwilling("cannot rename the root"));
        }
        let new_dn = match new_superior {
            Some(sup) => sup.child(new_rdn.clone()),
            None => dn.with_rdn(new_rdn.clone())?,
        };
        let rec = self.record(dn, || ChangeOp::ModifyRdn {
            new_rdn: new_rdn.clone(),
            delete_old,
            new_superior: new_superior.cloned(),
        });
        let mut guard = unpoison(self.store.write());
        let s = &mut *guard;
        let hash = s.tree.hashes.dn(dn);
        let id = (s.tree.find_hashed(hash, dn)).ok_or_else(|| LdapError::no_such_object(dn))?;
        if let Some(sup) = new_superior {
            if !sup.is_root() && s.tree.find(sup).is_none() {
                return Err(LdapError::no_such_object(sup));
            }
            // Refuse to move an entry under its own subtree.
            if sup.is_within(dn) {
                return Err(LdapError::unwilling(format!(
                    "cannot move `{dn}` under its own descendant `{sup}`"
                )));
            }
        }
        if s.tree.find(&new_dn).is_some_and(|other| other != id) {
            return Err(LdapError::already_exists(&new_dn));
        }
        // Update the renamed entry's attributes.
        let mut entry = s.tree.node(id).entry.clone();
        if delete_old {
            if let Some(old_rdn) = dn.rdn() {
                for ava in old_rdn.avas() {
                    entry.remove_value(ava.attr(), ava.value());
                }
            }
        }
        for ava in new_rdn.avas() {
            entry.add_value(ava.attr(), ava.value());
        }
        entry.set_dn(new_dn);
        self.schema.validate_entry(&entry)?;

        s.tree.rename_subtree(id, hash, entry);
        s.seq += 1;
        let seq = s.seq;
        drop(guard);
        self.emit(rec, seq);
        Ok(())
    }

    /// Compare one attribute value (RFC 2251 Compare).
    pub(crate) fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        let s = unpoison(self.store.read());
        let entry = (s.tree.get_entry(dn)).ok_or_else(|| LdapError::no_such_object(dn))?;
        Ok(entry.has_value(attr, value))
    }

    /// Search. `attrs` selects returned attributes (empty = all);
    /// `size_limit` of 0 means unlimited, otherwise exceeding it is an error.
    ///
    /// One/Sub searches go through the filter planner first; indexed
    /// results are produced in the same order the scan would produce them.
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> Result<Vec<Entry>> {
        let (out, truncated) = self.search_capped(base, scope, filter, attrs, size_limit)?;
        if truncated {
            return Err(LdapError::new(
                ResultCode::SizeLimitExceeded,
                format!("more than {size_limit} entries match"),
            ));
        }
        Ok(out)
    }

    /// Like [`Dit::search`], but a size-limit overflow is not an error:
    /// the entries collected up to the limit are returned together with a
    /// "truncated" flag — the RFC 2251 `sizeLimitExceeded` shape the wire
    /// server needs.
    pub(crate) fn search_capped(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> Result<(Vec<Entry>, bool)> {
        let mut out = Vec::new();
        let (_, truncated) = self.walk(base, scope, filter, size_limit, &mut |e| {
            out.push(e.project(attrs))
        })?;
        Ok((out, truncated))
    }

    /// Stream matching entries through `visit` instead of collecting them:
    /// with an empty projection the visitor borrows entries straight out of
    /// the store — no per-entry clone and no result vector. Returns
    /// `(matches visited, truncated)`. `visit` runs under the store's read
    /// lock: see the visitor contract on
    /// [`Directory::search_visit`](crate::Directory::search_visit).
    pub fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        if attrs.is_empty() {
            self.walk(base, scope, filter, size_limit, visit)
        } else {
            self.walk(base, scope, filter, size_limit, &mut |e| {
                visit(&e.project(attrs))
            })
        }
    }

    /// The traversal core shared by the collecting and streaming searches:
    /// scope dispatch, filter planning, size-limit truncation. `emit`
    /// receives every post-filter match, pre-projection.
    fn walk(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        size_limit: usize,
        emit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        let guard = unpoison(self.store.read());
        let s = &*guard;
        // `None` is the virtual root above every suffix.
        let base_id = match base.is_root() {
            true => None,
            false => Some((s.tree.find(base)).ok_or_else(|| LdapError::no_such_object(base))?),
        };
        let mut count = 0usize;
        let mut truncated = false;
        // The push closure signals "stop traversing" with a sentinel error
        // once the limit is hit; the entries emitted so far are kept.
        let mut push = |e: &Entry| -> Result<()> {
            if filter.matches(e) {
                if size_limit != 0 && count >= size_limit {
                    truncated = true;
                    return Err(LdapError::new(
                        ResultCode::SizeLimitExceeded,
                        "size limit reached",
                    ));
                }
                count += 1;
                emit(e);
            }
            Ok(())
        };
        let walked = (|| -> Result<()> {
            match scope {
                Scope::Base => {
                    if let Some(id) = base_id {
                        push(&s.tree.node(id).entry)?;
                    }
                }
                Scope::One | Scope::Sub => {
                    // Planned once, here, for the counters and the search.
                    let plan = s.tree.plan(filter);
                    let counter = match plan {
                        Plan::Scan => &self.index_scanned,
                        _ => &self.index_served,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    if scope == Scope::One {
                        s.tree.search_one(base_id, plan, &mut push)?;
                    } else {
                        s.tree.search_sub(base_id, plan, &mut push)?;
                    }
                }
            }
            Ok(())
        })();
        match walked {
            Ok(()) => {}
            Err(e) if e.code == ResultCode::SizeLimitExceeded => {}
            Err(e) => return Err(e),
        }
        Ok((count, truncated))
    }

    /// Every entry, parents before children (for export / sync dumps).
    pub fn export(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        self.export_stream(&mut |_| Ok(()), &mut |e| {
            out.push(e.clone());
            Ok(())
        })
        .expect("infallible visitor");
        out
    }

    /// Stream a consistent export under one read guard without
    /// materializing a `Vec<Entry>`: `header` runs once with the commit
    /// sequence the cut reflects, then `each` with every entry, parents
    /// before children. The streaming snapshot writer sits on this — a
    /// million-entry checkpoint never holds more than one entry's text in
    /// memory at a time.
    pub(crate) fn export_stream(
        &self,
        header: &mut dyn FnMut(u64) -> Result<()>,
        each: &mut dyn FnMut(&Entry) -> Result<()>,
    ) -> Result<()> {
        let guard = unpoison(self.store.read());
        let s = &*guard;
        header(s.seq)?;
        for id in s.tree.parents_first(None) {
            each(&s.tree.node(id).entry)?;
        }
        Ok(())
    }

    /// Back to the empty tree, commit sequence included: a restore that
    /// abandons a torn generation must not carry the entries it counted
    /// while loading it into the sequence of the generation it falls back
    /// to.
    pub(crate) fn clear(&self) {
        let mut s = unpoison(self.store.write());
        s.seq = 0;
        let cs = &mut s.tree;
        cs.dns.clear();
        cs.slots.clear();
        cs.free.clear();
        cs.root_children.clear();
        for postings in cs.index.postings.values_mut() {
            postings.clear();
        }
    }
}

/// Convenience: build the standard test tree from the paper's Figure 2.
///
/// ```text
/// o=Lucent
/// ├── o=Marketing     ── cn=John Doe, cn=Pat Smith
/// ├── o=Accounting    ── cn=Tim Dickens
/// ├── o=R&D           ── cn=Jill Lu
/// └── o=DEN Group
/// ```
pub fn figure2_tree(dit: &Dit) -> Result<()> {
    let org = |name: &str| {
        Entry::with_attrs(
            Dn::parse(name).unwrap(),
            [("objectClass", "top"), ("objectClass", "organization")],
        )
    };
    let mut lucent = org("o=Lucent");
    lucent.add_value("o", "Lucent");
    dit.add(lucent)?;
    for (unit, people) in [
        ("Marketing", vec!["John Doe", "Pat Smith"]),
        ("Accounting", vec!["Tim Dickens"]),
        ("R&D", vec!["Jill Lu"]),
        ("DEN Group", vec![]),
    ] {
        let dn = Dn::root()
            .child(Rdn::new("o", "Lucent"))
            .child(Rdn::new("o", unit));
        let mut e = Entry::new(dn.clone());
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "organization");
        e.add_value("o", unit);
        dit.add(e)?;
        for person in people {
            let pdn = dn.child(Rdn::new("cn", person));
            let sn = person.split_whitespace().last().unwrap_or(person);
            let e = Entry::with_attrs(
                pdn,
                [
                    ("objectClass", "top"),
                    ("objectClass", "person"),
                    ("cn", person),
                    ("sn", sn),
                ],
            );
            dit.add(e)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Ava;

    fn tree() -> Arc<Dit> {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        dit
    }

    /// Same tree, indexing disabled — the scan reference.
    fn scan_tree() -> Arc<Dit> {
        let dit = Dit::with_schema_indexed(Arc::new(Schema::permissive()), &[]);
        figure2_tree(&dit).unwrap();
        dit
    }

    #[test]
    fn a_hash_holds_one_id_in_a_slot_and_a_set_from_the_second() {
        let mut t = IdTable::default();
        t.post(5, 7);
        t.post(5, 7);
        assert!(matches!(t.get(5), Some(Ids::One(7))));
        t.post(5, 9);
        t.post(5, 11);
        let ids = t.get(5).expect("posted");
        assert!(matches!(ids, Ids::Many(_)));
        assert_eq!(ids.len(), 3);
        let mut ids: Vec<DnId> = ids.iter().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![7, 9, 11]);
        t.withdraw(5, 8);
        assert_eq!(
            t.get(5).map(Ids::len),
            Some(3),
            "an absent id removes nothing"
        );
        t.withdraw(5, 9);
        assert!(matches!(t.get(5), Some(Ids::Many(_))));
        // Back to one id: back to the slot.
        t.withdraw(5, 7);
        assert!(matches!(t.get(5), Some(Ids::One(11))));
        t.assert_each_hash_in_one_map();
        t.withdraw(5, 7);
        t.withdraw(5, 11);
        assert!(t.get(5).is_none(), "the last id out empties the hash");
        assert!(t.one.is_empty() && t.many.is_empty());
    }

    #[test]
    fn a_set_that_empties_gives_its_buckets_back() {
        let mut emptied = IdTable::default();
        for id in 0..4_096 {
            emptied.post(1, id);
        }
        let full = emptied.heap_bytes();
        for id in 3..4_096 {
            emptied.withdraw(1, id);
        }
        let mut fresh = IdTable::default();
        for id in 0..3 {
            fresh.post(1, id);
        }
        let (left, three) = (emptied.heap_bytes(), fresh.heap_bytes());
        assert!(
            left <= 2 * three,
            "4,096 ids down to 3 hold {left} B (from {full} B), 3 fresh ids {three} B"
        );
    }

    #[test]
    fn a_node_is_40_bytes_an_entry_24_and_a_unique_hash_8() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        assert_eq!(std::mem::size_of::<Option<CompactNode>>(), 40);
        assert_eq!(std::mem::size_of::<(u32, DnId)>(), 8);
    }

    #[test]
    fn an_entry_named_under_another_spelling_keeps_its_bytes() {
        let dit = Dit::new();
        let add = |dn: &Dn| dit.add(Entry::with_attrs(dn.clone(), [("objectClass", "top")]));
        for dn in ["o=X", "ou=B,o=X"] {
            add(&Dn::parse(dn).unwrap()).unwrap();
        }
        let same = Dn::parse("cn=a,ou=B,o=X").unwrap();
        let shouted = Dn::parse("cn=b,OU=B,O=X").unwrap();
        for dn in [&same, &shouted] {
            add(dn).unwrap();
        }
        let parent = dit.get(&Dn::parse("ou=b,o=x").unwrap()).unwrap();
        let (a, b) = (dit.get(&same).unwrap(), dit.get(&shouted).unwrap());
        assert!(a.dn().parent().unwrap().shares_storage(parent.dn()));
        assert!(!b.dn().parent().unwrap().shares_storage(parent.dn()));
        assert_eq!(b.dn().parent().unwrap(), *parent.dn());
        let all = Filter::match_all();
        let found = dit.search(parent.dn(), Scope::One, &all, &[], 0).unwrap();
        let names: Vec<String> = found.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(names, ["cn=a,ou=B,o=X", "cn=b,OU=B,O=X"]);
    }

    #[test]
    fn a_parent_drops_its_children_vector_with_its_last_child() {
        let dit = tree();
        let accounting = Dn::parse("o=Accounting,o=Lucent").unwrap();
        let tim = accounting.child(Rdn::new("cn", "Tim Dickens"));
        let inner_nodes = |dit: &Dit| {
            let s = unpoison(dit.store.read());
            s.tree
                .slots
                .iter()
                .flatten()
                .filter(|n| n.children.is_some())
                .count()
        };
        // o=Lucent, and Marketing, Accounting and R&D.
        assert_eq!(inner_nodes(&dit), 4);
        dit.delete(&tim).unwrap();
        assert_eq!(inner_nodes(&dit), 3);
        dit.delete(&accounting).unwrap();
        assert_eq!(inner_nodes(&dit), 3);
    }

    #[test]
    fn figure2_builds() {
        let dit = tree();
        assert_eq!(dit.len(), 9); // 1 + 4 orgs + 4 people
        assert!(dit.exists(&Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap()));
    }

    #[test]
    fn add_requires_parent() {
        let dit = Dit::new();
        let e = Entry::with_attrs(
            Dn::parse("cn=X,o=Nowhere").unwrap(),
            [("objectClass", "person"), ("cn", "X"), ("sn", "X")],
        );
        let err = dit.add(e).unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchObject);
    }

    #[test]
    fn add_duplicate_rejected() {
        let dit = tree();
        let e = Entry::with_attrs(
            Dn::parse("cn=JOHN DOE,o=marketing,o=lucent").unwrap(),
            [("objectClass", "person"), ("cn", "JOHN DOE"), ("sn", "Doe")],
        );
        let err = dit.add(e).unwrap_err();
        assert_eq!(err.code, ResultCode::EntryAlreadyExists);
    }

    #[test]
    fn delete_leaf_only() {
        let dit = tree();
        let marketing = Dn::parse("o=Marketing,o=Lucent").unwrap();
        let err = dit.delete(&marketing).unwrap_err();
        assert_eq!(err.code, ResultCode::NotAllowedOnNonLeaf);
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.delete(&john).unwrap();
        assert!(!dit.exists(&john));
        assert_eq!(
            dit.delete(&john).unwrap_err().code,
            ResultCode::NoSuchObject
        );
    }

    #[test]
    fn modify_updates_entry() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(
            &john,
            &[Modification::set("telephoneNumber", "+1 908 582 9123")],
        )
        .unwrap();
        assert_eq!(
            dit.get(&john).unwrap().first("telephoneNumber"),
            Some("+1 908 582 9123")
        );
    }

    #[test]
    fn modify_cannot_remove_rdn_value() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let err = dit
            .modify(&john, &[Modification::set("cn", "Other Name")])
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NotAllowedOnRdn);
    }

    #[test]
    fn modify_rdn_renames_and_updates_attrs() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify_rdn(&john, &Rdn::new("cn", "Jack Doe"), true, None)
            .unwrap();
        assert!(!dit.exists(&john));
        let jack = Dn::parse("cn=Jack Doe,o=Marketing,o=Lucent").unwrap();
        let e = dit.get(&jack).unwrap();
        assert!(e.has_value("cn", "Jack Doe"));
        assert!(!e.has_value("cn", "John Doe"));
    }

    #[test]
    fn modify_rdn_keep_old_values() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify_rdn(&john, &Rdn::new("cn", "Jack Doe"), false, None)
            .unwrap();
        let jack = Dn::parse("cn=Jack Doe,o=Marketing,o=Lucent").unwrap();
        let e = dit.get(&jack).unwrap();
        assert!(e.has_value("cn", "Jack Doe"));
        assert!(e.has_value("cn", "John Doe"));
    }

    #[test]
    fn modify_rdn_collision_rejected() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let err = dit
            .modify_rdn(&john, &Rdn::new("cn", "Pat Smith"), true, None)
            .unwrap_err();
        assert_eq!(err.code, ResultCode::EntryAlreadyExists);
    }

    #[test]
    fn subtree_move_rekeys_descendants() {
        let dit = tree();
        // Move the whole Marketing org under R&D.
        let marketing = Dn::parse("o=Marketing,o=Lucent").unwrap();
        let rd = Dn::parse("o=R&D,o=Lucent").unwrap();
        dit.modify_rdn(&marketing, &Rdn::new("o", "Marketing"), false, Some(&rd))
            .unwrap();
        assert!(dit.exists(&Dn::parse("o=Marketing,o=R&D,o=Lucent").unwrap()));
        let moved = Dn::parse("cn=John Doe,o=Marketing,o=R&D,o=Lucent").unwrap();
        assert!(dit.exists(&moved), "descendant should move with subtree");
        assert!(!dit.exists(&Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap()));
        // The moved child's stored DN matches its key.
        assert_eq!(dit.get(&moved).unwrap().dn(), &moved);
    }

    #[test]
    fn cannot_move_under_own_descendant() {
        let dit = tree();
        let lucent = Dn::parse("o=Lucent").unwrap();
        let marketing = Dn::parse("o=Marketing,o=Lucent").unwrap();
        let err = dit
            .modify_rdn(&lucent, &Rdn::new("o", "Lucent"), false, Some(&marketing))
            .unwrap_err();
        assert_eq!(err.code, ResultCode::UnwillingToPerform);
    }

    #[test]
    fn search_scopes() {
        let dit = tree();
        let lucent = Dn::parse("o=Lucent").unwrap();
        let all = Filter::match_all();
        assert_eq!(
            dit.search(&lucent, Scope::Base, &all, &[], 0)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            dit.search(&lucent, Scope::One, &all, &[], 0).unwrap().len(),
            4
        );
        assert_eq!(
            dit.search(&lucent, Scope::Sub, &all, &[], 0).unwrap().len(),
            9
        );
        // root-based search sees everything
        assert_eq!(
            dit.search(&Dn::root(), Scope::Sub, &all, &[], 0)
                .unwrap()
                .len(),
            9
        );
    }

    #[test]
    fn search_filter_and_projection() {
        let dit = tree();
        let lucent = Dn::parse("o=Lucent").unwrap();
        let f = Filter::parse("(&(objectClass=person)(cn=J*))").unwrap();
        let hits = dit
            .search(&lucent, Scope::Sub, &f, &["cn".into()], 0)
            .unwrap();
        assert_eq!(hits.len(), 2); // John Doe, Jill Lu
        for e in &hits {
            assert!(e.has_attr("cn"));
            assert!(!e.has_attr("sn"));
        }
    }

    #[test]
    fn search_size_limit() {
        let dit = tree();
        let lucent = Dn::parse("o=Lucent").unwrap();
        let err = dit
            .search(&lucent, Scope::Sub, &Filter::match_all(), &[], 3)
            .unwrap_err();
        assert_eq!(err.code, ResultCode::SizeLimitExceeded);
    }

    #[test]
    fn search_missing_base() {
        let dit = tree();
        let err = dit
            .search(
                &Dn::parse("o=Nothing").unwrap(),
                Scope::Sub,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchObject);
    }

    #[test]
    fn compare_semantics() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        assert!(dit.compare(&john, "sn", "doe").unwrap());
        assert!(!dit.compare(&john, "sn", "smith").unwrap());
        assert!(dit
            .compare(&Dn::parse("cn=ghost,o=Lucent").unwrap(), "sn", "x")
            .is_err());
    }

    #[test]
    fn export_is_parent_first() {
        let dit = tree();
        let entries = dit.export();
        assert_eq!(entries.len(), 9);
        // Every entry's parent appears earlier (or is the root).
        for (i, e) in entries.iter().enumerate() {
            if let Some(parent) = e.dn().parent() {
                if parent.is_root() {
                    continue;
                }
                let pos = entries
                    .iter()
                    .position(|x| x.dn() == &parent)
                    .expect("parent present");
                assert!(pos < i, "parent of {} must precede it", e.dn());
            }
        }
    }

    #[test]
    fn observers_see_commits_in_order() {
        let dit = Dit::new();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        dit.observe(move |rec| seen2.lock().unwrap().push(rec.seq));
        figure2_tree(&dit).unwrap();
        let v = seen.lock().unwrap();
        assert_eq!(v.len(), 9);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn an_observer_registered_late_sees_the_next_commit_whole() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("sn", "Unseen")])
            .unwrap();
        let unobserved = dit.seq();
        assert_eq!(unobserved, 10, "nine adds and a modify nobody watched");
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        dit.observe(move |rec| seen2.lock().unwrap().push(rec.clone()));
        // What was skipped is the record, never the sequence number.
        let jane = Entry::with_attrs(
            Dn::parse("cn=Jane Roe,o=Marketing,o=Lucent").unwrap(),
            [("objectClass", "person"), ("cn", "Jane Roe"), ("sn", "Roe")],
        );
        dit.add(jane.clone()).unwrap();
        let mods = [
            Modification::set("sn", "Doe-Roe"),
            Modification::add("mail", vec!["jd@lucent.com".into()]),
        ];
        dit.modify(&john, &mods).unwrap();
        dit.modify_rdn(&john, &Rdn::new("cn", "Jack Doe"), true, None)
            .unwrap();
        dit.delete(jane.dn()).unwrap();
        let seen = seen.lock().unwrap();
        let seqs: Vec<u64> = seen.iter().map(|rec| rec.seq).collect();
        assert_eq!(seqs, [11, 12, 13, 14]);
        assert_eq!(seen[0].dn, *jane.dn());
        assert!(matches!(&seen[0].op, ChangeOp::Add(e) if *e == jane));
        assert_eq!(seen[1].dn, john);
        assert!(matches!(&seen[1].op, ChangeOp::Modify(m) if m[..] == mods));
        assert!(matches!(
            &seen[2].op,
            ChangeOp::ModifyRdn { new_rdn, delete_old: true, new_superior: None }
                if *new_rdn == Rdn::new("cn", "Jack Doe")
        ));
        assert!(matches!(seen[3].op, ChangeOp::Delete));
    }

    #[test]
    fn a_modify_rewrites_the_stored_block_in_place_or_through_realloc() {
        let dit = tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let block = || {
            let s = unpoison(dit.store.read());
            s.tree.get_entry(&john).unwrap().attrs_block()
        };
        let modify = |attr: &str, value: &str| {
            let mods = [Modification::set(attr, value)];
            crate::asked::by(|| dit.modify(&john, &mods).unwrap()).1
        };
        modify("roomNumber", "2B-101");
        let (before, at) = (dit.get(&john).unwrap(), block());
        // The same length: written over the stored bytes. The one block
        // allocated is the private copy the modify is validated on.
        assert_eq!(modify("roomNumber", "4D-317"), (1, 0));
        assert_eq!(block(), at, "the stored block was swapped for a copy");
        assert_eq!(dit.get(&john).unwrap().values("roomNumber"), ["4D-317"]);
        assert_eq!(before.values("roomNumber"), ["2B-101"]);
        // Longer: the copy grows, and the stored block is resized by
        // `realloc`, never replaced by a block allocated next to it.
        assert_eq!(modify("roomNumber", "4D-317, west wing"), (1, 2));
        assert_eq!(
            dit.get(&john).unwrap().values("roomNumber"),
            ["4D-317, west wing"]
        );
        // An indexed value follows in the postings.
        modify("telephoneNumber", "9000");
        let new = "+1 908 555 0100 x4321";
        modify("telephoneNumber", new);
        let by_phone = |number: &str| {
            let f = Filter::eq("telephoneNumber", number);
            dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).unwrap()
        };
        assert_eq!(by_phone(new).len(), 1);
        assert!(by_phone("9000").is_empty(), "the old value is still posted");
    }

    #[test]
    fn modify_that_fails_midway_leaves_the_entry_untouched() {
        let dit = tree();
        let seen = Arc::new(std::sync::Mutex::new(0usize));
        let seen2 = seen.clone();
        dit.observe(move |_| *seen2.lock().unwrap() += 1);
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("telephoneNumber", "9000")])
            .unwrap();
        let (before, seq, fp) = (dit.get(&john).unwrap(), dit.seq(), dit.footprint());
        // The first would re-post an indexed value; the second cannot apply.
        let err = dit
            .modify(
                &john,
                &[
                    Modification::set("telephoneNumber", "9123"),
                    Modification::delete_attr("mail"),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchAttribute);
        assert_eq!(dit.get(&john).unwrap(), before);
        assert_eq!((dit.seq(), dit.footprint()), (seq, fp));
        assert_eq!(*seen.lock().unwrap(), 1, "no record for the refused modify");
        let by_phone = |number: &str| {
            let f = Filter::eq("telephoneNumber", number);
            dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).unwrap()
        };
        assert_eq!(by_phone("9000"), [before]);
        assert!(by_phone("9123").is_empty());
    }

    #[test]
    fn schema_checked_on_add_and_modify() {
        let dit = Dit::with_schema(Arc::new(Schema::x500_core()));
        let mut lucent = Entry::new(Dn::parse("o=Lucent").unwrap());
        lucent.add_value("objectClass", "top");
        lucent.add_value("objectClass", "organization");
        lucent.add_value("o", "Lucent");
        dit.add(lucent).unwrap();
        // Missing sn → rejected
        let bad = Entry::with_attrs(
            Dn::parse("cn=X,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "X"),
            ],
        );
        assert_eq!(
            dit.add(bad).unwrap_err().code,
            ResultCode::ObjectClassViolation
        );
        let good = Entry::with_attrs(
            Dn::parse("cn=X,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "X"),
                ("sn", "X"),
            ],
        );
        dit.add(good).unwrap();
        // Modify deleting a must attribute → rejected, entry unchanged
        let dn = Dn::parse("cn=X,o=Lucent").unwrap();
        let err = dit
            .modify(&dn, &[Modification::delete_attr("sn")])
            .unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
        assert!(dit.get(&dn).unwrap().has_attr("sn"));
    }

    #[test]
    fn clear_resets() {
        let dit = tree();
        dit.clear();
        assert!(dit.is_empty());
        // Can rebuild after clear (indexes too).
        figure2_tree(&dit).unwrap();
        assert_eq!(dit.len(), 9);
        let hits = dit
            .search(
                &Dn::root(),
                Scope::Sub,
                &Filter::eq("cn", "John Doe"),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    // ---- equality-index tests -------------------------------------------

    /// Every search below must agree, entry-for-entry and in order, with
    /// the index-free reference DIT.
    fn assert_same_results(indexed: &Dit, scan: &Dit, base: &str, scope: Scope, filter: &str) {
        let base = Dn::parse(base).unwrap();
        let f = Filter::parse(filter).unwrap();
        let a = indexed.search(&base, scope, &f, &[], 0).unwrap();
        let b = scan.search(&base, scope, &f, &[], 0).unwrap();
        assert_eq!(a, b, "divergence on {filter} at {base} ({scope:?})");
    }

    #[test]
    fn default_indexes_installed_and_listed() {
        let dit = Dit::new();
        assert_eq!(
            dit.indexed_attrs(),
            vec!["cn", "lastupdater", "objectclass", "telephonenumber"]
        );
        // And can be disabled entirely.
        let off = Dit::with_schema_indexed(Arc::new(Schema::permissive()), &[]);
        assert!(off.indexed_attrs().is_empty());
    }

    #[test]
    fn indexed_search_matches_scan_in_content_and_order() {
        let indexed = tree();
        let scan = scan_tree();
        for filter in [
            "(objectClass=person)",
            "(objectClass=organization)",
            "(cn=John Doe)",
            "(cn=JOHN   doe)", // caseIgnoreMatch + whitespace squeeze
            "(&(objectClass=person)(cn=Jill Lu))",
            "(&(objectClass=person)(cn=J*))", // AND with one indexed conjunct
            "(|(cn=John Doe)(cn=Pat Smith))", // OR falls back to scan
            "(cn=nobody)",
            "(sn=Doe)", // unindexed attr falls back
        ] {
            assert_same_results(&indexed, &scan, "o=Lucent", Scope::Sub, filter);
            assert_same_results(&indexed, &scan, "o=Marketing,o=Lucent", Scope::Sub, filter);
            assert_same_results(&indexed, &scan, "o=Lucent", Scope::One, filter);
        }
        let (served, _) = indexed.index_stats();
        assert!(served > 0, "indexed paths must actually run");
        let (served_off, scanned_off) = scan.index_stats();
        assert_eq!(served_off, 0);
        assert!(scanned_off > 0);
    }

    #[test]
    fn planner_applicability() {
        let dit = tree();
        let lucent = Dn::parse("o=Lucent").unwrap();
        let probe = |f: &str| {
            let before = dit.index_stats();
            dit.search(&lucent, Scope::Sub, &Filter::parse(f).unwrap(), &[], 0)
                .unwrap();
            let after = dit.index_stats();
            (after.0 - before.0, after.1 - before.1)
        };
        assert_eq!(probe("(cn=John Doe)"), (1, 0), "indexed equality");
        assert_eq!(probe("(cn=nobody)"), (1, 0), "provably empty");
        assert_eq!(
            probe("(&(objectClass=person)(sn=Doe))"),
            (1, 0),
            "AND with one indexed conjunct"
        );
        assert_eq!(probe("(sn=Doe)"), (0, 1), "unindexed attr scans");
        assert_eq!(probe("(cn=J*)"), (0, 1), "substring scans");
        assert_eq!(probe("(!(cn=John Doe))"), (0, 1), "negation scans");
        assert_eq!(probe("(objectClass=*)"), (0, 1), "presence scans");
    }

    #[test]
    fn index_follows_modify_delete_and_rename() {
        let indexed = tree();
        let scan = scan_tree();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        for d in [&indexed, &scan] {
            d.modify(&john, &[Modification::set("telephoneNumber", "9123")])
                .unwrap();
        }
        assert_same_results(
            &indexed,
            &scan,
            "o=Lucent",
            Scope::Sub,
            "(telephoneNumber=9123)",
        );
        // Rename: the old cn posting must go, the new one appear.
        for d in [&indexed, &scan] {
            d.modify_rdn(&john, &Rdn::new("cn", "Jack Doe"), true, None)
                .unwrap();
        }
        assert_same_results(&indexed, &scan, "o=Lucent", Scope::Sub, "(cn=John Doe)");
        assert_same_results(&indexed, &scan, "o=Lucent", Scope::Sub, "(cn=Jack Doe)");
        // Subtree move: descendants reindex under their new keys.
        let marketing = Dn::parse("o=Marketing,o=Lucent").unwrap();
        let rd = Dn::parse("o=R&D,o=Lucent").unwrap();
        for d in [&indexed, &scan] {
            d.modify_rdn(&marketing, &Rdn::new("o", "Marketing"), false, Some(&rd))
                .unwrap();
        }
        assert_same_results(&indexed, &scan, "o=Lucent", Scope::Sub, "(cn=Jack Doe)");
        assert_same_results(
            &indexed,
            &scan,
            "o=R&D,o=Lucent",
            Scope::Sub,
            "(cn=Jack Doe)",
        );
        // Delete drops the posting.
        let jack = Dn::parse("cn=Jack Doe,o=Marketing,o=R&D,o=Lucent").unwrap();
        for d in [&indexed, &scan] {
            d.delete(&jack).unwrap();
        }
        assert_same_results(&indexed, &scan, "o=Lucent", Scope::Sub, "(cn=Jack Doe)");
    }

    #[test]
    fn indexed_size_limit_matches_scan() {
        let indexed = tree();
        let scan = scan_tree();
        let base = Dn::parse("o=Lucent").unwrap();
        let f = Filter::eq("objectClass", "person");
        let a = indexed.search(&base, Scope::Sub, &f, &[], 2).unwrap_err();
        let b = scan.search(&base, Scope::Sub, &f, &[], 2).unwrap_err();
        assert_eq!(a.code, b.code);
        assert_eq!(a.code, ResultCode::SizeLimitExceeded);
    }

    #[test]
    fn custom_indexed_attrs() {
        let dit = Dit::with_schema_indexed(Arc::new(Schema::permissive()), &["roomNumber"]);
        figure2_tree(&dit).unwrap();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("roomNumber", "2B-401")])
            .unwrap();
        let before = dit.index_stats();
        let hits = dit
            .search(
                &Dn::root(),
                Scope::Sub,
                &Filter::eq("roomNumber", "2b-401"),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(dit.index_stats().0, before.0 + 1);
        // cn is NOT indexed in this configuration → scan.
        dit.search(
            &Dn::root(),
            Scope::Sub,
            &Filter::eq("cn", "John Doe"),
            &[],
            0,
        )
        .unwrap();
        assert_eq!(dit.index_stats().1, before.1 + 1);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let bulk = Dit::new();
        bulk.begin_bulk();
        figure2_tree(&bulk).unwrap();
        // Deletes and renames during bulk keep the tree coherent.
        bulk.delete(&Dn::parse("cn=Tim Dickens,o=Accounting,o=Lucent").unwrap())
            .unwrap();
        bulk.finish_bulk();
        let incr = Dit::new();
        figure2_tree(&incr).unwrap();
        incr.delete(&Dn::parse("cn=Tim Dickens,o=Accounting,o=Lucent").unwrap())
            .unwrap();
        assert_eq!(bulk.export(), incr.export());
        // Index rebuilt by finish_bulk: planner serves and results agree.
        let before = bulk.index_stats();
        let f = Filter::eq("cn", "John Doe");
        let a = bulk.search(&Dn::root(), Scope::Sub, &f, &[], 0).unwrap();
        let b = incr.search(&Dn::root(), Scope::Sub, &f, &[], 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(bulk.index_stats().0, before.0 + 1, "index serves post-bulk");
    }

    #[test]
    fn bulk_add_skips_observers_but_counts_seq() {
        let dit = Dit::new();
        let seen = Arc::new(std::sync::Mutex::new(0usize));
        let seen2 = seen.clone();
        dit.observe(move |_| *seen2.lock().unwrap() += 1);
        dit.begin_bulk();
        let mut e = Entry::new(Dn::parse("o=Lucent").unwrap());
        e.add_value("objectClass", "organization");
        e.add_value("o", "Lucent");
        dit.bulk_add(e, true).unwrap();
        dit.finish_bulk();
        assert_eq!(*seen.lock().unwrap(), 0);
        assert_eq!(dit.seq(), 1);
        assert_eq!(dit.len(), 1);
    }

    // ---- colliding buckets: every hash keeps two bits in this module ------

    #[test]
    fn unit_tests_hash_into_four_buckets() {
        let hashes = Hashes(RandomState::new());
        let mut scratch = String::new();
        let names = (0..64).map(|i| Dn::parse(&format!("cn=n{i},o=x")).unwrap());
        let values = (0..64).map(|i| hashes.value(&format!("v{i}"), &mut scratch));
        let seen: HashSet<u32> = names.map(|dn| hashes.dn(&dn)).chain(values).collect();
        assert!(seen.iter().all(|&h| h < 4), "{seen:?}");
    }

    /// RDN values of the scripts: plain ones, and values holding the
    /// separators `,` and `+`. One index past them is the two-AVA RDN
    /// `cn=p+sn=q`, which `cn=p\+sn=q` reads like without its escape.
    const NAMES: [&str; 7] = ["n0", "n1", "n2", "a,ou=b", "a", "p+sn=q", "p"];

    fn script_rdn(name: usize) -> Rdn {
        match NAMES.get(name) {
            Some(value) => Rdn::new("cn", *value),
            None => Rdn::multi(vec![Ava::new("cn", "p"), Ava::new("sn", "q")]).unwrap(),
        }
    }

    /// One update of a script.
    #[derive(Debug)]
    enum Step {
        Add(Entry),
        Delete(Dn),
        Modify(Dn, Vec<Modification>),
        ModifyRdn(Dn, Rdn, bool, Option<Dn>),
    }

    fn run(dit: &Dit, step: &Step) -> std::result::Result<(), ResultCode> {
        match step {
            Step::Add(e) => dit.add(e.clone()),
            Step::Delete(dn) => dit.delete(dn),
            Step::Modify(dn, mods) => dit.modify(dn, mods),
            Step::ModifyRdn(dn, rdn, delete_old, sup) => {
                dit.modify_rdn(dn, rdn, *delete_old, sup.as_ref())
            }
        }
        .map_err(|e| e.code)
    }

    /// The directory as a map from normalized DN to entry: no ids, no
    /// hashes, no sibling lists.
    #[derive(Default)]
    struct MapModel(std::collections::BTreeMap<String, Entry>);

    impl MapModel {
        fn has(&self, dn: &Dn) -> bool {
            dn.is_root() || self.0.contains_key(&dn.norm_key())
        }

        /// Entries directly under `dn`, in key order.
        fn children(&self, dn: &Dn) -> Vec<&Entry> {
            let key = dn.norm_key();
            (self.0.values())
                .filter(|e| e.dn().parent().is_some_and(|p| p.norm_key() == key))
                .collect()
        }

        /// `dn` (the whole tree for the root) and everything under it,
        /// level by level.
        fn walk(&self, dn: &Dn) -> Vec<&Entry> {
            let mut queue: VecDeque<&Entry> = match self.0.get(&dn.norm_key()) {
                Some(e) => VecDeque::from([e]),
                None => self.children(dn).into(),
            };
            let mut out = Vec::new();
            while let Some(e) = queue.pop_front() {
                queue.extend(self.children(e.dn()));
                out.push(e);
            }
            out
        }

        fn run(&mut self, step: &Step) -> std::result::Result<(), ResultCode> {
            match step {
                Step::Add(e) => {
                    if self.0.contains_key(&e.dn().norm_key()) {
                        return Err(ResultCode::EntryAlreadyExists);
                    }
                    if !self.has(&e.dn().parent().unwrap()) {
                        return Err(ResultCode::NoSuchObject);
                    }
                    self.0.insert(e.dn().norm_key(), e.clone());
                }
                Step::Delete(dn) => {
                    if !self.0.contains_key(&dn.norm_key()) {
                        return Err(ResultCode::NoSuchObject);
                    }
                    if !self.children(dn).is_empty() {
                        return Err(ResultCode::NotAllowedOnNonLeaf);
                    }
                    self.0.remove(&dn.norm_key());
                }
                Step::Modify(dn, mods) => {
                    let entry = (self.0.get_mut(&dn.norm_key())).ok_or(ResultCode::NoSuchObject)?;
                    let mut updated = entry.clone();
                    updated.apply_modifications(mods).map_err(|e| e.code)?;
                    let rdn = dn.rdn().unwrap().avas();
                    if !rdn.iter().all(|a| updated.has_value(a.attr(), a.value())) {
                        return Err(ResultCode::NotAllowedOnRdn);
                    }
                    *entry = updated;
                }
                Step::ModifyRdn(dn, rdn, delete_old, sup) => {
                    if dn.is_root() {
                        return Err(ResultCode::UnwillingToPerform);
                    }
                    if !self.0.contains_key(&dn.norm_key()) {
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
                    let above = sup.clone().unwrap_or_else(|| dn.parent().unwrap());
                    let new_dn = above.child(rdn.clone());
                    if new_dn != *dn && self.has(&new_dn) {
                        return Err(ResultCode::EntryAlreadyExists);
                    }
                    let subtree: Vec<Entry> = self.walk(dn).into_iter().cloned().collect();
                    for e in &subtree {
                        self.0.remove(&e.dn().norm_key());
                    }
                    for (i, mut e) in subtree.into_iter().enumerate() {
                        e.set_dn(moved(e.dn(), dn, &new_dn));
                        if i == 0 {
                            if *delete_old {
                                for ava in dn.rdn().unwrap().avas() {
                                    e.remove_value(ava.attr(), ava.value());
                                }
                            }
                            for ava in rdn.avas() {
                                e.add_value(ava.attr(), ava.value());
                            }
                        }
                        self.0.insert(e.dn().norm_key(), e);
                    }
                }
            }
            Ok(())
        }
    }

    /// `name`, which lies under `from`, with `from` replaced by `to`.
    fn moved(name: &Dn, from: &Dn, to: &Dn) -> Dn {
        match name == from {
            true => to.clone(),
            false => {
                let above = moved(&name.parent().unwrap(), from, to);
                above.child(name.rdn().unwrap().clone())
            }
        }
    }

    fn stream(dit: &Dit, base: &Dn, scope: Scope, f: &Filter) -> Vec<Entry> {
        dit.search(base, scope, f, &[], 0).unwrap()
    }

    proptest::proptest! {
        /// Scripts of adds, deletes, modifies, renames and subtree moves
        /// over names and indexed values that all share four buckets: an
        /// indexed store, an index-free one and the map model agree on
        /// every result code and on `len()`, the indexed store streams what
        /// the scan streams for every filter, base and scope, and both
        /// stream the model's walk.
        #[test]
        fn scripts_over_colliding_buckets_match_a_map_model(
            steps in proptest::collection::vec(
                (0u8..5, 0usize..64, 0usize..64, 0usize..8),
                1..60,
            ),
        ) {
            let indexed = Dit::with_schema_indexed(
                Arc::new(Schema::permissive()),
                &["objectClass", "cn", "description"],
            );
            let scan = Dit::with_schema_indexed(Arc::new(Schema::permissive()), &[]);
            let mut model = MapModel::default();
            let mut filters: Vec<Filter> =
                NAMES.iter().map(|v| Filter::eq("cn", *v)).collect();
            filters.extend((0..4).map(|k| Filter::eq("description", format!("v{k}"))));
            filters.push(Filter::parse("(&(objectClass=person)(cn=p))").unwrap());
            filters.push(Filter::match_all());
            let streams_agree = |base: &Dn, scope: Scope| {
                (filters.iter())
                    .all(|f| stream(&indexed, base, scope, f) == stream(&scan, base, scope, f))
            };
            let all = Filter::match_all();
            for (kind, a, b, k) in steps {
                let mut bases = vec![Dn::root()];
                bases.extend(model.walk(&Dn::root()).into_iter().map(|e| e.dn().clone()));
                let (at, to) = (bases[a % bases.len()].clone(), bases[b % bases.len()].clone());
                let step = match kind {
                    0 => {
                        let dn = at.child(script_rdn(k));
                        let mut e = Entry::with_attrs(dn.clone(), [("objectClass", "person")]);
                        for ava in dn.rdn().unwrap().avas() {
                            e.add_value(ava.attr(), ava.value());
                        }
                        Step::Add(e)
                    }
                    1 => Step::Delete(at),
                    2 => Step::Modify(at, vec![
                        Modification::set("description", format!("v{}", k % 4)),
                        Modification::add("description", vec![format!("v{}", b % 4)]),
                    ]),
                    3 => {
                        let cn = NAMES[k % NAMES.len()].to_string();
                        Step::Modify(at, vec![Modification::add("cn", vec![cn])])
                    }
                    _ if k % 2 == 0 => Step::ModifyRdn(at, script_rdn(k), true, None),
                    _ => {
                        let rdn = at.rdn().cloned().unwrap_or_else(|| script_rdn(k));
                        Step::ModifyRdn(at, rdn, false, Some(to))
                    }
                };
                let expected = model.run(&step);
                proptest::prop_assert_eq!(run(&indexed, &step), expected, "{:?}", step);
                proptest::prop_assert_eq!(run(&scan, &step), expected, "{:?}", step);
                let len = model.0.len();
                proptest::prop_assert_eq!((indexed.len(), scan.len()), (len, len));
                indexed.assert_each_hash_in_one_map();
                scan.assert_each_hash_in_one_map();
                let root = Dn::root();
                proptest::prop_assert!(streams_agree(&root, Scope::Sub), "after {:?}", step);
                let walk: Vec<Entry> = model.walk(&root).into_iter().cloned().collect();
                proptest::prop_assert_eq!(stream(&scan, &root, Scope::Sub, &all), walk);
            }
            for e in model.0.values() {
                for scope in [Scope::Base, Scope::One, Scope::Sub] {
                    proptest::prop_assert!(streams_agree(e.dn(), scope), "{:?} at {}", scope, e.dn());
                }
                let children: Vec<Entry> = model.children(e.dn()).into_iter().cloned().collect();
                proptest::prop_assert_eq!(stream(&indexed, e.dn(), Scope::One, &all), children);
            }
            proptest::prop_assert!(streams_agree(&Dn::root(), Scope::One));
        }
    }
}
