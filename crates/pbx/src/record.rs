//! Weakly-typed device records.
//!
//! The Definity stores administration data as flat field/value forms; every
//! value is a string and the device itself enforces almost nothing — the
//! "extremely weak typing" the paper's consistency machinery must survive.
//!
//! A [`Record`] keeps all of its fields in one exactly-sized byte block, in
//! key order (byte order, the order of `str`), each field written as
//!
//! ```text
//! field := klen:varint key vlen:varint value
//! ```
//!
//! with `varint` a LEB128 length. The packing is canonical — one field set,
//! one block — so records compare and clone as their bytes. A benchmark
//! station's five fields take one block of about 77 bytes this way, where
//! a map of strings took eleven blocks. An edit opens or closes a gap with
//! `realloc`, which keeps the block in the heap arena it came from
//! whichever thread makes the change; an edit that keeps the length keeps
//! the address.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// The well-known station fields this simulator administers. Anything else
/// is accepted too (weak typing) but these are what the OSSI interface and
/// the MetaComm mappings use.
pub mod fields {
    pub const EXTENSION: &str = "Extension";
    pub const NAME: &str = "Name";
    pub const ROOM: &str = "Room";
    pub(crate) const PORT: &str = "Port";
    pub(crate) const SET_TYPE: &str = "Type";
    pub(crate) const COVERAGE_PATH: &str = "CoveragePath";
    pub(crate) const COR: &str = "Cor";
}

/// A flat, string-typed record: its fields, packed in key order into one
/// block (see the module docs for the layout).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Record {
    block: Box<[u8]>,
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

/// Bytes of `text` with its length in front.
fn coded_len(text: &str) -> usize {
    varint_len(text.len()) + text.len()
}

/// Write `text` with its length in front at the start of `out`; what is
/// left of `out` after it.
fn put_text<'a>(out: &'a mut [u8], text: &str) -> &'a mut [u8] {
    let mut n = text.len();
    let mut at = 0;
    while n >= 0x80 {
        out[at] = n as u8 | 0x80;
        n >>= 7;
        at += 1;
    }
    out[at] = n as u8;
    let (text_out, rest) = out[at + 1..].split_at_mut(text.len());
    text_out.copy_from_slice(text.as_bytes());
    rest
}

/// Where one field sits in a block: its bytes, and within them where its
/// coded value starts.
struct Span {
    field: Range<usize>,
    value: usize,
}

/// A walk over a block, field by field.
struct Walk<'a> {
    block: &'a [u8],
    at: usize,
}

impl<'a> Walk<'a> {
    /// The next length-prefixed run of bytes.
    fn coded(&mut self) -> &'a [u8] {
        let (mut len, mut shift) = (0, 0);
        loop {
            let byte = self.block[self.at];
            self.at += 1;
            len |= usize::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        let bytes = &self.block[self.at..self.at + len];
        self.at += len;
        bytes
    }
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("a record packs only strings")
}

impl<'a> Iterator for Walk<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        if self.at == self.block.len() {
            return None;
        }
        let key = self.coded();
        Some((text(key), text(self.coded())))
    }
}

impl Record {
    pub fn new() -> Record {
        Record::default()
    }

    /// The record holding `pairs`; of a repeated field, the last value.
    /// The pairs are packed as they are given: a borrowed one is not copied
    /// first.
    pub fn from_pairs<K: AsRef<str>, V: AsRef<str>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Record {
        let mut pairs: Vec<(K, V)> = pairs.into_iter().collect();
        // Reversed, a stable sort puts a repeated field's last value first
        // among its repeats, and the dedup keeps the first.
        pairs.reverse();
        pairs.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        pairs.dedup_by(|later, kept| later.0.as_ref() == kept.0.as_ref());
        let len = (pairs.iter()).map(|(k, v)| coded_len(k.as_ref()) + coded_len(v.as_ref()));
        let mut block = vec![0; len.sum()].into_boxed_slice();
        let mut out = &mut block[..];
        for (k, v) in &pairs {
            out = put_text(put_text(out, k.as_ref()), v.as_ref());
        }
        Record { block }
    }

    pub fn get(&self, field: &str) -> Option<&str> {
        let span = self.find(field).ok()?;
        let mut value = Walk {
            block: &self.block,
            at: span.value,
        };
        Some(text(value.coded()))
    }

    pub fn set(&mut self, field: impl AsRef<str>, value: impl AsRef<str>) {
        self.put(field.as_ref(), value.as_ref());
    }

    /// The fields in key order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &str)> {
        self.walk()
    }

    /// Write `patch`'s fields into this record where it lives: a field it
    /// already has is overwritten in place (the block keeps its address
    /// when the value keeps its length, and is `realloc`ed otherwise), an
    /// empty value clears the field (Definity semantics for blanking a form
    /// field), and a new field is inserted in key order.
    pub fn patch(&mut self, patch: &Record) {
        for (k, v) in patch.fields() {
            if v.is_empty() {
                self.remove(k);
            } else {
                self.put(k, v);
            }
        }
    }

    /// Clear `field`, closing its gap in the block.
    pub fn remove(&mut self, field: &str) {
        if let Ok(span) = self.find(field) {
            self.reshape(span.field, 0);
        }
    }

    fn walk(&self) -> Walk<'_> {
        Walk {
            block: &self.block,
            at: 0,
        }
    }

    /// Where the field `key` sits, or the offset it would go in at.
    fn find(&self, key: &str) -> Result<Span, usize> {
        let mut walk = self.walk();
        while walk.at < self.block.len() {
            let start = walk.at;
            let held = walk.coded();
            let value = walk.at;
            walk.coded();
            match held.cmp(key.as_bytes()) {
                Ordering::Less => {}
                Ordering::Equal => {
                    return Ok(Span {
                        field: start..walk.at,
                        value,
                    })
                }
                Ordering::Greater => return Err(start),
            }
        }
        Err(walk.at)
    }

    /// Set `key` to `value`: over the coded value it holds, or as a new
    /// field where it sorts.
    fn put(&mut self, key: &str, value: &str) {
        match self.find(key) {
            Ok(span) => {
                let out = self.reshape(span.value..span.field.end, coded_len(value));
                put_text(out, value);
            }
            Err(at) => {
                let out = self.reshape(at..at, coded_len(key) + coded_len(value));
                put_text(put_text(out, key), value);
            }
        }
    }

    /// Replace `range` of the block by a gap of `len` bytes and hand the
    /// gap out to be written. The block is resized by `realloc`, so it
    /// stays in the heap arena it came from; at the same length it stays
    /// where it is.
    fn reshape(&mut self, range: Range<usize>, len: usize) -> &mut [u8] {
        let old = self.block.len();
        let new = old - range.len() + len;
        if new != old {
            let mut bytes = std::mem::take(&mut self.block).into_vec();
            if new > old {
                bytes.reserve_exact(new - old);
                bytes.resize(new, 0);
            }
            bytes.copy_within(range.end..old, range.start + len);
            bytes.truncate(new);
            self.block = bytes.into_boxed_slice();
        }
        &mut self.block[range.start..range.start + len]
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.fields()).finish()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.fields() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{k}={v:?}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a record was before it was packed, and what it must still
    /// behave as: a map of strings.
    type Model = std::collections::BTreeMap<String, String>;

    #[test]
    fn basic_ops() {
        let mut r = Record::from_pairs([("Extension", "9123"), ("Name", "Doe, John")]);
        assert_eq!(r.get("Extension"), Some("9123"));
        assert_eq!(r.get("Missing"), None);
        r.set("Room", "2B-401");
        assert_eq!(r.fields().count(), 3);
        assert_eq!(r.get("Room"), Some("2B-401"));
        r.patch(&Record::from_pairs([("Room", "")]));
        assert!(r.get("Room").is_none());
    }

    #[test]
    fn update_with_blanking() {
        let mut out = Record::from_pairs([("Extension", "9123"), ("Name", "Doe"), ("Room", "2B")]);
        let patch = Record::from_pairs([("Name", "Smith"), ("Room", "")]);
        out.patch(&patch);
        assert_eq!(out.get("Name"), Some("Smith"));
        assert_eq!(out.get("Room"), None, "empty value blanks the field");
        assert_eq!(out.get("Extension"), Some("9123"));
    }

    #[test]
    fn weak_typing_accepts_anything() {
        let mut r = Record::new();
        r.set("CoveragePath", "not-a-number");
        r.set("SomeUnknownField", "☎");
        assert_eq!(r.get("SomeUnknownField"), Some("☎"));
    }

    #[test]
    fn a_station_is_its_fields_packed_in_key_order() {
        let r = Record::from_pairs([("Room", "2B"), ("Cor", "1"), ("Room", "4D")]);
        assert_eq!(&*r.block, b"\x03Cor\x011\x04Room\x024D");
        assert_eq!(format!("{r}"), r#"Cor="1" Room="4D""#);
        assert_eq!(format!("{r:?}"), r#"{"Cor": "1", "Room": "4D"}"#);
    }

    /// The record the model map holds.
    fn packed(model: &Model) -> Record {
        Record::from_pairs(model.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    /// `r` against the map it should hold: every read, the order, the
    /// printed form, equality with a record built afresh, and a clone.
    fn check(r: &Record, model: &Model, keys: &[String]) {
        for k in keys {
            assert_eq!(r.get(k), model.get(k).map(String::as_str), "get {k:?}");
        }
        let fields: Vec<(&str, &str)> = r.fields().collect();
        let expected: Vec<(&str, &str)> = model
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(fields, expected);
        let shown = expected.iter().map(|(k, v)| format!("{k}={v:?}"));
        assert_eq!(r.to_string(), shown.collect::<Vec<_>>().join(" "));
        let fresh = packed(model);
        assert_eq!(*r, fresh, "one field set, one block");
        let copy = r.clone();
        assert_eq!(copy, *r);
        assert_eq!(copy.fields().collect::<Vec<_>>(), expected);
    }

    /// One step of a record's life: a record built from `pairs`, a `set`,
    /// or a `patch` of `pairs` (an empty value blanks).
    #[derive(Debug, Clone)]
    enum Step {
        FromPairs(Vec<(usize, usize)>),
        Set(usize, usize),
        Patch(Vec<(usize, usize)>),
    }

    /// Keys the steps pick from besides the generated ones: the well-known
    /// fields, names that sort before, between and after them, names past
    /// ASCII, and one whose length takes a two-byte varint.
    fn keys() -> Vec<String> {
        let mut keys: Vec<String> = [
            fields::EXTENSION,
            fields::NAME,
            fields::ROOM,
            fields::PORT,
            fields::SET_TYPE,
            fields::COVERAGE_PATH,
            fields::COR,
            "",
            "A",
            "Roo",
            "Roomy",
            "zzz",
            "Téléphone",
            "☎",
            "名前",
        ]
        .map(String::from)
        .to_vec();
        keys.push("k".repeat(200));
        keys
    }

    /// Value lengths at and around the varint's boundaries.
    const LENGTHS: [usize; 6] = [0, 1, 127, 128, 300, 70_000];

    /// The value of length `LENGTHS[at % 6]`, varied by `seed` so a
    /// rewrite of one length is not a no-op.
    fn value(at: usize, seed: usize) -> String {
        let len = LENGTHS[at % LENGTHS.len()];
        let fill = ['a', 'b', 'é', 'z'][seed % 4];
        let mut v = fill.to_string().repeat(len / fill.len_utf8());
        v.push_str(&"x".repeat(len - v.len()));
        v
    }

    fn pairs(ops: &[(usize, usize)], keys: &[String]) -> Vec<(String, String)> {
        (ops.iter())
            .map(|&(k, v)| (keys[k % keys.len()].clone(), value(v, k + v)))
            .collect()
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::strategy::Strategy;
        let pair = (0usize..64, 0usize..64);
        proptest::prop_oneof![
            proptest::collection::vec(pair.clone(), 0..6).prop_map(Step::FromPairs),
            pair.clone().prop_map(|(k, v)| Step::Set(k, v)),
            proptest::collection::vec(pair, 0..6).prop_map(Step::Patch),
        ]
    }

    proptest::proptest! {
        /// The packed record reads, orders, prints, compares and clones as
        /// the map of strings it replaced, through any sequence of builds,
        /// sets and patches.
        #[test]
        fn a_record_is_the_map_it_packs(
            arbitrary in proptest::collection::vec("[a-zA-Z0-9 é☎名]{0,8}", 0..4),
            steps in proptest::collection::vec(step(), 1..12),
        ) {
            let mut keys = keys();
            keys.extend(arbitrary);
            let mut model: Model = Model::new();
            let mut r = Record::new();
            check(&r, &model, &keys);
            for step in steps {
                match step {
                    Step::FromPairs(ops) => {
                        let pairs = pairs(&ops, &keys);
                        model = pairs.iter().cloned().collect();
                        r = Record::from_pairs(pairs);
                    }
                    Step::Set(k, v) => {
                        let (k, v) = pairs(&[(k, v)], &keys).remove(0);
                        model.insert(k.clone(), v.clone());
                        r.set(k, v);
                    }
                    Step::Patch(ops) => {
                        let pairs = pairs(&ops, &keys);
                        let patch = Record::from_pairs(pairs.clone());
                        // A patch is a record: of a repeated field, the
                        // last value is the one it carries.
                        let patch_model: Model = pairs.into_iter().collect();
                        for (k, v) in patch_model {
                            if v.is_empty() {
                                model.remove(&k);
                            } else {
                                model.insert(k, v);
                            }
                        }
                        r.patch(&patch);
                    }
                }
                check(&r, &model, &keys);
            }
        }
    }
}
