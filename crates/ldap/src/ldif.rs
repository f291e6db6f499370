//! LDIF (RFC 2849 subset): the interchange format used for initial loads,
//! synchronization dumps, snapshots, the WAL's change records, and
//! fixtures.
//!
//! Supported: content records (`dn:` + attribute lines), change records
//! (`changetype: add|delete|modify|modrdn` directly after `dn:`), base64
//! (`::`, for any key), comments, and line continuations (leading space).
//! One reader serves every caller: [`parse`] returns every record and
//! [`parse_content`] is the same reader refusing a change record.

use crate::attr::AttrName;
use crate::dit::{ChangeOp, ChangeRecord};
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, ModOp, Modification};
use crate::error::{LdapError, Result};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// A parsed LDIF record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Plain content record (no changetype): the full entry.
    Content(Entry),
    Add(Entry),
    Delete(Dn),
    Modify(Dn, Vec<Modification>),
    ModRdn {
        dn: Dn,
        new_rdn: Rdn,
        delete_old: bool,
        new_superior: Option<Dn>,
    },
}

/// Parse an LDIF document into records.
pub fn parse(text: &str) -> Result<Vec<Record>> {
    Reader::new(text).collect()
}

/// [`parse`] for a document that must hold content records only — the
/// snapshot reader's hot loop at million-entry scale. A change record is an
/// error, and neighbouring entries share their common ancestors' names.
pub fn parse_content(text: &str) -> Result<Vec<Entry>> {
    let mut out: Vec<Entry> = Vec::new();
    for record in Reader::new(text) {
        let Record::Content(mut e) = record? else {
            return Err(LdapError::protocol(
                "content-only LDIF contains a change record",
            ));
        };
        if let Some(prev) = out.last() {
            share_with_neighbour(&mut e, prev);
        }
        out.push(e);
    }
    Ok(out)
}

/// Neighbours in a dump are siblings or parent and child: point `e`'s
/// parent link at the name `prev` holds for it, `prev`'s own or `prev`'s
/// parent's, so a document holds one copy of their common ancestors.
pub(crate) fn share_with_neighbour(e: &mut Entry, prev: &Entry) {
    let dn = e.dn_mut();
    dn.share_parent(prev.dn());
    if let Some(above) = prev.dn().parent() {
        dn.share_parent(&above);
    }
}

/// The one LDIF reader: a single pass over the text that unfolds
/// continuation lines, drops comments, and builds each record as its lines
/// arrive. An entry's values are gathered into buffers the reader keeps
/// from record to record and written into the entry's block once, when its
/// last line is read.
struct Reader<'a> {
    raw: std::iter::Peekable<std::str::Lines<'a>>,
    /// The current entry's attribute lines so far: each name, and where its
    /// value is in `values`.
    lines: Vec<(AttrName, Range<usize>)>,
    values: String,
}

impl Iterator for Reader<'_> {
    type Item = Result<Record>;
    fn next(&mut self) -> Option<Result<Record>> {
        self.record().transpose()
    }
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            raw: text.lines().peekable(),
            lines: Vec::new(),
            values: String::new(),
        }
    }

    /// The next logical line of the current record; `None` at the blank
    /// line (or the end of the text) that closes it.
    fn line(&mut self) -> Option<Cow<'a, str>> {
        let mut line = loop {
            let first = self.raw.next()?;
            if first.trim_end().is_empty() {
                return None;
            }
            if !first.starts_with('#') {
                break Cow::Borrowed(first);
            }
        };
        // Following lines that open with a space continue this one;
        // interleaved comments drop out.
        while let Some(&next) = self.raw.peek() {
            if let Some(cont) = next.strip_prefix(' ') {
                line.to_mut().push_str(cont);
            } else if !next.starts_with('#') {
                break;
            }
            self.raw.next();
        }
        Some(line)
    }

    /// The next record; `None` at the end of the text.
    fn record(&mut self) -> Result<Option<Record>> {
        let first = loop {
            match self.line() {
                Some(line) => break line,
                None if self.raw.peek().is_none() => return Ok(None),
                None => {}
            }
        };
        self.lines.clear();
        self.values.clear();
        let (key, value) = split_kv(&first)?;
        if !key.eq_ignore_ascii_case("dn") {
            return Err(LdapError::protocol(format!(
                "LDIF record must start with dn:, got `{key}`"
            )));
        }
        let dn = Dn::parse(&value)?;
        let Some(line) = self.line() else {
            return Ok(Some(Record::Content(Entry::new(dn))));
        };
        let (key, value) = split_kv(&line)?;
        if key.eq_ignore_ascii_case("changetype") {
            return self.change(dn, &value).map(Some);
        }
        self.gather(key, &value);
        self.attributes(dn).map(|e| Some(Record::Content(e)))
    }

    /// Hand every remaining line of the record to `f` as `(key, value)`.
    fn each_line(&mut self, mut f: impl FnMut(&str, Cow<'_, str>) -> Result<()>) -> Result<()> {
        while let Some(line) = self.line() {
            let (key, value) = split_kv(&line)?;
            f(key, value)?;
        }
        Ok(())
    }

    /// One attribute line of the entry being read.
    fn gather(&mut self, key: &str, value: &str) {
        let start = self.values.len();
        self.values.push_str(value);
        (self.lines).push((AttrName::from(key), start..self.values.len()));
    }

    /// The entry at `dn`, with the lines gathered so far and the rest of
    /// the record as its attribute values.
    fn attributes(&mut self, dn: Dn) -> Result<Entry> {
        while let Some(line) = self.line() {
            let (key, value) = split_kv(&line)?;
            if key.eq_ignore_ascii_case("changetype") {
                return Err(LdapError::protocol(format!(
                    "LDIF record `{dn}`: changetype: must directly follow dn:"
                )));
            }
            self.gather(key, &value);
        }
        let lines = &mut self.lines;
        Ok(Entry::packed(dn, lines, &self.values, |values, at| {
            &values[at.clone()]
        }))
    }

    /// The rest of a change record of type `changetype` for `dn`.
    fn change(&mut self, dn: Dn, changetype: &str) -> Result<Record> {
        match changetype.to_ascii_lowercase().as_str() {
            "add" => self.attributes(dn).map(Record::Add),
            "delete" => self.each_line(|_, _| Ok(())).map(|()| Record::Delete(dn)),
            "modify" => self.modify(dn),
            "modrdn" | "moddn" => {
                let (mut new_rdn, mut delete_old, mut new_superior) = (None, false, None);
                self.each_line(|key, value| {
                    if key.eq_ignore_ascii_case("newrdn") {
                        new_rdn = Some(Rdn::parse(&value)?);
                    } else if key.eq_ignore_ascii_case("deleteoldrdn") {
                        delete_old = value.trim() == "1" || value.eq_ignore_ascii_case("true");
                    } else if key.eq_ignore_ascii_case("newsuperior") {
                        new_superior = Some(Dn::parse(&value)?);
                    }
                    Ok(())
                })?;
                Ok(Record::ModRdn {
                    dn,
                    new_rdn: new_rdn
                        .ok_or_else(|| LdapError::protocol("modrdn record missing newrdn"))?,
                    delete_old,
                    new_superior,
                })
            }
            other => Err(LdapError::protocol(format!("unknown changetype `{other}`"))),
        }
    }

    /// The mod-specs of a modify record: `add:` / `delete:` / `replace:`
    /// naming an attribute, its value lines, and a `-` that closes it.
    fn modify(&mut self, dn: Dn) -> Result<Record> {
        let mut mods: Vec<Modification> = Vec::new();
        // Value lines may follow the last mod-spec until a `-`.
        let mut open = false;
        while let Some(line) = self.line() {
            if line == "-" {
                open = false;
                continue;
            }
            let (key, value) = split_kv(&line)?;
            let op = MOD_OPS
                .iter()
                .find(|(name, _)| key.eq_ignore_ascii_case(name));
            // A value line first: an attribute may be called `add`.
            match (mods.last_mut().filter(|_| open), op) {
                (Some(m), _) if key.eq_ignore_ascii_case(m.attr.as_str()) => {
                    m.values.push(value.into_owned())
                }
                (_, Some(&(_, op))) => {
                    mods.push(Modification {
                        op,
                        attr: value.as_ref().into(),
                        values: Vec::new(),
                    });
                    open = true;
                }
                (Some(m), None) => {
                    return Err(LdapError::protocol(format!(
                        "modify value line for `{key}` inside `{}` block",
                        m.attr
                    )))
                }
                (None, None) => {
                    return Err(LdapError::protocol(format!("unknown modify op `{key}`")))
                }
            }
        }
        Ok(Record::Modify(dn, mods))
    }
}

/// The modify record's operation keywords, for reader and writer alike.
const MOD_OPS: [(&str, ModOp); 3] = [
    ("add", ModOp::Add),
    ("delete", ModOp::Delete),
    ("replace", ModOp::Replace),
];

/// One logical line as `(key, value)`; a line with no `:` is an error
/// naming it. A plain value is borrowed from the line, so a short one
/// reaches its entry's slot without a heap block. A `::` value is base64
/// whatever the key: one that is not base64, or not UTF-8 once decoded, is
/// an error naming the key — a damaged value must not load as the empty
/// string.
fn split_kv(line: &str) -> Result<(&str, Cow<'_, str>)> {
    let (key, rest) = line
        .split_once(':')
        .ok_or_else(|| LdapError::protocol(format!("LDIF line `{line}` has no `:`")))?;
    let key = key.trim();
    let value = match rest.strip_prefix(':') {
        None => Cow::Borrowed(rest.trim_start_matches(' ')),
        Some(b64) => {
            let bytes = b64_decode(b64.trim()).ok_or_else(|| {
                LdapError::protocol(format!("LDIF value of `{key}` is not valid base64"))
            })?;
            let text = String::from_utf8(bytes)
                .map_err(|_| LdapError::protocol(format!("LDIF value of `{key}` is not UTF-8")))?;
            Cow::Owned(text)
        }
    };
    Ok((key, value))
}

/// Write one committed change onto `out` as an LDIF change record, straight
/// from the borrowed observation (the text of a DIT commit's WAL frame,
/// [`crate::backup::wal_payload`]); [`parse`] reads it back.
pub(crate) fn write_change(out: &mut String, rec: &ChangeRecord) {
    write_line(out, "dn", &rec.dn);
    match &rec.op {
        ChangeOp::Add(e) => {
            out.push_str("changetype: add\n");
            write_attributes(out, e);
        }
        ChangeOp::Delete => out.push_str("changetype: delete\n"),
        ChangeOp::Modify(mods) => {
            out.push_str("changetype: modify\n");
            for (i, m) in mods.iter().enumerate() {
                let (op, _) = MOD_OPS
                    .iter()
                    .find(|(_, op)| *op == m.op)
                    .expect("every op");
                writeln!(out, "{op}: {}", m.attr).expect("string write");
                for v in &m.values {
                    write_line(out, m.attr.as_str(), v);
                }
                if i + 1 < mods.len() {
                    out.push_str("-\n");
                }
            }
        }
        ChangeOp::ModifyRdn {
            new_rdn,
            delete_old,
            new_superior,
        } => {
            out.push_str("changetype: modrdn\n");
            write_line(out, "newrdn", new_rdn);
            writeln!(out, "deleteoldrdn: {}", u8::from(*delete_old)).expect("string write");
            if let Some(sup) = new_superior {
                write_line(out, "newsuperior", sup);
            }
        }
    }
    out.push('\n');
}

/// Serialize entries as LDIF content records.
pub fn to_ldif(entries: &[Entry]) -> String {
    let mut out = String::new();
    for e in entries {
        write_entry(&mut out, e);
        out.push('\n');
    }
    out
}

pub(crate) fn write_entry(out: &mut String, e: &Entry) {
    write_line(out, "dn", e.dn());
    write_attributes(out, e);
}

fn write_attributes(out: &mut String, e: &Entry) {
    for attr in e.attributes() {
        for v in &attr.values {
            write_line(out, attr.name.as_str(), v);
        }
    }
}

/// One `key: text` line, or `key:: <base64>` when the text would not
/// survive as a plain line — a name (`dn`, `newrdn`, `newsuperior`) under
/// the same test as a value.
pub(crate) fn write_line(out: &mut String, key: &str, text: impl fmt::Display) {
    let line = out.len();
    write!(out, "{key}: {text}").expect("string write");
    let start = line + key.len() + 2;
    if needs_base64(&out[start..]) {
        let encoded = b64_encode(&out.as_bytes()[start..]);
        out.truncate(line);
        write!(out, "{key}:: {encoded}").expect("string write");
    }
    out.push('\n');
}

fn needs_base64(v: &str) -> bool {
    v.starts_with(' ')
        || v.starts_with(':')
        || v.starts_with('<')
        || v.ends_with(' ')
        || v.chars().any(|c| c == '\n' || c == '\r' || !c.is_ascii())
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Minimal base64 (standard alphabet, `=` padding).
pub fn b64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Minimal base64 decode; `None` on malformed input.
pub fn b64_decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    let vals: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    if !vals.len().is_multiple_of(4) {
        return None;
    }
    let mut pad = 0;
    for chunk in vals.chunks(4) {
        if pad > 0 {
            return None; // a group after the padded one
        }
        let mut n: u32 = 0;
        for &c in chunk {
            n <<= 6;
            if c == b'=' {
                pad += 1;
            } else {
                let v = B64.iter().position(|&x| x == c)? as u32;
                if pad > 0 {
                    return None; // data after padding
                }
                n |= v;
            }
        }
        if pad > 2 {
            return None;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_content_records() {
        let text = "\
# a comment
dn: o=Lucent
objectClass: top
objectClass: organization
o: Lucent

dn: cn=John Doe, o=Lucent
objectClass: person
cn: John Doe
sn:: RG9l
description: a long line
# comment inside a fold
  that continues
";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 2);
        match &recs[1] {
            Record::Content(e) => {
                assert_eq!(e.first("description"), Some("a long line that continues"));
                assert_eq!(e.first("sn"), Some("Doe"));
                assert_eq!(e.values("objectClass").len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let entries = parse_content(text).unwrap();
        let records: Vec<Record> = entries.into_iter().map(Record::Content).collect();
        assert_eq!(records, recs);
    }

    #[test]
    fn change_records() {
        let text = "\
dn: cn=X,o=L
changetype: add
objectClass: person
cn: X
sn: X

dn: cn=X,o=L
changetype: modify
replace: sn
sn: Y
-
add: telephoneNumber
telephoneNumber: 9123
-
delete: description

dn: cn=X,o=L
changetype: modrdn
newrdn: cn=Z
deleteoldrdn: 1

dn: cn=Z,o=L
changetype: delete
";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 4);
        assert!(matches!(recs[0], Record::Add(_)));
        match &recs[1] {
            Record::Modify(dn, mods) => {
                assert_eq!(dn.to_string(), "cn=X,o=L");
                assert_eq!(mods.len(), 3);
                assert_eq!(mods[0].op, ModOp::Replace);
                assert_eq!(mods[1].op, ModOp::Add);
                assert_eq!(mods[2].op, ModOp::Delete);
                assert!(mods[2].values.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &recs[2] {
            Record::ModRdn {
                new_rdn,
                delete_old,
                new_superior,
                ..
            } => {
                assert_eq!(new_rdn.first().value(), "Z");
                assert!(*delete_old);
                assert!(new_superior.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(recs[3], Record::Delete(_)));
        assert!(
            parse_content(text).is_err(),
            "a change record in a snapshot"
        );
    }

    #[test]
    fn round_trip_entries() {
        use crate::dit::{figure2_tree, Dit};
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let text = to_ldif(&dit.export());
        let recs = parse(&text).unwrap();
        assert_eq!(recs.len(), 9);
        let dit2 = Dit::new();
        for r in recs {
            match r {
                Record::Content(e) => dit2.add(e).unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(dit2.len(), 9);
    }

    #[test]
    fn base64_values() {
        let data = "héllo\nworld";
        let enc = b64_encode(data.as_bytes());
        assert_eq!(b64_decode(&enc).unwrap(), data.as_bytes());
        let mut e = Entry::new(Dn::parse("cn=x").unwrap());
        e.add_value("cn", "x");
        e.add_value("description", data);
        let text = to_ldif(&[e]);
        assert!(text.contains("description:: "));
        let recs = parse(&text).unwrap();
        match &recs[0] {
            Record::Content(e) => assert_eq!(e.first("description"), Some(data)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_name_that_would_break_its_line_is_written_in_base64() {
        let dn = Dn::parse(r"cn=a\0Ab,o=Lucent").unwrap();
        let e = Entry::with_attrs(dn, [("cn", "a\nb")]);
        let text = to_ldif(std::slice::from_ref(&e));
        assert!(text.starts_with("dn:: "), "{text}");
        assert_eq!(parse_content(&text).unwrap(), [e]);
        let plain = to_ldif(&[Entry::new(Dn::parse("cn=a b,o=Lucent").unwrap())]);
        assert_eq!(plain, "dn: cn=a b,o=Lucent\n\n");
    }

    #[test]
    fn b64_vectors() {
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(b64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert!(b64_decode("???").is_none());
        assert!(b64_decode("Zg=X").is_none());
    }

    #[test]
    fn damaged_base64_values_are_errors_not_empty_strings() {
        for (bad, why) in [
            ("Zm9v!A==", "base64"), // bad alphabet
            ("Zg=X", "base64"),     // data after padding
            ("Zg==Zm9v", "base64"), // a group after the padded one
            ("Zm9vYg", "base64"),   // length not a multiple of four
            ("//79/w==", "UTF-8"),  // valid base64 of ff fe fd ff
        ] {
            let text = format!("dn: cn=x\ncn: x\ndescription:: {bad}\n");
            for err in [parse(&text).unwrap_err(), parse_content(&text).unwrap_err()] {
                assert!(
                    err.message.contains("`description`") && err.message.contains(why),
                    "{bad}: {err:?}"
                );
            }
        }
        // The DN line decodes through the same helper.
        assert!(parse_content("dn:: ???\ncn: x\n").is_err());
        assert!(parse("dn:: ???\ncn: x\n").is_err());
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(parse("objectClass: top\n").is_err());
        assert!(parse("dn: cn=x\nchangetype: frobnicate\n").is_err());
        assert!(parse("dn: cn=x\nchangetype: modrdn\n").is_err());
        // `changetype:` counts only directly after `dn:` (RFC 2849).
        let late = parse("dn: cn=x\ncn: x\nchangetype: delete\n").unwrap_err();
        assert!(late.message.contains("directly follow"), "{late}");
        // A line with no `:` is named, not dropped — except a modify's `-`.
        let stray = parse("dn: cn=x\ncn: x\nb,o=Lucent\n").unwrap_err();
        assert!(stray.message.contains("`b,o=Lucent`"), "{stray}");
        assert!(parse("dn: cn=x\nchangetype: delete\n-\n").is_err());
        let modify = parse("dn: cn=x\nchangetype: modify\ndelete: l\n-\n").unwrap();
        assert_eq!(modify.len(), 1);
        let sn = parse("dn: cn=x\nchangetype: modify\nreplace: sn\n-\nsn: y\n").unwrap_err();
        assert!(sn.message.contains("unknown modify op `sn`"), "{sn}");
    }
}
