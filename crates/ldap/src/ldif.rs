//! LDIF (RFC 2849 subset): the interchange format used for initial loads,
//! synchronization dumps, and fixtures.
//!
//! Supported: content records (`dn:` + attribute lines), change records
//! (`changetype: add|delete|modify|modrdn`), base64 values (`::`), comments,
//! and line continuations (leading space).

use crate::dit::{ChangeOp, ChangeRecord};
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, ModOp, Modification};
use crate::error::{LdapError, Result};
use std::fmt::Write as _;

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
    let mut records = Vec::new();
    for block in logical_blocks(text)? {
        if block.is_empty() {
            continue;
        }
        records.push(parse_block(&block)?);
    }
    Ok(records)
}

/// Content-only fast path: parse a document of pure content records in a
/// single pass with no intermediate `(key, value)` string materialization —
/// the snapshot reader's hot loop at million-entry scale. Comments, folded
/// continuations, base64 values, and blank-line separation behave exactly
/// like [`parse`]; a `changetype:` line is an error because a snapshot must
/// not carry change records.
pub fn parse_content(text: &str) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    let mut cur: Option<Entry> = None;
    let mut lines = text.lines().peekable();
    while let Some(first) = lines.next() {
        if first.starts_with('#') {
            continue;
        }
        if first.trim_end().is_empty() {
            if let Some(e) = cur.take() {
                out.push(e);
            }
            continue;
        }
        // Unfold: following lines that open with a space continue this one;
        // interleaved comments drop out, as in `logical_blocks`.
        let mut folded: Option<String> = None;
        while let Some(&next) = lines.peek() {
            if next.starts_with('#') {
                lines.next();
            } else if let Some(cont) = next.strip_prefix(' ') {
                folded
                    .get_or_insert_with(|| first.to_string())
                    .push_str(cont);
                lines.next();
            } else {
                break;
            }
        }
        let Some((key, value)) = split_kv(folded.as_deref().unwrap_or(first))? else {
            continue;
        };
        match &mut cur {
            None => {
                if !key.eq_ignore_ascii_case("dn") {
                    return Err(LdapError::protocol(format!(
                        "LDIF record must start with dn:, got `{key}`"
                    )));
                }
                let mut dn = Dn::parse(&value)?;
                // Neighbours in a dump are siblings or parent and child:
                // one copy of their common ancestors per document.
                if let Some(prev) = out.last() {
                    dn.share_with(prev.dn());
                }
                cur = Some(Entry::new(dn));
            }
            Some(e) => {
                if key.eq_ignore_ascii_case("changetype") {
                    return Err(LdapError::protocol(format!(
                        "content-only LDIF contains a change record: changetype {value}"
                    )));
                }
                e.add_value(key, value);
            }
        }
    }
    if let Some(e) = cur {
        out.push(e);
    }
    Ok(out)
}

/// Unfold continuations, drop comments, split into blank-line-separated
/// blocks of `(key, value)` lines.
fn logical_blocks(text: &str) -> Result<Vec<Vec<(String, String)>>> {
    let mut blocks: Vec<Vec<(String, String)>> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let flush_line = |cur: &mut Vec<String>, line: String| {
        if let Some(cont) = line.strip_prefix(' ') {
            if let Some(last) = cur.last_mut() {
                last.push_str(cont);
                return;
            }
        }
        cur.push(line);
    };
    let mut raw_blocks: Vec<Vec<String>> = Vec::new();
    for line in text.lines() {
        if line.trim_end().is_empty() {
            if !cur.is_empty() {
                raw_blocks.push(std::mem::take(&mut cur));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        flush_line(&mut cur, line.to_string());
    }
    if !cur.is_empty() {
        raw_blocks.push(cur);
    }
    for raw in raw_blocks {
        let mut block = Vec::new();
        for line in raw {
            if let Some((k, v)) = split_kv(&line)? {
                block.push((k.to_string(), v));
            }
        }
        blocks.push(block);
    }
    Ok(blocks)
}

/// One logical line as `(key, value)`; `None` when it has no `:`. Both
/// parsers decode through here: a `::` value that is not base64, or not
/// UTF-8 once decoded, is an error naming the attribute — a damaged value
/// must not load as the empty string.
fn split_kv(line: &str) -> Result<Option<(&str, String)>> {
    let Some(idx) = line.find(':') else {
        return Ok(None);
    };
    let key = line[..idx].trim();
    let rest = &line[idx + 1..];
    let value = match rest.strip_prefix(':') {
        None => rest.trim_start().to_string(),
        Some(b64) => {
            let bytes = b64_decode(b64.trim()).ok_or_else(|| {
                LdapError::protocol(format!("LDIF value of `{key}` is not valid base64"))
            })?;
            String::from_utf8(bytes)
                .map_err(|_| LdapError::protocol(format!("LDIF value of `{key}` is not UTF-8")))?
        }
    };
    Ok(Some((key, value)))
}

fn parse_block(block: &[(String, String)]) -> Result<Record> {
    let (first_key, first_val) = &block[0];
    if !first_key.eq_ignore_ascii_case("dn") {
        return Err(LdapError::protocol(format!(
            "LDIF record must start with dn:, got `{first_key}`"
        )));
    }
    let dn = Dn::parse(first_val)?;
    let rest = &block[1..];
    let changetype = rest
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("changetype"))
        .map(|(_, v)| v.to_ascii_lowercase());
    match changetype.as_deref() {
        None => {
            let mut e = Entry::new(dn);
            for (k, v) in rest {
                e.add_value(k.as_str(), v.clone());
            }
            Ok(Record::Content(e))
        }
        Some("add") => {
            let mut e = Entry::new(dn);
            for (k, v) in rest {
                if k.eq_ignore_ascii_case("changetype") {
                    continue;
                }
                e.add_value(k.as_str(), v.clone());
            }
            Ok(Record::Add(e))
        }
        Some("delete") => Ok(Record::Delete(dn)),
        Some("modify") => {
            let mut mods = Vec::new();
            let mut i = 0;
            let items: Vec<&(String, String)> = rest
                .iter()
                .filter(|(k, _)| !k.eq_ignore_ascii_case("changetype"))
                .collect();
            while i < items.len() {
                let (op_key, attr_name) = items[i];
                let op = match op_key.to_ascii_lowercase().as_str() {
                    "add" => ModOp::Add,
                    "delete" => ModOp::Delete,
                    "replace" => ModOp::Replace,
                    other => {
                        return Err(LdapError::protocol(format!("unknown modify op `{other}`")))
                    }
                };
                i += 1;
                let mut values = Vec::new();
                while i < items.len() {
                    let (k, v) = items[i];
                    if k == "-"
                        || k.eq_ignore_ascii_case("add")
                        || k.eq_ignore_ascii_case("delete")
                        || k.eq_ignore_ascii_case("replace")
                    {
                        break;
                    }
                    if !k.eq_ignore_ascii_case(attr_name) {
                        return Err(LdapError::protocol(format!(
                            "modify value line for `{k}` inside `{attr_name}` block"
                        )));
                    }
                    values.push(v.clone());
                    i += 1;
                }
                // skip separator line "-"
                if i < items.len() && items[i].0 == "-" {
                    i += 1;
                }
                mods.push(Modification {
                    op,
                    attr: attr_name.as_str().into(),
                    values,
                });
            }
            Ok(Record::Modify(dn, mods))
        }
        Some("modrdn") | Some("moddn") => {
            let find = |key: &str| {
                rest.iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case(key))
                    .map(|(_, v)| v.clone())
            };
            let new_rdn = Rdn::parse(
                &find("newrdn")
                    .ok_or_else(|| LdapError::protocol("modrdn record missing newrdn"))?,
            )?;
            let delete_old = find("deleteoldrdn")
                .map(|v| v.trim() == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            let new_superior = match find("newsuperior") {
                Some(v) => Some(Dn::parse(&v)?),
                None => None,
            };
            Ok(Record::ModRdn {
                dn,
                new_rdn,
                delete_old,
                new_superior,
            })
        }
        Some(other) => Err(LdapError::protocol(format!("unknown changetype `{other}`"))),
    }
}

/// Write one committed change onto `out` as an LDIF change record, straight
/// from the borrowed observation (the text of a DIT commit's WAL frame,
/// [`crate::backup::wal_payload`]); [`parse`] reads it back.
pub(crate) fn write_change(out: &mut String, rec: &ChangeRecord) {
    writeln!(out, "dn: {}", rec.dn).expect("write");
    match &rec.op {
        ChangeOp::Add(e) => {
            writeln!(out, "changetype: add").expect("write");
            for attr in e.attributes() {
                for v in &attr.values {
                    write_attr_line(out, attr.name.as_str(), v);
                }
            }
        }
        ChangeOp::Delete => {
            writeln!(out, "changetype: delete").expect("write");
        }
        ChangeOp::Modify(mods) => {
            writeln!(out, "changetype: modify").expect("write");
            for (i, m) in mods.iter().enumerate() {
                let op = match m.op {
                    ModOp::Add => "add",
                    ModOp::Delete => "delete",
                    ModOp::Replace => "replace",
                };
                writeln!(out, "{op}: {}", m.attr).expect("write");
                for v in &m.values {
                    write_attr_line(out, m.attr.as_str(), v);
                }
                if i + 1 < mods.len() {
                    writeln!(out, "-").expect("write");
                }
            }
        }
        ChangeOp::ModifyRdn {
            new_rdn,
            delete_old,
            new_superior,
        } => {
            writeln!(out, "changetype: modrdn").expect("write");
            writeln!(out, "newrdn: {new_rdn}").expect("write");
            writeln!(out, "deleteoldrdn: {}", if *delete_old { 1 } else { 0 }).expect("write");
            if let Some(sup) = new_superior {
                writeln!(out, "newsuperior: {sup}").expect("write");
            }
        }
    }
    out.push('\n');
}

fn write_attr_line(out: &mut String, name: &str, v: &str) {
    if needs_base64(v) {
        writeln!(out, "{name}:: {}", b64_encode(v.as_bytes())).expect("write");
    } else {
        writeln!(out, "{name}: {v}").expect("write");
    }
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
    writeln!(out, "dn: {}", e.dn()).expect("string write");
    for attr in e.attributes() {
        for v in &attr.values {
            if needs_base64(v) {
                writeln!(out, "{}:: {}", attr.name, b64_encode(v.as_bytes()))
                    .expect("string write");
            } else {
                writeln!(out, "{}: {}", attr.name, v).expect("string write");
            }
        }
    }
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
sn: Doe
description: a long line
  that continues
";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 2);
        match &recs[1] {
            Record::Content(e) => {
                assert_eq!(e.first("description"), Some("a long line that continues"));
                assert_eq!(e.values("objectClass").len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fast_content_path_matches_general_parser() {
        let text = "\
# snapshot header
# seq: 42
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

dn: ou=R&D,o=Lucent
objectClass: organizationalUnit
ou: R&D
";
        let general: Vec<Entry> = parse(text)
            .unwrap()
            .into_iter()
            .map(|r| match r {
                Record::Content(e) => e,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let fast = parse_content(text).unwrap();
        assert_eq!(to_ldif(&fast), to_ldif(&general));
        assert!(parse_content("dn: cn=X,o=L\nchangetype: delete\n").is_err());
        assert!(parse_content("objectClass: top\n").is_err());
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
    }
}
