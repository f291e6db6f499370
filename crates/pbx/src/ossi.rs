//! OSSI-style craft terminal: the "proprietary interface" through which
//! device administrators keep working when MetaComm is deployed (Figure 1's
//! direct-update path into the Definity).
//!
//! Command set (a simplified OSSI/SAT flavour):
//!
//! ```text
//! add station 9123 name "Doe, John" room 2B-401 cov 1 cor 1
//! change station 9123 room 2C-115
//! display station 9123
//! remove station 9123
//! list stations
//! ```

use crate::error::{PbxError, Result};
use crate::record::{fields, Record};
use crate::store::{Channel, Store};
use std::fmt::Write as _;

/// Map OSSI field keywords to record fields.
fn field_for(keyword: &str) -> Option<&'static str> {
    match keyword {
        "name" => Some(fields::NAME),
        "room" => Some(fields::ROOM),
        "port" => Some(fields::PORT),
        "type" => Some(fields::SET_TYPE),
        "cov" | "coverage" => Some(fields::COVERAGE_PATH),
        "cor" => Some(fields::COR),
        _ => None,
    }
}

/// Execute one craft command against a switch; returns the terminal output.
pub fn execute(store: &Store, line: &str) -> Result<String> {
    let tokens = words(line)
        .ok_or_else(|| PbxError::BadCommand(format!("unterminated quote in `{line}`")))?;
    let mut it = tokens.iter();
    let verb = it.next().map(String::as_str).unwrap_or("");
    match verb {
        "add" | "change" => {
            expect_kw(&mut it, "station", line)?;
            let ext = it
                .next()
                .ok_or_else(|| PbxError::BadCommand(format!("missing extension: {line}")))?;
            let mut rec = Record::new();
            if verb == "add" {
                rec.set(fields::EXTENSION, ext);
            }
            while let Some(kw) = it.next() {
                let field = field_for(kw)
                    .ok_or_else(|| PbxError::BadCommand(format!("unknown field `{kw}`")))?;
                let value = it
                    .next()
                    .ok_or_else(|| PbxError::BadCommand(format!("missing value for `{kw}`")))?;
                validate_field(field, value)?;
                rec.set(field, value);
            }
            if verb == "add" {
                store.add(rec, Channel::Craft)?;
                Ok(format!("station {ext} administered"))
            } else {
                store.change(ext, rec, Channel::Craft)?;
                Ok(format!("station {ext} changed"))
            }
        }
        "remove" => {
            expect_kw(&mut it, "station", line)?;
            let ext = it
                .next()
                .ok_or_else(|| PbxError::BadCommand(format!("missing extension: {line}")))?;
            store.remove(ext, Channel::Craft)?;
            Ok(format!("station {ext} removed"))
        }
        "display" => {
            expect_kw(&mut it, "station", line)?;
            let ext = it
                .next()
                .ok_or_else(|| PbxError::BadCommand(format!("missing extension: {line}")))?;
            let rec = store
                .get(ext)
                .ok_or_else(|| PbxError::NoSuchStation(ext.clone()))?;
            let mut out = String::new();
            writeln!(out, "STATION {ext}").expect("write");
            for (k, v) in rec.fields() {
                if k != fields::EXTENSION {
                    writeln!(out, "  {k:<16} {v}").expect("write");
                }
            }
            Ok(out)
        }
        "list" => {
            match it.next().map(String::as_str) {
                Some("stations") => {}
                other => {
                    return Err(PbxError::BadCommand(format!(
                        "expected `stations`, got {other:?}"
                    )))
                }
            }
            let mut out = String::new();
            writeln!(out, "{:<8} {:<24} {:<10}", "EXT", "NAME", "ROOM").expect("write");
            store.for_each(|r| {
                writeln!(
                    out,
                    "{:<8} {:<24} {:<10}",
                    r.get(fields::EXTENSION).unwrap_or(""),
                    r.get(fields::NAME).unwrap_or(""),
                    r.get(fields::ROOM).unwrap_or("")
                )
                .expect("write");
            });
            Ok(out)
        }
        other => Err(PbxError::BadCommand(format!("unknown verb `{other}`"))),
    }
}

/// Field validation at the admin boundary (the only typing the device has).
fn validate_field(field: &str, value: &str) -> Result<()> {
    match field {
        fields::COVERAGE_PATH | fields::COR
            if !value.is_empty() && !value.chars().all(|c| c.is_ascii_digit()) =>
        {
            Err(PbxError::InvalidField {
                field: field.into(),
                detail: format!("`{value}` must be numeric"),
            })
        }
        // board-slot-port like 01A0101; accept alphanumeric only
        fields::PORT if !value.is_empty() && !value.chars().all(|c| c.is_ascii_alphanumeric()) => {
            Err(PbxError::InvalidField {
                field: field.into(),
                detail: format!("`{value}` is not a port designator"),
            })
        }
        _ => Ok(()),
    }
}

fn expect_kw<'a>(it: &mut impl Iterator<Item = &'a String>, kw: &str, line: &str) -> Result<()> {
    match it.next() {
        Some(t) if t == kw => Ok(()),
        _ => Err(PbxError::BadCommand(format!("expected `{kw}` in `{line}`"))),
    }
}

/// The words of a console line, a double-quoted run being one word; `None`
/// for a quote left open. The messaging platform's console splits its
/// lines the same way.
pub fn words(line: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        let (word, after) = match rest.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"')?,
            None => rest.split_at(rest.find(char::is_whitespace).unwrap_or(rest.len())),
        };
        out.push(word.to_string());
        rest = after.trim_start();
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialplan::DialPlan;

    fn store() -> Store {
        Store::new("pbx-west", DialPlan::with_prefix("9", 4))
    }

    #[test]
    fn add_display_change_remove() {
        let s = store();
        execute(&s, r#"add station 9123 name "Doe, John" room 2B-401 cov 1"#).unwrap();
        let shown = execute(&s, "display station 9123").unwrap();
        assert!(shown.contains("Doe, John"));
        assert!(shown.contains("2B-401"));
        execute(&s, "change station 9123 room 2C-115").unwrap();
        assert_eq!(s.get("9123").unwrap().get(fields::ROOM), Some("2C-115"));
        execute(&s, "remove station 9123").unwrap();
        assert!(s.get("9123").is_none());
    }

    #[test]
    fn list_stations_table() {
        let s = store();
        execute(&s, r#"add station 9200 name "Smith, Pat""#).unwrap();
        execute(&s, r#"add station 9100 name "Doe, John""#).unwrap();
        let out = execute(&s, "list stations").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("9100"));
        assert!(lines[2].starts_with("9200"));
    }

    #[test]
    fn validation_errors() {
        let s = store();
        assert!(matches!(
            execute(&s, "add station 8123 name X"),
            Err(PbxError::OutsideDialPlan { .. })
        ));
        assert!(matches!(
            execute(&s, "add station 9123 cov abc"),
            Err(PbxError::InvalidField { .. })
        ));
        assert!(matches!(
            execute(&s, "add station 9123 port 01-A"),
            Err(PbxError::InvalidField { .. })
        ));
    }

    #[test]
    fn bad_commands() {
        let s = store();
        for bad in [
            "frobnicate station 9123",
            "add trunk 9123",
            "add station",
            "add station 9123 name",
            "add station 9123 unknownfield x",
            r#"add station 9123 name "unterminated"#,
            "list trunks",
            "display station 9999",
        ] {
            assert!(execute(&s, bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn craft_commands_are_fed_as_terminal_commits() {
        let s = store();
        let rx = crate::store::tests::feed(&s);
        execute(&s, "add station 9123 name X").unwrap();
        let added = rx.try_recv().unwrap().new.unwrap();
        assert_eq!(added.get(fields::EXTENSION), Some("9123"));
    }
}
