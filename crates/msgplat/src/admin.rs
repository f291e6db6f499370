//! The platform's proprietary admin console — the direct-update path for
//! the messaging platform, analogous to the PBX craft terminal.
//!
//! ```text
//! add subscriber 9123 name "Doe, John" cos executive
//! change subscriber 9123 cos standard
//! display subscriber 9123
//! remove subscriber 9123
//! list subscribers
//! ```

use crate::error::{MpError, Result};
use crate::store::{fields, Channel, Record, Store};
use std::fmt::Write as _;

fn field_for(keyword: &str) -> Option<&'static str> {
    match keyword {
        "name" => Some(fields::SUBSCRIBER),
        "cos" => Some(fields::COS),
        _ => None,
    }
}

/// Execute one console command; returns the console output.
pub fn execute(store: &Store, line: &str) -> Result<String> {
    let tokens = pbx::ossi::words(line)
        .ok_or_else(|| MpError::BadCommand(format!("unterminated quote in `{line}`")))?;
    let mut it = tokens.iter();
    let verb = it.next().map(String::as_str).unwrap_or("");
    match verb {
        "add" | "change" => {
            expect_kw(&mut it, "subscriber", line)?;
            let mb = it
                .next()
                .ok_or_else(|| MpError::BadCommand(format!("missing mailbox: {line}")))?;
            let mut rec = Record::new();
            if verb == "add" {
                rec.set(fields::MAILBOX, mb);
            }
            while let Some(kw) = it.next() {
                let field = field_for(kw)
                    .ok_or_else(|| MpError::BadCommand(format!("unknown field `{kw}`")))?;
                let value = it
                    .next()
                    .ok_or_else(|| MpError::BadCommand(format!("missing value for `{kw}`")))?;
                rec.set(field, value);
            }
            if verb == "add" {
                store.add(rec, Channel::Console)?;
                let id = store.read(mb, |held| held.get(fields::MBID).map(str::to_string));
                Ok(format!(
                    "subscriber {mb} created, mailbox id {}",
                    id.flatten().as_deref().unwrap_or("?")
                ))
            } else {
                store.change(mb, rec, Channel::Console)?;
                Ok(format!("subscriber {mb} changed"))
            }
        }
        "remove" => {
            expect_kw(&mut it, "subscriber", line)?;
            let mb = it
                .next()
                .ok_or_else(|| MpError::BadCommand(format!("missing mailbox: {line}")))?;
            store.remove(mb, Channel::Console)?;
            Ok(format!("subscriber {mb} removed"))
        }
        "display" => {
            expect_kw(&mut it, "subscriber", line)?;
            let mb = it
                .next()
                .ok_or_else(|| MpError::BadCommand(format!("missing mailbox: {line}")))?;
            let rec =
                pbx::Store::get(store, mb).ok_or_else(|| MpError::NoSuchMailbox(mb.clone()))?;
            let mut out = String::new();
            writeln!(out, "MAILBOX {mb}").expect("write");
            for (k, v) in rec.fields() {
                if k != fields::MAILBOX {
                    writeln!(out, "  {k:<14} {v}").expect("write");
                }
            }
            Ok(out)
        }
        "list" => {
            match it.next().map(String::as_str) {
                Some("subscribers") => {}
                other => {
                    return Err(MpError::BadCommand(format!(
                        "expected `subscribers`, got {other:?}"
                    )))
                }
            }
            let mut out = String::new();
            writeln!(out, "{:<8} {:<12} {:<24}", "MBX", "ID", "SUBSCRIBER").expect("write");
            store.for_each(|r| {
                writeln!(
                    out,
                    "{:<8} {:<12} {:<24}",
                    r.get(fields::MAILBOX).unwrap_or(""),
                    r.get(fields::MBID).unwrap_or(""),
                    r.get(fields::SUBSCRIBER).unwrap_or("")
                )
                .expect("write");
            });
            Ok(out)
        }
        other => Err(MpError::BadCommand(format!("unknown verb `{other}`"))),
    }
}

fn expect_kw<'a>(it: &mut impl Iterator<Item = &'a String>, kw: &str, line: &str) -> Result<()> {
    match it.next() {
        Some(t) if t == kw => Ok(()),
        _ => Err(MpError::BadCommand(format!("expected `{kw}` in `{line}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn console_round_trip() {
        let s = Store::new("mp");
        let out = execute(&s, r#"add subscriber 9123 name "Doe, John" cos executive"#).unwrap();
        assert!(out.contains("MB-"), "reports generated id: {out}");
        let shown = execute(&s, "display subscriber 9123").unwrap();
        assert!(shown.contains("Doe, John"));
        assert!(shown.contains("executive"));
        execute(&s, "change subscriber 9123 cos standard").unwrap();
        assert_eq!(
            s.get("9123").unwrap().get(fields::COS).map(String::as_str),
            Some("standard")
        );
        let listing = execute(&s, "list subscribers").unwrap();
        assert!(listing.contains("9123"));
        execute(&s, "remove subscriber 9123").unwrap();
        assert!(s.get("9123").is_none());
    }

    #[test]
    fn bad_commands() {
        let s = Store::new("mp");
        for bad in [
            "add mailbox 9123",
            "add subscriber",
            "add subscriber 9123 frob x",
            "list mailboxes",
            "display subscriber 404",
            "nonsense",
        ] {
            assert!(execute(&s, bad).is_err(), "should reject `{bad}`");
        }
    }
}
