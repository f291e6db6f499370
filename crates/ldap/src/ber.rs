//! BER (Basic Encoding Rules) — the ASN.1 encoding LDAP uses on the wire.
//!
//! Only what LDAPv3 needs: definite lengths, single-byte tags, the universal
//! types BOOLEAN / INTEGER / ENUMERATED / OCTET STRING / SEQUENCE / SET, and
//! application- or context-tagged variants of those.

use crate::error::{LdapError, Result};
use std::fmt;

/// Universal tags.
pub(crate) const TAG_BOOLEAN: u8 = 0x01;
pub(crate) const TAG_INTEGER: u8 = 0x02;
pub(crate) const TAG_OCTET_STRING: u8 = 0x04;
pub(crate) const TAG_ENUMERATED: u8 = 0x0A;
pub(crate) const TAG_SEQUENCE: u8 = 0x30;
pub(crate) const TAG_SET: u8 = 0x31;

/// Application-class tag (constructed), e.g. LDAP protocol ops.
pub(crate) const fn app(tag: u8) -> u8 {
    0x60 | tag
}

/// Application-class tag (primitive), e.g. DelRequest.
pub(crate) const fn app_prim(tag: u8) -> u8 {
    0x40 | tag
}

/// Context-specific tag (constructed).
pub(crate) const fn ctx(tag: u8) -> u8 {
    0xA0 | tag
}

/// Context-specific tag (primitive).
pub(crate) const fn ctx_prim(tag: u8) -> u8 {
    0x80 | tag
}

/// Incremental BER writer over a plain `Vec<u8>`.
///
/// Constructed values are encoded *in place*: the body is written directly
/// after a one-byte length placeholder which is back-patched once the body
/// size is known (spliced to long form when it exceeds 127 bytes). This
/// keeps nested SEQUENCEs allocation-free and lets callers reuse one buffer
/// across messages via [`Writer::wrap`].
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Continue writing into an existing buffer (appends after its current
    /// contents); get it back with [`Writer::into_bytes`].
    pub(crate) fn wrap(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw TLV.
    pub(crate) fn tlv(&mut self, tag: u8, body: &[u8]) {
        self.buf.push(tag);
        self.write_len(body.len());
        self.buf.extend_from_slice(body);
    }

    fn write_len(&mut self, len: usize) {
        if len < 0x80 {
            self.buf.push(len as u8);
        } else {
            let bytes = len.to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            let n = bytes.len() - skip;
            self.buf.push(0x80 | n as u8);
            self.buf.extend_from_slice(&bytes[skip..]);
        }
    }

    /// Patch the one-byte length placeholder at `len_pos` to cover every
    /// byte written after it, preserving minimal (definite-form) encoding.
    fn patch_len(&mut self, len_pos: usize) {
        let body_len = self.buf.len() - len_pos - 1;
        if body_len < 0x80 {
            self.buf[len_pos] = body_len as u8;
        } else {
            let bytes = body_len.to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            let n = bytes.len() - skip;
            self.buf.splice(
                len_pos..len_pos + 1,
                std::iter::once(0x80 | n as u8).chain(bytes[skip..].iter().copied()),
            );
        }
    }

    /// OCTET STRING with a custom tag (defaults to universal).
    pub(crate) fn octet_string_tagged(&mut self, tag: u8, s: &[u8]) {
        self.tlv(tag, s);
    }

    pub(crate) fn octet_string(&mut self, s: &[u8]) {
        self.octet_string_tagged(TAG_OCTET_STRING, s);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.octet_string(s.as_bytes());
    }

    /// OCTET STRING formatted straight from a [`fmt::Display`] value —
    /// skips the intermediate `to_string` allocation (used for DNs on the
    /// search hot path).
    pub(crate) fn str_display(&mut self, v: &dyn fmt::Display) {
        struct VecWrite<'a>(&'a mut Vec<u8>);
        impl fmt::Write for VecWrite<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        self.buf.push(TAG_OCTET_STRING);
        let len_pos = self.buf.len();
        self.buf.push(0);
        let _ = fmt::Write::write_fmt(&mut VecWrite(&mut self.buf), format_args!("{v}"));
        self.patch_len(len_pos);
    }

    pub(crate) fn integer_tagged(&mut self, tag: u8, v: i64) {
        let mut bytes = v.to_be_bytes().to_vec();
        // Trim redundant leading bytes while preserving the sign bit.
        while bytes.len() > 1 {
            let first = bytes[0];
            let second = bytes[1];
            let redundant =
                (first == 0x00 && second & 0x80 == 0) || (first == 0xFF && second & 0x80 != 0);
            if redundant {
                bytes.remove(0);
            } else {
                break;
            }
        }
        self.tlv(tag, &bytes);
    }

    pub(crate) fn integer(&mut self, v: i64) {
        self.integer_tagged(TAG_INTEGER, v);
    }

    pub(crate) fn enumerated(&mut self, v: i64) {
        self.integer_tagged(TAG_ENUMERATED, v);
    }

    pub(crate) fn boolean(&mut self, v: bool) {
        self.tlv(TAG_BOOLEAN, &[if v { 0xFF } else { 0x00 }]);
    }

    /// Constructed value: everything written by `f` becomes the body.
    /// Encoded in place with a back-patched length — no nested allocation.
    pub(crate) fn constructed(&mut self, tag: u8, f: impl FnOnce(&mut Writer)) {
        self.buf.push(tag);
        let len_pos = self.buf.len();
        self.buf.push(0);
        f(self);
        self.patch_len(len_pos);
    }

    pub(crate) fn sequence(&mut self, f: impl FnOnce(&mut Writer)) {
        self.constructed(TAG_SEQUENCE, f);
    }

    pub(crate) fn set(&mut self, f: impl FnOnce(&mut Writer)) {
        self.constructed(TAG_SET, f);
    }
}

/// BER reader over a byte slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Tag of the next TLV without consuming it.
    pub(crate) fn peek_tag(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    /// Read the next TLV, returning `(tag, body)`.
    pub fn tlv(&mut self) -> Result<(u8, &'a [u8])> {
        let tag = *self
            .data
            .get(self.pos)
            .ok_or_else(|| LdapError::protocol("truncated BER: no tag"))?;
        self.pos += 1;
        let first = *self
            .data
            .get(self.pos)
            .ok_or_else(|| LdapError::protocol("truncated BER: no length"))?;
        self.pos += 1;
        let len = if first < 0x80 {
            first as usize
        } else {
            let n = (first & 0x7F) as usize;
            if n == 0 || n > 8 {
                return Err(LdapError::protocol("unsupported BER length form"));
            }
            let mut len = 0usize;
            for _ in 0..n {
                let b = *self
                    .data
                    .get(self.pos)
                    .ok_or_else(|| LdapError::protocol("truncated BER length"))?;
                self.pos += 1;
                len = (len << 8) | b as usize;
            }
            len
        };
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| LdapError::protocol("BER length overflow"))?;
        if end > self.data.len() {
            return Err(LdapError::protocol("truncated BER body"));
        }
        let body = &self.data[self.pos..end];
        self.pos = end;
        Ok((tag, body))
    }

    /// Read a TLV asserting its tag.
    pub(crate) fn expect(&mut self, expected: u8) -> Result<&'a [u8]> {
        let (tag, body) = self.tlv()?;
        if tag != expected {
            return Err(LdapError::protocol(format!(
                "expected BER tag 0x{expected:02x}, got 0x{tag:02x}"
            )));
        }
        Ok(body)
    }

    pub(crate) fn integer(&mut self) -> Result<i64> {
        let body = self.expect(TAG_INTEGER)?;
        decode_integer(body)
    }

    pub(crate) fn enumerated(&mut self) -> Result<i64> {
        let body = self.expect(TAG_ENUMERATED)?;
        decode_integer(body)
    }

    pub(crate) fn boolean(&mut self) -> Result<bool> {
        let body = self.expect(TAG_BOOLEAN)?;
        if body.len() != 1 {
            return Err(LdapError::protocol("bad BOOLEAN length"));
        }
        Ok(body[0] != 0)
    }

    pub(crate) fn octet_string(&mut self) -> Result<&'a [u8]> {
        self.expect(TAG_OCTET_STRING)
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let body = self.octet_string()?;
        String::from_utf8(body.to_vec()).map_err(|_| LdapError::protocol("non-UTF-8 LDAPString"))
    }

    /// Read a constructed value and return a reader over its body.
    pub(crate) fn sub(&mut self, expected: u8) -> Result<Reader<'a>> {
        Ok(Reader::new(self.expect(expected)?))
    }

    pub(crate) fn sequence(&mut self) -> Result<Reader<'a>> {
        self.sub(TAG_SEQUENCE)
    }
}

pub(crate) fn decode_integer(body: &[u8]) -> Result<i64> {
    if body.is_empty() || body.len() > 8 {
        return Err(LdapError::protocol("bad INTEGER length"));
    }
    let mut v: i64 = if body[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in body {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_int(v: i64) {
        let mut w = Writer::default();
        w.integer(v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.integer().unwrap(), v, "round trip {v}");
        assert!(r.is_empty());
    }

    #[test]
    fn integer_round_trips() {
        for v in [
            0,
            1,
            -1,
            127,
            128,
            255,
            256,
            -128,
            -129,
            65535,
            i64::MAX,
            i64::MIN,
        ] {
            round_trip_int(v);
        }
    }

    #[test]
    fn integer_minimal_encoding() {
        let mut w = Writer::default();
        w.integer(127);
        assert_eq!(w.into_bytes(), vec![0x02, 0x01, 0x7F]);
        let mut w = Writer::default();
        w.integer(128);
        assert_eq!(w.into_bytes(), vec![0x02, 0x02, 0x00, 0x80]);
        let mut w = Writer::default();
        w.integer(-1);
        assert_eq!(w.into_bytes(), vec![0x02, 0x01, 0xFF]);
    }

    #[test]
    fn long_form_length() {
        let body = vec![0x55u8; 300];
        let mut w = Writer::default();
        w.octet_string(&body);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], TAG_OCTET_STRING);
        assert_eq!(bytes[1], 0x82); // two length bytes
        assert_eq!(bytes[2], 0x01);
        assert_eq!(bytes[3], 0x2C);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.octet_string().unwrap(), body.as_slice());
    }

    #[test]
    fn nested_sequences() {
        let mut w = Writer::default();
        w.sequence(|w| {
            w.integer(7);
            w.sequence(|w| {
                w.str("inner");
                w.boolean(true);
            });
        });
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut seq = r.sequence().unwrap();
        assert_eq!(seq.integer().unwrap(), 7);
        let mut inner = seq.sequence().unwrap();
        assert_eq!(inner.string().unwrap(), "inner");
        assert!(inner.boolean().unwrap());
        assert!(inner.is_empty());
        assert!(seq.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn tagged_values() {
        let mut w = Writer::default();
        w.octet_string_tagged(ctx_prim(3), b"hello");
        w.constructed(app(4), |w| w.integer(1));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.peek_tag(), Some(0x83));
        assert_eq!(r.expect(0x83).unwrap(), b"hello");
        let mut sub = r.sub(0x64).unwrap();
        assert_eq!(sub.integer().unwrap(), 1);
    }

    #[test]
    fn long_form_constructed_is_backpatched() {
        // A SEQUENCE whose body exceeds 127 bytes forces the placeholder
        // length byte to be spliced to long form.
        let big = "y".repeat(200);
        let mut w = Writer::default();
        w.sequence(|w| {
            w.integer(1);
            w.str(&big);
        });
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], TAG_SEQUENCE);
        assert_eq!(bytes[1], 0x81); // one length byte, long form
        let mut r = Reader::new(&bytes);
        let mut seq = r.sequence().unwrap();
        assert_eq!(seq.integer().unwrap(), 1);
        assert_eq!(seq.string().unwrap(), big);
        assert!(seq.is_empty());
    }

    #[test]
    fn wrap_appends_to_existing_buffer() {
        let mut w = Writer::default();
        w.integer(1);
        let buf = w.into_bytes();
        let mut w = Writer::wrap(buf);
        w.integer(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.integer().unwrap(), 1);
        assert_eq!(r.integer().unwrap(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn str_display_matches_str() {
        let mut a = Writer::default();
        a.str_display(&12345);
        let mut b = Writer::default();
        b.str("12345");
        assert_eq!(a.into_bytes(), b.into_bytes());
        // Long-form case too.
        let long = "z".repeat(300);
        let mut a = Writer::default();
        a.str_display(&long);
        let mut b = Writer::default();
        b.str(&long);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(Reader::new(&[0x02]).tlv().is_err());
        assert!(Reader::new(&[0x02, 0x05, 0x00]).tlv().is_err());
        assert!(Reader::new(&[0x02, 0x89]).tlv().is_err());
        assert!(Reader::new(&[]).tlv().is_err());
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut w = Writer::default();
        w.integer(5);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).boolean().is_err());
    }
}
