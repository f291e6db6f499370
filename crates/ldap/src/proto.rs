//! LDAPv3 message layer (RFC 2251 subset): protocol-op types, BER
//! encode/decode, and stream framing.
//!
//! Covered ops: Bind, Unbind, Search (+ entry/done), Modify, Add, Delete,
//! ModifyDN, Compare. Controls, SASL, referrals and extended ops are out of
//! scope — MetaComm does not use them.

use crate::ber::{self, Reader, Writer};
use crate::dit::Scope;
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, ModOp, Modification};
use crate::error::{LdapError, Result, ResultCode};
use crate::filter::Filter;
use std::io::Read;

/// An LDAPMessage: id + protocol op.
#[derive(Debug, Clone, PartialEq)]
pub struct LdapMessage {
    pub id: i64,
    pub op: ProtocolOp,
}

/// The LDAPResult wire structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdapResult {
    pub code: ResultCode,
    pub matched_dn: String,
    pub message: String,
}

impl LdapResult {
    pub fn success() -> LdapResult {
        LdapResult {
            code: ResultCode::Success,
            matched_dn: String::new(),
            message: String::new(),
        }
    }

    pub(crate) fn error(e: &LdapError) -> LdapResult {
        LdapResult {
            code: e.code,
            matched_dn: String::new(),
            message: e.message.clone(),
        }
    }

    /// Convert to `Err` unless the code is non-error.
    pub(crate) fn into_result(self) -> Result<LdapResult> {
        if self.code.is_non_error() {
            Ok(self)
        } else {
            Err(LdapError::new(self.code, self.message))
        }
    }
}

/// Protocol operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolOp {
    BindRequest {
        version: i64,
        dn: String,
        password: String,
    },
    BindResponse(LdapResult),
    UnbindRequest,
    SearchRequest {
        base: String,
        scope: Scope,
        size_limit: i64,
        filter: Filter,
        attrs: Vec<String>,
    },
    SearchResultEntry {
        dn: String,
        attrs: Vec<(String, Vec<String>)>,
    },
    SearchResultDone(LdapResult),
    ModifyRequest {
        dn: String,
        mods: Vec<Modification>,
    },
    ModifyResponse(LdapResult),
    AddRequest {
        dn: String,
        attrs: Vec<(String, Vec<String>)>,
    },
    AddResponse(LdapResult),
    DelRequest {
        dn: String,
    },
    DelResponse(LdapResult),
    ModifyDnRequest {
        dn: String,
        new_rdn: String,
        delete_old: bool,
        new_superior: Option<String>,
    },
    ModifyDnResponse(LdapResult),
    CompareRequest {
        dn: String,
        attr: String,
        value: String,
    },
    CompareResponse(LdapResult),
    /// Server-initiated ExtendedResponse — only the Notice of Disconnection
    /// (RFC 2251 §4.4.1) is produced; `name` carries the response OID.
    ExtendedResponse {
        result: LdapResult,
        name: Option<String>,
    },
}

// Application tags (RFC 2251 §4).
const OP_BIND_REQ: u8 = 0;
const OP_BIND_RESP: u8 = 1;
const OP_UNBIND: u8 = 2;
const OP_SEARCH_REQ: u8 = 3;
const OP_SEARCH_ENTRY: u8 = 4;
const OP_SEARCH_DONE: u8 = 5;
const OP_MODIFY_REQ: u8 = 6;
const OP_MODIFY_RESP: u8 = 7;
const OP_ADD_REQ: u8 = 8;
const OP_ADD_RESP: u8 = 9;
const OP_DEL_REQ: u8 = 10;
const OP_DEL_RESP: u8 = 11;
const OP_MODDN_REQ: u8 = 12;
const OP_MODDN_RESP: u8 = 13;
const OP_COMPARE_REQ: u8 = 14;
const OP_COMPARE_RESP: u8 = 15;
const OP_EXTENDED_RESP: u8 = 24;

/// The responseName of the unsolicited Notice of Disconnection.
pub const NOTICE_OF_DISCONNECTION_OID: &str = "1.3.6.1.4.1.1466.20036";

/// Build the unsolicited Notice of Disconnection (message ID 0) the server
/// sends before dropping a misbehaving connection.
pub(crate) fn notice_of_disconnection(code: ResultCode, message: impl Into<String>) -> LdapMessage {
    LdapMessage {
        id: 0,
        op: ProtocolOp::ExtendedResponse {
            result: LdapResult {
                code,
                matched_dn: String::new(),
                message: message.into(),
            },
            name: Some(NOTICE_OF_DISCONNECTION_OID.to_string()),
        },
    }
}

impl LdapMessage {
    /// Encode to the wire form (a complete BER TLV).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode appending to `out` — lets a connection reuse one buffer for
    /// many messages instead of allocating per message.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::wrap(std::mem::take(out));
        w.sequence(|w| {
            w.integer(self.id);
            encode_op(w, &self.op);
        });
        *out = w.into_bytes();
    }

    /// Decode one message from a complete frame.
    pub fn decode(frame: &[u8]) -> Result<LdapMessage> {
        let mut r = Reader::new(frame);
        let mut seq = r.sequence()?;
        let id = seq.integer()?;
        let op = decode_op(&mut seq)?;
        Ok(LdapMessage { id, op })
    }
}

fn encode_result(w: &mut Writer, tag: u8, res: &LdapResult) {
    w.constructed(ber::app(tag), |w| {
        w.enumerated(i64::from(res.code.code()));
        w.str(&res.matched_dn);
        w.str(&res.message);
    });
}

fn encode_op(w: &mut Writer, op: &ProtocolOp) {
    match op {
        ProtocolOp::BindRequest {
            version,
            dn,
            password,
        } => w.constructed(ber::app(OP_BIND_REQ), |w| {
            w.integer(*version);
            w.str(dn);
            // simple auth: context primitive 0
            w.octet_string_tagged(ber::ctx_prim(0), password.as_bytes());
        }),
        ProtocolOp::BindResponse(r) => encode_result(w, OP_BIND_RESP, r),
        ProtocolOp::UnbindRequest => {
            w.tlv(ber::app_prim(OP_UNBIND), &[]);
        }
        ProtocolOp::SearchRequest {
            base,
            scope,
            size_limit,
            filter,
            attrs,
        } => w.constructed(ber::app(OP_SEARCH_REQ), |w| {
            w.str(base);
            w.enumerated(i64::from(scope.code()));
            w.enumerated(0); // derefAliases: never
            w.integer(*size_limit);
            w.integer(0); // timeLimit
            w.boolean(false); // typesOnly
            encode_filter(w, filter);
            w.sequence(|w| {
                for a in attrs {
                    w.str(a);
                }
            });
        }),
        ProtocolOp::SearchResultEntry { dn, attrs } => {
            w.constructed(ber::app(OP_SEARCH_ENTRY), |w| {
                w.str(dn);
                w.sequence(|w| {
                    for (name, values) in attrs {
                        w.sequence(|w| {
                            w.str(name);
                            w.set(|w| {
                                for v in values {
                                    w.str(v);
                                }
                            });
                        });
                    }
                });
            })
        }
        ProtocolOp::SearchResultDone(r) => encode_result(w, OP_SEARCH_DONE, r),
        ProtocolOp::ModifyRequest { dn, mods } => w.constructed(ber::app(OP_MODIFY_REQ), |w| {
            w.str(dn);
            w.sequence(|w| {
                for m in mods {
                    w.sequence(|w| {
                        w.enumerated(match m.op {
                            ModOp::Add => 0,
                            ModOp::Delete => 1,
                            ModOp::Replace => 2,
                        });
                        w.sequence(|w| {
                            w.str(m.attr.as_str());
                            w.set(|w| {
                                for v in &m.values {
                                    w.str(v);
                                }
                            });
                        });
                    });
                }
            });
        }),
        ProtocolOp::ModifyResponse(r) => encode_result(w, OP_MODIFY_RESP, r),
        ProtocolOp::AddRequest { dn, attrs } => w.constructed(ber::app(OP_ADD_REQ), |w| {
            w.str(dn);
            w.sequence(|w| {
                for (name, values) in attrs {
                    w.sequence(|w| {
                        w.str(name);
                        w.set(|w| {
                            for v in values {
                                w.str(v);
                            }
                        });
                    });
                }
            });
        }),
        ProtocolOp::AddResponse(r) => encode_result(w, OP_ADD_RESP, r),
        ProtocolOp::DelRequest { dn } => {
            w.octet_string_tagged(ber::app_prim(OP_DEL_REQ), dn.as_bytes());
        }
        ProtocolOp::DelResponse(r) => encode_result(w, OP_DEL_RESP, r),
        ProtocolOp::ModifyDnRequest {
            dn,
            new_rdn,
            delete_old,
            new_superior,
        } => w.constructed(ber::app(OP_MODDN_REQ), |w| {
            w.str(dn);
            w.str(new_rdn);
            w.boolean(*delete_old);
            if let Some(sup) = new_superior {
                w.octet_string_tagged(ber::ctx_prim(0), sup.as_bytes());
            }
        }),
        ProtocolOp::ModifyDnResponse(r) => encode_result(w, OP_MODDN_RESP, r),
        ProtocolOp::CompareRequest { dn, attr, value } => {
            w.constructed(ber::app(OP_COMPARE_REQ), |w| {
                w.str(dn);
                w.sequence(|w| {
                    w.str(attr);
                    w.str(value);
                });
            })
        }
        ProtocolOp::CompareResponse(r) => encode_result(w, OP_COMPARE_RESP, r),
        ProtocolOp::ExtendedResponse { result, name } => {
            w.constructed(ber::app(OP_EXTENDED_RESP), |w| {
                w.enumerated(i64::from(result.code.code()));
                w.str(&result.matched_dn);
                w.str(&result.message);
                if let Some(oid) = name {
                    w.octet_string_tagged(ber::ctx_prim(10), oid.as_bytes());
                }
            })
        }
    }
}

/// Encode a SearchResultEntry message straight from an [`Entry`], appending
/// to `out` — the streaming-search hot path. Skips the `entry_to_wire`
/// DN/attribute clones entirely.
pub fn encode_search_entry_into(out: &mut Vec<u8>, id: i64, e: &Entry) {
    let mut w = Writer::wrap(std::mem::take(out));
    w.sequence(|w| {
        w.integer(id);
        w.constructed(ber::app(OP_SEARCH_ENTRY), |w| {
            w.str_display(e.dn());
            w.sequence(|w| {
                for a in e.attributes() {
                    w.sequence(|w| {
                        w.str(a.name.as_str());
                        w.set(|w| {
                            for v in &a.values {
                                w.str(v);
                            }
                        });
                    });
                }
            });
        });
    });
    *out = w.into_bytes();
}

fn decode_result(body: &[u8]) -> Result<LdapResult> {
    let mut r = Reader::new(body);
    let code = ResultCode::from_code(r.enumerated()? as u32);
    let matched_dn = r.string()?;
    let message = r.string()?;
    Ok(LdapResult {
        code,
        matched_dn,
        message,
    })
}

fn decode_partial_attrs(r: &mut Reader) -> Result<Vec<(String, Vec<String>)>> {
    let mut attrs = Vec::new();
    let mut list = r.sequence()?;
    while !list.is_empty() {
        let mut item = list.sequence()?;
        let name = item.string()?;
        let mut vals = item.sub(ber::TAG_SET)?;
        let mut values = Vec::new();
        while !vals.is_empty() {
            values.push(vals.string()?);
        }
        attrs.push((name, values));
    }
    Ok(attrs)
}

fn decode_op(r: &mut Reader) -> Result<ProtocolOp> {
    let (tag, body) = r.tlv()?;
    let mut b = Reader::new(body);
    let app_tag = tag & 0x1F;
    match (tag & 0xE0, app_tag) {
        (0x60, OP_BIND_REQ) => {
            let version = b.integer()?;
            let dn = b.string()?;
            let password = match b.peek_tag() {
                Some(t) if t == ber::ctx_prim(0) => String::from_utf8(b.expect(t)?.to_vec())
                    .map_err(|_| LdapError::protocol("non-UTF-8 password"))?,
                _ => String::new(),
            };
            Ok(ProtocolOp::BindRequest {
                version,
                dn,
                password,
            })
        }
        (0x60, OP_BIND_RESP) => Ok(ProtocolOp::BindResponse(decode_result(body)?)),
        (0x40, OP_UNBIND) | (0x60, OP_UNBIND) => Ok(ProtocolOp::UnbindRequest),
        (0x60, OP_SEARCH_REQ) => {
            let base = b.string()?;
            let scope = Scope::from_code(b.enumerated()? as u32)?;
            let _deref = b.enumerated()?;
            let size_limit = b.integer()?;
            let _time_limit = b.integer()?;
            let _types_only = b.boolean()?;
            let filter = decode_filter(&mut b)?;
            let mut attr_list = b.sequence()?;
            let mut attrs = Vec::new();
            while !attr_list.is_empty() {
                attrs.push(attr_list.string()?);
            }
            Ok(ProtocolOp::SearchRequest {
                base,
                scope,
                size_limit,
                filter,
                attrs,
            })
        }
        (0x60, OP_SEARCH_ENTRY) => {
            let dn = b.string()?;
            let attrs = decode_partial_attrs(&mut b)?;
            Ok(ProtocolOp::SearchResultEntry { dn, attrs })
        }
        (0x60, OP_SEARCH_DONE) => Ok(ProtocolOp::SearchResultDone(decode_result(body)?)),
        (0x60, OP_MODIFY_REQ) => {
            let dn = b.string()?;
            let mut list = b.sequence()?;
            let mut mods = Vec::new();
            while !list.is_empty() {
                let mut item = list.sequence()?;
                let op = match item.enumerated()? {
                    0 => ModOp::Add,
                    1 => ModOp::Delete,
                    2 => ModOp::Replace,
                    other => return Err(LdapError::protocol(format!("bad mod op {other}"))),
                };
                let mut ava = item.sequence()?;
                let attr = ava.string()?;
                let mut vals = ava.sub(ber::TAG_SET)?;
                let mut values = Vec::new();
                while !vals.is_empty() {
                    values.push(vals.string()?);
                }
                mods.push(Modification {
                    op,
                    attr: attr.into(),
                    values,
                });
            }
            Ok(ProtocolOp::ModifyRequest { dn, mods })
        }
        (0x60, OP_MODIFY_RESP) => Ok(ProtocolOp::ModifyResponse(decode_result(body)?)),
        (0x60, OP_ADD_REQ) => {
            let dn = b.string()?;
            let attrs = decode_partial_attrs(&mut b)?;
            Ok(ProtocolOp::AddRequest { dn, attrs })
        }
        (0x60, OP_ADD_RESP) => Ok(ProtocolOp::AddResponse(decode_result(body)?)),
        (0x40, OP_DEL_REQ) => {
            let dn = String::from_utf8(body.to_vec())
                .map_err(|_| LdapError::protocol("non-UTF-8 DN"))?;
            Ok(ProtocolOp::DelRequest { dn })
        }
        (0x60, OP_DEL_RESP) => Ok(ProtocolOp::DelResponse(decode_result(body)?)),
        (0x60, OP_MODDN_REQ) => {
            let dn = b.string()?;
            let new_rdn = b.string()?;
            let delete_old = b.boolean()?;
            let new_superior = match b.peek_tag() {
                Some(t) if t == ber::ctx_prim(0) => Some(
                    String::from_utf8(b.expect(t)?.to_vec())
                        .map_err(|_| LdapError::protocol("non-UTF-8 newSuperior"))?,
                ),
                _ => None,
            };
            Ok(ProtocolOp::ModifyDnRequest {
                dn,
                new_rdn,
                delete_old,
                new_superior,
            })
        }
        (0x60, OP_MODDN_RESP) => Ok(ProtocolOp::ModifyDnResponse(decode_result(body)?)),
        (0x60, OP_COMPARE_REQ) => {
            let dn = b.string()?;
            let mut ava = b.sequence()?;
            let attr = ava.string()?;
            let value = ava.string()?;
            Ok(ProtocolOp::CompareRequest { dn, attr, value })
        }
        (0x60, OP_COMPARE_RESP) => Ok(ProtocolOp::CompareResponse(decode_result(body)?)),
        (0x60, OP_EXTENDED_RESP) => {
            let code = ResultCode::from_code(b.enumerated()? as u32);
            let matched_dn = b.string()?;
            let message = b.string()?;
            let name = match b.peek_tag() {
                Some(t) if t == ber::ctx_prim(10) => Some(
                    String::from_utf8(b.expect(t)?.to_vec())
                        .map_err(|_| LdapError::protocol("non-UTF-8 responseName"))?,
                ),
                _ => None,
            };
            Ok(ProtocolOp::ExtendedResponse {
                result: LdapResult {
                    code,
                    matched_dn,
                    message,
                },
                name,
            })
        }
        _ => Err(LdapError::protocol(format!(
            "unknown protocol op tag 0x{tag:02x}"
        ))),
    }
}

/// Filter encoding (RFC 2251 §4.5.1 context tags).
fn encode_filter(w: &mut Writer, f: &Filter) {
    match f {
        Filter::And(fs) => w.constructed(ber::ctx(0), |w| {
            for x in fs {
                encode_filter(w, x);
            }
        }),
        Filter::Or(fs) => w.constructed(ber::ctx(1), |w| {
            for x in fs {
                encode_filter(w, x);
            }
        }),
        Filter::Not(x) => w.constructed(ber::ctx(2), |w| encode_filter(w, x)),
        Filter::Equality(a, v) => w.constructed(ber::ctx(3), |w| {
            w.str(a);
            w.str(v);
        }),
        Filter::Substring {
            attr,
            initial,
            any,
            final_,
        } => w.constructed(ber::ctx(4), |w| {
            w.str(attr);
            w.sequence(|w| {
                if let Some(i) = initial {
                    w.octet_string_tagged(ber::ctx_prim(0), i.as_bytes());
                }
                for a in any {
                    w.octet_string_tagged(ber::ctx_prim(1), a.as_bytes());
                }
                if let Some(x) = final_ {
                    w.octet_string_tagged(ber::ctx_prim(2), x.as_bytes());
                }
            });
        }),
        Filter::GreaterOrEqual(a, v) => w.constructed(ber::ctx(5), |w| {
            w.str(a);
            w.str(v);
        }),
        Filter::LessOrEqual(a, v) => w.constructed(ber::ctx(6), |w| {
            w.str(a);
            w.str(v);
        }),
        Filter::Present(a) => w.octet_string_tagged(ber::ctx_prim(7), a.as_bytes()),
        Filter::Approx(a, v) => w.constructed(ber::ctx(8), |w| {
            w.str(a);
            w.str(v);
        }),
    }
}

fn decode_filter(r: &mut Reader) -> Result<Filter> {
    let (tag, body) = r.tlv()?;
    let mut b = Reader::new(body);
    match tag {
        t if t == ber::ctx(0) || t == ber::ctx(1) => {
            let mut parts = Vec::new();
            while !b.is_empty() {
                parts.push(decode_filter(&mut b)?);
            }
            if parts.is_empty() {
                return Err(LdapError::protocol("empty and/or filter"));
            }
            Ok(if tag == ber::ctx(0) {
                Filter::And(parts)
            } else {
                Filter::Or(parts)
            })
        }
        t if t == ber::ctx(2) => Ok(Filter::Not(Box::new(decode_filter(&mut b)?))),
        t if t == ber::ctx(3) => Ok(Filter::Equality(b.string()?, b.string()?)),
        t if t == ber::ctx(4) => {
            let attr = b.string()?;
            let mut parts = b.sequence()?;
            let (mut initial, mut any, mut final_) = (None, Vec::new(), None);
            while !parts.is_empty() {
                let (ptag, pbody) = parts.tlv()?;
                let s = String::from_utf8(pbody.to_vec())
                    .map_err(|_| LdapError::protocol("non-UTF-8 substring"))?;
                match ptag {
                    t if t == ber::ctx_prim(0) => initial = Some(s),
                    t if t == ber::ctx_prim(1) => any.push(s),
                    t if t == ber::ctx_prim(2) => final_ = Some(s),
                    other => {
                        return Err(LdapError::protocol(format!(
                            "bad substring tag 0x{other:02x}"
                        )))
                    }
                }
            }
            Ok(Filter::Substring {
                attr,
                initial,
                any,
                final_,
            })
        }
        t if t == ber::ctx(5) => Ok(Filter::GreaterOrEqual(b.string()?, b.string()?)),
        t if t == ber::ctx(6) => Ok(Filter::LessOrEqual(b.string()?, b.string()?)),
        t if t == ber::ctx_prim(7) => Ok(Filter::Present(
            String::from_utf8(body.to_vec())
                .map_err(|_| LdapError::protocol("non-UTF-8 attribute"))?,
        )),
        t if t == ber::ctx(8) => Ok(Filter::Approx(b.string()?, b.string()?)),
        other => Err(LdapError::protocol(format!(
            "unknown filter tag 0x{other:02x}"
        ))),
    }
}

/// Hard cap on a single BER frame (tag + length + body).
pub(crate) const MAX_FRAME: usize = 64 * 1024 * 1024;

const READ_CHUNK: usize = 16 * 1024;

/// Buffered incremental BER frame splitter.
///
/// Reads from the underlying stream in large chunks into one reusable
/// scratch buffer and yields complete frames as slices into it — no
/// per-frame allocation and no per-frame read syscalls. Consumed space is
/// reclaimed by compaction before the buffer would otherwise grow. The
/// only frame reader: both wire engines and `TcpDirectory` read through it.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Next complete frame, or `None` on clean EOF at a frame boundary.
    /// Mid-frame EOF is `UnexpectedEof`; malformed or oversized headers are
    /// `InvalidData`.
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let frame_len = loop {
            match self.parse_header()? {
                Some(len) if self.end - self.start >= len => break len,
                _ => {
                    if !self.fill()? {
                        return if self.start == self.end {
                            Ok(None)
                        } else {
                            Err(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "truncated BER frame",
                            ))
                        };
                    }
                }
            }
        };
        let s = self.start;
        self.start += frame_len;
        Ok(Some(&self.buf[s..s + frame_len]))
    }

    /// Total frame length if the buffered bytes hold a complete header,
    /// `None` if more bytes are needed.
    fn parse_header(&self) -> std::io::Result<Option<usize>> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 2 {
            return Ok(None);
        }
        let (body_len, header_len) = if avail[1] < 0x80 {
            (avail[1] as usize, 2)
        } else {
            let n = (avail[1] & 0x7F) as usize;
            if n == 0 || n > 8 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "unsupported BER length",
                ));
            }
            if avail.len() < 2 + n {
                return Ok(None);
            }
            let mut len = 0usize;
            for &b in &avail[2..2 + n] {
                len = (len << 8) | b as usize;
            }
            (len, 2 + n)
        };
        if body_len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "BER frame too large",
            ));
        }
        Ok(Some(header_len + body_len))
    }

    /// Read more bytes from the stream; `false` on EOF.
    fn fill(&mut self) -> std::io::Result<bool> {
        // Reclaim consumed space before growing the buffer.
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 0 && self.end + READ_CHUNK > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n > 0)
    }
}

/// Convert an [`Entry`] to the wire attribute list.
pub(crate) fn entry_to_wire(e: &Entry) -> (String, Vec<(String, Vec<String>)>) {
    (
        e.dn().to_string(),
        e.attributes()
            .map(|a| {
                let values = a.values.iter().map(|v| v.to_string()).collect();
                (a.name.as_str().to_string(), values)
            })
            .collect(),
    )
}

/// Convert a wire attribute list back to an [`Entry`].
pub(crate) fn entry_from_wire(dn: &str, attrs: &[(String, Vec<String>)]) -> Result<Entry> {
    let mut e = Entry::new(Dn::parse(dn)?);
    for (name, values) in attrs {
        for v in values {
            e.add_value(name.as_str(), v);
        }
    }
    Ok(e)
}

/// Parse the string forms used in requests.
pub(crate) fn parse_rdn(s: &str) -> Result<Rdn> {
    Rdn::parse(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(op: ProtocolOp) {
        let msg = LdapMessage { id: 42, op };
        let bytes = msg.encode();
        let decoded = LdapMessage::decode(&bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn bind_round_trip() {
        round_trip(ProtocolOp::BindRequest {
            version: 3,
            dn: "cn=admin,o=Lucent".into(),
            password: "secret".into(),
        });
        round_trip(ProtocolOp::BindResponse(LdapResult::success()));
    }

    #[test]
    fn unbind_round_trip() {
        round_trip(ProtocolOp::UnbindRequest);
    }

    #[test]
    fn search_round_trip() {
        round_trip(ProtocolOp::SearchRequest {
            base: "o=Lucent".into(),
            scope: Scope::Sub,
            size_limit: 100,
            filter: Filter::parse(
                "(&(objectClass=person)(|(cn=J*n)(sn>=A))(!(mail=*))(cn~=jd)(x<=9))",
            )
            .unwrap(),
            attrs: vec!["cn".into(), "sn".into()],
        });
        round_trip(ProtocolOp::SearchResultEntry {
            dn: "cn=J,o=Lucent".into(),
            attrs: vec![
                ("cn".into(), vec!["J".into()]),
                ("objectClass".into(), vec!["top".into(), "person".into()]),
            ],
        });
        round_trip(ProtocolOp::SearchResultDone(LdapResult::success()));
    }

    #[test]
    fn modify_round_trip() {
        round_trip(ProtocolOp::ModifyRequest {
            dn: "cn=J,o=Lucent".into(),
            mods: vec![
                Modification::set("telephoneNumber", "9123"),
                Modification::delete_attr("mail"),
                Modification::add("ou", vec!["a".into(), "b".into()]),
            ],
        });
    }

    #[test]
    fn add_delete_round_trip() {
        round_trip(ProtocolOp::AddRequest {
            dn: "cn=J,o=Lucent".into(),
            attrs: vec![("cn".into(), vec!["J".into()])],
        });
        round_trip(ProtocolOp::DelRequest {
            dn: "cn=J,o=Lucent".into(),
        });
        round_trip(ProtocolOp::DelResponse(LdapResult {
            code: ResultCode::NoSuchObject,
            matched_dn: "o=Lucent".into(),
            message: "nope".into(),
        }));
    }

    #[test]
    fn moddn_round_trip() {
        round_trip(ProtocolOp::ModifyDnRequest {
            dn: "cn=J,o=Lucent".into(),
            new_rdn: "cn=K".into(),
            delete_old: true,
            new_superior: None,
        });
        round_trip(ProtocolOp::ModifyDnRequest {
            dn: "cn=J,o=Lucent".into(),
            new_rdn: "cn=K".into(),
            delete_old: false,
            new_superior: Some("o=R&D,o=Lucent".into()),
        });
    }

    #[test]
    fn compare_round_trip() {
        round_trip(ProtocolOp::CompareRequest {
            dn: "cn=J,o=Lucent".into(),
            attr: "sn".into(),
            value: "Doe".into(),
        });
        round_trip(ProtocolOp::CompareResponse(LdapResult {
            code: ResultCode::CompareTrue,
            matched_dn: String::new(),
            message: String::new(),
        }));
    }

    #[test]
    fn extended_response_round_trip() {
        round_trip(ProtocolOp::ExtendedResponse {
            result: LdapResult {
                code: ResultCode::ProtocolError,
                matched_dn: String::new(),
                message: "bad frame".into(),
            },
            name: Some(NOTICE_OF_DISCONNECTION_OID.into()),
        });
        round_trip(ProtocolOp::ExtendedResponse {
            result: LdapResult::success(),
            name: None,
        });
        let notice = notice_of_disconnection(ResultCode::ProtocolError, "x");
        assert_eq!(notice.id, 0);
    }

    #[test]
    fn frame_reader_splits_stream_incrementally() {
        let m1 = LdapMessage {
            id: 1,
            op: ProtocolOp::DelRequest { dn: "cn=a".into() },
        };
        let m2 = LdapMessage {
            id: 2,
            op: ProtocolOp::SearchResultEntry {
                dn: "cn=b".into(),
                // Long-form length: body > 127 bytes.
                attrs: vec![("description".into(), vec!["x".repeat(40_000)])],
            },
        };
        let mut stream: Vec<u8> = Vec::new();
        for _ in 0..3 {
            stream.extend(m1.encode());
            stream.extend(m2.encode());
        }
        // A reader that trickles one byte at a time exercises the
        // partial-header / partial-body resume paths.
        struct OneByte(std::io::Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = 1.min(buf.len());
                self.0.read(&mut buf[..n])
            }
        }
        let mut fr = FrameReader::new(std::io::Cursor::new(stream.clone()));
        for _ in 0..3 {
            let f1 = fr.next_frame().unwrap().unwrap();
            assert_eq!(LdapMessage::decode(f1).unwrap(), m1);
            let f2 = fr.next_frame().unwrap().unwrap();
            assert_eq!(LdapMessage::decode(f2).unwrap(), m2);
        }
        assert!(fr.next_frame().unwrap().is_none());
        let mut fr = FrameReader::new(OneByte(std::io::Cursor::new(stream)));
        let f1 = fr.next_frame().unwrap().unwrap();
        assert_eq!(LdapMessage::decode(f1).unwrap(), m1);
        let f2 = fr.next_frame().unwrap().unwrap();
        assert_eq!(LdapMessage::decode(f2).unwrap(), m2);
    }

    #[test]
    fn frame_reader_rejects_bad_frames() {
        // Mid-frame EOF.
        let m = LdapMessage {
            id: 1,
            op: ProtocolOp::DelRequest { dn: "cn=a".into() },
        };
        let bytes = m.encode();
        let mut fr = FrameReader::new(std::io::Cursor::new(bytes[..bytes.len() - 1].to_vec()));
        let err = fr.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Oversized length claim.
        let mut fr = FrameReader::new(std::io::Cursor::new(vec![
            0x30, 0x84, 0x40, 0x00, 0x00, 0x00,
        ]));
        let err = fr.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Garbage length form.
        let mut fr = FrameReader::new(std::io::Cursor::new(vec![0xFF; 64]));
        let err = fr.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let m = LdapMessage {
            id: 9,
            op: ProtocolOp::CompareRequest {
                dn: "cn=J,o=L".into(),
                attr: "sn".into(),
                value: "D".into(),
            },
        };
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        m.encode_into(&mut buf);
        let one = m.encode();
        assert_eq!(buf.len(), one.len() * 2);
        assert_eq!(&buf[..one.len()], one.as_slice());
        assert_eq!(&buf[one.len()..], one.as_slice());
    }

    #[test]
    fn encode_search_entry_into_matches_legacy_path() {
        let e = Entry::with_attrs(
            Dn::parse("cn=J,o=L").unwrap(),
            [("cn", "J"), ("sn", "D"), ("ou", "a"), ("ou", "b")],
        );
        let mut streamed = Vec::new();
        encode_search_entry_into(&mut streamed, 7, &e);
        let (dn, attrs) = entry_to_wire(&e);
        let legacy = LdapMessage {
            id: 7,
            op: ProtocolOp::SearchResultEntry { dn, attrs },
        }
        .encode();
        assert_eq!(streamed, legacy);
    }

    #[test]
    fn entry_wire_round_trip() {
        let e = Entry::with_attrs(
            Dn::parse("cn=J,o=L").unwrap(),
            [("cn", "J"), ("sn", "D"), ("ou", "a"), ("ou", "b")],
        );
        let (dn, attrs) = entry_to_wire(&e);
        let back = entry_from_wire(&dn, &attrs).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn garbage_rejected() {
        assert!(LdapMessage::decode(&[0x01, 0x02, 0x03]).is_err());
        assert!(LdapMessage::decode(&[]).is_err());
    }
}
