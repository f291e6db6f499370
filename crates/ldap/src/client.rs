//! TCP LDAP client implementing [`Directory`] over the wire protocol —
//! what the paper calls "any tool that can perform LDAP updates".

use crate::directory::Directory;
use crate::dit::Scope;
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, Modification};
use crate::error::{LdapError, Result, ResultCode};
use crate::filter::Filter;
use crate::proto::{entry_from_wire, entry_to_wire, FrameReader, LdapMessage, ProtocolOp};
use crate::unpoison;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

/// A connected LDAP client. All operations are synchronous; the connection
/// is serialized with an internal lock so a `TcpDirectory` can be shared
/// across threads.
pub struct TcpDirectory {
    conn: Mutex<Conn>,
}

impl std::fmt::Debug for TcpDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpDirectory").finish_non_exhaustive()
    }
}

struct Conn {
    /// Write half (the read half lives inside `frames`).
    stream: TcpStream,
    /// Buffered incremental frame splitter over a clone of the stream.
    frames: FrameReader<TcpStream>,
    /// Reusable encode buffer.
    out: Vec<u8>,
    next_id: i64,
}

impl Conn {
    /// Send one message, reusing the encode buffer.
    fn send(&mut self, msg: &LdapMessage) -> Result<()> {
        self.out.clear();
        msg.encode_into(&mut self.out);
        self.stream.write_all(&self.out)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Read the next response for request `id`, surfacing an unsolicited
    /// Notice of Disconnection (message ID 0) as a typed error.
    fn recv(&mut self, id: i64) -> Result<ProtocolOp> {
        let frame = self
            .frames
            .next_frame()?
            .ok_or_else(|| LdapError::new(ResultCode::Unavailable, "server closed"))?;
        let resp = LdapMessage::decode(frame)?;
        if resp.id == 0 {
            if let ProtocolOp::ExtendedResponse { result, .. } = resp.op {
                return Err(LdapError::new(
                    result.code,
                    format!("server disconnected: {}", result.message),
                ));
            }
            return Err(LdapError::protocol("unsolicited message id 0"));
        }
        if resp.id != id {
            return Err(LdapError::protocol("response id mismatch"));
        }
        Ok(resp.op)
    }
}

impl TcpDirectory {
    /// Connect anonymously.
    pub fn connect(addr: &str) -> Result<TcpDirectory> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(TcpDirectory {
            conn: Mutex::new(Conn {
                stream,
                frames: FrameReader::new(read_half),
                out: Vec::with_capacity(256),
                next_id: 1,
            }),
        })
    }

    /// Connect and simple-bind as `dn` / `password`.
    pub fn bind(addr: &str, dn: &str, password: &str) -> Result<TcpDirectory> {
        let dir = TcpDirectory::connect(addr)?;
        let resp = dir.call(ProtocolOp::BindRequest {
            version: 3,
            dn: dn.to_string(),
            password: password.to_string(),
        })?;
        match resp {
            ProtocolOp::BindResponse(r) => {
                r.into_result()?;
                Ok(dir)
            }
            _ => Err(LdapError::protocol("unexpected bind response")),
        }
    }

    /// Send a request and read exactly one response message.
    fn call(&self, op: ProtocolOp) -> Result<ProtocolOp> {
        let mut conn = unpoison(self.conn.lock());
        let id = conn.next_id;
        conn.next_id += 1;
        conn.send(&LdapMessage { id, op })?;
        conn.recv(id)
    }

    fn search_request(
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> ProtocolOp {
        ProtocolOp::SearchRequest {
            base: base.to_string(),
            scope,
            size_limit: size_limit as i64,
            filter: filter.clone(),
            attrs: attrs.to_vec(),
        }
    }

    /// Politely close the connection.
    pub fn unbind(&self) {
        let mut conn = unpoison(self.conn.lock());
        let id = conn.next_id;
        let _ = conn.send(&LdapMessage {
            id,
            op: ProtocolOp::UnbindRequest,
        });
    }
}

impl Directory for TcpDirectory {
    fn add(&self, entry: Entry) -> Result<()> {
        let (dn, attrs) = entry_to_wire(&entry);
        match self.call(ProtocolOp::AddRequest { dn, attrs })? {
            ProtocolOp::AddResponse(r) => r.into_result().map(|_| ()),
            _ => Err(LdapError::protocol("unexpected add response")),
        }
    }

    fn delete(&self, dn: &Dn) -> Result<()> {
        match self.call(ProtocolOp::DelRequest { dn: dn.to_string() })? {
            ProtocolOp::DelResponse(r) => r.into_result().map(|_| ()),
            _ => Err(LdapError::protocol("unexpected delete response")),
        }
    }

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        match self.call(ProtocolOp::ModifyRequest {
            dn: dn.to_string(),
            mods: mods.to_vec(),
        })? {
            ProtocolOp::ModifyResponse(r) => r.into_result().map(|_| ()),
            _ => Err(LdapError::protocol("unexpected modify response")),
        }
    }

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        match self.call(ProtocolOp::ModifyDnRequest {
            dn: dn.to_string(),
            new_rdn: new_rdn.to_string(),
            delete_old,
            new_superior: new_superior.map(|d| d.to_string()),
        })? {
            ProtocolOp::ModifyDnResponse(r) => r.into_result().map(|_| ()),
            _ => Err(LdapError::protocol("unexpected modifyDN response")),
        }
    }

    /// Streamed search: each `SearchResultEntry` frame is decoded and
    /// visited as it arrives — nothing is collected, so a result stream of
    /// any size costs the caller O(one entry) memory.
    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        let mut conn = unpoison(self.conn.lock());
        let id = conn.next_id;
        conn.next_id += 1;
        conn.send(&LdapMessage {
            id,
            op: Self::search_request(base, scope, filter, attrs, size_limit),
        })?;
        let mut count = 0usize;
        loop {
            match conn.recv(id)? {
                ProtocolOp::SearchResultEntry { dn, attrs } => {
                    let e = entry_from_wire(&dn, &attrs)?;
                    visit(&e);
                    count += 1;
                }
                ProtocolOp::SearchResultDone(r) => {
                    return match r.code {
                        ResultCode::SizeLimitExceeded => Ok((count, true)),
                        _ => {
                            r.into_result()?;
                            Ok((count, false))
                        }
                    }
                }
                _ => return Err(LdapError::protocol("unexpected search response")),
            }
        }
    }

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        match self.call(ProtocolOp::CompareRequest {
            dn: dn.to_string(),
            attr: attr.to_string(),
            value: value.to_string(),
        })? {
            ProtocolOp::CompareResponse(r) => match r.code {
                ResultCode::CompareTrue => Ok(true),
                ResultCode::CompareFalse => Ok(false),
                _ => Err(LdapError::new(r.code, r.message)),
            },
            _ => Err(LdapError::protocol("unexpected compare response")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::{figure2_tree, Dit};
    use crate::server::Server;

    fn server() -> (Server, String) {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let server = Server::start(dit, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        (server, addr)
    }

    #[test]
    fn full_crud_over_the_wire() {
        let (_server, addr) = server();
        let dir = TcpDirectory::connect(&addr).unwrap();

        // Search the Figure 2 tree.
        let lucent = Dn::parse("o=Lucent").unwrap();
        let people = dir
            .search(
                &lucent,
                Scope::Sub,
                &Filter::parse("(objectClass=person)").unwrap(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(people.len(), 4);

        // Add.
        let dn = Dn::parse("cn=New Person,o=R&D,o=Lucent").unwrap();
        let e = Entry::with_attrs(
            dn.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "New Person"),
                ("sn", "Person"),
            ],
        );
        dir.add(e).unwrap();
        assert!(dir.get(&dn).unwrap().is_some());

        // Modify.
        dir.modify(&dn, &[Modification::set("telephoneNumber", "9123")])
            .unwrap();
        assert_eq!(
            dir.get(&dn).unwrap().unwrap().first("telephoneNumber"),
            Some("9123")
        );

        // Compare.
        assert!(dir.compare(&dn, "sn", "person").unwrap());
        assert!(!dir.compare(&dn, "sn", "other").unwrap());

        // ModifyRDN.
        dir.modify_rdn(&dn, &Rdn::new("cn", "Renamed Person"), true, None)
            .unwrap();
        let renamed = Dn::parse("cn=Renamed Person,o=R&D,o=Lucent").unwrap();
        assert!(dir.get(&renamed).unwrap().is_some());

        // Delete.
        dir.delete(&renamed).unwrap();
        assert!(dir.get(&renamed).unwrap().is_none());

        // Errors propagate with their codes.
        let err = dir.delete(&renamed).unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchObject);

        dir.unbind();
    }

    #[test]
    fn bind_authentication() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        dit.modify(&john, &[Modification::set("userPassword", "secret")])
            .unwrap();
        let server = Server::start(dit, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        assert!(TcpDirectory::bind(&addr, "cn=John Doe,o=Marketing,o=Lucent", "secret").is_ok());
        let err =
            TcpDirectory::bind(&addr, "cn=John Doe,o=Marketing,o=Lucent", "wrong").unwrap_err();
        assert_eq!(err.code, ResultCode::InvalidCredentials);
        let err = TcpDirectory::bind(&addr, "cn=ghost,o=Lucent", "x").unwrap_err();
        assert_eq!(err.code, ResultCode::InvalidCredentials);
    }

    #[test]
    fn concurrent_clients() {
        let (_server, addr) = server();
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let dir = TcpDirectory::connect(&addr).unwrap();
                let dn = Dn::parse(&format!("cn=Worker {i},o=R&D,o=Lucent")).unwrap();
                let e = Entry::with_attrs(
                    dn.clone(),
                    [
                        ("objectClass", "top"),
                        ("objectClass", "person"),
                        ("cn", format!("Worker {i}").as_str()),
                        ("sn", "Worker"),
                    ],
                );
                dir.add(e).unwrap();
                dir.get(&dn).unwrap().unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let dir = TcpDirectory::connect(&addr).unwrap();
        let workers = dir
            .search(
                &Dn::parse("o=R&D,o=Lucent").unwrap(),
                Scope::One,
                &Filter::parse("(sn=Worker)").unwrap(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(workers.len(), 8);
    }
}
