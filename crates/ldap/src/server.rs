//! LDAP server: serves the wire protocol over TCP against any
//! [`Directory`] implementation.
//!
//! Because the server fronts a `Directory` (not the DIT concretely), the
//! same code serves both a plain directory server and the LTAP *gateway*
//! deployment — LTAP's interceptor implements `Directory` too.
//!
//! This module is the server's handle and its protocol half: the
//! [`ServerBuilder`] / [`Server`] lifecycle, the always-on
//! [`ServerMetrics`], and `respond`, the one function that turns a
//! decoded request into its complete response bytes. The transport half —
//! sockets, framing, ordering, flushing — is the epoll loop in
//! [`crate::event`]: one `ldap-event` thread owns every connection and an
//! optional shared pool of `ldap-wire-<i>` threads runs `respond`, so
//! the thread count never depends on the connection count. Responses leave
//! strictly in request order per connection (RFC 2251).
//!
//! The wire server is built on epoll(7), so it runs on Linux only; off
//! Linux [`ServerBuilder::start`] returns `Unavailable`, and the rest of
//! the crate (codec, client, DIT, everything in-process) still builds.

use crate::directory::Directory;
use crate::dn::Dn;
use crate::error::{LdapError, Result, ResultCode};
use crate::proto::{
    encode_search_entry_into, entry_from_wire, notice_of_disconnection, parse_rdn, LdapMessage,
    LdapResult, ProtocolOp,
};
use obs::{Component, Counter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Result codes counted one by one; every other code lands in
/// `resultCodeOther`. Fixed, so the `server` component's shape is too.
const TALLIED_RESULT_CODES: [u32; 7] = [0, 32, 49, 52, 53, 68, 80];

/// Per-operation wire metrics: request counts by operation, BER decode
/// failures, entries streamed back, connection counts, and a count per
/// result code sent. Each field is a handle on the server's own `server`
/// component ([`ServerMetrics::component`]), which a deployment adopts
/// into its registry; one atomic add per event keeps them always on.
pub struct ServerMetrics {
    component: Arc<Component>,
    pub binds: Arc<Counter>,
    pub searches: Arc<Counter>,
    pub compares: Arc<Counter>,
    pub adds: Arc<Counter>,
    pub modifies: Arc<Counter>,
    pub modify_dns: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub unbinds: Arc<Counter>,
    /// Frames that failed BER decoding (the connection is then dropped
    /// after a Notice of Disconnection).
    pub decode_failures: Arc<Counter>,
    /// SearchResultEntry messages sent.
    pub entries_returned: Arc<Counter>,
    /// Connections currently being served: added on accept, subtracted on
    /// close.
    pub connections_open: Arc<Counter>,
    /// Connections accepted since the server started.
    pub connections_total: Arc<Counter>,
    /// Notices of Disconnection sent to misbehaving clients.
    pub disconnect_notices: Arc<Counter>,
    /// Connections dropped by the idle-timeout reaper
    /// ([`ServerBuilder::with_idle_timeout`]).
    pub disconnect_idle: Arc<Counter>,
    /// Times the accept path hit fd exhaustion (EMFILE/ENFILE) and backed
    /// off before retrying.
    pub accept_pauses: Arc<Counter>,
    /// `resultCode<c>` for each `c` in [`TALLIED_RESULT_CODES`], in order.
    result_codes: [Arc<Counter>; TALLIED_RESULT_CODES.len()],
    result_code_other: Arc<Counter>,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        let c = Component::new("server");
        ServerMetrics {
            binds: c.counter("binds"),
            searches: c.counter("searches"),
            compares: c.counter("compares"),
            adds: c.counter("adds"),
            modifies: c.counter("modifies"),
            modify_dns: c.counter("modifyDns"),
            deletes: c.counter("deletes"),
            unbinds: c.counter("unbinds"),
            decode_failures: c.counter("decodeFailures"),
            entries_returned: c.counter("entriesReturned"),
            connections_open: c.counter("connectionsOpen"),
            connections_total: c.counter("connectionsTotal"),
            disconnect_notices: c.counter("disconnectNotices"),
            disconnect_idle: c.counter("disconnectIdle"),
            accept_pauses: c.counter("acceptPauses"),
            result_codes: TALLIED_RESULT_CODES.map(|code| c.counter(&format!("resultCode{code}"))),
            result_code_other: c.counter("resultCodeOther"),
            component: c,
        }
    }
}

impl ServerMetrics {
    /// The `server` component these counters are registered in.
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }

    fn record_result(&self, code: ResultCode) {
        match TALLIED_RESULT_CODES.iter().position(|&c| c == code.code()) {
            Some(i) => self.result_codes[i].inc(),
            None => self.result_code_other.inc(),
        }
    }
}

/// Builder for a [`Server`], exposing the wire knobs.
#[derive(Clone, Copy)]
pub struct ServerBuilder {
    /// `None` = pick at start time from the host's parallelism.
    wire_workers: Option<usize>,
    idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    pub(crate) fn new() -> ServerBuilder {
        ServerBuilder {
            wire_workers: None,
            idle_timeout: None,
        }
    }

    /// Size of the worker pool all connections share: requests decoded by
    /// the loop thread run on `n` `ldap-wire-<i>` threads, so directory
    /// work and response encoding overlap across requests. `1` means no
    /// pool — every request runs on the loop thread itself. When not set,
    /// the size is `min(available_parallelism, 4)`, so a single-core host
    /// runs inline rather than hand off to a worker it would only contend
    /// with.
    pub fn with_wire_workers(mut self, n: usize) -> ServerBuilder {
        self.wire_workers = Some(n.max(1));
        self
    }

    /// Drop connections with no socket activity and no work in flight for
    /// `timeout` (and count them in the `disconnectIdle` counter), so
    /// 10k-connection deployments shed dead clients. Default: never.
    pub fn with_idle_timeout(mut self, timeout: std::time::Duration) -> ServerBuilder {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Start serving `dir` on `addr` (use port 0 for an ephemeral port).
    /// Every thread the server runs is spawned here, so a host that cannot
    /// provide one fails the start instead of the running server.
    #[cfg(target_os = "linux")]
    pub fn start(self, dir: Arc<dyn Directory>, addr: &str) -> Result<Server> {
        use crate::event::{self, Cpu, Waker};
        let unavailable =
            |e: std::io::Error| LdapError::new(ResultCode::Unavailable, e.to_string());
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        let wire_workers = self.wire_workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(4)
        });
        let waker = Arc::new(Waker::new().map_err(unavailable)?);
        let epoll = event::setup(&listener, &waker).map_err(unavailable)?;
        let cpu = Arc::new(Cpu::new(dir, metrics.clone(), waker.clone()));
        // A pool of one would add a hand-off and no overlap.
        let pool = if wire_workers > 1 { wire_workers } else { 0 };
        for i in 0..pool {
            let worker = cpu.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("ldap-wire-{i}"))
                .spawn(move || worker.work());
            match spawned {
                Ok(handle) => cpu.adopt(handle),
                Err(e) => {
                    cpu.stop();
                    return Err(unavailable(e));
                }
            }
        }
        let (cpu2, stop2, idle_timeout) = (cpu.clone(), stop.clone(), self.idle_timeout);
        let spawned = std::thread::Builder::new()
            .name("ldap-event".into())
            .spawn(move || event::serve_event_loop(epoll, listener, cpu2, idle_timeout, stop2));
        match spawned {
            Ok(thread) => Ok(Server {
                addr: local,
                stop,
                metrics,
                wire_workers,
                event: Some((thread, waker)),
            }),
            Err(e) => {
                cpu.stop();
                Err(unavailable(e))
            }
        }
    }

    /// Off Linux there is no wire server to start.
    #[cfg(not(target_os = "linux"))]
    pub(crate) fn start(self, _dir: Arc<dyn Directory>, _addr: &str) -> Result<Server> {
        Err(LdapError::new(
            ResultCode::Unavailable,
            "the wire server is built on epoll(7)",
        ))
    }
}

/// A running LDAP server. Shuts down when dropped.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    wire_workers: usize,
    /// The loop thread and the waker that interrupts its `epoll_wait`;
    /// taken by the first `shutdown`.
    #[cfg(target_os = "linux")]
    event: Option<(std::thread::JoinHandle<()>, Arc<crate::event::Waker>)>,
}

impl Server {
    /// Start serving `dir` on `addr` with default knobs.
    pub fn start(dir: Arc<dyn Directory>, addr: &str) -> Result<Server> {
        ServerBuilder::new().start(dir, addr)
    }

    /// A builder exposing the wire knobs.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Live per-operation wire metrics.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.metrics.clone()
    }

    /// The size of the worker pool this server's connections share
    /// (1 = no pool, requests run on the loop thread).
    pub fn wire_workers(&self) -> usize {
        self.wire_workers
    }

    /// Stop accepting, force-close live connections, and join the loop
    /// thread (which joins its workers). The `connections_open` gauge
    /// reads zero afterwards.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        if let Some((thread, waker)) = self.event.take() {
            waker.wake();
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The encoded RFC 2251 Notice of Disconnection, with its metrics
/// recorded: it tells the client why it is being dropped, so a malformed
/// request is distinguishable from a crash.
pub(crate) fn disconnect_notice_bytes(metrics: &ServerMetrics, detail: &str) -> Vec<u8> {
    metrics.disconnect_notices.fetch_add(1, Ordering::Relaxed);
    metrics.record_result(ResultCode::ProtocolError);
    notice_of_disconnection(ResultCode::ProtocolError, detail).encode()
}

fn result_of(r: Result<()>, metrics: &ServerMetrics) -> LdapResult {
    let lr = match r {
        Ok(()) => LdapResult::success(),
        Err(e) => LdapResult::error(&e),
    };
    metrics.record_result(lr.code);
    lr
}

/// Run the directory work for one request, record its metrics and return
/// the complete response, BER-encoded. A search's entries are encoded
/// straight off borrowed store entries by [`Directory::search_visit`] —
/// its visitor contract is why the visitor does nothing but append to the
/// buffer — and every operation ends in its one result message.
pub(crate) fn respond(
    id: i64,
    op: ProtocolOp,
    dir: &Arc<dyn Directory>,
    metrics: &ServerMetrics,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    let result = match op {
        ProtocolOp::BindRequest { dn, password, .. } => {
            metrics.binds.fetch_add(1, Ordering::Relaxed);
            let lr = bind_result(dir, &dn, &password);
            metrics.record_result(lr.code);
            ProtocolOp::BindResponse(lr)
        }
        ProtocolOp::SearchRequest {
            base,
            scope,
            size_limit,
            filter,
            attrs,
        } => {
            metrics.searches.fetch_add(1, Ordering::Relaxed);
            let limit = size_limit.max(0) as usize;
            let outcome = Dn::parse(&base).and_then(|b| {
                dir.search_visit(&b, scope, &filter, &attrs, limit, &mut |e| {
                    encode_search_entry_into(&mut buf, id, e);
                })
            });
            match outcome {
                Ok((count, truncated)) => {
                    metrics
                        .entries_returned
                        .fetch_add(count as u64, Ordering::Relaxed);
                    metrics.record_result(if truncated {
                        ResultCode::SizeLimitExceeded
                    } else {
                        ResultCode::Success
                    });
                    search_done(truncated)
                }
                Err(e) => {
                    metrics.record_result(e.code);
                    ProtocolOp::SearchResultDone(LdapResult::error(&e))
                }
            }
        }
        ProtocolOp::AddRequest { dn, attrs } => {
            metrics.adds.fetch_add(1, Ordering::Relaxed);
            let r = entry_from_wire(&dn, &attrs).and_then(|e| dir.add(e));
            ProtocolOp::AddResponse(result_of(r, metrics))
        }
        ProtocolOp::DelRequest { dn } => {
            metrics.deletes.fetch_add(1, Ordering::Relaxed);
            let r = Dn::parse(&dn).and_then(|d| dir.delete(&d));
            ProtocolOp::DelResponse(result_of(r, metrics))
        }
        ProtocolOp::ModifyRequest { dn, mods } => {
            metrics.modifies.fetch_add(1, Ordering::Relaxed);
            let r = Dn::parse(&dn).and_then(|d| dir.modify(&d, &mods));
            ProtocolOp::ModifyResponse(result_of(r, metrics))
        }
        ProtocolOp::ModifyDnRequest {
            dn,
            new_rdn,
            delete_old,
            new_superior,
        } => {
            metrics.modify_dns.fetch_add(1, Ordering::Relaxed);
            let r = (|| {
                let d = Dn::parse(&dn)?;
                let rdn = parse_rdn(&new_rdn)?;
                let sup = match &new_superior {
                    Some(s) => Some(Dn::parse(s)?),
                    None => None,
                };
                dir.modify_rdn(&d, &rdn, delete_old, sup.as_ref())
            })();
            ProtocolOp::ModifyDnResponse(result_of(r, metrics))
        }
        ProtocolOp::CompareRequest { dn, attr, value } => {
            metrics.compares.fetch_add(1, Ordering::Relaxed);
            let res = Dn::parse(&dn).and_then(|d| dir.compare(&d, &attr, &value));
            let lr = match res {
                Ok(true) => LdapResult {
                    code: ResultCode::CompareTrue,
                    matched_dn: String::new(),
                    message: String::new(),
                },
                Ok(false) => LdapResult {
                    code: ResultCode::CompareFalse,
                    matched_dn: String::new(),
                    message: String::new(),
                },
                Err(e) => LdapResult::error(&e),
            };
            metrics.record_result(lr.code);
            ProtocolOp::CompareResponse(lr)
        }
        // Requests a server never receives (responses, unbind handled by
        // the reader).
        _ => {
            let lr = LdapResult::error(&LdapError::protocol("unexpected protocol op"));
            metrics.record_result(lr.code);
            ProtocolOp::SearchResultDone(lr)
        }
    };
    LdapMessage { id, op: result }.encode_into(&mut buf);
    buf
}

fn search_done(truncated: bool) -> ProtocolOp {
    ProtocolOp::SearchResultDone(if truncated {
        LdapResult {
            code: ResultCode::SizeLimitExceeded,
            matched_dn: String::new(),
            message: "size limit exceeded".into(),
        }
    } else {
        LdapResult::success()
    })
}

fn bind_result(dir: &Arc<dyn Directory>, dn: &str, password: &str) -> LdapResult {
    // Anonymous bind always succeeds.
    if dn.is_empty() {
        return LdapResult::success();
    }
    let parsed = match Dn::parse(dn) {
        Ok(d) => d,
        Err(e) => return LdapResult::error(&e),
    };
    match dir.get(&parsed) {
        Ok(Some(entry)) => {
            if entry.has_value("userPassword", password) {
                LdapResult::success()
            } else {
                LdapResult::error(&LdapError::new(
                    ResultCode::InvalidCredentials,
                    "wrong password",
                ))
            }
        }
        Ok(None) => LdapResult::error(&LdapError::new(
            ResultCode::InvalidCredentials,
            "no such user",
        )),
        Err(e) => LdapResult::error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpDirectory;
    use crate::dit::{figure2_tree, Dit, Scope};
    use std::net::TcpStream;

    #[test]
    fn server_starts_and_stops() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let mut server = Server::start(dit, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Plain TCP connect works.
        let _c = TcpStream::connect(addr).unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_live_connections() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let mut server = Server::start(dit, "127.0.0.1:0").unwrap();
        let metrics = server.metrics();
        let addr = server.addr().to_string();
        let clients: Vec<TcpDirectory> = (0..4)
            .map(|_| TcpDirectory::connect(&addr).unwrap())
            .collect();
        for c in &clients {
            assert!(c
                .get(&Dn::parse("cn=Jill Lu,o=R&D,o=Lucent").unwrap())
                .unwrap()
                .is_some());
        }
        assert_eq!(metrics.connections_open.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.connections_total.load(Ordering::Relaxed), 4);
        // Shutdown force-closes the live connections and joins their
        // threads, so the gauge must read zero afterwards.
        server.shutdown();
        assert_eq!(metrics.connections_open.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn truncated_search_returns_partial_entries_and_code_4() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let server = Server::start(dit, "127.0.0.1:0").unwrap();
        let client = TcpDirectory::connect(&server.addr().to_string()).unwrap();
        let (entries, truncated) = client
            .search_capped(
                &Dn::parse("o=Lucent").unwrap(),
                Scope::Sub,
                &crate::filter::Filter::match_all(),
                &[],
                3,
            )
            .unwrap();
        assert!(truncated);
        assert_eq!(entries.len(), 3, "entries up to the limit are delivered");
        // The strict `search` still surfaces the error.
        let err = client
            .search(
                &Dn::parse("o=Lucent").unwrap(),
                Scope::Sub,
                &crate::filter::Filter::match_all(),
                &[],
                3,
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::SizeLimitExceeded);
    }

    #[test]
    fn serial_mode_still_serves() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let server = Server::builder()
            .with_wire_workers(1)
            .start(dit, "127.0.0.1:0")
            .unwrap();
        let client = TcpDirectory::connect(&server.addr().to_string()).unwrap();
        let hits = client
            .search(
                &Dn::parse("o=Lucent").unwrap(),
                Scope::Sub,
                &crate::filter::Filter::match_all(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(hits.len(), 9);
    }
}
