//! LDAP server: serves the wire protocol over TCP against any
//! [`Directory`] implementation.
//!
//! Because the server fronts a `Directory` (not the DIT concretely), the
//! same code serves both a plain directory server and the LTAP *gateway*
//! deployment — LTAP's interceptor implements `Directory` too.
//!
//! ## Wire engines
//!
//! Two engines serve the same protocol, switched by
//! [`ServerBuilder::with_event_loop`]:
//!
//! - **Event loop** (default on Linux, [`crate::event`]): one epoll
//!   readiness thread owns every nonblocking connection; decoded requests
//!   run on a shared CPU stage and responses flush back writev-batched.
//!   Scales to 10k+ connections without a thread per client.
//! - **Threaded** (the ablation arm, and the only engine off-Linux): one
//!   thread per connection, with an optional per-connection decode-ahead
//!   worker pool ([`ServerBuilder::with_wire_workers`]).
//!
//! Both engines read through a buffered incremental [`FrameReader`] (one
//! reusable scratch buffer, no per-frame allocation), answer strictly in
//! request order per connection (RFC 2251), and stream search results
//! through one reusable encode buffer flushed in bounded chunks.

use crate::directory::Directory;
use crate::dn::Dn;
use crate::error::{LdapError, Result, ResultCode};
use crate::proto::{
    encode_search_entry_into, entry_from_wire, notice_of_disconnection, parse_rdn, FrameReader,
    LdapMessage, LdapResult, ProtocolOp,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Flush the streaming search buffer whenever it grows past this (also the
/// per-iovec cap in the event engine's writev batches).
pub(crate) const FLUSH_CHUNK: usize = 32 * 1024;

/// Per-operation wire metrics: request counts by operation, BER decode
/// failures, entries streamed back, connection gauges, and a tally of every
/// result code sent. Plain atomics — cheap enough to be always on.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    pub binds: AtomicU64,
    pub searches: AtomicU64,
    pub compares: AtomicU64,
    pub adds: AtomicU64,
    pub modifies: AtomicU64,
    pub modify_dns: AtomicU64,
    pub deletes: AtomicU64,
    pub unbinds: AtomicU64,
    /// Frames that failed BER decoding (the connection is then dropped
    /// after a Notice of Disconnection).
    pub decode_failures: AtomicU64,
    /// SearchResultEntry messages sent.
    pub entries_returned: AtomicU64,
    /// Connections currently being served.
    pub connections_open: AtomicU64,
    /// Connections accepted since the server started.
    pub connections_total: AtomicU64,
    /// Notices of Disconnection sent to misbehaving clients.
    pub disconnect_notices: AtomicU64,
    /// Connections dropped by the idle-timeout reaper
    /// ([`ServerBuilder::with_idle_timeout`]).
    pub disconnect_idle: AtomicU64,
    /// Times the accept path hit fd exhaustion (EMFILE/ENFILE) and backed
    /// off before retrying — on either engine.
    pub accept_pauses: AtomicU64,
    /// result code → times sent (any operation).
    result_codes: Mutex<BTreeMap<u32, u64>>,
}

impl ServerMetrics {
    fn record_result(&self, code: ResultCode) {
        *self.result_codes.lock().entry(code.code()).or_insert(0) += 1;
    }

    /// How many results carried `code`.
    pub fn result_code_count(&self, code: u32) -> u64 {
        self.result_codes.lock().get(&code).copied().unwrap_or(0)
    }

    /// Results whose code is not in `tallied` (the long tail).
    pub fn result_code_other(&self, tallied: &[u32]) -> u64 {
        self.result_codes
            .lock()
            .iter()
            .filter(|(c, _)| !tallied.contains(c))
            .map(|(_, n)| *n)
            .sum()
    }

    /// All `(code, count)` pairs sent so far, sorted by code.
    pub fn result_code_counts(&self) -> Vec<(u32, u64)> {
        self.result_codes
            .lock()
            .iter()
            .map(|(c, n)| (*c, *n))
            .collect()
    }
}

/// Per-connection pipeline configuration (threaded engine).
#[derive(Clone, Copy)]
struct WireConfig {
    workers: usize,
    idle_timeout: Option<std::time::Duration>,
}

/// Builder for a [`Server`], exposing the wire performance knobs.
#[derive(Clone, Copy)]
pub struct ServerBuilder {
    /// `None` = pick at start time from the host's parallelism.
    wire_workers: Option<usize>,
    event_loop: bool,
    idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    pub fn new() -> ServerBuilder {
        ServerBuilder {
            wire_workers: None,
            event_loop: true,
            idle_timeout: None,
        }
    }

    /// Size of the per-connection decode-ahead worker pool. `1` disables
    /// pipelining (requests are served strictly one at a time, decoded
    /// inline). When not set, the pool defaults to
    /// `min(available_parallelism, 4)` — in particular, a single-core host
    /// gets inline decode rather than a decode-ahead worker it would only
    /// contend with.
    pub fn with_wire_workers(mut self, n: usize) -> ServerBuilder {
        self.wire_workers = Some(n.max(1));
        self
    }

    /// The worker count [`start`](ServerBuilder::start) will use: the
    /// explicit `with_wire_workers` value, else the adaptive default.
    pub fn resolved_wire_workers(&self) -> usize {
        self.wire_workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(4)
        })
    }

    /// Serve connections from the epoll readiness loop (default on Linux;
    /// see [`crate::event`]). `false` restores the thread-per-connection
    /// engine — kept as the E14 ablation arm. On non-Linux targets the
    /// threaded engine always runs regardless of this knob.
    pub fn with_event_loop(mut self, on: bool) -> ServerBuilder {
        self.event_loop = on;
        self
    }

    /// Drop connections with no socket activity for `timeout` (and count
    /// them in the `disconnectIdle` gauge), so 10k-connection deployments
    /// shed dead clients. Applies to both engines. Default: never.
    pub fn with_idle_timeout(mut self, timeout: std::time::Duration) -> ServerBuilder {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Whether [`start`](ServerBuilder::start) will run the event engine
    /// on this target.
    pub fn resolved_event_loop(&self) -> bool {
        self.event_loop && cfg!(target_os = "linux")
    }

    /// Start serving `dir` on `addr` (use port 0 for an ephemeral port).
    pub fn start(self, dir: Arc<dyn Directory>, addr: &str) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        #[cfg(target_os = "linux")]
        if self.resolved_event_loop() {
            return self.start_event(listener, local, dir, stop, metrics);
        }
        self.start_threaded(listener, local, dir, stop, metrics)
    }

    /// The epoll readiness engine: one loop thread owns every connection.
    #[cfg(target_os = "linux")]
    fn start_event(
        self,
        listener: TcpListener,
        local: std::net::SocketAddr,
        dir: Arc<dyn Directory>,
        stop: Arc<AtomicBool>,
        metrics: Arc<ServerMetrics>,
    ) -> Result<Server> {
        let wire_workers = self.resolved_wire_workers();
        let waker = Arc::new(
            crate::event::Waker::new()
                .map_err(|e| LdapError::new(ResultCode::Unavailable, e.to_string()))?,
        );
        let epoll = crate::event::setup(&listener, &waker)
            .map_err(|e| LdapError::new(ResultCode::Unavailable, e.to_string()))?;
        let cfg = crate::event::EventConfig {
            workers: wire_workers,
            idle_timeout: self.idle_timeout,
        };
        let m2 = metrics.clone();
        let stop2 = stop.clone();
        let waker2 = waker.clone();
        let loop_thread = std::thread::Builder::new()
            .name("ldap-event".into())
            .spawn(move || {
                crate::event::serve_event_loop(epoll, listener, dir, m2, cfg, stop2, waker2);
            })
            .map_err(|e| LdapError::new(ResultCode::Unavailable, e.to_string()))?;
        Ok(Server {
            addr: local,
            stop,
            engine: Some(Engine::Event {
                thread: loop_thread,
                waker,
            }),
            metrics,
            wire_workers,
            event_loop: true,
        })
    }

    /// The thread-per-connection engine (the ablation arm).
    fn start_threaded(
        self,
        listener: TcpListener,
        local: std::net::SocketAddr,
        dir: Arc<dyn Directory>,
        stop: Arc<AtomicBool>,
        metrics: Arc<ServerMetrics>,
    ) -> Result<Server> {
        let cfg = WireConfig {
            workers: self.resolved_wire_workers(),
            idle_timeout: self.idle_timeout,
        };
        let stop2 = stop.clone();
        let m2 = metrics.clone();
        let conns: Arc<ConnRegistry> = Arc::new(Mutex::new(HashMap::new()));
        let conns2 = conns.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ldap-accept".into())
            .spawn(move || {
                let mut next_conn: u64 = 0;
                let mut accept_backoff = Duration::from_millis(10);
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            accept_backoff = Duration::from_millis(10);
                            stream.set_nodelay(true).ok();
                            m2.connections_total.fetch_add(1, Ordering::Relaxed);
                            // One fd per connection: the registry, reader,
                            // and writers all share this handle, so the
                            // accept(2) above is the only point that can
                            // hit fd exhaustion — a connection, once
                            // accepted, cannot be lost to an EMFILE on a
                            // secondary try_clone.
                            let stream = Arc::new(stream);
                            let registry_half = stream.clone();
                            m2.connections_open.fetch_add(1, Ordering::Relaxed);
                            let dir = dir.clone();
                            let m = m2.clone();
                            let spawned = std::thread::Builder::new()
                                .name("ldap-conn".into())
                                .spawn(move || {
                                    serve_connection(stream, dir, &m, cfg);
                                    m.connections_open.fetch_sub(1, Ordering::Relaxed);
                                });
                            match spawned {
                                Ok(handle) => {
                                    let mut reg = conns2.lock();
                                    // Sweep finished connections so the
                                    // registry stays bounded by peak
                                    // concurrency.
                                    reg.retain(|_, slot| !slot.handle.is_finished());
                                    reg.insert(
                                        next_conn,
                                        ConnSlot {
                                            stream: registry_half,
                                            handle,
                                        },
                                    );
                                    next_conn += 1;
                                }
                                Err(_) => {
                                    m2.connections_open.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::ConnectionAborted
                                    | std::io::ErrorKind::Interrupted
                            ) =>
                        {
                            continue
                        }
                        // EMFILE/ENFILE and friends: accept(2) fails
                        // instantly while fds are exhausted, so a plain
                        // retry spins hot and a `break` abandons the
                        // listener for the life of the server. Back off
                        // (bounded) and retry; the stop flag is rechecked
                        // every iteration so shutdown still works even if
                        // fds never free up.
                        Err(_) => {
                            m2.accept_pauses.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(accept_backoff);
                            accept_backoff = (accept_backoff * 2).min(Duration::from_secs(1));
                        }
                    }
                }
            })
            .map_err(|e| LdapError::new(ResultCode::Unavailable, e.to_string()))?;
        Ok(Server {
            addr: local,
            stop,
            engine: Some(Engine::Threaded {
                accept_thread,
                conns,
            }),
            metrics,
            wire_workers: cfg.workers,
            event_loop: false,
        })
    }
}

type ConnRegistry = Mutex<HashMap<u64, ConnSlot>>;

struct ConnSlot {
    stream: Arc<TcpStream>,
    handle: JoinHandle<()>,
}

/// The running wire engine behind a [`Server`].
enum Engine {
    /// Thread-per-connection, joined through the connection registry.
    Threaded {
        accept_thread: JoinHandle<()>,
        conns: Arc<ConnRegistry>,
    },
    /// One epoll loop thread owning every connection (Linux).
    #[cfg(target_os = "linux")]
    Event {
        thread: JoinHandle<()>,
        waker: Arc<crate::event::Waker>,
    },
}

/// A running LDAP server. Shuts down when dropped.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Option<Engine>,
    metrics: Arc<ServerMetrics>,
    wire_workers: usize,
    event_loop: bool,
}

impl Server {
    /// Start serving `dir` on `addr` with default knobs.
    pub fn start(dir: Arc<dyn Directory>, addr: &str) -> Result<Server> {
        ServerBuilder::new().start(dir, addr)
    }

    /// A builder exposing the wire performance knobs.
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

    /// The decode-ahead pool size this server runs with (1 = inline
    /// decode, no pipelining). Per connection in the threaded engine,
    /// shared across connections in the event engine.
    pub fn wire_workers(&self) -> usize {
        self.wire_workers
    }

    /// Whether this server runs the epoll readiness engine.
    pub fn event_loop(&self) -> bool {
        self.event_loop
    }

    /// Stop accepting, force-close live connections, and join the wire
    /// engine (every connection thread, or the loop and its workers). The
    /// `connections_open` gauge reads zero afterwards.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            match self.engine.take() {
                Some(Engine::Threaded {
                    accept_thread,
                    conns,
                }) => {
                    // Unblock the accept loop.
                    let _ = TcpStream::connect(self.addr);
                    let _ = accept_thread.join();
                    // Drain the registry before joining so the lock is not
                    // held while connection threads wind down.
                    let drained: Vec<ConnSlot> = {
                        let mut reg = conns.lock();
                        reg.drain().map(|(_, slot)| slot).collect()
                    };
                    for slot in &drained {
                        let _ = slot.stream.shutdown(std::net::Shutdown::Both);
                    }
                    for slot in drained {
                        let _ = slot.handle.join();
                    }
                }
                #[cfg(target_os = "linux")]
                Some(Engine::Event { thread, waker }) => {
                    waker.wake();
                    let _ = thread.join();
                }
                None => {}
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the reader saw on the wire.
enum Inbound {
    Msg(LdapMessage),
    /// Undecodable bytes: framing violation or BER decode failure.
    Malformed(String),
    /// The idle timeout elapsed with no readable bytes.
    Idle,
    Closed,
}

fn read_inbound<R: std::io::Read>(frames: &mut FrameReader<R>, metrics: &ServerMetrics) -> Inbound {
    match frames.next_frame() {
        Ok(Some(frame)) => match LdapMessage::decode(frame) {
            Ok(m) => Inbound::Msg(m),
            Err(e) => {
                metrics.decode_failures.fetch_add(1, Ordering::Relaxed);
                Inbound::Malformed(e.message)
            }
        },
        Ok(None) => Inbound::Closed,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            metrics.decode_failures.fetch_add(1, Ordering::Relaxed);
            Inbound::Malformed(e.to_string())
        }
        // A blocking socket with a read timeout reports the expiry as
        // WouldBlock (or TimedOut, platform-dependent).
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Inbound::Idle
        }
        Err(_) => Inbound::Closed,
    }
}

/// The encoded RFC 2251 Notice of Disconnection, with its metrics
/// recorded — shared by both wire engines.
pub(crate) fn disconnect_notice_bytes(metrics: &ServerMetrics, detail: &str) -> Vec<u8> {
    metrics.disconnect_notices.fetch_add(1, Ordering::Relaxed);
    metrics.record_result(ResultCode::ProtocolError);
    notice_of_disconnection(ResultCode::ProtocolError, detail).encode()
}

/// Tell the client why it is being dropped (RFC 2251 Notice of
/// Disconnection) so malformed-request is distinguishable from a crash.
fn send_disconnect_notice(mut w: impl Write, metrics: &ServerMetrics, detail: &str) {
    let msg = disconnect_notice_bytes(metrics, detail);
    let _ = w.write_all(&msg);
    let _ = w.flush();
}

fn serve_connection(
    stream: Arc<TcpStream>,
    dir: Arc<dyn Directory>,
    metrics: &ServerMetrics,
    cfg: WireConfig,
) {
    // The threaded engine enforces the idle timeout through the socket's
    // read timeout: an expiry surfaces as `Inbound::Idle` in the reader.
    // (SO_RCVTIMEO lives on the socket, so any shared handle sees it.)
    if let Some(t) = cfg.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
    }
    let mut frames = FrameReader::new(&*stream);
    if cfg.workers <= 1 {
        serve_serial(&mut frames, &stream, &dir, metrics);
    } else {
        serve_pipelined(&mut frames, &stream, &dir, metrics, cfg);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn serve_serial(
    frames: &mut FrameReader<&TcpStream>,
    stream: &TcpStream,
    dir: &Arc<dyn Directory>,
    metrics: &ServerMetrics,
) {
    let mut buf = Vec::with_capacity(4096);
    loop {
        match read_inbound(frames, metrics) {
            Inbound::Msg(msg) => match msg.op {
                ProtocolOp::UnbindRequest => {
                    metrics.unbinds.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                op => {
                    let prepared = prepare_op(msg.id, op, dir, metrics, &mut buf);
                    let mut w = stream;
                    if write_response(&mut w, &mut buf, msg.id, prepared).is_err() {
                        return;
                    }
                }
            },
            Inbound::Malformed(detail) => {
                send_disconnect_notice(stream, metrics, &detail);
                return;
            }
            Inbound::Idle => {
                metrics.disconnect_idle.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Inbound::Closed => return,
        }
    }
}

/// One unit of decode-ahead work.
enum Job {
    Request {
        seq: u64,
        id: i64,
        op: ProtocolOp,
    },
    /// Malformed input: write the Notice of Disconnection in turn order
    /// (after every earlier response), then stop all further writes.
    Disconnect {
        seq: u64,
        detail: String,
    },
}

/// Per-connection pipeline shared between the reader and its workers: a
/// bounded FIFO job queue (backpressure on the reader) plus a turn counter
/// serializing response writes into request order.
struct Pipeline {
    queue: Mutex<JobQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    turn: Mutex<u64>,
    turn_cv: Condvar,
    dead: AtomicBool,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Pipeline {
    fn new(cap: usize) -> Pipeline {
        Pipeline {
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            turn: Mutex::new(0),
            turn_cv: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Reader side: blocks while the queue is full (per-connection
    /// backpressure). `false` once the pipeline died or closed.
    fn push(&self, job: Job) -> bool {
        let mut q = self.queue.lock();
        while q.jobs.len() >= self.cap && !q.closed && !self.dead.load(Ordering::Relaxed) {
            self.not_full.wait(&mut q);
        }
        if q.closed || self.dead.load(Ordering::Relaxed) {
            return false;
        }
        q.jobs.push_back(job);
        self.not_empty.notify_one();
        true
    }

    /// Worker side: `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock();
        loop {
            if let Some(j) = q.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(j);
            }
            if q.closed {
                return None;
            }
            self.not_empty.wait(&mut q);
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock();
        q.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        // Wake a reader blocked on backpressure.
        self.not_full.notify_all();
    }

    /// Wait for `seq`'s write turn. Jobs are popped FIFO, so the worker
    /// holding the smallest outstanding seq has already left the queue and
    /// will reach its turn — later seqs waiting here cannot deadlock.
    fn begin_turn(&self, seq: u64) {
        let mut t = self.turn.lock();
        while *t != seq {
            self.turn_cv.wait(&mut t);
        }
    }

    fn end_turn(&self) {
        let mut t = self.turn.lock();
        *t += 1;
        self.turn_cv.notify_all();
    }
}

fn serve_pipelined(
    frames: &mut FrameReader<&TcpStream>,
    stream: &TcpStream,
    dir: &Arc<dyn Directory>,
    metrics: &ServerMetrics,
    cfg: WireConfig,
) {
    let pipe = Pipeline::new(cfg.workers * 2);
    std::thread::scope(|s| {
        for _ in 0..cfg.workers {
            s.spawn(|| worker_loop(&pipe, stream, dir, metrics));
        }
        let mut seq: u64 = 0;
        loop {
            match read_inbound(frames, metrics) {
                Inbound::Msg(msg) => match msg.op {
                    ProtocolOp::UnbindRequest => {
                        metrics.unbinds.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    op => {
                        if !pipe.push(Job::Request {
                            seq,
                            id: msg.id,
                            op,
                        }) {
                            break;
                        }
                        seq += 1;
                    }
                },
                Inbound::Malformed(detail) => {
                    pipe.push(Job::Disconnect { seq, detail });
                    break;
                }
                Inbound::Idle => {
                    metrics.disconnect_idle.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Inbound::Closed => break,
            }
        }
        pipe.close();
        // Scope exit joins the workers: they drain the queue, writing
        // pending responses in request order, then stop.
    });
}

fn worker_loop(
    pipe: &Pipeline,
    stream: &TcpStream,
    dir: &Arc<dyn Directory>,
    metrics: &ServerMetrics,
) {
    let mut buf = Vec::with_capacity(4096);
    while let Some(job) = pipe.pop() {
        match job {
            Job::Request { seq, id, op } => {
                // Directory work runs concurrently across workers; only the
                // write below is serialized. Once the connection is dead,
                // just keep the turn counter moving.
                let prepared = if pipe.dead.load(Ordering::Relaxed) {
                    None
                } else {
                    // Searches even encode here, before the turn: only raw
                    // byte writes remain serialized.
                    Some(prepare_op(id, op, dir, metrics, &mut buf))
                };
                pipe.begin_turn(seq);
                if let Some(p) = prepared {
                    if !pipe.dead.load(Ordering::Relaxed) {
                        let mut w = stream;
                        if write_response(&mut w, &mut buf, id, p).is_err() {
                            pipe.kill();
                        }
                    }
                }
                pipe.end_turn();
            }
            Job::Disconnect { seq, detail } => {
                pipe.begin_turn(seq);
                if !pipe.dead.load(Ordering::Relaxed) {
                    send_disconnect_notice(stream, metrics, &detail);
                    pipe.kill();
                }
                pipe.end_turn();
            }
        }
    }
}

/// A computed response, ready for its write turn.
pub(crate) enum Prepared {
    /// A search: the whole response (entries + done) is already BER in
    /// the connection's reusable scratch buffer — encoded straight off
    /// borrowed store entries by [`Directory::search_visit`], the only
    /// search either wire engine calls; its visitor contract is why the
    /// visitor does nothing but append to that buffer.
    Encoded,
    /// Any other operation: its single response op.
    Op(ProtocolOp),
}

fn result_of(r: Result<()>, metrics: &ServerMetrics) -> LdapResult {
    let lr = match r {
        Ok(()) => LdapResult::success(),
        Err(e) => LdapResult::error(&e),
    };
    metrics.record_result(lr.code);
    lr
}

/// Run the directory work for one request and record its metrics.
/// Searches encode into `buf` right here (so the directory work AND the
/// encoding overlap across pipeline workers); everything else is encoded
/// later, under the connection's write turn.
pub(crate) fn prepare_op(
    id: i64,
    op: ProtocolOp,
    dir: &Arc<dyn Directory>,
    metrics: &ServerMetrics,
    buf: &mut Vec<u8>,
) -> Prepared {
    match op {
        ProtocolOp::BindRequest { dn, password, .. } => {
            metrics.binds.fetch_add(1, Ordering::Relaxed);
            let lr = bind_result(dir, &dn, &password);
            metrics.record_result(lr.code);
            Prepared::Op(ProtocolOp::BindResponse(lr))
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
            buf.clear();
            let outcome = Dn::parse(&base).and_then(|b| {
                dir.search_visit(&b, scope, &filter, &attrs, limit, &mut |e| {
                    encode_search_entry_into(buf, id, e);
                })
            });
            let done = match outcome {
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
            };
            LdapMessage { id, op: done }.encode_into(buf);
            Prepared::Encoded
        }
        ProtocolOp::AddRequest { dn, attrs } => {
            metrics.adds.fetch_add(1, Ordering::Relaxed);
            let r = entry_from_wire(&dn, &attrs).and_then(|e| dir.add(e));
            Prepared::Op(ProtocolOp::AddResponse(result_of(r, metrics)))
        }
        ProtocolOp::DelRequest { dn } => {
            metrics.deletes.fetch_add(1, Ordering::Relaxed);
            let r = Dn::parse(&dn).and_then(|d| dir.delete(&d));
            Prepared::Op(ProtocolOp::DelResponse(result_of(r, metrics)))
        }
        ProtocolOp::ModifyRequest { dn, mods } => {
            metrics.modifies.fetch_add(1, Ordering::Relaxed);
            let r = Dn::parse(&dn).and_then(|d| dir.modify(&d, &mods));
            Prepared::Op(ProtocolOp::ModifyResponse(result_of(r, metrics)))
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
            Prepared::Op(ProtocolOp::ModifyDnResponse(result_of(r, metrics)))
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
            Prepared::Op(ProtocolOp::CompareResponse(lr))
        }
        // Requests a server never receives (responses, unbind handled by
        // the reader).
        _ => {
            let lr = LdapResult::error(&LdapError::protocol("unexpected protocol op"));
            metrics.record_result(lr.code);
            Prepared::Op(ProtocolOp::SearchResultDone(lr))
        }
    }
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

/// Finish encoding a prepared response into `buf`. Searches are already
/// BER in `buf` (left untouched); everything else is encoded here.
/// Both wire engines share this so their byte streams are bit-identical.
pub(crate) fn render_response(buf: &mut Vec<u8>, id: i64, prepared: Prepared) {
    match prepared {
        Prepared::Encoded => {
            // `buf` was filled by prepare_op; don't clear it.
        }
        Prepared::Op(op) => {
            buf.clear();
            LdapMessage { id, op }.encode_into(buf);
        }
    }
}

/// Send one prepared response, reusing `buf` across calls. Responses go
/// out in [`FLUSH_CHUNK`]-sized writes so a huge result set never forces
/// one giant syscall.
fn write_response<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    id: i64,
    prepared: Prepared,
) -> std::io::Result<()> {
    render_response(buf, id, prepared);
    for chunk in buf.chunks(FLUSH_CHUNK) {
        w.write_all(chunk)?;
    }
    w.flush()
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
