//! The wire engine (Linux): an epoll(7) readiness loop serving thousands
//! of connections from one thread, with a shared CPU stage and
//! writev-batched response flushing.
//!
//! Connection *count* costs memory, not threads: a 10k-idle-connection
//! fleet is one `Conn` struct per client (a nonblocking socket, an
//! incremental [`FrameReader`] with one reusable scratch buffer, and two
//! small queues), served by `ldap-event` plus at most a handful of
//! `ldap-wire-<i>` workers.
//!
//! ## Architecture
//!
//! ```text
//!              epoll_wait ──► readiness events
//!                 │
//!   accept ◄──────┼──────► per-connection read state machine
//!  (listener)     │        (nonblocking FrameReader → LdapMessage)
//!                 │                │ decoded requests (seq-stamped)
//!                 │                ▼
//!                 │        CPU stage: inline (no pool) or a shared
//!                 │        worker pool running `respond` — directory
//!                 │        work and response encoding off the loop thread
//!                 │                │ completions (conn, seq, bytes)
//!                 │                ▼
//!              eventfd ◄── workers wake the loop; the loop reorders
//!                 │        completions into request order per connection
//!                 ▼
//!          writev flush: queued response frames coalesce into one
//!          `write_vectored` per readiness cycle (slices capped at the
//!          32 KiB chunk size); partial sends keep EPOLLOUT armed
//! ```
//!
//! What a client can rely on: RFC 2251 request-order responses per
//! connection, Notice of Disconnection on malformed frames (written
//! *after* every earlier response), the `connections_open` /
//! `connections_total` gauges, and shutdown that joins the loop and its
//! workers with the gauge drained to zero.
//!
//! ## Syscall surface
//!
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` and `eventfd` are declared
//! here as raw `extern "C"` bindings (the workspace vendors every
//! dependency — no mio/tokio/libc crates); sockets go nonblocking through
//! std, and the writev path is std's `write_vectored`, which issues a
//! single writev(2) per call on Unix.
//!
//! ## Fairness & backpressure
//!
//! The loop is level-triggered. Each readable connection is drained until
//! `WouldBlock` *or* until its in-flight/outbound caps are hit — a
//! connection that pipelines faster than it reads responses gets its read
//! interest parked (`EPOLLIN` dropped) until the flush catches up, so one
//! greedy client cannot queue unbounded memory or starve the loop. Frames
//! already buffered in its `FrameReader` are resumed from the completion
//! path, not from epoll (the kernel no longer knows about those bytes).

use crate::directory::Directory;
use crate::proto::{FrameReader, LdapMessage, ProtocolOp};
use crate::server::{disconnect_notice_bytes, respond, ServerMetrics};
use crate::unpoison;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw syscall bindings. The symbols resolve against the C library std
/// already links; no external crate is involved.
mod sys {
    use std::os::fd::RawFd;

    pub(crate) const EPOLL_CLOEXEC: i32 = 0x80000;
    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EFD_CLOEXEC: i32 = 0x80000;
    pub(crate) const EFD_NONBLOCK: i32 = 0x800;
    pub(crate) const RLIMIT_NOFILE: i32 = 7;

    /// Kernel epoll_event. Packed on x86_64 (the kernel ABI), naturally
    /// aligned elsewhere.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub(crate) struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub(crate) fn epoll_create1(flags: i32) -> i32;
        pub(crate) fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub(crate) fn epoll_wait(
            epfd: RawFd,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub(crate) fn eventfd(initval: u32, flags: i32) -> i32;
        pub(crate) fn listen(fd: RawFd, backlog: i32) -> i32;
        pub(crate) fn read(fd: RawFd, buf: *mut core::ffi::c_void, count: usize) -> isize;
        pub(crate) fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub(crate) fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
}

/// Thin safe wrapper over an epoll instance.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    pub(crate) fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness; retries EINTR. `timeout_ms < 0` blocks forever.
    pub(crate) fn wait(
        &self,
        events: &mut [sys::EpollEvent],
        timeout_ms: i32,
    ) -> std::io::Result<usize> {
        loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Cross-thread wakeup for the loop: an eventfd registered in the epoll
/// set. Workers (and `Server::shutdown`) write it; the loop drains it.
pub(crate) struct Waker {
    fd: OwnedFd,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Waker {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        let f = self.file();
        let _ = (&*f).write_all(&one.to_ne_bytes());
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        let f = self.file();
        while (&*f).read(&mut buf).is_ok() {}
    }

    /// Borrow the fd as a `File` without taking ownership (`ManuallyDrop`
    /// keeps the fd from being double-closed).
    fn file(&self) -> std::mem::ManuallyDrop<std::fs::File> {
        std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(self.fd.as_raw_fd()) })
    }
}

/// Raise `RLIMIT_NOFILE` toward `want` (soft and, when permitted, hard).
/// Returns the soft limit actually in effect — 10k-connection runs call
/// this first so fd exhaustion doesn't masquerade as a server bug.
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut lim = sys::Rlimit { cur: 0, max: 0 };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        // Try for `want` outright (root may raise the hard limit too).
        if lim.max < want {
            let bigger = sys::Rlimit {
                cur: want,
                max: want,
            };
            if sys::setrlimit(sys::RLIMIT_NOFILE, &bigger) == 0 {
                return want;
            }
        }
        let capped = sys::Rlimit {
            cur: want.min(lim.max),
            max: lim.max,
        };
        if sys::setrlimit(sys::RLIMIT_NOFILE, &capped) == 0 {
            capped.cur
        } else {
            lim.cur
        }
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;
/// Readiness events drained per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Response frames a connection may have queued or in flight before its
/// read interest is parked (the decode-ahead depth).
const MAX_INFLIGHT: usize = 32;
/// Outbound bytes queued per connection before reads park.
const MAX_OUTBOUND: usize = 1 << 20;
/// Max iovecs per writev call.
const MAX_IOV: usize = 64;
/// Per-iovec cap in the writev batches, so a huge result set never forms
/// one giant slice.
const FLUSH_CHUNK: usize = 32 * 1024;
/// First accept-pause backoff after fd exhaustion (doubles per
/// consecutive pause, capped at [`ACCEPT_BACKOFF_MAX`]).
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Ceiling for the accept-pause backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// One decoded request headed for the CPU stage.
struct Job {
    conn: u64,
    seq: u64,
    id: i64,
    op: ProtocolOp,
}

/// One computed response headed back to the loop.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// The CPU stage: decoded requests in, complete response bytes out —
/// shared between the loop and its worker pool.
pub(crate) struct Cpu {
    jobs: Mutex<JobQueue>,
    available: Condvar,
    done: Mutex<Vec<Completion>>,
    /// The pool, spawned (and handed over) by `ServerBuilder::start`.
    /// Empty means requests run inline on the loop thread.
    workers: Mutex<Vec<JoinHandle<()>>>,
    waker: Arc<Waker>,
    dir: Arc<dyn Directory>,
    metrics: Arc<ServerMetrics>,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Cpu {
    pub(crate) fn new(
        dir: Arc<dyn Directory>,
        metrics: Arc<ServerMetrics>,
        waker: Arc<Waker>,
    ) -> Cpu {
        Cpu {
            jobs: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            done: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            waker,
            dir,
            metrics,
        }
    }

    /// Take ownership of a pool thread running [`Cpu::work`].
    pub(crate) fn adopt(&self, worker: JoinHandle<()>) {
        unpoison(self.workers.lock()).push(worker);
    }

    /// A pool thread's body: serve jobs until the stage stops.
    pub(crate) fn work(&self) {
        while let Some(job) = self.pop() {
            let bytes = respond(job.id, job.op, &self.dir, &self.metrics);
            unpoison(self.done.lock()).push(Completion {
                conn: job.conn,
                seq: job.seq,
                bytes,
            });
            self.waker.wake();
        }
    }

    /// Close the job queue and join the pool. Called once the loop has
    /// exited, or by `ServerBuilder::start` when it cannot finish.
    pub(crate) fn stop(&self) {
        unpoison(self.jobs.lock()).closed = true;
        self.available.notify_all();
        let workers = std::mem::take(&mut *unpoison(self.workers.lock()));
        for w in workers {
            let _ = w.join();
        }
    }

    fn push(&self, job: Job) {
        unpoison(self.jobs.lock()).jobs.push_back(job);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let idle = |q: &mut JobQueue| q.jobs.is_empty() && !q.closed;
        let mut q = unpoison(self.available.wait_while(unpoison(self.jobs.lock()), idle));
        q.jobs.pop_front()
    }
}

/// Nonblocking reads straight off a connection's raw fd. The fd is owned
/// by the `Conn`'s `stream` in the same struct, so it outlives the reader;
/// going through the raw fd instead of `try_clone` keeps each connection
/// at ONE file descriptor — at 10k connections a cloned read half would
/// double the fd bill and blow typical container RLIMIT_NOFILE caps.
struct FdReader(RawFd);

impl std::io::Read for FdReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = unsafe { sys::read(self.0, buf.as_mut_ptr().cast(), buf.len()) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    frames: FrameReader<FdReader>,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next sequence number to append to `outbound` (request order).
    next_write: u64,
    /// Completed responses waiting for their turn.
    ready: BTreeMap<u64, Vec<u8>>,
    /// In-order encoded responses awaiting socket writability.
    outbound: VecDeque<Vec<u8>>,
    /// Bytes of `outbound.front()` already written.
    out_head: usize,
    /// Total bytes queued in `outbound` (minus `out_head`).
    out_bytes: usize,
    /// Events currently registered with epoll.
    interest: u32,
    /// No further reads; close once everything in flight has flushed.
    closing: bool,
    /// Fatal socket error: close now, drop anything pending.
    dead: bool,
    /// Read interest parked by the inflight/outbound caps.
    paused: bool,
    last_active: Instant,
}

impl Conn {
    fn pending(&self) -> usize {
        (self.next_seq - self.next_write) as usize
    }

    fn over_caps(&self) -> bool {
        self.pending() >= MAX_INFLIGHT || self.out_bytes >= MAX_OUTBOUND
    }

    fn finished(&self) -> bool {
        self.dead || (self.closing && self.pending() == 0 && self.outbound.is_empty())
    }
}

/// What one read pass over a connection concluded.
enum ReadPass {
    /// Drained to `WouldBlock` (or parked by caps); keep serving.
    Continue,
    /// Fatal socket error — close immediately, drop pending output.
    Dead,
}

/// Create the epoll set and register the listener and waker, surfacing
/// setup errors to `ServerBuilder::start` before any thread spawns.
pub(crate) fn setup(listener: &TcpListener, waker: &Waker) -> std::io::Result<Epoll> {
    let epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    // Widen the accept backlog past std's default 128 (Linux lets a second
    // listen() update it in place; the kernel clamps to somaxconn). At 10k+
    // connection rates an overflowing queue silently drops handshakes,
    // leaving clients that believe they connected but are never accepted.
    if unsafe { sys::listen(listener.as_raw_fd(), 4096) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOK_LISTENER)?;
    epoll.add(waker.fd.as_raw_fd(), sys::EPOLLIN, TOK_WAKER)?;
    Ok(epoll)
}

/// The `ldap-event` thread's body: serve until `stop` is set and the waker
/// fires, then stop the CPU stage and close every connection.
pub(crate) fn serve_event_loop(
    epoll: Epoll,
    listener: TcpListener,
    cpu: Arc<Cpu>,
    idle_timeout: Option<Duration>,
    stop: Arc<AtomicBool>,
) {
    let inline = unpoison(cpu.workers.lock()).is_empty();
    let mut lp = Loop {
        epoll,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        inline,
        cpu,
        idle_timeout,
        last_sweep: Instant::now(),
        accept_paused_until: None,
        accept_backoff: ACCEPT_BACKOFF_MIN,
    };

    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
    let idle_tick_ms = lp
        .idle_timeout
        .map(|t| (t.as_millis() as i64 / 4).clamp(10, 1000) as i32)
        .unwrap_or(-1);
    while !stop.load(Ordering::SeqCst) {
        let n = match lp.epoll.wait(&mut events, lp.wait_timeout_ms(idle_tick_ms)) {
            Ok(n) => n,
            Err(_) => break,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events[..n] {
            let token = ev.data;
            match token {
                TOK_LISTENER => lp.accept_ready(),
                TOK_WAKER => lp.cpu.waker.drain(),
                t => lp.handle_conn_event(t, ev.events),
            }
        }
        lp.pump_completions();
        lp.maybe_resume_accept();
        lp.sweep_idle();
    }

    // Shutdown: stop the CPU stage (joining its workers), force-close
    // every connection, drain the open-connections gauge to zero.
    lp.cpu.stop();
    let conns = std::mem::take(&mut lp.conns);
    for (_, conn) in conns {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        lp.cpu
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
    }
}

struct Loop {
    epoll: Epoll,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    cpu: Arc<Cpu>,
    inline: bool,
    idle_timeout: Option<Duration>,
    last_sweep: Instant,
    /// Accepting is paused (listener deregistered from epoll) until this
    /// deadline — set when `accept(2)` fails with fd exhaustion. With a
    /// level-triggered listener, leaving the fd registered while the
    /// backlog is non-empty would wake `epoll_wait` instantly forever: a
    /// hot spin that starves every live connection. Parking the fd and
    /// re-arming on a timer bounds the retry rate instead.
    accept_paused_until: Option<Instant>,
    /// Next pause duration; doubles per consecutive failed resume, resets
    /// on any successful accept.
    accept_backoff: Duration,
}

impl Loop {
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    return;
                }
                // A handshake that died in the backlog; try the next one.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE and friends: the process is out of fds, and
                // the condition clears only when something else closes one.
                // Park the listener and retry on a bounded backoff.
                Err(_) => {
                    self.pause_accept();
                    return;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            self.cpu
                .metrics
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
            self.cpu
                .metrics
                .connections_open
                .fetch_add(1, Ordering::Relaxed);
            self.conns.insert(
                token,
                Conn {
                    frames: FrameReader::new(FdReader(stream.as_raw_fd())),
                    stream,
                    next_seq: 0,
                    next_write: 0,
                    ready: BTreeMap::new(),
                    outbound: VecDeque::new(),
                    out_head: 0,
                    out_bytes: 0,
                    interest,
                    closing: false,
                    dead: false,
                    paused: false,
                    last_active: Instant::now(),
                },
            );
        }
    }

    /// Deregister the listener and schedule a re-arm. Pending handshakes
    /// sit in the (4096-deep) accept backlog meanwhile; the kernel keeps
    /// the listener readable, so re-adding the fd is all a resume takes.
    fn pause_accept(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
        self.cpu
            .metrics
            .accept_pauses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Re-register the listener once the pause deadline passes and try to
    /// accept immediately. If fds are still exhausted, `accept_ready`
    /// pauses again with the next (doubled) backoff.
    fn maybe_resume_accept(&mut self) {
        let Some(deadline) = self.accept_paused_until else {
            return;
        };
        if Instant::now() < deadline {
            return;
        }
        self.accept_paused_until = None;
        if self
            .epoll
            .add(self.listener.as_raw_fd(), sys::EPOLLIN, TOK_LISTENER)
            .is_err()
        {
            // Adding the listener itself needs a free slot in some kernels'
            // accounting; treat it as still-exhausted and back off again.
            self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            return;
        }
        self.accept_ready();
    }

    /// The `epoll_wait` timeout this iteration needs: the idle-sweep tick
    /// and/or the accept re-arm deadline, whichever is sooner (−1 blocks
    /// forever when neither applies).
    fn wait_timeout_ms(&self, idle_tick_ms: i32) -> i32 {
        let mut timeout = idle_tick_ms;
        if let Some(deadline) = self.accept_paused_until {
            let rearm = deadline
                .saturating_duration_since(Instant::now())
                .as_millis() as i32
                + 1;
            timeout = if timeout < 0 {
                rearm
            } else {
                timeout.min(rearm)
            };
        }
        timeout
    }

    fn handle_conn_event(&mut self, token: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.last_active = Instant::now();
        let readable =
            events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0;
        self.tend(token, readable);
    }

    /// Run one full service pass over a connection: read what's readable,
    /// move completed responses into the outbound queue, flush, adjust
    /// epoll interest, and close if finished.
    fn tend(&mut self, token: u64, read_now: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if read_now && !conn.closing && !conn.dead {
            if let ReadPass::Dead = drain_reads(conn, token, &self.cpu, self.inline) {
                conn.dead = true;
            }
        }
        self.settle(token);
    }

    /// Post-read/post-completion bookkeeping for one connection.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            // Promote ready responses into the outbound queue in request
            // order.
            while let Some(bytes) = conn.ready.remove(&conn.next_write) {
                conn.out_bytes += bytes.len();
                conn.outbound.push_back(bytes);
                conn.next_write += 1;
            }
            if !conn.dead && flush_out(conn).is_err() {
                conn.dead = true;
            }
            // Un-park reads once back under the caps; frames may already
            // be buffered in the FrameReader, so read immediately — epoll
            // will never signal for bytes the kernel no longer holds.
            if conn.paused && !conn.over_caps() && !conn.closing && !conn.dead {
                conn.paused = false;
                if let ReadPass::Dead = drain_reads(conn, token, &self.cpu, self.inline) {
                    conn.dead = true;
                }
                // The drain may have re-parked or produced inline output;
                // go around again.
                continue;
            }
            break;
        }
        conn.paused = conn.over_caps() && !conn.closing && !conn.dead;
        if conn.finished() {
            self.close_conn(token);
            return;
        }
        // Keep epoll interest in sync with what the state machine needs.
        let mut want = 0u32;
        if !conn.closing && !conn.paused {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if !conn.outbound.is_empty() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, want, token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.cpu
                .metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Route completed responses from the CPU stage into their
    /// connections, then service every touched connection. Loops until no
    /// new completions appear (inline resumes can produce more).
    fn pump_completions(&mut self) {
        loop {
            let batch: Vec<Completion> = std::mem::take(&mut *unpoison(self.cpu.done.lock()));
            if batch.is_empty() {
                return;
            }
            let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
            for c in batch {
                if let Some(conn) = self.conns.get_mut(&c.conn) {
                    conn.ready.insert(c.seq, c.bytes);
                    if touched.last() != Some(&c.conn) {
                        touched.push(c.conn);
                    }
                }
                // else: the connection died before its response computed;
                // there is nobody to write it to.
            }
            touched.sort_unstable();
            touched.dedup();
            for t in touched {
                self.settle(t);
            }
        }
    }

    /// Shed connections that have been idle past the configured timeout.
    ///
    /// "Idle" means *nothing is happening on either side*: a connection
    /// with requests still in the CPU stage (`pending() > 0` — decode jobs
    /// in flight or responses awaiting their request-order turn) or with
    /// unflushed outbound bytes is mid-conversation, however long ago its
    /// socket last signalled. `last_active` is only stamped by readiness
    /// events and successful flush progress, so a slow reader draining a
    /// multi-megabyte response — or a deep pipeline parked behind the
    /// outbound cap — must not be evicted on the wall clock alone.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.idle_timeout else {
            return;
        };
        let interval = (limit / 4).min(Duration::from_secs(1));
        if self.last_sweep.elapsed() < interval {
            return;
        }
        self.last_sweep = Instant::now();
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.last_active.elapsed() >= limit && c.pending() == 0 && c.outbound.is_empty()
            })
            .map(|(t, _)| *t)
            .collect();
        for t in idle {
            self.cpu
                .metrics
                .disconnect_idle
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(t);
        }
    }
}

/// Read and decode frames until `WouldBlock`, EOF, a malformed frame, or
/// the connection's caps park it. Decoded requests go to the CPU stage
/// (inline or pool) stamped with their per-connection sequence number.
fn drain_reads(conn: &mut Conn, token: u64, cpu: &Cpu, inline: bool) -> ReadPass {
    loop {
        if conn.over_caps() {
            conn.paused = true;
            return ReadPass::Continue;
        }
        let msg = match conn.frames.next_frame() {
            Ok(Some(frame)) => match LdapMessage::decode(frame) {
                Ok(m) => m,
                Err(e) => {
                    cpu.metrics.decode_failures.fetch_add(1, Ordering::Relaxed);
                    queue_disconnect(conn, cpu, &e.message);
                    return ReadPass::Continue;
                }
            },
            Ok(None) => {
                // Clean EOF: flush whatever is still in flight, then close.
                conn.closing = true;
                return ReadPass::Continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadPass::Continue,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                cpu.metrics.decode_failures.fetch_add(1, Ordering::Relaxed);
                queue_disconnect(conn, cpu, &e.to_string());
                return ReadPass::Continue;
            }
            // Mid-frame EOF, ECONNRESET, and anything else fatal.
            Err(_) => return ReadPass::Dead,
        };
        match msg.op {
            ProtocolOp::UnbindRequest => {
                cpu.metrics.unbinds.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
                return ReadPass::Continue;
            }
            op => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                if inline {
                    conn.ready
                        .insert(seq, respond(msg.id, op, &cpu.dir, &cpu.metrics));
                } else {
                    cpu.push(Job {
                        conn: token,
                        seq,
                        id: msg.id,
                        op,
                    });
                }
            }
        }
    }
}

/// Queue the RFC 2251 Notice of Disconnection *after* every earlier
/// response (it takes the next sequence slot) and stop reading.
fn queue_disconnect(conn: &mut Conn, cpu: &Cpu, detail: &str) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.ready
        .insert(seq, disconnect_notice_bytes(&cpu.metrics, detail));
    conn.closing = true;
}

/// Coalesce the outbound queue into writev batches until the socket would
/// block or the queue empties. Slices are capped at [`FLUSH_CHUNK`] so a
/// multi-megabyte streamed search never forms one giant iovec.
fn flush_out(conn: &mut Conn) -> std::io::Result<()> {
    loop {
        if conn.outbound.is_empty() {
            return Ok(());
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
        let mut skip = conn.out_head;
        'gather: for buf in conn.outbound.iter() {
            let mut rest = &buf[skip..];
            skip = 0;
            while !rest.is_empty() {
                if slices.len() == MAX_IOV {
                    break 'gather;
                }
                let take = rest.len().min(FLUSH_CHUNK);
                slices.push(IoSlice::new(&rest[..take]));
                rest = &rest[take..];
            }
        }
        let wrote = match (&conn.stream).write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket wrote zero bytes",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        conn.last_active = Instant::now();
        conn.out_bytes -= wrote;
        let mut left = wrote;
        while left > 0 {
            let front_remaining = conn.outbound[0].len() - conn.out_head;
            if left >= front_remaining {
                left -= front_remaining;
                conn.out_head = 0;
                conn.outbound.pop_front();
            } else {
                conn.out_head += left;
                left = 0;
            }
        }
    }
}
