//! Device-outage resilience: retry, per-device circuit breaker, and the
//! store-and-forward outage journal.
//!
//! The paper's failure story (§4.4) is abort-log-alert plus full
//! resynchronization after reconnection. This module adds the intermediate
//! regime a production deployment needs: transient device faults are
//! retried with bounded exponential backoff; a device that keeps failing
//! trips a per-device circuit breaker (`Up → Degraded → Offline`); while
//! `Offline`, translated device operations are appended to a bounded
//! outage journal instead of failing the client update — the directory
//! stays authoritative, exactly as during disconnected operation in the
//! paper. A recovery monitor probes offline devices and, on reconnect,
//! drains the journal as *conditional* reapplied operations (§5.4),
//! falling back to a full directory→device resynchronization
//! ([`crate::sync::resynchronize_device_from_directory`]) when the
//! journal overflowed its bound. Every state transition emits a §4.4
//! administrator alert.

use crate::error::MetaError;
use crate::errorlog::ErrorLog;
use crate::filter::DeviceFilter;
use crate::obs::Counter;
use crate::um::UmStats;
use ldap::dn::Dn;
use ldap::Directory;
use lexpress::TargetOp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded retry with exponential backoff and jitter, applied to transient
/// device faults in both device-apply paths (UM coordinator and DDU relay).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt N+1 is `base_delay * 2^(N-1)`, jittered.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Overall budget across attempts: once this much wall-clock time has
    /// been spent on an operation, remaining attempts are forfeited.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// No retries at all (useful in tests that count device attempts).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to sleep after failed attempt `attempt` (1-based): capped
    /// exponential with ±50% jitter.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_delay);
        // Jitter source: each `RandomState` is freshly (randomly) keyed, so
        // hashing the attempt number yields a different fraction per call —
        // the core crate deliberately takes no RNG dependency.
        let state = std::collections::hash_map::RandomState::new();
        let frac = (state.hash_one(attempt) % 1000) as f64 / 1000.0; // [0, 1)
        capped.mul_f64(0.5 + frac)
    }

    /// The one retry loop: call `attempt` until it succeeds, fails with an
    /// error `transient` does not hold for, or the attempts or the deadline
    /// run out; sleep the backoff between attempts and count each retry in
    /// `retried`. Returns the first success or the last error.
    pub(crate) fn run<T, E>(
        &self,
        retried: &Counter,
        transient: impl Fn(&E) -> bool,
        mut attempt: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attempt() {
                Err(e)
                    if transient(&e)
                        && attempts < self.max_attempts
                        && started.elapsed() < self.deadline =>
                {
                    retried.inc();
                    std::thread::sleep(self.backoff(attempts));
                }
                done => return done,
            }
        }
    }
}

/// Apply `op` at `filter`, retrying transient faults per `retry`.
/// Returns the outcome of the first success, or the last error once
/// attempts or the deadline run out. Retries are counted in `stats`.
pub(crate) fn apply_with_retry(
    filter: &Arc<dyn DeviceFilter>,
    op: &TargetOp,
    retry: &RetryPolicy,
    stats: &UmStats,
) -> crate::error::Result<crate::filter::ApplyOutcome> {
    retry.run(&stats.retried, MetaError::is_transient, || filter.apply(op))
}

/// Circuit-breaker thresholds and journal bound for one device.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive failures before the device is reported `Degraded`.
    pub degraded_after: u32,
    /// Consecutive failures before the breaker opens (`Offline`) and
    /// translated operations start queueing instead of applying.
    pub offline_after: u32,
    /// Outage-journal bound: past this many queued ops the journal is
    /// abandoned and recovery falls back to full resynchronization.
    pub journal_cap: usize,
    /// How often the recovery monitor probes non-`Up` devices.
    pub probe_interval: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            degraded_after: 1,
            offline_after: 3,
            journal_cap: 512,
            probe_interval: Duration::from_millis(25),
        }
    }
}

/// Device health, per the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Normal operation: translated ops apply directly.
    Up,
    /// Recent failures, still applying directly (with retry).
    Degraded,
    /// Breaker open: translated ops queue in the outage journal.
    Offline,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Up => write!(f, "up"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Offline => write!(f, "offline"),
        }
    }
}

/// Snapshot of one device's health (the [`crate::MetaComm::device_health`]
/// API).
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    pub device: String,
    pub state: HealthState,
    pub consecutive_failures: u32,
    /// Translated operations waiting in the outage journal.
    pub queued_ops: usize,
    /// The journal overflowed: recovery will resynchronize instead of
    /// draining.
    pub journal_overflowed: bool,
    /// Operations discarded after the overflow (recovered only by the full
    /// resynchronization).
    pub dropped_ops: usize,
    pub last_error: Option<String>,
}

/// One queued translated operation awaiting reapplication.
#[derive(Debug, Clone)]
struct JournaledOp {
    ticket: u64,
    op: TargetOp,
    /// Directory entry the op concerns (post-update DN), for folding
    /// device-generated information back in when the op finally applies.
    dn: Option<Dn>,
}

/// Observer of outage-journal mutations, implemented by the durability
/// layer to mirror the journal into the write-ahead log. Callbacks are
/// invoked OUTSIDE the runtime's inner lock (the WAL append may fsync and
/// the checkpoint path takes locks of its own), so two racing mutations may
/// reach the log out of order — recovery reconciles by ticket, which is
/// unique per device and assigned in queue order.
pub(crate) trait JournalSink: Send + Sync {
    /// An op entered the journal under `ticket`.
    fn pushed(&self, device: &str, ticket: u64, op: &TargetOp, dn: Option<&Dn>);
    /// Tickets were withdrawn (client update aborted).
    fn discarded(&self, device: &str, tickets: &[u64]);
    /// A ticket drained: its op was reapplied to the device.
    fn popped(&self, device: &str, ticket: u64);
    /// The journal overflowed: queued ops abandoned pending full resync.
    fn overflowed(&self, device: &str);
    /// The backlog is fully resolved (drain or resynchronization done).
    /// `below` is the device's ticket high-water mark, captured under the
    /// same lock that observed the resolution: recovery must only clear
    /// ops whose ticket is below it. If the device relapses immediately, a
    /// newly queued op's `pushed` event can race this one into the log —
    /// its ticket is `>= below`, so the guard keeps it alive at replay.
    fn cleared(&self, device: &str, below: u64);
}

#[derive(Debug)]
struct RuntimeInner {
    state: HealthState,
    consecutive_failures: u32,
    journal: VecDeque<JournaledOp>,
    overflowed: bool,
    dropped_ops: usize,
    draining: bool,
    last_error: Option<String>,
}

/// Per-device breaker state + outage journal. Shared between the UM
/// coordinator (which records outcomes and journals ops) and the recovery
/// monitor (which probes and drains).
pub(crate) struct DeviceRuntime {
    name: String,
    policy: BreakerPolicy,
    errorlog: Arc<ErrorLog>,
    dir: Arc<dyn Directory>,
    pub(crate) obs: Arc<crate::obs::DeviceObs>,
    next_ticket: AtomicU64,
    inner: Mutex<RuntimeInner>,
    sink: Mutex<Option<Arc<dyn JournalSink>>>,
}

impl DeviceRuntime {
    pub(crate) fn new(
        name: &str,
        policy: BreakerPolicy,
        errorlog: Arc<ErrorLog>,
        dir: Arc<dyn Directory>,
        obs: Arc<crate::obs::DeviceObs>,
    ) -> Arc<DeviceRuntime> {
        Arc::new(DeviceRuntime {
            name: name.to_string(),
            policy,
            errorlog,
            dir,
            obs,
            next_ticket: AtomicU64::new(1),
            inner: Mutex::new(RuntimeInner {
                state: HealthState::Up,
                consecutive_failures: 0,
                journal: VecDeque::new(),
                overflowed: false,
                dropped_ops: 0,
                draining: false,
                last_error: None,
            }),
            sink: Mutex::new(None),
        })
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Install the durability observer. At most one; later calls replace it.
    pub(crate) fn set_journal_sink(&self, sink: Arc<dyn JournalSink>) {
        *self.sink.lock() = Some(sink);
    }

    fn with_sink(&self, f: impl FnOnce(&dyn JournalSink)) {
        let sink = self.sink.lock().clone();
        if let Some(s) = sink {
            f(s.as_ref());
        }
    }

    /// A consistent copy of the queued backlog, for checkpointing:
    /// `(ops in queue order, journal overflowed)`.
    pub(crate) fn journal_snapshot(&self) -> (Vec<(u64, TargetOp, Option<Dn>)>, bool) {
        let g = self.inner.lock();
        (
            g.journal
                .iter()
                .map(|j| (j.ticket, j.op.clone(), j.dn.clone()))
                .collect(),
            g.overflowed,
        )
    }

    /// Reload the outage journal after a restart. Ops are sorted by ticket
    /// (WAL record order can race; ticket order is queue order), the ticket
    /// counter resumes above everything seen, and a device with a backlog
    /// (or pending resync) restarts `Offline` so the recovery monitor
    /// probes and drains it — the paper's reconnect flow, not a blind
    /// assumption that the device is fine.
    pub(crate) fn restore_journal(
        &self,
        mut ops: Vec<(u64, TargetOp, Option<Dn>)>,
        overflowed: bool,
    ) {
        ops.sort_by_key(|(ticket, _, _)| *ticket);
        // A checkpoint's STATE record can race an event for the same
        // ticket into the log; replay then recovers the op twice.
        ops.dedup_by_key(|(ticket, _, _)| *ticket);
        let max_ticket = ops.last().map(|(t, _, _)| *t).unwrap_or(0);
        let mut g = self.inner.lock();
        self.next_ticket.fetch_max(max_ticket + 1, Ordering::SeqCst);
        g.journal = ops
            .into_iter()
            .map(|(ticket, op, dn)| JournaledOp { ticket, op, dn })
            .collect();
        g.overflowed = overflowed;
        if overflowed {
            g.journal.clear();
        }
        if !g.journal.is_empty() || g.overflowed {
            g.state = HealthState::Offline;
        }
    }

    pub(crate) fn health(&self) -> DeviceHealth {
        let g = self.inner.lock();
        DeviceHealth {
            device: self.name.clone(),
            state: g.state,
            consecutive_failures: g.consecutive_failures,
            queued_ops: g.journal.len(),
            journal_overflowed: g.overflowed,
            dropped_ops: g.dropped_ops,
            last_error: g.last_error.clone(),
        }
    }

    /// Should the coordinator bypass the device and journal this op?
    /// True while the breaker is open — and also while queued ops exist or
    /// a drain is running, so reapplication stays FIFO with live traffic.
    pub(crate) fn should_journal(&self) -> bool {
        let g = self.inner.lock();
        g.state == HealthState::Offline || !g.journal.is_empty() || g.draining
    }

    /// Append a translated op to the outage journal. Returns a ticket that
    /// [`DeviceRuntime::discard_tickets`] can use to withdraw the op if the
    /// surrounding client update later aborts. `None` when the journal has
    /// overflowed (the op is dropped and counted; full resync recovers it).
    pub(crate) fn journal(&self, op: TargetOp, dn: Option<Dn>) -> Option<u64> {
        let mut g = self.inner.lock();
        if g.overflowed {
            g.dropped_ops += 1;
            return None;
        }
        if g.journal.len() >= self.policy.journal_cap {
            g.overflowed = true;
            g.dropped_ops += g.journal.len() + 1;
            g.journal.clear();
            drop(g);
            self.with_sink(|s| s.overflowed(&self.name));
            self.errorlog.log(
                self.dir.as_ref(),
                0,
                &format!(
                    "device {} outage journal overflowed at {} ops; queued ops \
                     abandoned, full resynchronization scheduled on reconnect",
                    self.name, self.policy.journal_cap
                ),
                "journal overflow",
            );
            return None;
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        g.journal.push_back(JournaledOp {
            ticket,
            op: op.clone(),
            dn: dn.clone(),
        });
        drop(g);
        self.with_sink(|s| s.pushed(&self.name, ticket, &op, dn.as_ref()));
        self.obs.queued.inc();
        Some(ticket)
    }

    /// Withdraw journaled ops whose client update aborted (the directory
    /// never saw the update either, so reapplying them would diverge).
    pub(crate) fn discard_tickets(&self, tickets: &[u64]) {
        if tickets.is_empty() {
            return;
        }
        {
            let mut g = self.inner.lock();
            g.journal.retain(|j| !tickets.contains(&j.ticket));
        }
        self.with_sink(|s| s.discarded(&self.name, tickets));
    }

    /// Record a failed (post-retry) device apply; advances the breaker and
    /// alerts on each state transition (§4.4).
    pub(crate) fn record_failure(&self, seq: u64, error: &crate::error::MetaError) {
        let transition = {
            let mut g = self.inner.lock();
            g.consecutive_failures += 1;
            g.last_error = Some(error.to_string());
            let next = if g.consecutive_failures >= self.policy.offline_after {
                HealthState::Offline
            } else if g.consecutive_failures >= self.policy.degraded_after {
                HealthState::Degraded
            } else {
                g.state
            };
            if next != g.state {
                let prev = g.state;
                g.state = next;
                Some((prev, next, g.consecutive_failures))
            } else {
                None
            }
        };
        if let Some((prev, next, failures)) = transition {
            if next == HealthState::Offline {
                self.obs.breaker_trips.inc();
            }
            self.errorlog.log(
                self.dir.as_ref(),
                seq,
                &format!(
                    "device {} {prev} -> {next} after {failures} consecutive \
                     failures: {error}{}",
                    self.name,
                    if next == HealthState::Offline {
                        "; translated operations now queue in the outage journal"
                    } else {
                        ""
                    },
                ),
                "device health transition",
            );
        }
    }

    /// Record a successful device apply: closes the breaker (with an alert
    /// if the device was not `Up`).
    pub(crate) fn record_success(&self) {
        let recovered = {
            let mut g = self.inner.lock();
            g.consecutive_failures = 0;
            g.last_error = None;
            if g.state != HealthState::Up && g.journal.is_empty() && !g.draining {
                let prev = g.state;
                g.state = HealthState::Up;
                Some(prev)
            } else {
                if g.state == HealthState::Degraded {
                    g.state = HealthState::Up;
                }
                None
            }
        };
        if let Some(prev) = recovered {
            self.errorlog.log(
                self.dir.as_ref(),
                0,
                &format!("device {} {prev} -> up", self.name),
                "device health transition",
            );
        }
    }
}

/// One integrated repository as a deployment holds it: its filter and the
/// breaker/journal runtime that guards it. The deployment builds one list
/// of these, in registration order, and the Update Manager, the recovery
/// monitor, checkpoints and [`crate::MetaComm::device`] all read that list.
#[derive(Clone)]
pub struct Device {
    pub filter: Arc<dyn DeviceFilter>,
    pub(crate) runtime: Arc<DeviceRuntime>,
}

/// Everything the recovery path needs to reconcile one device.
pub(crate) struct RecoveryCtx {
    pub gateway: Arc<ltap::Gateway>,
    pub engine: Arc<lexpress::Engine>,
    pub suffix: Dn,
    pub errorlog: Arc<ErrorLog>,
    pub stats: Arc<UmStats>,
    pub retry: RetryPolicy,
}

/// Outcome of one recovery attempt (surfaced by
/// [`crate::MetaComm::probe_device`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Device is `Up` with nothing queued: no work.
    Healthy,
    /// Probe still failing; device remains offline.
    StillDown,
    /// Journal drained: this many ops reapplied (conditionally, §5.4).
    Drained(usize),
    /// Journal had overflowed: full resynchronization ran instead.
    Resynchronized(crate::sync::SyncReport),
}

/// Probe a device and, if it answers, reapply its backlog: drain the
/// journal as conditional ops, or run a full directory→device
/// resynchronization when the journal overflowed. Called by the recovery
/// monitor on its probe interval and synchronously by
/// [`crate::MetaComm::probe_device`].
pub(crate) fn attempt_recovery(
    ctx: &RecoveryCtx,
    device: &Device,
) -> crate::error::Result<RecoveryOutcome> {
    let Device { filter, runtime } = device;
    // Claim the recovery: the `draining` flag is both the mutual exclusion
    // between concurrent recoveries (monitor vs. explicit probe) and the
    // signal that keeps the coordinator journaling new ops behind the
    // backlog while the drain runs.
    let (overflowed, queued) = {
        let mut g = runtime.inner.lock();
        if g.draining {
            return Ok(RecoveryOutcome::StillDown);
        }
        let needs_work = g.state != HealthState::Up || !g.journal.is_empty() || g.overflowed;
        if !needs_work {
            return Ok(RecoveryOutcome::Healthy);
        }
        g.draining = true;
        (g.overflowed, g.journal.len())
    };
    if let Err(e) = filter.probe() {
        let mut g = runtime.inner.lock();
        g.draining = false;
        g.last_error = Some(e.to_string());
        return Ok(RecoveryOutcome::StillDown);
    }
    ctx.errorlog.log(
        ctx.gateway.inner().as_ref(),
        0,
        &format!(
            "device {} reconnected; {}",
            runtime.name,
            if overflowed {
                "journal overflowed during the outage — running full resynchronization".to_string()
            } else {
                format!("draining {queued} queued ops")
            }
        ),
        "device reconnect",
    );
    if overflowed {
        // Directory→device: the device was unreachable the whole outage, so
        // the directory (which kept taking client updates) is authoritative.
        let report = match crate::sync::resynchronize_device_from_directory(
            &ctx.gateway,
            &ctx.engine,
            filter,
            &ctx.suffix,
            Some(&ctx.errorlog),
            &ctx.retry,
            &ctx.stats,
        ) {
            Ok(r) => r,
            Err(e) => {
                let mut g = runtime.inner.lock();
                g.draining = false;
                g.last_error = Some(e.to_string());
                return Err(e);
            }
        };
        runtime.obs.resyncs.inc();
        let below = {
            let mut g = runtime.inner.lock();
            g.journal.clear();
            g.overflowed = false;
            g.dropped_ops = 0;
            g.consecutive_failures = 0;
            g.last_error = None;
            g.draining = false;
            g.state = HealthState::Up;
            // Tickets are allocated under this lock, so everything queued
            // from here on is >= this mark and survives the cleared event.
            runtime.next_ticket.load(Ordering::SeqCst)
        };
        runtime.with_sink(|s| s.cleared(&runtime.name, below));
        ctx.errorlog.log(
            ctx.gateway.inner().as_ref(),
            0,
            &format!(
                "device {} offline -> up (recovered via full resynchronization: \
                 {} added, {} repaired, {} cleared)",
                runtime.name, report.added, report.repaired, report.cleared
            ),
            "device health transition",
        );
        return Ok(RecoveryOutcome::Resynchronized(report));
    }
    // Drain the journal FIFO. New coordinator traffic keeps queueing behind
    // the drain (`should_journal` sees `draining`), so device-visible order
    // is preserved.
    let mut reapplied = 0usize;
    let below = loop {
        // Ok(op) to reapply, or Err(ticket high-water) once the journal is
        // observed empty — both decided under the inner lock.
        let next = {
            let mut g = runtime.inner.lock();
            match g.journal.pop_front() {
                Some(j) => Ok(j),
                None => {
                    // Transition and flag-clear under the same lock as the
                    // emptiness check: no op can slip in unjournaled, and
                    // anything queued after the Up transition gets a ticket
                    // >= this mark, surviving the cleared event at replay.
                    g.draining = false;
                    g.consecutive_failures = 0;
                    g.last_error = None;
                    g.state = HealthState::Up;
                    Err(runtime.next_ticket.load(Ordering::SeqCst))
                }
            }
        };
        let j = match next {
            Ok(j) => j,
            Err(below) => break below,
        };
        // §5.4: reapplication is conditional — the op must tolerate already
        // (or never) applying.
        let mut op = j.op.clone();
        op.conditional = true;
        let t0 = runtime.obs.clock.now_ns();
        let outcome = apply_with_retry(filter, &op, &ctx.retry, &ctx.stats);
        runtime
            .obs
            .reapply
            .record(runtime.obs.clock.now_ns().saturating_sub(t0));
        match outcome {
            Ok(outcome) => {
                reapplied += 1;
                runtime.obs.drained.inc();
                runtime.with_sink(|s| s.popped(&runtime.name, j.ticket));
                ctx.stats.device_ops.fetch_add(1, Ordering::Relaxed);
                if outcome.reapplied {
                    ctx.stats.reapplied.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(gen) = outcome.generated {
                    fold_generated(ctx, &j.dn, &gen);
                }
            }
            Err(e) if e.is_transient() => {
                // Mid-drain relapse: requeue at the front and go back
                // offline; the next probe retries from here.
                {
                    let mut g = runtime.inner.lock();
                    g.journal.push_front(j);
                    g.draining = false;
                    g.consecutive_failures += 1;
                    g.last_error = Some(e.to_string());
                    g.state = HealthState::Offline;
                }
                ctx.errorlog.log(
                    ctx.gateway.inner().as_ref(),
                    0,
                    &format!(
                        "device {} relapsed mid-drain after {reapplied} ops: {e}",
                        runtime.name
                    ),
                    "device health transition",
                );
                return Ok(RecoveryOutcome::StillDown);
            }
            Err(e) => {
                // Semantic rejection of a queued op: the client saw success
                // long ago, so all that remains is §4.4 log-and-alert. The
                // op leaves the journal permanently — pop it durably too.
                runtime.with_sink(|s| s.popped(&runtime.name, j.ticket));
                ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
                ctx.errorlog.log(
                    ctx.gateway.inner().as_ref(),
                    0,
                    &format!(
                        "device {} rejected queued op during journal drain: {e}",
                        runtime.name
                    ),
                    &format!("{:?}", j.op),
                );
            }
        }
    };
    runtime.with_sink(|s| s.cleared(&runtime.name, below));
    ctx.errorlog.log(
        ctx.gateway.inner().as_ref(),
        0,
        &format!(
            "device {} offline -> up (journal drained, {reapplied} ops reapplied)",
            runtime.name
        ),
        "device health transition",
    );
    Ok(RecoveryOutcome::Drained(reapplied))
}

/// Fold device-generated information from a drained op back into the
/// directory (§5.5) — written directly to the server, exactly as the UM
/// coordinator does after a live apply.
fn fold_generated(ctx: &RecoveryCtx, dn: &Option<Dn>, gen: &lexpress::Image) {
    let Some(dn) = dn else { return };
    let dir = ctx.gateway.inner();
    let Ok(Some(entry)) = dir.get(dn) else { return };
    let mut mods = crate::um::aux_class_mods(&entry, gen);
    for (name, values) in gen.iter() {
        if entry.values(name) != values {
            mods.push(ldap::entry::Modification::replace(
                name.to_string(),
                values.to_vec(),
            ));
        }
    }
    if !mods.is_empty() && dir.modify(dn, &mods).is_ok() {
        ctx.stats.generated_merges.fetch_add(1, Ordering::Relaxed);
    }
}

/// Long-lived threads of one kind — the recovery monitor, the DDU relays —
/// and the channel that stops them.
pub(crate) struct Background {
    pub shutdown: crossbeam::channel::Sender<()>,
    pub threads: Vec<std::thread::JoinHandle<()>>,
}

impl Background {
    /// Hang up the shutdown channel — every thread's wait ends on that,
    /// whether or not anything else ever wakes it — and join them all.
    pub(crate) fn stop(self) {
        drop(self.shutdown);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawn the recovery monitor: every probe interval, attempt recovery of
/// any device that is not `Up` (or has a backlog).
pub(crate) fn spawn_monitor(
    ctx: RecoveryCtx,
    devices: Arc<[Device]>,
    interval: Duration,
) -> Background {
    let (shutdown, rx) = crossbeam::channel::unbounded::<()>();
    let thread = std::thread::Builder::new()
        .name("device-recovery-monitor".into())
        .spawn(move || loop {
            match rx.recv_timeout(interval) {
                Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    for device in devices.iter() {
                        let _ = attempt_recovery(&ctx, device);
                    }
                }
            }
        })
        .expect("spawn recovery monitor");
    Background {
        shutdown,
        threads: vec![thread],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_grows() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(4),
            max_delay: Duration::from_millis(20),
            deadline: Duration::from_secs(1),
        };
        for attempt in 1..=8 {
            let d = p.backoff(attempt);
            // ±50% jitter around the capped exponential.
            assert!(d <= Duration::from_millis(30), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_millis(2), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn health_state_display() {
        assert_eq!(HealthState::Up.to_string(), "up");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::Offline.to_string(), "offline");
    }
}
