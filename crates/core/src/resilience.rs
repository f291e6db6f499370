//! Device-outage resilience: retry, the per-device circuit breaker, and
//! recovery by resynchronization.
//!
//! The paper's failure story (§4.4) is abort-log-alert plus full
//! resynchronization after reconnection. This module adds the intermediate
//! regime a production deployment needs: transient device faults are
//! retried with bounded exponential backoff; a device that keeps failing
//! trips a per-device circuit breaker (`Up → Degraded → Offline`); while
//! `Offline`, its legs are skipped instead of failing the client update —
//! the directory stays authoritative, exactly as during disconnected
//! operation in the paper. A recovery monitor probes offline devices and,
//! on reconnect, runs the one recovery there is: a full directory→device
//! resynchronization ([`crate::sync::resynchronize_device_from_directory`])
//! under the §5.1 quiesce, so no update commits while it reads. A link
//! lost mid-resync leaves the device `Offline` for a later probe, and the
//! monitor backs off from a device whose resyncs keep failing. Every
//! state transition emits a §4.4 administrator alert.
//!
//! What survives a crash is one fact per device, logged by
//! [`crate::durability`]: stale from the first skipped leg until a resync
//! brings the device back `Up`. A device that restarts stale restarts
//! `Offline` and is resynchronized like any other.

use crate::durability::{Durability, StaleMark};
use crate::error::MetaError;
use crate::errorlog::ErrorLog;
use crate::filter::DeviceFilter;
use crate::obs::Counter;
use crate::um::UmStats;
use crate::unpoison;
use ldap::dn::Dn;
use ldap::Directory;
use lexpress::TargetOp;
use std::hash::BuildHasher;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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

/// Circuit-breaker thresholds for one device.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive failures before the device is reported `Degraded`.
    pub degraded_after: u32,
    /// Consecutive failures before the breaker opens (`Offline`) and
    /// translated operations skip the device until it is resynchronized.
    pub offline_after: u32,
    /// How often the recovery monitor probes non-`Up` devices.
    pub probe_interval: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            degraded_after: 1,
            offline_after: 3,
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
    /// Breaker open: translated ops skip the device, which is stale until
    /// a resynchronization on reconnect brings it back `Up`.
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
    /// Legs skipped since the device went `Offline`. The resynchronization
    /// that brings it back `Up` covers them and zeroes the count.
    pub dropped_ops: usize,
    pub last_error: Option<String>,
}

#[derive(Debug)]
struct RuntimeInner {
    state: HealthState,
    consecutive_failures: u32,
    dropped_ops: usize,
    last_error: Option<String>,
    /// What the log says about this device: stale from the first skipped
    /// leg until a resynchronization brings it back `Up`.
    mark: StaleMark,
    /// Resyncs in a row that failed since the device was last `Up`.
    relapses: u32,
    /// Before this, the recovery monitor leaves the device alone.
    next_probe: Option<Instant>,
}

/// Per-device breaker state. Shared between the UM coordinator (which
/// records outcomes and skips an `Offline` device) and the recovery path
/// (which probes and resyncs).
pub(crate) struct DeviceRuntime {
    name: String,
    policy: BreakerPolicy,
    errorlog: Arc<ErrorLog>,
    dir: Arc<dyn Directory>,
    pub(crate) obs: Arc<crate::obs::DeviceObs>,
    inner: Mutex<RuntimeInner>,
    /// Where the device's mark is logged, on a durable deployment.
    durability: Option<Arc<Durability>>,
}

impl DeviceRuntime {
    pub(crate) fn new(
        name: &str,
        policy: BreakerPolicy,
        errorlog: Arc<ErrorLog>,
        dir: Arc<dyn Directory>,
        obs: Arc<crate::obs::DeviceObs>,
        durability: Option<Arc<Durability>>,
    ) -> Arc<DeviceRuntime> {
        Arc::new(DeviceRuntime {
            name: name.to_string(),
            policy,
            errorlog,
            dir,
            obs,
            inner: Mutex::new(RuntimeInner {
                state: HealthState::Up,
                consecutive_failures: 0,
                dropped_ops: 0,
                last_error: None,
                mark: StaleMark::default(),
                relapses: 0,
                next_probe: None,
            }),
            durability,
        })
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The device's current mark, for a checkpoint to re-log.
    pub(crate) fn mark(&self) -> StaleMark {
        unpoison(self.inner.lock()).mark
    }

    /// Take back the mark recovery found. A stale device missed updates
    /// before the restart, so it restarts `Offline`: the recovery monitor
    /// or [`crate::MetaComm::probe_device`] resyncs it from the directory.
    pub(crate) fn restore_mark(&self, mark: StaleMark) {
        let mut g = unpoison(self.inner.lock());
        g.mark = mark;
        if mark.stale {
            g.state = HealthState::Offline;
        }
    }

    /// Log the device stale or clean if that is news. Called under the
    /// inner lock, so a stale record is in the log before any update that
    /// saw the device stale can commit to the directory.
    fn set_stale(&self, g: &mut RuntimeInner, stale: bool) {
        if g.mark.stale == stale {
            return;
        }
        g.mark = StaleMark {
            epoch: g.mark.epoch + 1,
            stale,
        };
        if let Some(durability) = &self.durability {
            durability.log_device(&self.name, g.mark);
        }
    }

    pub(crate) fn health(&self) -> DeviceHealth {
        let g = unpoison(self.inner.lock());
        DeviceHealth {
            device: self.name.clone(),
            state: g.state,
            consecutive_failures: g.consecutive_failures,
            dropped_ops: g.dropped_ops,
            last_error: g.last_error.clone(),
        }
    }

    /// Whether the recovery monitor probes the device at `now`. After a
    /// failed resync it waits twice as many probe intervals for each one in
    /// a row, up to `2^MAX_RELAPSE_BACKOFF`: a link that answers probes but
    /// drops applies would otherwise have the §5.1 quiesce taken, and every
    /// client update held, once an interval. [`crate::MetaComm::probe_device`]
    /// does not wait.
    pub(crate) fn probe_due(&self, now: Instant) -> bool {
        unpoison(self.inner.lock())
            .next_probe
            .is_none_or(|at| now >= at)
    }

    /// Skip this leg if the breaker is open: the device is logged stale and
    /// the leg counted dropped, and the update goes on to the directory,
    /// which the resynchronization on reconnect copies to the device.
    pub(crate) fn skip_if_offline(&self) -> bool {
        let mut g = unpoison(self.inner.lock());
        if g.state != HealthState::Offline {
            return false;
        }
        self.set_stale(&mut g, true);
        g.dropped_ops += 1;
        true
    }

    /// Close the breaker: `Up`, no failures, nothing dropped, logged
    /// clean.
    fn close(&self) {
        let mut g = unpoison(self.inner.lock());
        g.state = HealthState::Up;
        g.consecutive_failures = 0;
        g.dropped_ops = 0;
        g.last_error = None;
        g.relapses = 0;
        g.next_probe = None;
        self.set_stale(&mut g, false);
    }

    /// Record a failed (post-retry) device apply; advances the breaker and
    /// alerts on each state transition (§4.4).
    pub(crate) fn record_failure(&self, seq: u64, error: &crate::error::MetaError) {
        let transition = {
            let mut g = unpoison(self.inner.lock());
            g.consecutive_failures += 1;
            g.last_error = Some(error.to_string());
            // Only a resync leaves `Offline` (see `close`): legs skipped the
            // device, so no count of later failures may demote it.
            let next = if g.state == HealthState::Offline
                || g.consecutive_failures >= self.policy.offline_after
            {
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
            self.alert(
                seq,
                &format!(
                    "device {} {prev} -> {next} after {failures} consecutive \
                     failures: {error}{}",
                    self.name,
                    if next == HealthState::Offline {
                        "; translated operations are now skipped until a \
                         resync on reconnect"
                    } else {
                        ""
                    },
                ),
            );
        }
    }

    /// Record a successful device apply. A `Degraded` device is `Up` again;
    /// an `Offline` one stays so until it is resynchronized, whatever
    /// applies in between, because legs skipped it.
    pub(crate) fn record_success(&self) {
        let degraded = {
            let mut g = unpoison(self.inner.lock());
            g.consecutive_failures = 0;
            g.last_error = None;
            let degraded = g.state == HealthState::Degraded;
            if degraded {
                g.state = HealthState::Up;
            }
            degraded
        };
        if degraded {
            self.alert(0, &format!("device {} degraded -> up", self.name));
        }
    }

    /// A §4.4 administrator alert about this device's health.
    fn alert(&self, seq: u64, text: &str) {
        self.errorlog
            .log(self.dir.as_ref(), seq, text, "device health transition");
    }
}

/// One integrated repository as a deployment holds it: its filter and the
/// breaker runtime that guards it. The deployment builds one list of these,
/// in registration order, and the Update Manager, the recovery monitor,
/// checkpoints and [`crate::MetaComm::device`] all read that list.
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

/// Cap on the recovery monitor's backoff after failed resyncs, as a power
/// of two of the probe interval: 64 intervals, 1.6 s by default.
const MAX_RELAPSE_BACKOFF: u32 = 6;

/// Outcome of one recovery attempt (surfaced by
/// [`crate::MetaComm::probe_device`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Device is `Up`, or was `Degraded` and answered the probe: it missed
    /// nothing, so no work.
    Healthy,
    /// Probe still failing, or the link dropped mid-resync: the device
    /// stays `Offline` and stale, and the next probe resyncs it again.
    StillDown,
    /// The device was `Offline` (or restarted stale) and answered: it was
    /// resynchronized from the directory.
    Resynchronized(crate::sync::SyncReport),
}

/// Probe a device and, if it answers, bring it back `Up`: an `Offline`
/// device by a full directory→device resynchronization under the §5.1
/// quiesce, the paper's recovery for a repository that missed updates
/// (§4.4). Called by the recovery monitor on its probe interval and
/// synchronously by [`crate::MetaComm::probe_device`].
pub(crate) fn attempt_recovery(
    ctx: &RecoveryCtx,
    device: &Device,
) -> crate::error::Result<RecoveryOutcome> {
    let Device { filter, runtime } = device;
    if unpoison(runtime.inner.lock()).state == HealthState::Up {
        return Ok(RecoveryOutcome::Healthy);
    }
    // Probe holding no quiesce: a device still down makes no client wait.
    if let Err(e) = filter.probe() {
        unpoison(runtime.inner.lock()).last_error = Some(e.to_string());
        return Ok(RecoveryOutcome::StillDown);
    }
    // Each failed leg of a degraded device aborted its update, so it missed
    // nothing: an answer is enough to bring it back `Up`.
    runtime.record_success();
    if unpoison(runtime.inner.lock()).state != HealthState::Offline {
        return Ok(RecoveryOutcome::Healthy);
    }
    // The quiesce waits for every update in flight, and a leg of one of
    // them may be waiting for the runtime lock: take it holding none. It is
    // also what keeps the monitor and `probe_device` from recovering the
    // same device twice, so the state is read again under it. No leg runs
    // while the session lives, so what is read here stands until it drops.
    let mut session = ctx.gateway.begin_sync();
    if unpoison(runtime.inner.lock()).state != HealthState::Offline {
        return Ok(RecoveryOutcome::Healthy);
    }
    runtime.alert(
        0,
        &format!(
            "device {} reconnected; resynchronizing it from the directory",
            runtime.name
        ),
    );
    // Directory→device: the device was unreachable while legs skipped it,
    // so the directory, which kept taking client updates, is authoritative.
    let resync = crate::sync::resynchronize_in(
        &mut session,
        &ctx.engine,
        filter,
        &ctx.suffix,
        Some(&ctx.errorlog),
        &ctx.retry,
        &ctx.stats,
    );
    let report = match resync {
        Ok(report) => report,
        Err(e) => {
            drop(session);
            {
                let mut g = unpoison(runtime.inner.lock());
                g.consecutive_failures += 1;
                g.last_error = Some(e.to_string());
                g.relapses += 1;
                let wait = 1u32 << g.relapses.min(MAX_RELAPSE_BACKOFF);
                g.next_probe = Some(Instant::now() + runtime.policy.probe_interval * wait);
            }
            if !e.is_transient() {
                return Err(e);
            }
            runtime.alert(
                0,
                &format!("device {} relapsed mid-resync: {e}", runtime.name),
            );
            return Ok(RecoveryOutcome::StillDown);
        }
    };
    runtime.obs.resyncs.inc();
    // `Up` and logged clean before the quiesce lifts: the first update
    // after it applies to the device directly.
    runtime.close();
    drop(session);
    runtime.alert(
        0,
        &format!(
            "device {} offline -> up (recovered via full resynchronization: \
             {} added, {} repaired, {} cleared)",
            runtime.name, report.added, report.repaired, report.cleared
        ),
    );
    Ok(RecoveryOutcome::Resynchronized(report))
}

/// A deployment's long-lived threads — the recovery monitor, the DDU
/// relays — each with the sending half of its own shutdown channel. Nothing
/// is ever sent: dropping the sender hangs the channel up, and that is the
/// stop signal.
#[derive(Default)]
pub(crate) struct Background {
    hang_ups: Vec<Sender<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl Background {
    /// Start thread `name` running `body`, which must return once the
    /// receiver it is handed reports the channel hung up.
    pub(crate) fn spawn(&mut self, name: String, body: impl FnOnce(Receiver<()>) + Send + 'static) {
        let (hang_up, stopped) = channel();
        let builder = std::thread::Builder::new().name(name);
        let thread = builder.spawn(move || body(stopped)).expect("spawn thread");
        self.threads.push(thread);
        self.hang_ups.push(hang_up);
    }

    /// Hang up every thread's channel — each thread's wait ends on that,
    /// whether or not anything else ever wakes it — then join them all.
    pub(crate) fn stop(&mut self) {
        self.hang_ups.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
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

    /// Only a resync leaves `Offline`: neither a leg let through before the
    /// breaker opened that succeeds nor one that fails after it. A resync
    /// the link drops makes the monitor wait two probe intervals; one that
    /// finishes ends the wait.
    #[test]
    fn only_a_resync_leaves_offline() {
        let switch = Arc::new(pbx::Store::new(
            "pbx-west",
            pbx::DialPlan::with_prefix("1", 4),
        ));
        let interval = Duration::from_secs(3600);
        let link_drops_first_apply = crate::FaultPlan {
            down_after: Some(0),
            ..crate::FaultPlan::default()
        };
        let system = crate::MetaCommBuilder::new("o=Lucent")
            .add_pbx(switch.clone(), "1???")
            .with_retry_policy(RetryPolicy::none())
            .with_breaker_policy(BreakerPolicy {
                probe_interval: interval,
                ..BreakerPolicy::default()
            })
            .with_fault_plan("pbx-west", link_drops_first_apply)
            .build()
            .expect("build");
        let runtime = &system.device("pbx-west").expect("device").runtime;
        let down = MetaError::DeviceUnreachable {
            repository: "pbx-west".into(),
            detail: "link down".into(),
        };
        for _ in 0..BreakerPolicy::default().offline_after {
            runtime.record_failure(0, &down);
        }
        // The resync's one apply adds the station this update's leg skipped.
        let wba = system.wba();
        wba.add_person_with_extension("John Doe", "Doe", "1100", "R0")
            .expect("the leg skips the device");
        runtime.record_success();
        runtime.record_failure(0, &down);
        assert_eq!(runtime.health().state, HealthState::Offline);
        assert!(runtime.mark().stale);

        let start = Instant::now();
        let outcome = system.probe_device("pbx-west").expect("probe");
        assert_eq!(outcome, RecoveryOutcome::StillDown);
        assert!(!runtime.probe_due(start + interval * 2 - Duration::from_secs(1)));
        assert!(runtime.probe_due(Instant::now() + interval * 2));

        system
            .fault_handle("pbx-west")
            .expect("handle")
            .set_down(false);
        let outcome = system.probe_device("pbx-west").expect("probe");
        assert!(
            matches!(outcome, RecoveryOutcome::Resynchronized(_)),
            "{outcome:?}"
        );
        assert_eq!(runtime.health().state, HealthState::Up);
        assert!(!runtime.mark().stale);
        assert!(runtime.probe_due(start));
        assert!(switch.get("1100").is_some());
        system.shutdown();
    }

    #[test]
    fn health_state_display() {
        assert_eq!(HealthState::Up.to_string(), "up");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::Offline.to_string(), "offline");
    }
}
