//! Fault injection for device filters.
//!
//! [`FaultInjector`] is a decorator implementing [`DeviceFilter`] around any
//! real filter; it injects configurable faults into the `apply` path (and
//! fails `probe` while a hard outage is active) so outage-resilience
//! behavior — retry, circuit breaking, recovery by resync — can be
//! exercised deterministically in tests, among them
//! `e12_client_updates_survive_a_device_outage` in `tests/paper_claims.rs`.
//!
//! All fault decisions are functions of a [`FaultPlan`] plus an op counter:
//! no randomness, so a given plan produces the same fault sequence every
//! run.

use super::{ApplyOutcome, DeviceFilter, DirectUpdates};
use crate::error::{MetaError, Result};
use lexpress::{Image, TargetOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic fault schedule for one device.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Begin with the link down (device unreachable until
    /// [`FaultHandle::set_down`]`(false)`).
    pub start_down: bool,
    /// Go hard-down after this many applies (a mid-run outage). Fires once;
    /// the outage then persists until [`FaultHandle::set_down`]`(false)`.
    pub down_after: Option<u64>,
    /// Fail every Nth apply with a transient error (flaky link).
    pub error_every: Option<u64>,
    /// Silently drop the Nth apply exactly once: the device reports an
    /// unreachable error but never saw the op (tests lost-op accounting).
    pub drop_nth: Option<u64>,
    /// Added latency on every apply (slow link).
    pub latency: Option<Duration>,
}

impl FaultPlan {
    /// A plan that fails every `n`th apply transiently.
    pub fn flaky(n: u64) -> FaultPlan {
        FaultPlan {
            error_every: Some(n),
            ..FaultPlan::default()
        }
    }
}

/// Live control/observation handle onto a [`FaultInjector`] — lets a test
/// (or the experiment driver) raise and clear outages while the system
/// runs, and read how many faults actually fired.
#[derive(Debug, Default)]
pub struct FaultHandle {
    down: AtomicBool,
    ops_seen: AtomicU64,
    faults_injected: AtomicU64,
}

impl FaultHandle {
    /// Raise (`true`) or clear (`false`) a hard outage.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Is a hard outage currently active?
    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Faults injected so far (errors + drops, not latency).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::SeqCst)
    }
}

/// Decorator injecting faults per a [`FaultPlan`] into a real filter. The
/// contract is the one written on [`DeviceFilter`]: injected faults are its
/// link faults, everything else is the inner filter's answer.
pub struct FaultInjector {
    inner: Arc<dyn DeviceFilter>,
    plan: FaultPlan,
    handle: Arc<FaultHandle>,
    clock: Arc<dyn crate::obs::Clock>,
    dropped_once: AtomicBool,
    down_tripped: AtomicBool,
}

impl FaultInjector {
    pub(crate) fn new(inner: Arc<dyn DeviceFilter>, plan: FaultPlan) -> FaultInjector {
        let handle = Arc::new(FaultHandle::default());
        handle.set_down(plan.start_down);
        FaultInjector {
            inner,
            plan,
            handle,
            clock: crate::obs::SystemClock::new(),
            dropped_once: AtomicBool::new(false),
            down_tripped: AtomicBool::new(false),
        }
    }

    /// Use `clock` for injected latency: on a [`crate::obs::ManualClock`]
    /// the `latency` fault advances virtual time instead of really sleeping,
    /// so latency-fault tests run instantly and deterministically.
    pub(crate) fn with_clock(mut self, clock: Arc<dyn crate::obs::Clock>) -> FaultInjector {
        self.clock = clock;
        self
    }

    /// The control/observation handle (clone it out before boxing the
    /// injector as a `DeviceFilter`).
    pub(crate) fn handle(&self) -> Arc<FaultHandle> {
        self.handle.clone()
    }

    fn unreachable(&self, detail: &str) -> MetaError {
        self.handle.faults_injected.fetch_add(1, Ordering::SeqCst);
        MetaError::DeviceUnreachable {
            repository: self.inner.name().to_string(),
            detail: detail.to_string(),
        }
    }
}

impl DeviceFilter for FaultInjector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mapping_to_ldap(&self) -> &str {
        self.inner.mapping_to_ldap()
    }

    fn mapping_from_ldap(&self) -> &str {
        self.inner.mapping_from_ldap()
    }

    fn key_attr(&self) -> &str {
        self.inner.key_attr()
    }

    fn ldap_owned_attrs(&self) -> &[&str] {
        self.inner.ldap_owned_attrs()
    }

    fn ldap_presence_attr(&self) -> &str {
        self.inner.ldap_presence_attr()
    }

    fn apply(&self, op: &TargetOp) -> Result<ApplyOutcome> {
        let n = self.handle.ops_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(d) = self.plan.latency {
            self.clock.sleep(d);
        }
        if self.handle.is_down() {
            return Err(self.unreachable("link down"));
        }
        if let Some(after) = self.plan.down_after {
            if n > after && !self.down_tripped.swap(true, Ordering::SeqCst) {
                self.handle.set_down(true);
                return Err(self.unreachable("link went down"));
            }
        }
        if let Some(nth) = self.plan.drop_nth {
            if n == nth && !self.dropped_once.swap(true, Ordering::SeqCst) {
                // The op is swallowed: the device never sees it, the caller
                // sees a transient failure.
                return Err(self.unreachable("op dropped in transit"));
            }
        }
        if let Some(every) = self.plan.error_every {
            if every > 0 && n.is_multiple_of(every) {
                return Err(self.unreachable("transient fault"));
            }
        }
        self.inner.apply(op)
    }

    fn probe(&self) -> Result<()> {
        if self.handle.is_down() {
            return Err(MetaError::DeviceUnreachable {
                repository: self.inner.name().to_string(),
                detail: "link down".to_string(),
            });
        }
        self.inner.probe()
    }

    fn dump(&self) -> Vec<Image> {
        self.inner.dump()
    }

    fn subscribe(&self) -> DirectUpdates {
        self.inner.subscribe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexpress::OpKind;

    /// Minimal in-memory filter for decorator tests.
    struct Fake;

    impl DeviceFilter for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn mapping_to_ldap(&self) -> &str {
            "fake_to_ldap"
        }
        fn mapping_from_ldap(&self) -> &str {
            "ldap_to_fake"
        }
        fn key_attr(&self) -> &str {
            "Key"
        }
        fn ldap_owned_attrs(&self) -> &[&str] {
            &[]
        }
        fn ldap_presence_attr(&self) -> &str {
            "key"
        }
        fn apply(&self, _op: &TargetOp) -> Result<ApplyOutcome> {
            Ok(ApplyOutcome {
                applied: true,
                ..ApplyOutcome::default()
            })
        }
        fn probe(&self) -> Result<()> {
            Ok(())
        }
        fn dump(&self) -> Vec<Image> {
            Vec::new()
        }
        fn subscribe(&self) -> DirectUpdates {
            DirectUpdates::new(Arc::default(), |_| None)
        }
    }

    fn op() -> TargetOp {
        TargetOp {
            kind: OpKind::Add,
            conditional: false,
            old_key: None,
            new_key: Some("1".into()),
            attrs: Image::new(),
            old_attrs: Image::new(),
        }
    }

    #[test]
    fn hard_outage_fails_apply_and_probe_until_cleared() {
        let inj = FaultInjector::new(
            Arc::new(Fake),
            FaultPlan {
                start_down: true,
                ..FaultPlan::default()
            },
        );
        let h = inj.handle();
        let err = inj.apply(&op()).unwrap_err();
        assert!(err.is_transient());
        assert!(inj.probe().is_err());
        h.set_down(false);
        assert!(inj.apply(&op()).is_ok());
        assert!(inj.probe().is_ok());
        assert_eq!(h.faults_injected(), 1);
    }

    #[test]
    fn error_every_is_deterministic() {
        let inj = FaultInjector::new(Arc::new(Fake), FaultPlan::flaky(3));
        let results: Vec<bool> = (0..9).map(|_| inj.apply(&op()).is_ok()).collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn drop_nth_fires_exactly_once() {
        let inj = FaultInjector::new(
            Arc::new(Fake),
            FaultPlan {
                drop_nth: Some(2),
                ..FaultPlan::default()
            },
        );
        assert!(inj.apply(&op()).is_ok());
        assert!(inj.apply(&op()).is_err());
        for _ in 0..5 {
            assert!(inj.apply(&op()).is_ok());
        }
    }

    #[test]
    fn down_after_trips_mid_run() {
        let inj = FaultInjector::new(
            Arc::new(Fake),
            FaultPlan {
                down_after: Some(2),
                ..FaultPlan::default()
            },
        );
        let h = inj.handle();
        assert!(inj.apply(&op()).is_ok());
        assert!(inj.apply(&op()).is_ok());
        assert!(inj.apply(&op()).is_err());
        assert!(h.is_down());
        assert!(inj.apply(&op()).is_err());
        h.set_down(false);
        // The trip is one-shot: once the outage is cleared the link stays up.
        assert!(inj.apply(&op()).is_ok());
    }
}
