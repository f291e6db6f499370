//! Observability for a deployment: the leaf [`obs`] crate's
//! counters, gauges, log-linear latency histograms, spans and injectable
//! clock, re-exported here, plus the live `cn=monitor` LDAP subtree.
//!
//! - [`MonitorDirectory`] materializes the registry as a read-only
//!   `cn=monitor` subtree searchable by any LDAP client (it lives here, not
//!   in `obs`, because it implements [`ldap::Directory`]);
//! - `UmObs` / `DeviceObs` are the coordinator's and each device's
//!   pre-resolved handles.
//!
//! Component naming inside a [`crate::MetaComm`] deployment: `um` (the
//! coordinator), one `device-<name>` per device filter, `relay` (DDU
//! relays), `ltap` (gateway), `dit` (the directory's resident bytes by
//! structure), `durability` (the WAL and checkpoints, when persistent),
//! and `server` (wire protocol, adopted when [`crate::MetaComm::serve`]
//! starts). The gateway, the WAL and the wire server start on their own,
//! so each owns its component and the deployment adopts it.

mod monitor;

pub use ::obs::{
    bucket_upper, Clock, Component, ComponentSnapshot, Counter, Histogram, HistogramSnapshot,
    ManualClock, Registry, RegistrySnapshot, Span, SystemClock, BUCKETS,
};
pub use monitor::MonitorDirectory;

use std::sync::Arc;

/// Pre-resolved Update Manager instrumentation: the coordinator is the
/// hottest path in the system, so its metrics are looked up once at build
/// time, never per update.
pub(crate) struct UmObs {
    pub clock: Arc<dyn Clock>,
    /// Total latency of successful updates.
    pub update: Arc<Histogram>,
    /// Total latency of aborted updates (the §4.4 abort path).
    pub abort: Arc<Histogram>,
    /// Queue wait: trap enqueue → coordinator pickup (lock + WBA/LTAP
    /// acquisition happens before the trap, queue acquisition after).
    pub acquire: Arc<Histogram>,
    /// Transitive-closure (hub rules) stage.
    pub closure: Arc<Histogram>,
    /// lexpress translation stage, summed over device filters.
    pub translate: Arc<Histogram>,
    /// Final directory commit stage.
    pub commit: Arc<Histogram>,
}

impl UmObs {
    pub(crate) fn install(registry: &Registry) -> Arc<UmObs> {
        let um = registry.component("um");
        Arc::new(UmObs {
            clock: registry.clock(),
            update: um.histogram("update"),
            abort: um.histogram("abort"),
            acquire: um.histogram("acquire"),
            closure: um.histogram("closure"),
            translate: um.histogram("translate"),
            commit: um.histogram("commit"),
        })
    }
}

/// Per-device instrumentation, carried by the device's
/// [`crate::resilience::DeviceRuntime`]: the UM coordinator records live
/// applies through it, the resilience layer journal, breaker and drains.
pub(crate) struct DeviceObs {
    pub clock: Arc<dyn Clock>,
    /// Live filter-apply latency (includes retries).
    pub apply: Arc<Histogram>,
    /// Reapply latency during journal drains (the §5.4 conditional path).
    pub reapply: Arc<Histogram>,
    /// Successful applies.
    pub applies: Arc<Counter>,
    /// Post-retry apply failures.
    pub failures: Arc<Counter>,
    /// Ops journaled during outages.
    pub queued: Arc<Counter>,
    /// Ops reapplied by journal drains.
    pub drained: Arc<Counter>,
    /// Breaker openings (device went offline).
    pub breaker_trips: Arc<Counter>,
    /// Full resynchronizations after journal overflow.
    pub resyncs: Arc<Counter>,
}

impl DeviceObs {
    pub(crate) fn install(registry: &Registry, device: &str) -> Arc<DeviceObs> {
        let c = registry.component(&format!("device-{device}"));
        Arc::new(DeviceObs {
            clock: registry.clock(),
            apply: c.histogram("apply"),
            reapply: c.histogram("reapply"),
            applies: c.counter("applies"),
            failures: c.counter("failures"),
            queued: c.counter("queuedTotal"),
            drained: c.counter("drainedTotal"),
            breaker_trips: c.counter("breakerTrips"),
            resyncs: c.counter("fullResyncs"),
        })
    }
}

/// Register the directory's at-rest byte counts ([`ldap::Footprint`]) as
/// the `dit` component: "which structure holds the bytes?" answered from
/// `cn=monitor`. The counts come from a walk of the tree, so one walk
/// serves every gauge of a monitor read and is redone only once the tree
/// has committed since.
pub(crate) fn register_dit_footprint(registry: &Registry, dit: &Arc<ldap::Dit>) {
    let comp = registry.component("dit");
    // Weak: the registry outlives a shut-down deployment in its server.
    let dit = Arc::downgrade(dit);
    let last: Arc<parking_lot::Mutex<Option<(u64, ldap::Footprint)>>> = Arc::default();
    let read = move || -> ldap::Footprint {
        let Some(dit) = dit.upgrade() else {
            return ldap::Footprint::default();
        };
        let seq = dit.seq();
        let mut last = last.lock();
        match *last {
            Some((at, fp)) if at == seq => fp,
            _ => {
                let fp = dit.footprint();
                *last = Some((seq, fp));
                fp
            }
        }
    };
    let r = read.clone();
    comp.gauge_callback("entries", move || r().entries as i64);
    for (i, (name, _)) in ldap::Footprint::default().rows().into_iter().enumerate() {
        let r = read.clone();
        comp.gauge_callback(name, move || r().rows()[i].1 as i64);
    }
}
