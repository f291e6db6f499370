//! Dependency-free observability: counters, gauges, log-bucketed latency
//! histograms, per-update tracing spans, an injectable clock, and the
//! live `cn=monitor` LDAP subtree.
//!
//! Layout:
//! - `metrics` — the atomic primitives ([`Counter`], callback gauges,
//!   [`Histogram`] with p50/p95/p99 snapshots);
//! - `registry` — [`Registry`]: named components aggregating metrics per
//!   subsystem;
//! - `span` — [`Span`], the stage timer the Update Manager runs per
//!   trapped update;
//! - `clock` — [`SystemClock`] in production, [`ManualClock`] in tests
//!   (deterministic latencies, virtual fault-injector delays);
//! - `monitor` — [`MonitorDirectory`], materializing the registry as a
//!   read-only `cn=monitor` subtree searchable by any LDAP client.
//!
//! Component naming inside a [`crate::MetaComm`] deployment: `um` (the
//! coordinator), one `device-<name>` per device filter, `relay` (DDU
//! relays), `ltap` (gateway), `dit` (the directory's resident bytes by
//! structure), and `server` (wire protocol, registered when
//! [`crate::MetaComm::serve`] starts).

mod clock;
mod metrics;
mod monitor;
mod registry;
mod span;

pub use clock::{Clock, ManualClock, SystemClock};
pub use metrics::{bucket_upper, Counter, Histogram, HistogramSnapshot, BUCKETS};
pub use monitor::MonitorDirectory;
pub use registry::{Component, ComponentSnapshot, Registry, RegistrySnapshot};
pub use span::Span;

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

/// Mirror the long-standing [`crate::UmStats`] atomics into the `um`
/// component as callback gauges — one source of truth, zero double counting.
pub(crate) fn mirror_um_stats(registry: &Registry, stats: &Arc<crate::um::UmStats>) {
    use std::sync::atomic::Ordering;
    let um = registry.component("um");
    macro_rules! mirror {
        ($name:literal, $field:ident) => {
            let s = stats.clone();
            um.gauge_callback($name, move || s.$field.load(Ordering::Relaxed) as i64);
        };
    }
    mirror!("updates", updates);
    mirror!("deviceOps", device_ops);
    mirror!("reapplied", reapplied);
    mirror!("skipped", skipped);
    mirror!("generatedMerges", generated_merges);
    mirror!("errors", errors);
    mirror!("undone", undone);
    mirror!("retried", retried);
    mirror!("queued", queued);
    mirror!("breakerTrips", breaker_trips);
    mirror!("journalDrained", journal_drained);
    mirror!("fullResyncs", full_resyncs);
}

/// Register the directory's at-rest byte counts ([`ldap::Footprint`]) as
/// the `dit` component: "which structure holds the bytes?" answered from
/// `cn=monitor`. The counts come from a walk of the tree, so one walk
/// serves every gauge of a monitor read and is redone only once the tree
/// has committed since.
pub(crate) fn mirror_dit_footprint(registry: &Registry, dit: &Arc<ldap::Dit>) {
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

/// Mirror the DDU [`crate::ddu::RelayStats`] into the `relay` component.
pub(crate) fn mirror_relay_stats(registry: &Registry, stats: &Arc<crate::ddu::RelayStats>) {
    use std::sync::atomic::Ordering;
    let relay = registry.component("relay");
    macro_rules! mirror {
        ($name:literal, $field:ident) => {
            let s = stats.clone();
            relay.gauge_callback($name, move || s.$field.load(Ordering::Relaxed) as i64);
        };
    }
    mirror!("ddus", ddus);
    mirror!("opsSent", ops_sent);
    mirror!("renamePairs", rename_pairs);
    mirror!("errors", errors);
    mirror!("injectedCrashes", injected_crashes);
    mirror!("retried", retried);
}

/// Mirror the LTAP gateway's [`ltap::Stats`] (counts and cumulative
/// latencies) into the `ltap` component.
pub(crate) fn mirror_gateway_stats(registry: &Registry, gateway: &Arc<ltap::Gateway>) {
    use std::sync::atomic::Ordering;
    let comp = registry.component("ltap");
    macro_rules! mirror {
        ($name:literal, $field:ident) => {
            let gw = gateway.clone();
            comp.gauge_callback($name, move || {
                gw.stats().$field.load(Ordering::Relaxed) as i64
            });
        };
    }
    mirror!("reads", reads);
    mirror!("updates", updates);
    mirror!("triggersFired", triggers_fired);
    mirror!("vetoed", vetoed);
    mirror!("handledByTrigger", handled_by_trigger);
    mirror!("updateNsTotal", update_ns);
    mirror!("readNsTotal", read_ns);
}

/// Result codes tallied individually on the `server` component; anything
/// else lands in `resultCodeOther`. Fixed so the `cn=monitor` entry shape
/// is deterministic.
pub(crate) const TALLIED_RESULT_CODES: &[u32] = &[0, 32, 49, 52, 53, 68, 80];

/// Register the wire server's per-operation metrics as the `server`
/// component (called when [`crate::MetaComm::serve`] starts; idempotent).
pub(crate) fn mirror_server_metrics(
    registry: &Registry,
    metrics: &Arc<ldap::server::ServerMetrics>,
) {
    use std::sync::atomic::Ordering;
    let comp = registry.component("server");
    macro_rules! mirror {
        ($name:literal, $field:ident) => {
            let m = metrics.clone();
            comp.gauge_callback($name, move || m.$field.load(Ordering::Relaxed) as i64);
        };
    }
    mirror!("binds", binds);
    mirror!("searches", searches);
    mirror!("compares", compares);
    mirror!("adds", adds);
    mirror!("modifies", modifies);
    mirror!("modifyDns", modify_dns);
    mirror!("deletes", deletes);
    mirror!("unbinds", unbinds);
    mirror!("decodeFailures", decode_failures);
    mirror!("entriesReturned", entries_returned);
    mirror!("connectionsOpen", connections_open);
    mirror!("connectionsTotal", connections_total);
    mirror!("disconnectNotices", disconnect_notices);
    mirror!("disconnectIdle", disconnect_idle);
    mirror!("acceptPauses", accept_pauses);
    for &code in TALLIED_RESULT_CODES {
        let m = metrics.clone();
        comp.gauge_callback(&format!("resultCode{code}"), move || {
            m.result_code_count(code) as i64
        });
    }
    let m = metrics.clone();
    comp.gauge_callback("resultCodeOther", move || {
        m.result_code_other(TALLIED_RESULT_CODES) as i64
    });
}
