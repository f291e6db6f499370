//! # metacomm — a meta-directory for telecommunications
//!
//! The primary contribution of Freire et al., "MetaComm: A Meta-Directory
//! for Telecommunications" (ICDE 2000), reconstructed in Rust: a data
//! integration system that materializes user data from legacy telecom
//! devices into an LDAP directory and keeps every repository convergent
//! under updates arriving at *any* of them — with no triggers, weak typing,
//! and single-object atomicity in the underlying systems.
//!
//! ```
//! use metacomm::MetaCommBuilder;
//! use pbx::{DialPlan, Store as PbxStore, Channel};
//! use std::sync::Arc;
//!
//! // One switch owning extensions 9xxx, integrated under o=Lucent.
//! let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("9", 4)));
//! let system = MetaCommBuilder::new("o=Lucent")
//!     .add_pbx(switch.clone(), "9???")
//!     .build()
//!     .unwrap();
//!
//! // Administer through the directory (any LDAP tool would do):
//! let wba = system.wba();
//! wba.add_person_with_extension("John Doe", "Doe", "9123", "2B-401").unwrap();
//!
//! // The station appeared on the switch:
//! assert!(switch.get("9123").is_some());
//! system.shutdown();
//! ```
//!
//! The architecture mirrors the paper's Figure 1: LDAP clients reach the
//! directory through the LTAP trigger gateway; the Update Manager traps
//! every update, runs the lexpress transitive closure, fans translated
//! operations out to the device [`filter`]s (conditionally, when the
//! target originated the update), folds device-generated information back
//! in, and finally applies the augmented update to the LDAP server.
//! Direct device updates flow the other way through the DDU relay.

#![warn(unreachable_pub)]

mod ddu;
mod durability;
mod error;
mod errorlog;
pub mod filter;
pub mod image;
pub mod obs;
mod resilience;
pub mod schema;
pub mod sync;
pub mod um;
mod wba;

pub use durability::RecoveryReport;
pub use error::{MetaError, Result};
pub use errorlog::{AdminAlert, ErrorLog};
pub use filter::fault::{FaultHandle, FaultInjector, FaultPlan};
pub use filter::{ApplyOutcome, DeviceFilter};
pub use ldap::FsyncPolicy;
pub use obs::{
    Clock, HistogramSnapshot, ManualClock, MonitorDirectory, Registry, RegistrySnapshot,
    SystemClock,
};
pub use resilience::{
    BreakerPolicy, Device, DeviceHealth, HealthState, RecoveryOutcome, RetryPolicy,
};
pub use sync::SyncReport;
pub use um::{DeviceTotal, UmStats, UpdateTrace};
pub use wba::Wba;

use crate::ddu::{Backlog, Relay, RelayStats};
use crate::durability::Durability;
use crate::resilience::{Background, DeviceRuntime, RecoveryCtx};
use crate::um::Shared;
use ldap::dn::Dn;
use ldap::entry::Entry;
use ldap::{Directory, Filter as LdapFilter};
use lexpress::{library, Closure, Engine};
use ltap::{Gateway, SecurityPolicy, TriggerSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, LockResult, Mutex, PoisonError};

/// How long [`MetaComm::settle`] waits for the relays to catch up.
const SETTLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// A `std::sync` lock's guard, poisoned or not (as a holder that panicked left it).
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Configures and assembles a MetaComm deployment.
pub struct MetaCommBuilder {
    suffix: String,
    pbxes: Vec<(Arc<pbx::Store>, String)>,
    msgplats: Vec<(Arc<msgplat::Store>, String)>,
    extra_mappings: Vec<String>,
    hub_rules: bool,
    saga: bool,
    persist_dir: Option<std::path::PathBuf>,
    fsync_policy: FsyncPolicy,
    security: Option<SecurityPolicy>,
    file_errors: Vec<String>,
    retry: RetryPolicy,
    breaker: BreakerPolicy,
    fault_plans: HashMap<String, FaultPlan>,
    clock: Option<Arc<dyn Clock>>,
    indexed_attrs: Option<Vec<String>>,
    idle_timeout: Option<std::time::Duration>,
}

impl MetaCommBuilder {
    /// A deployment rooted at `suffix` (e.g. `o=Lucent`).
    pub fn new(suffix: &str) -> MetaCommBuilder {
        MetaCommBuilder {
            suffix: suffix.to_string(),
            pbxes: Vec::new(),
            msgplats: Vec::new(),
            extra_mappings: Vec::new(),
            hub_rules: true,
            saga: false,
            persist_dir: None,
            fsync_policy: FsyncPolicy::default(),
            security: None,
            file_errors: Vec::new(),
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            fault_plans: HashMap::new(),
            clock: None,
            indexed_attrs: None,
            idle_timeout: None,
        }
    }

    /// Maintain equality indexes on the given attributes in the directory
    /// server, serving equality (and AND-with-equality) searches without a
    /// subtree scan. Defaults to [`ldap::dit::DEFAULT_INDEXED_ATTRS`]
    /// (`objectClass`, `cn`, `telephoneNumber`, `lastUpdater`); pass an
    /// empty list to disable indexing entirely (the scan-only ablation).
    pub fn with_indexed_attrs<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.indexed_attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// When this deployment is [served over TCP](MetaComm::serve), drop
    /// wire connections that stay idle (no socket activity and no work in
    /// flight) for `timeout`, counting each eviction in `cn=monitor`'s
    /// `disconnectIdle`. Off by default — idle clients are kept forever.
    pub fn with_idle_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Use `clock` for every latency measurement (span stages, histograms)
    /// and for injected fault latency. Defaults to the real monotonic
    /// [`SystemClock`]; tests pass a [`ManualClock`] for deterministic
    /// timings.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Integrate a PBX owning the extensions matched by `ext_glob`
    /// (e.g. `"9???"`).
    pub fn add_pbx(mut self, store: Arc<pbx::Store>, ext_glob: &str) -> Self {
        self.pbxes.push((store, ext_glob.to_string()));
        self
    }

    /// Integrate a messaging platform owning mailboxes matched by `mbx_glob`.
    pub fn add_msgplat(mut self, store: Arc<msgplat::Store>, mbx_glob: &str) -> Self {
        self.msgplats.push((store, mbx_glob.to_string()));
        self
    }

    /// Load an additional lexpress description *file* into the engine
    /// (read/compile errors surface at [`MetaCommBuilder::build`]).
    pub fn with_mapping_file(mut self, path: impl AsRef<std::path::Path>) -> Self {
        match std::fs::read_to_string(path.as_ref()) {
            Ok(src) => self.extra_mappings.push(src),
            Err(e) => self.file_errors.push(format!(
                "cannot read mapping file {}: {e}",
                path.as_ref().display()
            )),
        }
        self
    }

    /// Disable the intra-directory dependency (transitive-closure hub)
    /// rules — the closure ablation of E11 in `tests/paper_claims.rs`.
    pub fn without_hub_rules(mut self) -> Self {
        self.hub_rules = false;
        self
    }

    /// Attempt saga-style compensation of already-applied device operations
    /// when a later one fails (the paper's planned "later version").
    pub fn with_saga_undo(mut self) -> Self {
        self.saga = true;
        self
    }

    /// Install the simple LTAP-based security model (paper §7): a
    /// declarative policy compiled into a vetoing before-trigger that runs
    /// ahead of the Update Manager. MetaComm's own device relays (tagged
    /// persistent connections) are exempt.
    pub fn with_security(mut self, policy: SecurityPolicy) -> Self {
        self.security = Some(policy);
        self
    }

    /// Bounded retry with exponential backoff for transient device faults
    /// (both device-apply paths: the UM coordinator and the DDU relays).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Per-device circuit-breaker thresholds and recovery-probe interval.
    pub fn with_breaker_policy(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = breaker;
        self
    }

    /// Wrap the named device's filter in a [`FaultInjector`] following
    /// `plan` — deterministic outages/errors/latency for resilience tests
    /// and the outage experiment. Control the injected outage at runtime
    /// through [`MetaComm::fault_handle`].
    pub fn with_fault_plan(mut self, device: &str, plan: FaultPlan) -> Self {
        self.fault_plans.insert(device.to_string(), plan);
        self
    }

    /// Make the whole deployment crash-safe: recover state from `dir` at
    /// build time (newest valid snapshot + write-ahead log; a device left
    /// stale by an outage restarts offline and resyncs), checkpoint, and
    /// log every commit from then on — the "backups" half of the paper's
    /// §2 availability story, extended to survive `kill -9`. See [`MetaCommBuilder::with_fsync_policy`] for
    /// the durability/throughput trade-off.
    pub fn with_durability(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// When (and how) write-ahead-log appends reach stable storage:
    /// [`FsyncPolicy::Group`] (default) makes every append durable before
    /// it returns, concurrent commits sharing one fsync, and
    /// [`FsyncPolicy::Never`] trades machine-crash safety for speed (a
    /// process crash still loses nothing).
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }

    /// Assemble and start the system.
    pub fn build(self) -> Result<MetaComm> {
        if let Some(err) = self.file_errors.first() {
            return Err(MetaError::Unavailable(err.clone()));
        }
        let suffix = Dn::parse(&self.suffix)?;
        // The directory server, schema-checked, with equality indexes on
        // the hot search attributes (a knob for the scan-only ablation).
        let schema = Arc::new(schema::integrated_schema());
        let dit = match &self.indexed_attrs {
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                ldap::Dit::with_schema_indexed(schema, &refs)
            }
            None => ldap::Dit::with_schema(schema),
        };
        // Durable deployments recover the previous state before anything
        // else touches the tree, then attach the WAL observer so every
        // commit from here on (starting with the suffix entry) is logged.
        let durability = match &self.persist_dir {
            Some(dir) => {
                let (dur, marks) = Durability::open(dir, self.fsync_policy, &dit)?;
                dur.attach(&dit);
                Some((dur, marks))
            }
            None => None,
        };
        if !ldap::Dit::exists(&dit, &suffix) {
            let suffix_name = suffix
                .rdn()
                .map(|r| r.first().value().to_string())
                .unwrap_or_else(|| "root".into());
            let mut org = Entry::new(suffix.clone());
            org.add_value("objectClass", "top");
            org.add_value("objectClass", "organization");
            org.add_value("o", suffix_name);
            ldap::Dit::add(&dit, org)?;
        }

        // Mapping engine (one compile unit per description file, absorbed
        // into one engine — the runtime-loading path of §4.2).
        let mut engine = Engine::default();
        for (store, glob) in &self.pbxes {
            engine.load(&library::pbx_mappings(store.name(), glob, &self.suffix))?;
        }
        for (store, glob) in &self.msgplats {
            engine.load(&library::msgplat_mappings(store.name(), glob, &self.suffix))?;
        }
        for src in &self.extra_mappings {
            engine.load(src)?;
        }
        let engine = Arc::new(engine);
        let closure = Arc::new(if self.hub_rules {
            Closure::from_source(&library::hub_rules())?
        } else {
            Closure::from_source("")?
        });

        // Error log lives in the directory itself.
        let errorlog = Arc::new(ErrorLog::install(dit.as_ref(), &suffix)?);

        // The metrics registry every component reports into, on the
        // deployment clock.
        let registry = Registry::new(
            self.clock
                .unwrap_or_else(|| SystemClock::new() as Arc<dyn Clock>),
        );
        if let Some((dur, _)) = &durability {
            // WAL write failures now alert through the error log (§4.4) and
            // the durability gauges appear under cn=monitor.
            dur.set_error_log(errorlog.clone(), dit.clone() as Arc<dyn Directory>);
            dur.register_metrics(&registry);
        }
        obs::register_dit_footprint(&registry, &dit);

        // Filters: protocol converter + mapper per repository, switches
        // first. A filter with a fault plan gets the FaultInjector decorator.
        let mut fault_handles: HashMap<String, Arc<FaultHandle>> = HashMap::new();
        let switches = self.pbxes.iter().map(|(s, _)| filter::for_pbx(s.clone()));
        let platforms = self
            .msgplats
            .iter()
            .map(|(s, _)| filter::for_msgplat(s.clone()));
        let filters: Vec<Arc<dyn DeviceFilter>> = switches
            .chain(platforms)
            .map(|f| match self.fault_plans.get(f.name()) {
                Some(plan) => {
                    let inj = FaultInjector::new(f, plan.clone()).with_clock(registry.clock());
                    fault_handles.insert(inj.name().to_string(), inj.handle());
                    Arc::new(inj) as Arc<dyn DeviceFilter>
                }
                None => f,
            })
            .collect();

        // LTAP gateway in front of the directory.
        let gateway = Gateway::new(dit.clone());

        // The security policy vetoes ahead of the Update Manager.
        if let Some(policy) = self.security {
            gateway.register(
                TriggerSpec::all_updates("metacomm-security", suffix.clone()),
                policy.into_handler(),
            );
        }

        // The Update Manager: trap every person update under the suffix.
        // Pre-resolve the coordinator's metrics once.
        let um_obs = obs::UmObs::install(&registry);
        // The one list of integrated repositories: each filter with its
        // breaker runtime, shared between the coordinator (records outcomes,
        // skips an offline device), the recovery monitor (probes and
        // resyncs), checkpoints and this handle.
        let devices: Arc<[Device]> = filters
            .into_iter()
            .map(|filter| Device {
                runtime: DeviceRuntime::new(
                    filter.name(),
                    self.breaker.clone(),
                    errorlog.clone(),
                    dit.clone() as Arc<dyn Directory>,
                    obs::DeviceObs::install(&registry, filter.name()),
                    durability.as_ref().map(|(dur, _)| dur.clone()),
                ),
                filter,
            })
            .collect();
        if let Some((dur, marks)) = &durability {
            // Hand each device its recovered mark (a stale one restarts
            // Offline and the monitor resyncs it). The boot checkpoint
            // makes the recovered state the new baseline: fresh segment
            // with re-logged marks, fresh snapshot, old generations pruned.
            for Device { runtime, .. } in devices.iter() {
                if let Some(mark) = marks.get(runtime.name()) {
                    runtime.restore_mark(*mark);
                }
            }
            dur.checkpoint(&dit, &devices)?;
        }
        // Live per-device gauges read straight off the runtimes.
        for Device { runtime, .. } in devices.iter() {
            let comp = registry.component(&format!("device-{}", runtime.name()));
            let r = runtime.clone();
            comp.gauge_callback("consecutiveFailures", move || {
                r.health().consecutive_failures as i64
            });
            let r = runtime.clone();
            comp.gauge_callback("droppedOps", move || r.health().dropped_ops as i64);
        }
        let um_stats = UmStats::install(&registry, &devices);
        // Global update sequence counter, shared with the relays so every
        // error-log entry carries a real monotonic sequence number.
        let seq = Arc::new(AtomicU64::new(1));
        let um = Arc::new(Shared {
            inner: dit.clone() as Arc<dyn Directory>,
            engine: engine.clone(),
            closure,
            devices: devices.clone(),
            errorlog: errorlog.clone(),
            stats: um_stats.clone(),
            saga: self.saga,
            traces: Mutex::new(std::collections::VecDeque::with_capacity(
                um::TRACE_CAPACITY,
            )),
            retry: self.retry.clone(),
            seq: seq.clone(),
            obs: um_obs,
            closing: AtomicBool::new(false),
        });
        gateway.register(
            TriggerSpec::all_updates("metacomm-um", suffix.clone())
                .with_filter(LdapFilter::eq("objectClass", "person")),
            um::handler(um.clone()),
        );
        // Group-commit barrier: WAL appends on the commit path are async
        // (updates never park in fsync); this after-trigger makes the
        // *client* wait until its records are on stable storage before its
        // update call returns — every acknowledged update is durable.
        if let Some((dur, _)) = &durability {
            let dur = dur.clone();
            gateway.register(
                TriggerSpec::all_updates("metacomm-durability", suffix.clone()).after(),
                Arc::new(move |_ctx: &ltap::TriggerContext<'_>| {
                    dur.commit_barrier();
                    Ok(ltap::Disposition::Proceed)
                }),
            );
        }

        // DDU relays.
        let relay_stats = RelayStats::install(&registry);
        let crash_between_pair = Arc::new(AtomicBool::new(false));
        let mut background = Background::default();
        let backlog = Arc::new(Backlog::default());
        Relay {
            gateway: gateway.clone(),
            engine: engine.clone(),
            errorlog: errorlog.clone(),
            stats: relay_stats.clone(),
            crash_between_pair: crash_between_pair.clone(),
            seq,
            retry: self.retry.clone(),
            ddu_hist: registry.component("relay").histogram("ddu"),
            clock: registry.clock(),
            backlog: backlog.clone(),
        }
        .spawn(&devices, &mut background);
        registry.adopt(gateway.stats().component().clone());

        // Recovery monitor: every probe interval, probes non-Up devices and
        // resyncs an offline one that answers from the directory, backing
        // off from one whose resyncs keep failing.
        let recovery = Arc::new(RecoveryCtx {
            gateway: gateway.clone(),
            engine: engine.clone(),
            suffix: suffix.clone(),
            errorlog: errorlog.clone(),
            stats: um_stats.clone(),
            retry: self.retry,
        });
        let (ctx, monitored) = (recovery.clone(), devices.clone());
        let interval = self.breaker.probe_interval;
        background.spawn("device-recovery-monitor".into(), move |stopped| {
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                let now = std::time::Instant::now();
                for device in monitored.iter().filter(|d| d.runtime.probe_due(now)) {
                    let _ = resilience::attempt_recovery(&ctx, device);
                }
            }
        });

        Ok(MetaComm {
            dit,
            gateway,
            engine,
            devices,
            errorlog,
            um,
            um_stats,
            background: Mutex::new(background),
            backlog,
            relay_stats,
            suffix,
            crash_between_pair,
            durability: durability.map(|(dur, _)| dur),
            recovery,
            fault_handles,
            registry,
            idle_timeout: self.idle_timeout,
        })
    }
}

/// A running MetaComm deployment.
pub struct MetaComm {
    dit: Arc<ldap::Dit>,
    gateway: Arc<Gateway>,
    engine: Arc<Engine>,
    devices: Arc<[Device]>,
    errorlog: Arc<ErrorLog>,
    /// The Update Manager's state, shared with its trigger handler.
    um: Arc<Shared>,
    um_stats: Arc<UmStats>,
    /// The DDU relays and the recovery monitor.
    background: Mutex<Background>,
    /// Each relay's standing against its device's feed.
    backlog: Arc<Backlog>,
    relay_stats: Arc<RelayStats>,
    suffix: Dn,
    crash_between_pair: Arc<AtomicBool>,
    durability: Option<Arc<Durability>>,
    /// What recovery reads, shared with the recovery monitor.
    recovery: Arc<RecoveryCtx>,
    fault_handles: HashMap<String, Arc<FaultHandle>>,
    registry: Arc<Registry>,
    idle_timeout: Option<std::time::Duration>,
}

impl MetaComm {
    /// The client-facing directory: the LTAP gateway (library mode).
    /// Everything written here flows through the Update Manager.
    pub fn directory(&self) -> Arc<Gateway> {
        self.gateway.clone()
    }

    /// The raw directory server behind the gateway (inspection only —
    /// writing here bypasses MetaComm).
    pub fn dit(&self) -> Arc<ldap::Dit> {
        self.dit.clone()
    }

    /// The suffix the deployment is rooted at.
    pub fn suffix(&self) -> &Dn {
        &self.suffix
    }

    /// A Web-Based-Administration front-end over the gateway.
    pub fn wba(&self) -> Wba<Arc<Gateway>> {
        Wba::new(self.gateway.clone(), self.suffix.clone())
    }

    /// Serve the gateway over TCP (the §5.5 network-gateway deployment);
    /// any LDAP client can now administer the telecom devices — and browse
    /// live metrics under the read-only `cn=monitor` subtree. The wire
    /// server's own `server` component, its per-operation counters, joins
    /// the registry.
    pub fn serve(&self, addr: &str) -> ldap::Result<ldap::server::Server> {
        let fronted = MonitorDirectory::new(self.gateway.clone(), self.registry.clone());
        let mut builder = ldap::server::Server::builder();
        if let Some(t) = self.idle_timeout {
            builder = builder.with_idle_timeout(t);
        }
        let server = builder.start(fronted, addr)?;
        self.registry.adopt(server.metrics().component().clone());
        Ok(server)
    }

    /// The live metrics registry (also served as `cn=monitor`).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time snapshot of every metric in the deployment.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The integrated repository named `name`.
    pub fn device(&self, name: &str) -> Result<&Device> {
        let found = self.devices.iter().find(|d| d.filter.name() == name);
        found.ok_or_else(|| MetaError::Unavailable(format!("no device `{name}`")))
    }

    /// The mapping engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn um_stats(&self) -> &Arc<UmStats> {
        &self.um_stats
    }

    /// Recent per-update traces from the Update Manager (oldest first) —
    /// "why did my update (not) reach the switch?".
    pub fn recent_traces(&self) -> Vec<um::UpdateTrace> {
        unpoison(self.um.traces.lock()).iter().cloned().collect()
    }

    pub fn relay_stats(&self) -> &Arc<RelayStats> {
        &self.relay_stats
    }

    /// Subscribe to administrator alerts (§4.4 failure notifications).
    pub fn alerts(&self) -> std::sync::mpsc::Receiver<AdminAlert> {
        self.errorlog.subscribe()
    }

    /// Browse errors logged into the directory.
    pub fn browse_errors(&self) -> ldap::Result<Vec<Entry>> {
        self.errorlog.browse(self.dit.as_ref())
    }

    /// Synchronize the directory with one device (recovery after
    /// disconnection; §4.4). Runs in isolation under LTAP quiesce.
    pub fn synchronize_device(&self, name: &str) -> Result<SyncReport> {
        self.synchronize(&self.device(name)?.filter)
    }

    fn synchronize(&self, filter: &Arc<dyn DeviceFilter>) -> Result<SyncReport> {
        sync::synchronize_device(
            &self.gateway,
            &self.engine,
            filter,
            &self.suffix,
            Some(&self.errorlog),
        )
    }

    /// Reapply the directory's materialization onto one device — the
    /// inverse of [`MetaComm::synchronize_device`], used when a device
    /// missed updates while unreachable (outage recovery).
    pub fn resynchronize_device_from_directory(&self, name: &str) -> Result<SyncReport> {
        sync::resynchronize_device_from_directory(
            &self.gateway,
            &self.engine,
            &self.device(name)?.filter,
            &self.suffix,
            Some(&self.errorlog),
            &self.recovery.retry,
            &self.um_stats,
        )
    }

    /// Initial load / full resynchronization across every device.
    pub fn synchronize_all(&self) -> Result<SyncReport> {
        let mut total = SyncReport::default();
        for device in self.devices.iter() {
            total.merge(&self.synchronize(&device.filter)?);
        }
        Ok(total)
    }

    /// Arm the E8 fault injection: the next DDU that produces a
    /// ModifyRDN+Modify pair "crashes" between the two operations.
    pub fn inject_crash_between_pair(&self) {
        self.crash_between_pair.store(true, Ordering::SeqCst);
    }

    /// Health snapshot for one device (breaker state, consecutive failures,
    /// skipped legs, last error).
    pub fn device_health(&self, name: &str) -> Option<DeviceHealth> {
        self.device(name).ok().map(|d| d.runtime.health())
    }

    /// The fault-injection control handle for a device configured with
    /// [`MetaCommBuilder::with_fault_plan`].
    pub fn fault_handle(&self, name: &str) -> Option<Arc<FaultHandle>> {
        self.fault_handles.get(name).cloned()
    }

    /// Probe one device synchronously and run recovery if it answers: an
    /// offline (or restarted stale) device is resynchronized from the
    /// directory under the §5.1 quiesce. The background monitor does the
    /// same thing on its probe interval; this entry point makes recovery
    /// deterministic for tests and experiments.
    pub fn probe_device(&self, name: &str) -> Result<RecoveryOutcome> {
        resilience::attempt_recovery(&self.recovery, self.device(name)?)
    }

    /// Checkpoint a durable deployment: rotate to a fresh WAL segment,
    /// re-log each device's stale/clean mark, write a new checksummed
    /// snapshot, and prune old generations (bounding recovery time). No-op
    /// without durability.
    pub fn checkpoint(&self) -> Result<()> {
        if let Some(dur) = &self.durability {
            dur.checkpoint(&self.dit, &self.devices)?;
        }
        Ok(())
    }

    /// What recovery-on-boot found and replayed, for a deployment built
    /// with [`MetaCommBuilder::with_durability`] over an existing state
    /// directory. `None` without durability.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durability.as_ref().map(|d| d.report().clone())
    }

    /// Wait until the pipeline is quiet: every relay has finished every
    /// direct device update its device has fed it, and no update is under
    /// way. Used by tests, the rigs and the benchmark. It waits for a resync
    /// in progress (that holds the §5.1 quiesce), not for a probe the
    /// recovery monitor has yet to make.
    ///
    /// # Panics
    ///
    /// When a relay is still behind after 60 s: a pipeline that does not
    /// drain is stuck, not quiet.
    pub fn settle(&self) {
        if let Err(behind) = self.backlog.wait(SETTLE_TIMEOUT) {
            panic!("settle: {behind}");
        }
        // An update already trapped holds an update pass; opening the §5.1
        // quiesce waits it out, as `shutdown` does.
        drop(self.gateway.begin_sync());
    }

    /// Stop the recovery monitor and the relays, then the Update Manager
    /// (the monitor and relays feed the UM). Every thread the deployment
    /// started is joined here; a deployment that is shut down and dropped
    /// leaves nothing resident. What a device commits once the shutdown has
    /// begun is left to the next synchronization.
    pub fn shutdown(&self) {
        unpoison(self.background.lock()).stop();
        // New traps are refused; each update already past that check holds
        // an update pass, so opening the §5.1 quiesce waits it out.
        self.um.closing.store(true, Ordering::SeqCst);
        drop(self.gateway.begin_sync());
        // Everything committed is already framed in the log; one last sync
        // covers the Never-policy tail so a clean shutdown loses nothing.
        if let Some(dur) = &self.durability {
            dur.sync();
            dur.clear_error_log();
        }
    }
}

impl Drop for MetaComm {
    fn drop(&mut self) {
        self.shutdown();
    }
}
