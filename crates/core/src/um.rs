//! The Update Manager (paper §4.4): "the central component of the system —
//! it ensures that the data in the devices and in the LDAP server are
//! consistent."
//!
//! Updates enter through LTAP: the UM registers a before-trigger with the
//! gateway; the trigger enqueues the trapped operation and waits; a worker
//! translates it to every relevant device filter (conditional ops for the
//! originating device), folds device-generated information back in, applies
//! the augmented update to the LDAP server, and replies. The trigger then
//! reports `Disposition::Handled`, so the gateway does not re-apply the
//! original.
//!
//! The paper describes a single coordinator thread. We keep its semantics
//! but pipeline it as a **key-ordered executor**: updates are sharded onto
//! N workers by the *post-closure* DN of the entry they touch, so updates
//! to the same entry retain strict FIFO order (one shard = one channel =
//! one worker draining it in order) while updates to distinct entries may
//! proceed concurrently. The per-entry LTAP lock held by the gateway for
//! the whole round trip already serializes racing writes to the same
//! *pre*-update DN; sharding by the *post*-update DN additionally orders a
//! rename into an entry against concurrent writes to that entry. A global
//! `seq` counter is kept so traces and the ErrorLog stay monotonic.
//!
//! Within one update there is one schedule at every worker count, the
//! paper's (§4.4, §5.5): the worker that owns the key walks
//! `shared.devices` itself, in filter order — a leg's device-generated
//! info is visible to the next leg's translation, the first failure ends
//! the fan-out (later devices never see an update that is aborting), and
//! the LDAP server is updated last. An update creates no thread. The
//! price: an update that touches k slow devices costs the sum of their
//! latencies, not the max.

use crate::errorlog::ErrorLog;
use crate::filter::DeviceFilter;
use crate::image::{aux_classes, diff_mods_full, entry_to_image, image_to_entry};
use crate::obs::{Counter, DeviceObs, Registry};
use crate::resilience::{apply_with_retry, Device, RetryPolicy};
use crate::schema::LAST_UPDATER;
use crate::unpoison;
use ldap::entry::{Entry, Modification};
use ldap::{Directory, LdapError, ResultCode};
use lexpress::{Closure, Engine, Image, OpKind, TargetOp, UpdateDescriptor};
use ltap::{Disposition, LtapOp, TriggerContext, TriggerHandler};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A per-update trace record: what the Update Manager did with one trapped
/// operation (kept in a bounded ring by the Update Manager). This is the
/// observability surface a deployment needs to answer "why did my update
/// (not) reach the switch?".
#[derive(Debug, Clone)]
pub struct UpdateTrace {
    /// Global update sequence number.
    pub seq: u64,
    /// Resolved origin (`ldap`, `wba`, a device name, …).
    pub origin: String,
    /// Operation kind and target DN.
    pub op: String,
    /// Attributes the transitive closure derived (beyond the explicit set).
    pub derived_attrs: Vec<String>,
    /// Per-device outcomes: `(repository, op kind, conditional, applied)`.
    pub device_ops: Vec<(String, String, bool, bool)>,
    /// `Ok` or the error message the client received.
    pub outcome: String,
    /// Stage durations from the worker's span, in first-marked order:
    /// `acquire` (queue wait), `closure`, `translate`, `apply`, `commit`.
    /// Repeated stages (one `translate` per device filter, one `apply` per
    /// device touched) accumulate. Stages are consecutive stretches of the
    /// one worker's wall time, so `Σ stage ≤ total`; the remainder is the
    /// abort path and the reply.
    pub stage_ns: Vec<(String, u64)>,
    /// Total update latency (enqueue → reply), nanoseconds.
    pub total_ns: u64,
}

/// Update Manager statistics (read by tests and the benchmark): handles on
/// the deployment's `um` component. The two outage totals are sums over
/// the devices' own counters, so an outage event is counted once, on its
/// device.
pub struct UmStats {
    /// Updates that entered through LTAP (clients + relayed DDUs).
    pub updates: Arc<Counter>,
    /// Operations applied to devices.
    pub device_ops: Arc<Counter>,
    /// Conditional (reapplied) device operations (paper §5.4).
    pub reapplied: Arc<Counter>,
    /// Operations skipped by partitioning constraints.
    pub skipped: Arc<Counter>,
    /// Device-generated images folded back into the directory (§5.5).
    pub generated_merges: Arc<Counter>,
    /// Updates aborted with an error logged.
    pub errors: Arc<Counter>,
    /// Saga-style compensating operations applied (our extension of §4.4's
    /// "later version" plan).
    pub undone: Arc<Counter>,
    /// Transient device faults masked by retry (each retry attempt counts).
    pub retried: Arc<Counter>,
    /// Circuit-breaker openings (a device going `Offline`).
    pub breaker_trips: DeviceTotal,
    /// Full resynchronizations run on reconnect.
    pub full_resyncs: DeviceTotal,
}

impl UmStats {
    /// Register the `um` counters, and the outage totals over `devices` as
    /// gauges read when the registry is.
    pub(crate) fn install(registry: &Registry, devices: &[Device]) -> Arc<UmStats> {
        let um = registry.component("um");
        let total = |name: &str, pick: fn(&DeviceObs) -> &Arc<Counter>| {
            let t = DeviceTotal(
                devices
                    .iter()
                    .map(|d| pick(&d.runtime.obs).clone())
                    .collect(),
            );
            let read = t.clone();
            um.gauge_callback(name, move || read.load(Ordering::Relaxed) as i64);
            t
        };
        Arc::new(UmStats {
            breaker_trips: total("breakerTrips", |d| &d.breaker_trips),
            full_resyncs: total("fullResyncs", |d| &d.resyncs),
            updates: um.counter("updates"),
            device_ops: um.counter("deviceOps"),
            reapplied: um.counter("reapplied"),
            skipped: um.counter("skipped"),
            generated_merges: um.counter("generatedMerges"),
            errors: um.counter("errors"),
            undone: um.counter("undone"),
            retried: um.counter("retried"),
        })
    }
}

/// A deployment-wide total of one per-device counter, summed when read.
#[derive(Clone)]
pub struct DeviceTotal(Vec<Arc<Counter>>);

impl DeviceTotal {
    /// The sum over devices, each read with `order` (the shape of
    /// [`AtomicU64::load`]).
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.iter().map(|c| c.load(order)).sum()
    }
}

enum Request {
    Process {
        op: LtapOp,
        pre: Option<Entry>,
        origin: Option<String>,
        /// Clock reading when the trigger enqueued the request — the span's
        /// `acquire` stage measures from here to coordinator pickup.
        enqueued_ns: u64,
        reply: Sender<ldap::Result<()>>,
    },
    Shutdown,
}

pub(crate) struct Shared {
    pub inner: Arc<dyn Directory>,
    pub engine: Arc<Engine>,
    pub closure: Arc<Closure>,
    /// Every integrated repository — filter and breaker runtime —
    /// in registration order, which is the fan-out order.
    pub devices: Arc<[Device]>,
    pub errorlog: Arc<ErrorLog>,
    pub stats: Arc<UmStats>,
    /// Attempt compensating (saga-style) undo of already-applied device
    /// operations when a later one fails.
    pub saga: bool,
    /// Bounded ring of recent update traces.
    pub traces: Arc<Mutex<std::collections::VecDeque<UpdateTrace>>>,
    /// Retry policy for transient device faults.
    pub retry: RetryPolicy,
    /// Global update sequence counter, shared with the DDU relays so
    /// error-log entries carry real monotonic sequence numbers.
    pub seq: Arc<AtomicU64>,
    /// Pre-resolved histograms/counters for the workers' hot path.
    pub obs: Arc<crate::obs::UmObs>,
}

/// Capacity of the trace ring.
pub(crate) const TRACE_CAPACITY: usize = 256;

/// Deterministically map a post-closure DN key to one of `n` shards.
/// Exposed so tests (and operators reading traces) can predict which
/// worker a given entry's updates serialize on.
pub fn route_shard(norm_key: &str, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    norm_key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// The post-update DN that keys an operation's shard: for a rename, the
/// entry's *new* DN (so a rename into an entry orders against concurrent
/// writes to it); otherwise the target DN itself.
fn route_key(op: &LtapOp) -> String {
    match op {
        LtapOp::ModifyRdn {
            dn,
            new_rdn,
            new_superior,
            ..
        } => match new_superior {
            Some(sup) => sup.child(new_rdn.clone()).norm_key(),
            None => dn
                .with_rdn(new_rdn.clone())
                .map(|d| d.norm_key())
                .unwrap_or_else(|_| dn.norm_key()),
        },
        other => other.dn().norm_key(),
    }
}

/// The running Update Manager: a key-ordered executor over N workers.
pub(crate) struct UpdateManager {
    txs: Vec<Sender<Request>>,
    traces: Arc<Mutex<std::collections::VecDeque<UpdateTrace>>>,
    /// The deployment clock, for stamping enqueue times in the handler.
    clock: Arc<dyn crate::obs::Clock>,
    workers: Vec<JoinHandle<()>>,
    /// Set before the Shutdown requests go out, so triggers that race a
    /// shutdown get a clean "shut down" error instead of "crashed".
    closing: Arc<AtomicBool>,
}

impl UpdateManager {
    /// Start `workers` executor threads, each owning one shard queue.
    pub(crate) fn start(shared: Shared, workers: usize) -> UpdateManager {
        let workers = workers.max(1);
        let shared = Arc::new(shared);
        let traces = shared.traces.clone();
        let clock = shared.obs.clock.clone();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx): (Sender<Request>, Receiver<Request>) = channel();
            let sh = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("um-worker-{i}"))
                .spawn(move || worker_loop(rx, sh))
                .expect("spawn um worker");
            txs.push(tx);
            handles.push(h);
        }
        UpdateManager {
            txs,
            traces,
            clock,
            workers: handles,
            closing: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Number of executor workers (shards).
    pub(crate) fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Most recent update traces, oldest first.
    pub(crate) fn recent_traces(&self) -> Vec<UpdateTrace> {
        unpoison(self.traces.lock()).iter().cloned().collect()
    }

    /// The LTAP trigger handler funneling trapped operations into the
    /// shard queues: same post-update DN → same shard → FIFO.
    pub(crate) fn handler(&self) -> Arc<dyn TriggerHandler> {
        let txs = self.txs.clone();
        let closing = self.closing.clone();
        let clock = self.clock.clone();
        Arc::new(move |ctx: &TriggerContext<'_>| {
            if closing.load(Ordering::SeqCst) {
                return Err(LdapError::new(
                    ResultCode::Unavailable,
                    "update manager is shut down",
                ));
            }
            let (rtx, rrx) = channel();
            let shard = route_shard(&route_key(ctx.op), txs.len());
            let req = Request::Process {
                op: ctx.op.clone(),
                pre: ctx.pre_image.cloned(),
                origin: ctx.origin.map(str::to_string),
                enqueued_ns: clock.now_ns(),
                reply: rtx,
            };
            if txs[shard].send(req).is_err() {
                return Err(LdapError::new(
                    ResultCode::Unavailable,
                    "update manager is down",
                ));
            }
            match rrx.recv() {
                Ok(Ok(())) => Ok(Disposition::Handled),
                Ok(Err(e)) => Err(e),
                Err(_) if closing.load(Ordering::SeqCst) => Err(LdapError::new(
                    ResultCode::Unavailable,
                    "update manager is shut down",
                )),
                Err(_) => Err(LdapError::new(
                    ResultCode::Unavailable,
                    "update manager crashed while processing",
                )),
            }
        })
    }

    pub(crate) fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.closing.store(true, Ordering::SeqCst);
        for tx in &self.txs {
            let _ = tx.send(Request::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for UpdateManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: Receiver<Request>, shared: Arc<Shared>) {
    let seq = shared.seq.clone();
    // After the Shutdown request, requests already in this shard's queue (or
    // racing the shutdown send) are still served: their triggers are blocked
    // in `rrx.recv()` and must get replies, not a hangup. The worker leaves
    // once the queue has stayed empty for 10 ms.
    let mut closing = false;
    loop {
        let next = if closing {
            rx.recv_timeout(Duration::from_millis(10)).ok()
        } else {
            rx.recv().ok()
        };
        match next {
            None => return,
            Some(Request::Shutdown) => closing = true,
            Some(Request::Process {
                op,
                pre,
                origin,
                enqueued_ns,
                reply,
            }) => {
                let result = process(&shared, &seq, op, pre, origin, enqueued_ns);
                let _ = reply.send(result.map_err(crate::error::MetaError::into_ldap));
            }
        }
    }
}

/// Resolve the origin of an update: the LTAP persistent-connection tag wins;
/// otherwise a `lastUpdater` value the client wrote explicitly; otherwise
/// the update is an ordinary LDAP-client write ("ldap").
fn resolve_origin(op: &LtapOp, tagged: Option<String>) -> String {
    if let Some(o) = tagged {
        return o;
    }
    match op {
        LtapOp::Add(e) => e.first(LAST_UPDATER).map(str::to_string),
        LtapOp::Modify(_, mods) => mods
            .iter()
            .rev()
            .find(|m| m.attr.norm().eq_ignore_ascii_case(LAST_UPDATER))
            .and_then(|m| m.values.first().cloned()),
        _ => None,
    }
    .unwrap_or_else(|| "ldap".to_string())
}

/// Build the update descriptor for a trapped operation.
fn descriptor_for(
    op: &LtapOp,
    pre: Option<&Entry>,
    origin: &str,
) -> crate::error::Result<UpdateDescriptor> {
    let d = match op {
        LtapOp::Add(e) => UpdateDescriptor::add(e.dn().to_string(), entry_to_image(e), origin),
        LtapOp::Modify(dn, mods) => {
            let pre =
                pre.ok_or_else(|| crate::error::MetaError::Ldap(LdapError::no_such_object(dn)))?;
            let mut post = pre.clone();
            post.apply_modifications(mods)
                .map_err(crate::error::MetaError::Ldap)?;
            UpdateDescriptor::modify(
                dn.to_string(),
                entry_to_image(pre),
                entry_to_image(&post),
                origin,
            )
        }
        LtapOp::Delete(dn) => {
            let pre =
                pre.ok_or_else(|| crate::error::MetaError::Ldap(LdapError::no_such_object(dn)))?;
            UpdateDescriptor::delete(dn.to_string(), entry_to_image(pre), origin)
        }
        LtapOp::ModifyRdn {
            dn,
            new_rdn,
            delete_old,
            new_superior,
        } => {
            let pre =
                pre.ok_or_else(|| crate::error::MetaError::Ldap(LdapError::no_such_object(dn)))?;
            let mut post = pre.clone();
            if *delete_old {
                if let Some(old_rdn) = dn.rdn() {
                    for ava in old_rdn.avas() {
                        post.remove_value(ava.attr(), ava.value());
                    }
                }
            }
            for ava in new_rdn.avas() {
                if !post.has_value(ava.attr(), ava.value()) {
                    post.add_value(ava.attr(), ava.value());
                }
            }
            let new_dn = match new_superior {
                Some(sup) => sup.child(new_rdn.clone()),
                None => dn
                    .with_rdn(new_rdn.clone())
                    .map_err(crate::error::MetaError::Ldap)?,
            };
            post.set_dn(new_dn);
            UpdateDescriptor::modify(
                dn.to_string(),
                entry_to_image(pre),
                entry_to_image(&post),
                origin,
            )
        }
    };
    Ok(d)
}

/// The compensating (inverse) operation for an applied device op.
fn inverse_of(op: &TargetOp) -> TargetOp {
    match op.kind {
        OpKind::Skip => op.clone(),
        OpKind::Add => TargetOp {
            kind: OpKind::Delete,
            conditional: true,
            old_key: op.new_key.clone(),
            new_key: None,
            attrs: Image::new(),
            old_attrs: op.attrs.clone(),
        },
        OpKind::Modify => TargetOp {
            kind: OpKind::Modify,
            conditional: true,
            old_key: op.new_key.clone(),
            new_key: op.old_key.clone().or_else(|| op.new_key.clone()),
            attrs: op.old_attrs.clone(),
            old_attrs: op.attrs.clone(),
        },
        OpKind::Delete => TargetOp {
            kind: OpKind::Add,
            conditional: true,
            old_key: None,
            new_key: op.old_key.clone(),
            attrs: op.old_attrs.clone(),
            old_attrs: Image::new(),
        },
    }
}

/// Object-class additions needed so `img`'s attributes validate on `pre`.
pub(crate) fn aux_class_mods(pre: &Entry, img: &Image) -> Vec<Modification> {
    aux_classes(img)
        .filter(|class| !pre.has_object_class(class))
        .map(|class| Modification::add("objectClass", vec![class.to_string()]))
        .collect()
}

fn process(
    shared: &Shared,
    seq: &AtomicU64,
    op: LtapOp,
    pre: Option<Entry>,
    tagged_origin: Option<String>,
    enqueued_ns: u64,
) -> crate::error::Result<()> {
    let my_seq = seq.fetch_add(1, Ordering::SeqCst);
    shared.stats.updates.fetch_add(1, Ordering::Relaxed);
    let origin = resolve_origin(&op, tagged_origin);
    // The span's first stage is the queue wait (acquisition): trigger
    // enqueue → coordinator pickup, i.e. right now.
    let mut span = crate::obs::Span::start_from(shared.obs.clock.clone(), enqueued_ns, "acquire");
    if let Some((_, wait)) = span.stages().first() {
        shared.obs.acquire.record(*wait);
    }
    let mut trace = UpdateTrace {
        seq: my_seq,
        origin: origin.clone(),
        op: format!("{:?} {}", op.kind(), op.dn()),
        derived_attrs: Vec::new(),
        device_ops: Vec::new(),
        outcome: String::new(),
        stage_ns: Vec::new(),
        total_ns: 0,
    };
    let result = process_inner(shared, my_seq, &op, pre, &origin, &mut trace, &mut span);
    let (stages, total) = span.finish();
    if result.is_ok() {
        shared.obs.update.record(total);
    } else {
        shared.obs.abort.record(total);
    }
    trace.stage_ns = stages;
    trace.total_ns = total;
    trace.outcome = match &result {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    };
    push_trace(shared, trace);
    result
}

/// Insert a fully built trace into the bounded ring. All formatting happens
/// before this call; the mutex covers only an O(1) evict and a push, so
/// trace retention never serializes the workers' hot path.
fn push_trace(shared: &Shared, trace: UpdateTrace) {
    let mut ring = unpoison(shared.traces.lock());
    if ring.len() >= TRACE_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(trace);
}

/// One update's device fan-out: the worker that owns the key walks the
/// filters itself, in filter order (§4.4, §5.5).
struct FanOut<'a> {
    shared: &'a Shared,
    my_seq: u64,
    /// The post-closure descriptor every leg translates; device-generated
    /// info is merged into it leg by leg.
    d: &'a mut UpdateDescriptor,
    trace: &'a mut UpdateTrace,
    span: &'a mut crate::obs::Span,
    /// Compensating ops for already-applied device ops, in apply order.
    undo: Vec<(Arc<dyn DeviceFilter>, TargetOp)>,
}

impl FanOut<'_> {
    /// Run one device filter's leg: translate the descriptor, consult the
    /// breaker, apply with retry, and merge device-generated info
    /// so the next leg translates the augmented image. An `Err` aborts the
    /// update: translate error, semantic rejection, or a transient fault
    /// that did not open the breaker.
    fn leg(&mut self, device: &Device) -> crate::error::Result<()> {
        let shared = self.shared;
        let Device {
            filter: f,
            runtime: rt,
        } = device;
        let translated = shared.engine.translate(f.mapping_from_ldap(), self.d);
        shared.obs.translate.record(self.span.mark("translate"));
        let top = translated?;
        if top.kind == OpKind::Skip {
            shared.stats.skipped.fetch_add(1, Ordering::Relaxed);
            self.trace_leg(f, &top, "Skip".into(), false);
            return Ok(());
        }
        // Breaker open: skip the device until the resync on reconnect.
        if rt.skip_if_offline() {
            self.skip(f, &top);
            return Ok(());
        }
        let applied = apply_with_retry(f, &top, &shared.retry, &shared.stats);
        rt.obs.apply.record(self.span.mark("apply"));
        let outcome = match applied {
            Ok(outcome) => outcome,
            Err(e) => {
                rt.obs.failures.inc();
                // A transient fault means the device never saw the op.
                // Advance the breaker; if that (or an earlier trip) opened
                // it, skip the device and let the update proceed — the
                // directory stays authoritative. A semantic rejection means
                // the device is reachable and judged the op invalid: abort
                // the update (§4.4), breaker untouched.
                if e.is_transient() {
                    rt.record_failure(self.my_seq, &e);
                    if rt.skip_if_offline() {
                        self.skip(f, &top);
                        return Ok(());
                    }
                }
                return Err(e);
            }
        };
        rt.obs.applies.inc();
        rt.record_success();
        shared.stats.device_ops.fetch_add(1, Ordering::Relaxed);
        self.trace_leg(f, &top, format!("{:?}", top.kind), outcome.applied);
        if outcome.reapplied {
            shared.stats.reapplied.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.applied {
            self.undo.push((f.clone(), inverse_of(&top)));
        }
        if let Some(gen) = outcome.generated {
            let mut merged = false;
            for (name, values) in gen.iter() {
                if self.d.new.values(name) != values {
                    self.d.new.set(name, values.to_vec());
                    merged = true;
                }
            }
            if merged {
                shared
                    .stats
                    .generated_merges
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The trace row for a leg the open breaker skipped.
    fn skip(&mut self, f: &Arc<dyn DeviceFilter>, top: &TargetOp) {
        self.trace_leg(f, top, format!("{:?} (skipped)", top.kind), false);
    }

    /// The trace row for this leg: `(repository, op kind, conditional,
    /// applied)`.
    fn trace_leg(
        &mut self,
        f: &Arc<dyn DeviceFilter>,
        top: &TargetOp,
        kind: String,
        applied: bool,
    ) {
        self.trace
            .device_ops
            .push((f.name().to_string(), kind, top.conditional, applied));
    }
}

fn process_inner(
    shared: &Shared,
    my_seq: u64,
    op: &LtapOp,
    pre: Option<Entry>,
    origin: &str,
    trace: &mut UpdateTrace,
    span: &mut crate::obs::Span,
) -> crate::error::Result<()> {
    let origin = origin.to_string();
    let mut d = descriptor_for(op, pre.as_ref(), &origin)?;
    // Stamp the originator on the persistent image (the lexpress
    // LastUpdater mechanism, §5.4).
    if !d.new.is_empty() {
        d.new.set(LAST_UPDATER, vec![origin]);
    }
    // Transitive closure over the integrated schema (§4.2).
    let before_closure = d.new.clone();
    let augmented = shared.closure.augment(&mut d);
    shared.obs.closure.record(span.mark("closure"));
    if let Err(e) = augmented {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        shared.errorlog.log(
            shared.inner.as_ref(),
            my_seq,
            &format!("transitive closure failed: {e}"),
            &format!("{op:?}"),
        );
        return Err(e.into());
    }
    trace.derived_attrs = before_closure.changed_attrs(&d.new);
    // Fan out to every device filter, one leg at a time in filter order:
    // a leg's generated info is visible to the next leg's translation, and
    // the first failure ends the fan-out.
    let mut fan = FanOut {
        shared,
        my_seq,
        d: &mut d,
        trace,
        span,
        undo: Vec::new(),
    };
    let failure = shared.devices.iter().try_for_each(|d| fan.leg(d)).err();
    let undo = fan.undo;
    if let Some(e) = failure {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        shared.errorlog.log(
            shared.inner.as_ref(),
            my_seq,
            &e.to_string(),
            &format!("{op:?}"),
        );
        if shared.saga {
            // Compensate already-applied device ops in reverse order.
            for (f, inv) in undo.into_iter().rev() {
                if f.apply(&inv).is_ok() {
                    shared.stats.undone.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        return Err(e);
    }
    // Finally, apply the augmented update to the LDAP server itself
    // ("update the LDAP Server after all other devices are updated", §5.5).
    let ldap_result: ldap::Result<()> = match op {
        LtapOp::Add(e) => {
            let entry = image_to_entry(e.dn().clone(), &d.new);
            shared.inner.add(entry)
        }
        LtapOp::Modify(dn, _) => {
            let pre = pre.as_ref().expect("checked above");
            let mut mods = aux_class_mods(pre, &d.new);
            mods.extend(diff_mods_full(pre, &d.new));
            if mods.is_empty() {
                Ok(())
            } else {
                shared.inner.modify(dn, &mods)
            }
        }
        LtapOp::Delete(dn) => shared.inner.delete(dn),
        LtapOp::ModifyRdn {
            dn,
            new_rdn,
            delete_old,
            new_superior,
        } => shared
            .inner
            .modify_rdn(dn, new_rdn, *delete_old, new_superior.as_ref())
            .and_then(|()| {
                // Apply any closure-derived attribute changes post-rename.
                let new_dn = match new_superior {
                    Some(sup) => sup.child(new_rdn.clone()),
                    None => dn.with_rdn(new_rdn.clone())?,
                };
                if let Some(renamed) = shared.inner.get(&new_dn)? {
                    let mut mods = aux_class_mods(&renamed, &d.new);
                    mods.extend(diff_mods_full(&renamed, &d.new));
                    if !mods.is_empty() {
                        shared.inner.modify(&new_dn, &mods)?;
                    }
                }
                Ok(())
            }),
    };
    shared.obs.commit.record(span.mark("commit"));
    if let Err(e) = ldap_result {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        shared.errorlog.log(
            shared.inner.as_ref(),
            my_seq,
            &format!("directory apply failed: {e}"),
            &format!("{op:?}"),
        );
        if shared.saga {
            for (f, inv) in undo.into_iter().rev() {
                if f.apply(&inv).is_ok() {
                    shared.stats.undone.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        return Err(e.into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::entry_to_image;
    use crate::schema::integrated_schema;
    use ldap::dn::{Dn, Rdn};
    use lexpress::UpdateKind;

    fn person() -> Entry {
        Entry::with_attrs(
            Dn::parse("cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("roomNumber", "2B-401"),
            ],
        )
    }

    #[test]
    fn route_shard_is_deterministic_and_in_range() {
        for n in 1..=8usize {
            for key in ["cn=a,o=l", "cn=b,o=l", "cn=c,ou=x,o=l", ""] {
                let s = route_shard(key, n);
                assert!(s < n);
                assert_eq!(s, route_shard(key, n), "same key must re-route identically");
            }
        }
        // One worker degenerates to the single-coordinator schedule.
        assert_eq!(route_shard("anything", 1), 0);
        assert_eq!(route_shard("anything", 0), 0);
    }

    #[test]
    fn route_key_uses_post_rename_dn() {
        let dn = Dn::parse("cn=John Doe,o=Lucent").unwrap();
        // A rename shards on the entry's NEW dn, so it orders against
        // concurrent writes to the entry it becomes.
        let rename = LtapOp::ModifyRdn {
            dn: dn.clone(),
            new_rdn: Rdn::new("cn", "Jack Doe"),
            delete_old: true,
            new_superior: None,
        };
        assert_eq!(
            route_key(&rename),
            Dn::parse("cn=Jack Doe,o=Lucent").unwrap().norm_key()
        );
        // Everything else shards on the target dn itself.
        assert_eq!(route_key(&LtapOp::Delete(dn.clone())), dn.norm_key());
        let moved = LtapOp::ModifyRdn {
            dn,
            new_rdn: Rdn::new("cn", "Jack Doe"),
            delete_old: true,
            new_superior: Some(Dn::parse("ou=Sales,o=Lucent").unwrap()),
        };
        assert_eq!(
            route_key(&moved),
            Dn::parse("cn=Jack Doe,ou=Sales,o=Lucent")
                .unwrap()
                .norm_key()
        );
    }

    #[test]
    fn resolve_origin_priority() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        // 1. The persistent-connection tag wins.
        let op = LtapOp::Delete(dn.clone());
        assert_eq!(resolve_origin(&op, Some("pbx-west".into())), "pbx-west");
        // 2. Then an explicit lastUpdater value in the op.
        let mut e = person();
        e.add_value(LAST_UPDATER, "wba");
        assert_eq!(resolve_origin(&LtapOp::Add(e), None), "wba");
        let mods = vec![
            Modification::set("roomNumber", "1"),
            Modification::set(LAST_UPDATER, "hoteling"),
        ];
        assert_eq!(
            resolve_origin(&LtapOp::Modify(dn.clone(), mods), None),
            "hoteling"
        );
        // 3. Otherwise the plain-LDAP-client default.
        assert_eq!(resolve_origin(&LtapOp::Delete(dn), None), "ldap");
    }

    #[test]
    fn descriptor_for_modify_builds_old_and_new_images() {
        let pre = person();
        let mods = vec![Modification::set("roomNumber", "9Z-999")];
        let d = descriptor_for(&LtapOp::Modify(pre.dn().clone(), mods), Some(&pre), "wba").unwrap();
        assert_eq!(d.kind, UpdateKind::Modify);
        assert_eq!(d.old.first("roomNumber"), Some("2B-401"));
        assert_eq!(d.new.first("roomNumber"), Some("9Z-999"));
        assert!(d.is_explicit("roomnumber"));
        assert!(!d.is_explicit("sn"));
    }

    #[test]
    fn descriptor_for_modify_requires_pre_image() {
        let dn = Dn::parse("cn=ghost,o=L").unwrap();
        let err = descriptor_for(&LtapOp::Modify(dn, vec![]), None, "wba").unwrap_err();
        assert!(matches!(err, crate::error::MetaError::Ldap(_)));
    }

    #[test]
    fn descriptor_for_modifyrdn_renames_in_the_new_image() {
        let pre = person();
        let d = descriptor_for(
            &LtapOp::ModifyRdn {
                dn: pre.dn().clone(),
                new_rdn: Rdn::new("cn", "Jack Doe"),
                delete_old: true,
                new_superior: None,
            },
            Some(&pre),
            "pbx-west",
        )
        .unwrap();
        assert_eq!(d.kind, UpdateKind::Modify);
        assert_eq!(d.old.first("cn"), Some("John Doe"));
        assert_eq!(d.new.first("cn"), Some("Jack Doe"));
        // Other attributes carried over untouched.
        assert_eq!(d.new.first("roomNumber"), Some("2B-401"));
    }

    #[test]
    fn inverse_of_round_trips_each_kind() {
        let add = TargetOp {
            kind: OpKind::Add,
            conditional: false,
            old_key: None,
            new_key: Some("9123".into()),
            attrs: Image::from_pairs([("Name", "X")]),
            old_attrs: Image::new(),
        };
        let inv = inverse_of(&add);
        assert_eq!(inv.kind, OpKind::Delete);
        assert!(inv.conditional, "compensations must tolerate absence");
        assert_eq!(inv.old_key.as_deref(), Some("9123"));

        let modify = TargetOp {
            kind: OpKind::Modify,
            conditional: false,
            old_key: Some("9123".into()),
            new_key: Some("9200".into()),
            attrs: Image::from_pairs([("Room", "NEW")]),
            old_attrs: Image::from_pairs([("Room", "OLD")]),
        };
        let inv = inverse_of(&modify);
        assert_eq!(inv.kind, OpKind::Modify);
        assert_eq!(inv.old_key.as_deref(), Some("9200"));
        assert_eq!(inv.new_key.as_deref(), Some("9123"));
        assert_eq!(inv.attrs.first("Room"), Some("OLD"));

        let delete = TargetOp {
            kind: OpKind::Delete,
            conditional: false,
            old_key: Some("9123".into()),
            new_key: None,
            attrs: Image::new(),
            old_attrs: Image::from_pairs([("Name", "X")]),
        };
        let inv = inverse_of(&delete);
        assert_eq!(inv.kind, OpKind::Add);
        assert_eq!(inv.new_key.as_deref(), Some("9123"));
        assert_eq!(inv.attrs.first("Name"), Some("X"));

        let skip = TargetOp {
            kind: OpKind::Skip,
            conditional: false,
            old_key: None,
            new_key: None,
            attrs: Image::new(),
            old_attrs: Image::new(),
        };
        assert_eq!(inverse_of(&skip).kind, OpKind::Skip);
    }

    #[test]
    fn aux_class_mods_adds_only_missing_classes() {
        let schema = integrated_schema();
        let pre = person();
        let img = entry_to_image(&Entry::with_attrs(
            pre.dn().clone(),
            [("definityExtension", "9123"), ("mpMailbox", "9123")],
        ));
        let mods = aux_class_mods(&pre, &img);
        assert_eq!(mods.len(), 2);
        // Applying them yields a schema-valid entry.
        let mut e = pre;
        e.add_value("objectClass", "organizationalPerson");
        e.apply_modifications(&mods).unwrap();
        e.add_value("definityExtension", "9123");
        e.add_value("mpMailbox", "9123");
        schema.validate_entry(&e).unwrap();
        // Idempotent: nothing to add the second time.
        assert!(aux_class_mods(&e, &img).is_empty());
    }
}
