//! The Update Manager (paper §4.4): "the central component of the system —
//! it ensures that the data in the devices and in the LDAP server are
//! consistent."
//!
//! Updates enter through LTAP: the UM registers a before-trigger with the
//! gateway, and the trigger itself translates the trapped operation to
//! every relevant device filter (conditional ops for the originating
//! device), folds device-generated information back in, and applies the
//! augmented update to the LDAP server. It then reports
//! `Disposition::Handled`, so the gateway does not re-apply the original.
//!
//! The paper describes a single coordinator thread. Here the thread that
//! trapped the update runs it — a wire CPU worker, a `ddu-relay-*` thread
//! or a library caller — while the gateway holds the LTAP entry lock (§4.3;
//! a rename also holds the lock on the DN it renames to). Updates to the
//! same entry are serialized by that lock; updates to distinct entries run
//! concurrently on their callers' threads. A global `seq` counter is kept
//! so traces and the ErrorLog stay monotonic.
//!
//! Within one update the schedule is the paper's (§4.4, §5.5): the update
//! walks `shared.devices` in filter order — a leg's device-generated info
//! is visible to the next leg's translation, the first failure ends the
//! fan-out (later devices never see an update that is aborting), and the
//! LDAP server is updated last. An update creates no thread. The price: an
//! update that touches k slow devices costs the sum of their latencies,
//! not the max, and the UM's concurrency is its callers' — bounded by the
//! wire pool and the relays.

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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Stage durations from the update's span, in first-marked order:
    /// `acquire` (hand-off from trigger fire to `process` start),
    /// `closure`, `translate`, `apply`, `commit`. Repeated stages (one
    /// `translate` per device filter, one `apply` per device touched)
    /// accumulate. Stages are consecutive stretches of the one thread's
    /// wall time, so `Σ stage ≤ total`; the remainder is the abort path.
    pub stage_ns: Vec<(String, u64)>,
    /// Total update latency (trigger fire → return), nanoseconds.
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
    pub traces: Mutex<VecDeque<UpdateTrace>>,
    /// Retry policy for transient device faults.
    pub retry: RetryPolicy,
    /// Global update sequence counter, shared with the DDU relays so
    /// error-log entries carry real monotonic sequence numbers.
    pub seq: Arc<AtomicU64>,
    /// Pre-resolved histograms/counters for the update path.
    pub obs: Arc<crate::obs::UmObs>,
    /// Set by shutdown: from then on a trapped update gets a clean
    /// "shut down" error.
    pub closing: AtomicBool,
}

/// Capacity of the trace ring.
pub(crate) const TRACE_CAPACITY: usize = 256;

/// The LTAP trigger handler: the thread that trapped the update runs it,
/// under the entry lock the gateway holds.
pub(crate) fn handler(shared: Arc<Shared>) -> Arc<dyn TriggerHandler> {
    Arc::new(move |ctx: &TriggerContext<'_>| {
        if shared.closing.load(Ordering::SeqCst) {
            return Err(LdapError::new(
                ResultCode::Unavailable,
                "update manager is shut down",
            ));
        }
        let fired_ns = shared.obs.clock.now_ns();
        process(&shared, ctx.op, ctx.pre_image, ctx.origin, fired_ns)
            .map(|()| Disposition::Handled)
            .map_err(crate::error::MetaError::into_ldap)
    })
}

/// Resolve the origin of an update: the LTAP persistent-connection tag wins;
/// otherwise a `lastUpdater` value the client wrote explicitly; otherwise
/// the update is an ordinary LDAP-client write ("ldap").
fn resolve_origin(op: &LtapOp, tagged: Option<&str>) -> String {
    if let Some(o) = tagged {
        return o.to_string();
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
            ..
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
            post.set_dn(op.target_dn().map_err(crate::error::MetaError::Ldap)?);
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
    op: &LtapOp,
    pre: Option<&Entry>,
    tagged_origin: Option<&str>,
    fired_ns: u64,
) -> crate::error::Result<()> {
    let my_seq = shared.seq.fetch_add(1, Ordering::SeqCst);
    shared.stats.updates.fetch_add(1, Ordering::Relaxed);
    let origin = resolve_origin(op, tagged_origin);
    // The span's first stage is the hand-off: trigger fire → here.
    let mut span = crate::obs::Span::start_from(shared.obs.clock.clone(), fired_ns, "acquire");
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
    let result = process_inner(shared, my_seq, op, pre, &origin, &mut trace, &mut span);
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
/// trace retention never serializes concurrent updates.
fn push_trace(shared: &Shared, trace: UpdateTrace) {
    let mut ring = unpoison(shared.traces.lock());
    if ring.len() >= TRACE_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(trace);
}

/// One update's device fan-out: the updating thread walks the filters
/// itself, in filter order (§4.4, §5.5).
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
    pre: Option<&Entry>,
    origin: &str,
    trace: &mut UpdateTrace,
    span: &mut crate::obs::Span,
) -> crate::error::Result<()> {
    let origin = origin.to_string();
    let mut d = descriptor_for(op, pre, &origin)?;
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
            let pre = pre.expect("checked above");
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
                let new_dn = op.target_dn()?;
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
    fn resolve_origin_priority() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        // 1. The persistent-connection tag wins.
        let op = LtapOp::Delete(dn.clone());
        assert_eq!(resolve_origin(&op, Some("pbx-west")), "pbx-west");
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
