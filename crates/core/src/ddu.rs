//! Direct-device-update relay (paper §4.4): "the device filter creates a
//! lexpress update descriptor for the update that it forwards to the LDAP
//! filter; the LDAP filter translates the descriptor into an update against
//! the LDAP schema and forwards it to LTAP; the update is eventually sent
//! back to the UM after proper LTAP locks are obtained."
//!
//! One relay thread runs per device, the device's only loop:
//! `ddu-relay-<name>` takes what comes to the device's [`Inbox`] — the
//! commits made at its own terminal (MetaComm's own writes are never fed),
//! a ring when its breaker leaves `Up`, and the stop. It turns each commit
//! into a descriptor and calls the gateway; while the device is not `Up`,
//! it probes it when a probe is due and brings it back by
//! [`crate::resilience::attempt_recovery`] (§4.4's resynchronization).
//! While the device is `Up` and the inbox empty, it waits with no timeout.
//! An inbox knows whether it is empty and its relay idle, which is how
//! `MetaComm::settle` knows nothing is waiting or running.
//! Each DDU becomes one or two LTAP operations — a name change that also
//! touches other fields becomes the non-atomic ModifyRDN + Modify pair of
//! §5.1 (the window the paper's resynchronization story covers; crash
//! injection for experiment E8 sits exactly between the two).

use crate::error::{MetaError, Result};
use crate::filter::{self, DeviceFilter};
use crate::image::{diff_mods, image_to_entry};
use crate::obs::{Counter, Registry};
use crate::resilience::{self, Device, RecoveryCtx};
use crate::um::aux_class_mods;
use crate::unpoison;
use ldap::dn::Dn;
use ldap::entry::Modification;
use ldap::{Directory, ResultCode};
use lexpress::{Image, OpKind, UpdateDescriptor};
use ltap::LtapOp;
use pbx::DeviceEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Relay statistics: handles on the deployment's `relay` component.
pub struct RelayStats {
    /// DDUs received from device filters.
    pub ddus: Arc<Counter>,
    /// LTAP operations emitted.
    pub ops_sent: Arc<Counter>,
    /// ModifyRDN+Modify pairs (the §5.1 complex-DDU case).
    pub rename_pairs: Arc<Counter>,
    /// Relay errors logged.
    pub errors: Arc<Counter>,
    /// Simulated crashes injected between the pair (experiment E8).
    pub injected_crashes: Arc<Counter>,
    /// Transient gateway failures masked by retry.
    pub retried: Arc<Counter>,
}

impl RelayStats {
    pub(crate) fn install(registry: &Registry) -> Arc<RelayStats> {
        let c = registry.component("relay");
        Arc::new(RelayStats {
            ddus: c.counter("ddus"),
            ops_sent: c.counter("opsSent"),
            rename_pairs: c.counter("renamePairs"),
            errors: c.counter("errors"),
            injected_crashes: c.counter("injectedCrashes"),
            retried: c.counter("retried"),
        })
    }
}

/// A device's one way into its relay: the commits made at its terminal, a
/// ring when its breaker leaves `Up`, and the stop.
#[derive(Default)]
pub(crate) struct Inbox {
    mail: Mutex<Mail>,
    /// Wakes the relay when mail comes, and `settle` when the relay goes
    /// idle.
    changed: Condvar,
}

#[derive(Default)]
struct Mail {
    events: VecDeque<DeviceEvent>,
    closed: bool,
    /// The relay is at work on what it last took.
    busy: bool,
}

/// What the relay takes from its inbox.
enum Work {
    Relay(DeviceEvent),
    /// A probe of the device is due.
    Probe,
    Stop,
}

impl Inbox {
    /// Change the mail, then wake whoever waits on it. The lock is released
    /// first, so a woken waiter does not block on it again.
    fn deliver<T>(&self, change: impl FnOnce(&mut Mail) -> T) -> T {
        let mut mail = unpoison(self.mail.lock());
        let out = change(&mut mail);
        drop(mail);
        self.changed.notify_all();
        out
    }

    /// Post a terminal commit. `false` once the inbox is closed, so the
    /// store drops the sink that posts here.
    pub(crate) fn post(&self, event: DeviceEvent) -> bool {
        self.deliver(|mail| {
            if !mail.closed {
                mail.events.push_back(event);
            }
            !mail.closed
        })
    }

    /// Wake the relay to look when its device is next due a probe: its
    /// breaker has left `Up`.
    pub(crate) fn ring(&self) {
        self.deliver(|_| ());
    }

    /// Stop the relay once it has finished what it has in hand. What is
    /// still waiting is dropped, left to the next synchronization.
    pub(crate) fn close(&self) {
        self.deliver(|mail| {
            mail.closed = true;
            mail.events.clear();
        });
    }

    /// The relay has finished what it took.
    fn done(&self) {
        self.deliver(|mail| mail.busy = false);
    }

    /// The relay's next work, waiting for it. `next_probe` is read each
    /// time the relay wakes, under the inbox's lock, so a ring that follows
    /// a change of it is not missed: until the probe it names (forever
    /// without one).
    fn take(&self, next_probe: impl Fn() -> Option<Instant>) -> Work {
        let mut mail = unpoison(self.mail.lock());
        loop {
            if mail.closed {
                return Work::Stop;
            }
            if let Some(event) = mail.events.pop_front() {
                mail.busy = true;
                return Work::Relay(event);
            }
            let probe = next_probe();
            if probe.is_some_and(|at| Instant::now() >= at) {
                mail.busy = true;
                return Work::Probe;
            }
            mail = match probe {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    unpoison(self.changed.wait_timeout(mail, left)).0
                }
                None => unpoison(self.changed.wait(mail)),
            };
        }
    }

    /// Wait until the inbox is empty and its relay idle, or closed. After
    /// `deadline`, how many commits are still waiting.
    pub(crate) fn settle(&self, deadline: Instant) -> std::result::Result<(), usize> {
        let left = deadline.saturating_duration_since(Instant::now());
        let mail = unpoison(self.mail.lock());
        let at_work = |mail: &mut Mail| !mail.closed && (mail.busy || !mail.events.is_empty());
        let (mail, waited) = unpoison(self.changed.wait_timeout_while(mail, left, at_work));
        if waited.timed_out() {
            return Err(mail.events.len());
        }
        Ok(())
    }
}

/// What every relay thread works with.
#[derive(Clone)]
pub(crate) struct Relay {
    /// The gateway, engine, error log and retry policy, shared with
    /// recovery, which the relay runs too.
    pub ctx: Arc<RecoveryCtx>,
    pub stats: Arc<RelayStats>,
    /// Armed by experiment E8: the next ModifyRDN+Modify pair "crashes"
    /// between its two operations.
    pub crash_between_pair: Arc<AtomicBool>,
    /// The global update sequence, for error-log entries.
    pub seq: Arc<AtomicU64>,
    /// End-to-end latency of one relayed DDU (translate + gateway trips),
    /// shared by every relay thread.
    pub ddu_hist: Arc<crate::obs::Histogram>,
    pub clock: Arc<dyn crate::obs::Clock>,
}

impl Relay {
    /// Spawn one `ddu-relay-<name>` thread per device. The device's sink
    /// posts to its inbox from here on, before the thread starts.
    pub(crate) fn spawn(self, devices: &[Device]) -> Vec<JoinHandle<()>> {
        let spawn = |device: &Device| {
            let (relay, device) = (self.clone(), device.clone());
            let inbox = device.runtime.inbox.clone();
            device.filter.subscribe(Box::new(move |ev| inbox.post(ev)));
            let builder = std::thread::Builder::new();
            let builder = builder.name(format!("ddu-relay-{}", device.filter.name()));
            builder
                .spawn(move || relay.run(&device))
                .expect("spawn relay")
        };
        devices.iter().map(spawn).collect()
    }

    /// The device's one loop: relay each commit in its commit order, and
    /// while the device is not `Up`, probe it each time a probe is due.
    fn run(&self, device: &Device) {
        let Device { filter, runtime } = device;
        loop {
            match runtime.inbox.take(|| runtime.next_probe()) {
                Work::Relay(ev) => {
                    let d = filter::descriptor(filter.as_ref(), ev);
                    self.relay(filter.as_ref(), &d);
                }
                Work::Probe => {
                    let _ = resilience::attempt_recovery(&self.ctx, device);
                }
                Work::Stop => return,
            }
            runtime.inbox.done();
        }
    }

    /// Relay one DDU: count it, time it, and log a failure (§4.4).
    fn relay(&self, filter: &dyn DeviceFilter, d: &UpdateDescriptor) {
        self.stats.ddus.fetch_add(1, Ordering::Relaxed);
        let t0 = self.clock.now_ns();
        let relayed = self.relay_one(filter, d);
        self.ddu_hist.record(self.clock.now_ns().saturating_sub(t0));
        if let Err(e) = relayed {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            self.ctx.errorlog.log(
                self.ctx.gateway.inner().as_ref(),
                self.seq.fetch_add(1, Ordering::SeqCst),
                &format!("DDU relay from {} failed: {e}", filter.name()),
                &format!("{d:?}"),
            );
        }
    }

    /// Send one LTAP operation through the gateway, tagged with its origin,
    /// retrying transient (`Unavailable`) failures per the retry policy.
    /// Retry sits at this granularity — never around a whole DDU — because
    /// the §5.1 ModifyRDN+Modify pair is not idempotent as a unit.
    fn send(&self, op: LtapOp, origin: &str) -> ldap::Result<()> {
        self.stats.ops_sent.fetch_add(1, Ordering::Relaxed);
        self.ctx.retry.run(
            &self.stats.retried,
            |e: &ldap::LdapError| e.code == ResultCode::Unavailable,
            || self.ctx.gateway.apply_tagged(op.clone(), origin),
        )
    }

    /// Bring the entry at `dn` in line with `attrs` by one tagged modify —
    /// none when nothing differs. `Ok(false)`: there is no such entry.
    fn merge(&self, dn: &Dn, attrs: &Image, origin: &str) -> Result<bool> {
        let Some(existing) = self.ctx.gateway.get(dn)? else {
            return Ok(false);
        };
        let mut mods = aux_class_mods(&existing, attrs);
        mods.extend(diff_mods(&existing, attrs));
        if !mods.is_empty() {
            self.send(LtapOp::Modify(dn.clone(), mods), origin)?;
        }
        Ok(true)
    }

    fn relay_one(&self, filter: &dyn DeviceFilter, d: &UpdateDescriptor) -> Result<()> {
        let top = self.ctx.engine.translate(filter.mapping_to_ldap(), d)?;
        let origin = filter.name();
        let dn = |key: &Option<String>| Dn::parse(key.as_deref().expect("validated"));
        match top.kind {
            OpKind::Skip => Ok(()),
            OpKind::Add | OpKind::Modify => {
                let new_dn = dn(&top.new_key)?;
                let renamed_from = match top.kind {
                    OpKind::Modify => Some(dn(&top.old_key)?).filter(|old| *old != new_dn),
                    _ => None,
                };
                if let Some(old_dn) = renamed_from {
                    // §5.1: "a direct PBX update might change a person's
                    // name (which is used in their RDN) and extension
                    // (which is not)" — a non-atomic ModifyRDN + Modify pair.
                    self.stats.rename_pairs.fetch_add(1, Ordering::Relaxed);
                    let new_rdn = new_dn
                        .rdn()
                        .ok_or_else(|| ldap::LdapError::invalid_dn("empty new DN"))?
                        .clone();
                    let rename = LtapOp::ModifyRdn {
                        dn: old_dn,
                        new_rdn,
                        delete_old: true,
                        new_superior: None,
                    };
                    self.send(rename, origin)?;
                    if self.crash_between_pair.swap(false, Ordering::SeqCst) {
                        // Experiment E8: the UM "crashes" between the pair,
                        // leaving the directory inconsistent for readers
                        // until resynchronization.
                        self.stats.injected_crashes.fetch_add(1, Ordering::SeqCst);
                        return Err(MetaError::Unavailable(
                            "injected crash between ModifyRDN and Modify".into(),
                        ));
                    }
                    self.merge(&new_dn, &top.attrs, origin)?;
                } else if !self.merge(&new_dn, &top.attrs, origin)? {
                    // No such person yet — or the entry vanished (deleted
                    // through the directory while the DDU was in flight):
                    // create it. One that exists (e.g. created via another
                    // device) had the device data merged in.
                    let entry = image_to_entry(new_dn, &top.attrs);
                    self.send(LtapOp::Add(entry), origin)?;
                }
                Ok(())
            }
            OpKind::Delete => {
                // A device-side remove clears that device's attributes from
                // the person; the person entry itself survives (they may
                // still have mailboxes, etc.).
                let dn = dn(&top.old_key)?;
                if let Some(existing) = self.ctx.gateway.get(&dn)? {
                    let mods: Vec<Modification> = filter
                        .ldap_owned_attrs()
                        .iter()
                        .filter(|a| existing.has_attr(a))
                        .map(|a| Modification::delete_attr(*a))
                        .collect();
                    if !mods.is_empty() {
                        self.send(LtapOp::Modify(dn, mods), origin)?;
                    }
                }
                Ok(())
            }
        }
    }
}
