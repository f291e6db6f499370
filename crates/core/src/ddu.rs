//! Direct-device-update relay (paper §4.4): "the device filter creates a
//! lexpress update descriptor for the update that it forwards to the LDAP
//! filter; the LDAP filter translates the descriptor into an update against
//! the LDAP schema and forwards it to LTAP; the update is eventually sent
//! back to the UM after proper LTAP locks are obtained."
//!
//! One relay thread runs per device, the only thread between the device's
//! commit and LTAP: `ddu-relay-<name>` reads the filter's change feed
//! ([`crate::filter::DirectUpdates`]: raw notifications in, echoes of
//! MetaComm's own session dropped, descriptors out) and calls the gateway.
//! Each DDU becomes one or two LTAP operations — a name change that also
//! touches other fields becomes the non-atomic ModifyRDN + Modify pair of
//! §5.1 (the window the paper's resynchronization story covers; crash
//! injection for experiment E8 sits exactly between the two).

use crate::error::{MetaError, Result};
use crate::errorlog::ErrorLog;
use crate::filter::DeviceFilter;
use crate::image::{diff_mods, image_to_entry};
use crate::obs::{Counter, Registry};
use crate::resilience::{Background, Device, RetryPolicy};
use crate::um::aux_class_mods;
use ldap::dn::Dn;
use ldap::entry::Modification;
use ldap::{Directory, ResultCode};
use lexpress::{Engine, Image, OpKind, UpdateDescriptor};
use ltap::{Gateway, LtapOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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

/// What every relay thread works with.
#[derive(Clone)]
pub(crate) struct Relay {
    pub gateway: Arc<Gateway>,
    pub engine: Arc<Engine>,
    pub errorlog: Arc<ErrorLog>,
    pub stats: Arc<RelayStats>,
    /// Armed by experiment E8: the next ModifyRDN+Modify pair "crashes"
    /// between its two operations.
    pub crash_between_pair: Arc<AtomicBool>,
    /// The global update sequence, for error-log entries.
    pub seq: Arc<AtomicU64>,
    pub retry: RetryPolicy,
    /// End-to-end latency of one relayed DDU (translate + gateway trips),
    /// shared by every relay thread.
    pub ddu_hist: Arc<crate::obs::Histogram>,
    pub clock: Arc<dyn crate::obs::Clock>,
}

impl Relay {
    /// Spawn one `ddu-relay-<name>` thread per device. Its change feed is
    /// opened here, before the thread starts, and read on that thread
    /// alone: one thread and one queue per device, in its commit order.
    pub(crate) fn spawn(self, devices: &[Device]) -> Background {
        let (shutdown, stopped) = crossbeam::channel::unbounded::<()>();
        let threads = devices
            .iter()
            .map(|device| {
                let (relay, filter, stopped) =
                    (self.clone(), device.filter.clone(), stopped.clone());
                let mut updates = filter.subscribe();
                std::thread::Builder::new()
                    .name(format!("ddu-relay-{}", filter.name()))
                    .spawn(move || {
                        while let Some(d) = updates(&stopped) {
                            relay.relay(filter.as_ref(), &d);
                        }
                    })
                    .expect("spawn relay")
            })
            .collect();
        Background { shutdown, threads }
    }

    /// Relay one DDU: count it, time it, and log a failure (§4.4).
    fn relay(&self, filter: &dyn DeviceFilter, d: &UpdateDescriptor) {
        self.stats.ddus.fetch_add(1, Ordering::Relaxed);
        let t0 = self.clock.now_ns();
        let relayed = self.relay_one(filter, d);
        self.ddu_hist.record(self.clock.now_ns().saturating_sub(t0));
        if let Err(e) = relayed {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            self.errorlog.log(
                self.gateway.inner().as_ref(),
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
        self.retry.run(
            &self.stats.retried,
            |e: &ldap::LdapError| e.code == ResultCode::Unavailable,
            || self.gateway.apply_tagged(op.clone(), origin),
        )
    }

    /// Bring the entry at `dn` in line with `attrs` by one tagged modify —
    /// none when nothing differs. `Ok(false)`: there is no such entry.
    fn merge(&self, dn: &Dn, attrs: &Image, origin: &str) -> Result<bool> {
        let Some(existing) = self.gateway.get(dn)? else {
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
        let top = self.engine.translate(filter.mapping_to_ldap(), d)?;
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
                if let Some(existing) = self.gateway.get(&dn)? {
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
