//! The LTAP gateway: "pretends to be an LDAP server — LDAP commands
//! intended for the LDAP server are intercepted by LTAP which does trigger
//! processing in addition to servicing the original LDAP command" (§4.3).
//!
//! The gateway implements [`Directory`], so it can be used
//!
//! * **as a library** bound into an application (in-process calls), or
//! * **as a network gateway** by serving it with `ldap::server::Server` —
//!   the §5.5 deployment trade-off, measurable in experiment E5.
//!
//! Reads pass straight through (the UM machine "does not need to do any
//! read processing"); updates take the quiesce pass, the per-entry lock
//! (a rename also locks the DN it renames to), fire before-triggers (which may veto or take over servicing), apply,
//! then fire after-triggers.

use crate::lock::LockManager;
use crate::quiesce::QuiesceGate;
use crate::session::SyncSession;
use crate::trigger::{Disposition, LtapOp, Timing, TriggerContext, TriggerHandler, TriggerSpec};
use crate::unpoison;
use ldap::dit::Scope;
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::error::Result;
use ldap::filter::Filter;
use ldap::Directory;
use obs::{Component, Counter};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

struct Registered {
    spec: TriggerSpec,
    handler: Arc<dyn TriggerHandler>,
}

/// Gateway statistics (experiment E5 instrumentation): handles on the
/// gateway's own `ltap` component ([`Stats::component`]), which a
/// deployment adopts into its registry.
pub struct Stats {
    component: Arc<Component>,
    pub reads: Arc<Counter>,
    pub updates: Arc<Counter>,
    pub triggers_fired: Arc<Counter>,
    pub vetoed: Arc<Counter>,
    pub handled_by_trigger: Arc<Counter>,
    /// Cumulative wall time inside the trapped update path (quiesce + lock +
    /// triggers + apply), nanoseconds. Counted for failed trips too.
    pub update_ns: Arc<Counter>,
    /// Cumulative wall time inside pass-through reads, nanoseconds.
    pub read_ns: Arc<Counter>,
}

impl Default for Stats {
    fn default() -> Stats {
        let c = Component::new("ltap");
        Stats {
            reads: c.counter("reads"),
            updates: c.counter("updates"),
            triggers_fired: c.counter("triggersFired"),
            vetoed: c.counter("vetoed"),
            handled_by_trigger: c.counter("handledByTrigger"),
            update_ns: c.counter("updateNsTotal"),
            read_ns: c.counter("readNsTotal"),
            component: c,
        }
    }
}

impl Stats {
    /// The `ltap` component these counters are registered in.
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }
}

/// The trigger gateway.
pub struct Gateway {
    inner: Arc<dyn Directory>,
    locks: LockManager,
    quiesce: QuiesceGate,
    triggers: RwLock<Vec<Registered>>,
    stats: Stats,
}

impl Gateway {
    pub fn new(inner: Arc<dyn Directory>) -> Arc<Gateway> {
        Arc::new(Gateway {
            inner,
            locks: LockManager::new(),
            quiesce: QuiesceGate::new(),
            triggers: RwLock::new(Vec::new()),
            stats: Stats::default(),
        })
    }

    /// The directory behind the gateway.
    pub fn inner(&self) -> &Arc<dyn Directory> {
        &self.inner
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Register a trigger; triggers fire in registration order.
    pub fn register(&self, spec: TriggerSpec, handler: Arc<dyn TriggerHandler>) {
        unpoison(self.triggers.write()).push(Registered { spec, handler });
    }

    /// Open a synchronization session: quiesces the gateway (all ordinary
    /// updates drain and block) and returns a handle applying operations
    /// directly, bypassing trigger processing — the paper's persistent
    /// connection + quiesce combination (§5.1).
    pub fn begin_sync(self: &Arc<Self>) -> SyncSession {
        SyncSession::open(self.clone())
    }

    pub(crate) fn quiesce_gate(&self) -> &QuiesceGate {
        &self.quiesce
    }

    /// Apply an operation tagged with its originating repository — the
    /// persistent-connection extension MetaComm's device filters use when
    /// relaying direct device updates (§4.4: "the update is eventually sent
    /// back to the UM after proper LTAP locks are obtained").
    pub fn apply_tagged(&self, op: LtapOp, origin: &str) -> Result<()> {
        self.trap(op, Some(origin))
    }

    /// The trapped update path shared by all four update operations.
    /// Wall time is accumulated into [`Stats::update_ns`] whether the trip
    /// succeeds, is vetoed, or fails downstream.
    fn trap(&self, op: LtapOp, origin: Option<&str>) -> Result<()> {
        let t0 = std::time::Instant::now();
        let r = self.trap_inner(op, origin);
        self.stats
            .update_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn trap_inner(&self, op: LtapOp, origin: Option<&str>) -> Result<()> {
        let _pass = self.quiesce.enter_update();
        self.stats.updates.fetch_add(1, Ordering::Relaxed);
        // A rename also locks the DN it renames to, so it is ordered against
        // writes to the entry it becomes. Two keys are taken in sorted
        // order, so no two traps can deadlock.
        let key = op.dn().norm_key();
        let renamed_to = match &op {
            LtapOp::ModifyRdn { .. } => op.target_dn().ok().map(|to| to.norm_key()),
            _ => None,
        };
        let (first, second) = match renamed_to {
            Some(to) if to < key => (to, Some(key)),
            Some(to) if to > key => (key, Some(to)),
            _ => (key, None),
        };
        let _first = self.locks.lock(first);
        let _second = second.map(|k| self.locks.lock(k));
        // Pre-image for trigger filters / handlers.
        let pre_image = match &op {
            LtapOp::Add(_) => None,
            other => self.inner.get(other.dn())?,
        };
        // Entry the filters evaluate against: new entry for add, pre-image
        // otherwise.
        let affected: Option<&Entry> = match &op {
            LtapOp::Add(e) => Some(e),
            _ => pre_image.as_ref(),
        };
        // Before-triggers.
        let mut handled = false;
        {
            let triggers = unpoison(self.triggers.read());
            for t in triggers.iter() {
                if t.spec.timing != Timing::Before || !t.spec.matches(&op, affected) {
                    continue;
                }
                self.stats.triggers_fired.fetch_add(1, Ordering::Relaxed);
                let ctx = TriggerContext {
                    op: &op,
                    pre_image: pre_image.as_ref(),
                    origin,
                    directory: self.inner.as_ref(),
                };
                match t.handler.fire(&ctx) {
                    Ok(Disposition::Proceed) => {}
                    Ok(Disposition::Handled) => {
                        handled = true;
                        self.stats
                            .handled_by_trigger
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) => {
                        self.stats.vetoed.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
        }
        if !handled {
            self.apply_inner(&op)?;
        }
        // After-triggers (results ignored).
        let triggers = unpoison(self.triggers.read());
        for t in triggers.iter() {
            if t.spec.timing != Timing::After || !t.spec.matches(&op, affected) {
                continue;
            }
            self.stats.triggers_fired.fetch_add(1, Ordering::Relaxed);
            let ctx = TriggerContext {
                op: &op,
                pre_image: pre_image.as_ref(),
                origin,
                directory: self.inner.as_ref(),
            };
            let _ = t.handler.fire(&ctx);
        }
        Ok(())
    }

    /// A pass-through read, counted and timed — no lock, no quiesce pass.
    fn read<T>(&self, op: impl FnOnce() -> Result<T>) -> Result<T> {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let r = op();
        self.stats
            .read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn apply_inner(&self, op: &LtapOp) -> Result<()> {
        match op {
            LtapOp::Add(e) => self.inner.add(e.clone()),
            LtapOp::Modify(dn, mods) => self.inner.modify(dn, mods),
            LtapOp::Delete(dn) => self.inner.delete(dn),
            LtapOp::ModifyRdn {
                dn,
                new_rdn,
                delete_old,
                new_superior,
            } => self
                .inner
                .modify_rdn(dn, new_rdn, *delete_old, new_superior.as_ref()),
        }
    }
}

impl Directory for Gateway {
    fn add(&self, entry: Entry) -> Result<()> {
        self.trap(LtapOp::Add(entry), None)
    }

    fn delete(&self, dn: &Dn) -> Result<()> {
        self.trap(LtapOp::Delete(dn.clone()), None)
    }

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        self.trap(LtapOp::Modify(dn.clone(), mods.to_vec()), None)
    }

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        self.trap(
            LtapOp::ModifyRdn {
                dn: dn.clone(),
                new_rdn: new_rdn.clone(),
                delete_old,
                new_superior: new_superior.cloned(),
            },
            None,
        )
    }

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        self.read(|| self.inner.compare(dn, attr, value))
    }

    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        self.read(|| {
            self.inner
                .search_visit(base, scope, filter, attrs, size_limit, visit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldap::dit::{figure2_tree, Dit};
    use ldap::error::{LdapError, ResultCode};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    fn gateway() -> (Arc<Gateway>, Arc<Dit>) {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        (Gateway::new(dit.clone()), dit)
    }

    #[test]
    fn reads_pass_through() {
        let (gw, _dit) = gateway();
        let hits = gw
            .search(
                &Dn::parse("o=Lucent").unwrap(),
                Scope::Sub,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(hits.len(), 9);
        assert_eq!(gw.stats().reads.load(Ordering::Relaxed), 1);
        assert_eq!(gw.stats().updates.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn before_trigger_sees_pre_image_and_proceeds() {
        let (gw, dit) = gateway();
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        gw.register(
            TriggerSpec::all_updates("audit", Dn::parse("o=Lucent").unwrap()),
            Arc::new(move |ctx: &TriggerContext<'_>| {
                let pre = ctx
                    .pre_image
                    .map(|e| e.first("sn").unwrap_or("").to_string())
                    .unwrap_or_default();
                let kind = ctx.op.kind();
                seen2.lock().unwrap().push(format!("{kind:?}:{pre}"));
                Ok(Disposition::Proceed)
            }),
        );
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        gw.modify(&john, &[Modification::set("telephoneNumber", "9123")])
            .unwrap();
        assert_eq!(
            dit.get(&john).unwrap().unwrap().first("telephoneNumber"),
            Some("9123")
        );
        assert_eq!(seen.lock().unwrap().as_slice(), &["Modify:Doe".to_string()]);
    }

    #[test]
    fn veto_aborts_operation() {
        let (gw, dit) = gateway();
        gw.register(
            TriggerSpec::all_updates("no-deletes", Dn::root()),
            Arc::new(|ctx: &TriggerContext<'_>| {
                if ctx.op.kind() == crate::trigger::OpKind::Delete {
                    Err(LdapError::unwilling("deletes forbidden by policy"))
                } else {
                    Ok(Disposition::Proceed)
                }
            }),
        );
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let err = gw.delete(&john).unwrap_err();
        assert_eq!(err.code, ResultCode::UnwillingToPerform);
        assert!(
            ldap::Dit::exists(&dit, &john),
            "delete must not have been applied"
        );
        assert_eq!(gw.stats().vetoed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handled_trigger_takes_over_servicing() {
        let (gw, dit) = gateway();
        // The handler rewrites every telephone change to a normalized form
        // and services the operation itself.
        gw.register(
            TriggerSpec::all_updates("normalize", Dn::root()),
            Arc::new(|ctx: &TriggerContext<'_>| {
                if let LtapOp::Modify(dn, mods) = ctx.op {
                    let rewritten: Vec<Modification> = mods
                        .iter()
                        .map(|m| {
                            if m.attr.norm() == "telephonenumber" {
                                Modification::set(
                                    "telephoneNumber",
                                    format!("+1 908 582 {}", m.values[0]),
                                )
                            } else {
                                m.clone()
                            }
                        })
                        .collect();
                    ctx.directory.modify(dn, &rewritten)?;
                    return Ok(Disposition::Handled);
                }
                Ok(Disposition::Proceed)
            }),
        );
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        gw.modify(&john, &[Modification::set("telephoneNumber", "9123")])
            .unwrap();
        assert_eq!(
            dit.get(&john).unwrap().unwrap().first("telephoneNumber"),
            Some("+1 908 582 9123"),
            "the handler's transformed op must be the one applied"
        );
        assert_eq!(gw.stats().handled_by_trigger.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn after_triggers_fire_post_apply() {
        let (gw, _dit) = gateway();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        gw.register(
            TriggerSpec::all_updates("post", Dn::root()).after(),
            Arc::new(move |_: &TriggerContext<'_>| {
                c2.fetch_add(1, Ordering::SeqCst);
                Ok(Disposition::Proceed)
            }),
        );
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        gw.modify(&john, &[Modification::set("telephoneNumber", "1")])
            .unwrap();
        // Failed ops do not fire after-triggers.
        let _ = gw.delete(&Dn::parse("cn=ghost,o=Lucent").unwrap());
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    fn rename(from: &Dn, to: &Dn) -> LtapOp {
        LtapOp::ModifyRdn {
            dn: from.clone(),
            new_rdn: to.rdn().unwrap().clone(),
            delete_old: true,
            new_superior: None,
        }
    }

    #[test]
    fn a_rename_holds_off_writes_to_the_dn_it_becomes() {
        let (gw, _dit) = gateway();
        let a = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let b = Dn::parse("cn=Jack Doe,o=Marketing,o=Lucent").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (modify_tx, modify_entered) = std::sync::mpsc::channel();
        let release_rx = Mutex::new(release_rx);
        let events = log.clone();
        gw.register(
            TriggerSpec::all_updates("pause-renames", Dn::root()),
            Arc::new(move |ctx: &TriggerContext<'_>| {
                if let LtapOp::ModifyRdn { .. } = ctx.op {
                    events.lock().unwrap().push("rename enters");
                    entered_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                    events.lock().unwrap().push("rename leaves");
                } else {
                    events.lock().unwrap().push("modify enters");
                    modify_tx.send(()).unwrap();
                }
                Ok(Disposition::Handled)
            }),
        );
        std::thread::scope(|sc| {
            let renamer = sc.spawn(|| gw.apply_tagged(rename(&a, &b), "test"));
            entered.recv().unwrap();
            let (started_tx, started) = std::sync::mpsc::channel();
            let (gw, b) = (&gw, &b);
            let writer = sc.spawn(move || {
                started_tx.send(()).unwrap();
                gw.modify(b, &[Modification::set("sn", "Doe")])
            });
            started.recv().unwrap();
            // Give a writer that is not held off the chance to get in; the
            // proof is the order the trigger logged, not this wait.
            let early = modify_entered.recv_timeout(std::time::Duration::from_millis(100));
            release.send(()).unwrap();
            renamer.join().unwrap().unwrap();
            writer.join().unwrap().unwrap();
            if early.is_err() {
                modify_entered.recv().unwrap();
            }
        });
        assert_eq!(
            *log.lock().unwrap(),
            ["rename enters", "rename leaves", "modify enters"],
            "a write to the rename's new DN entered its trigger mid-rename"
        );
        assert_eq!(gw.locks().held(), 0);
    }

    #[test]
    fn opposite_renames_take_both_locks_without_deadlock() {
        let (gw, _dit) = gateway();
        let a = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let b = Dn::parse("cn=Jack Doe,o=Marketing,o=Lucent").unwrap();
        // The trigger services nothing, so the DIT never changes and every
        // round of either thread locks both A and B: at most one trigger
        // runs at a time.
        let inside = AtomicUsize::new(0);
        let overlaps = Arc::new(AtomicUsize::new(0));
        let o2 = overlaps.clone();
        gw.register(
            TriggerSpec::all_updates("handled", Dn::root()),
            Arc::new(move |_: &TriggerContext<'_>| {
                if inside.fetch_add(1, Ordering::SeqCst) != 0 {
                    o2.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
                inside.fetch_sub(1, Ordering::SeqCst);
                Ok(Disposition::Handled)
            }),
        );
        let (done_tx, done) = std::sync::mpsc::channel();
        let renamers: Vec<_> = [(a.clone(), b.clone()), (b, a)]
            .into_iter()
            .map(|(from, to)| {
                let (gw, done_tx) = (gw.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        gw.apply_tagged(rename(&from, &to), "test").unwrap();
                    }
                    done_tx.send(()).unwrap();
                })
            })
            .collect();
        // Deadlocked threads would never join: wait a bounded time for
        // both to finish, and only then join them.
        for _ in 0..2 {
            done.recv_timeout(std::time::Duration::from_secs(60))
                .expect("opposite renames deadlocked");
        }
        for renamer in renamers {
            renamer.join().unwrap();
        }
        assert_eq!(overlaps.load(Ordering::SeqCst), 0, "triggers overlapped");
        assert_eq!(gw.locks().held(), 0);
    }

    #[test]
    fn served_over_tcp_as_network_gateway() {
        // §5.5: the gateway deployment — LDAP clients talk to LTAP over the
        // wire; triggers still fire.
        let (gw, dit) = gateway();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        gw.register(
            TriggerSpec::all_updates("count", Dn::root()),
            Arc::new(move |_: &TriggerContext<'_>| {
                f2.fetch_add(1, Ordering::SeqCst);
                Ok(Disposition::Proceed)
            }),
        );
        let server = ldap::server::Server::start(gw, "127.0.0.1:0").unwrap();
        let client = ldap::client::TcpDirectory::connect(&server.addr().to_string()).unwrap();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        client
            .modify(&john, &[Modification::set("telephoneNumber", "9123")])
            .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(
            dit.get(&john).unwrap().unwrap().first("telephoneNumber"),
            Some("9123")
        );
    }
}
