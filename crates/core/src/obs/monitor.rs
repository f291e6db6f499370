//! The `cn=monitor` subtree: the registry exported live through LDAP, the
//! way real directory servers (OpenLDAP's back-monitor) expose theirs.
//!
//! [`MonitorDirectory`] decorates any [`Directory`] (in MetaComm: the LTAP
//! gateway). Searches based under `cn=monitor` are answered from entries
//! materialized on the fly out of the [`Registry`] — one entry per
//! component, one attribute per counter/gauge, six attributes per
//! histogram (`<name>Count`, `<name>MeanNs`, `<name>P50Ns`, `<name>P95Ns`,
//! `<name>P99Ns`, `<name>MaxNs`) — searchable with ordinary RFC 2254
//! filters, scopes, projections, and size limits. Everything else
//! passes through to the wrapped directory; writes under `cn=monitor` are
//! refused with `unwillingToPerform`.

use super::{ComponentSnapshot, Registry};
use ldap::dit::Scope;
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::{Directory, LdapError, Result, ResultCode};
use std::sync::Arc;

/// DN of the monitor subtree root.
pub(crate) const MONITOR_BASE: &str = "cn=monitor";

/// The decorator serving `cn=monitor` in front of a real directory.
pub struct MonitorDirectory {
    inner: Arc<dyn Directory>,
    registry: Arc<Registry>,
    base: Dn,
}

impl MonitorDirectory {
    pub fn new(inner: Arc<dyn Directory>, registry: Arc<Registry>) -> Arc<MonitorDirectory> {
        Arc::new(MonitorDirectory {
            inner,
            registry,
            base: Dn::parse(MONITOR_BASE).expect("static DN"),
        })
    }

    /// The monitor subtree materialized from the current registry state:
    /// the root entry first, then one entry per component (sorted).
    pub(crate) fn materialize(&self) -> Vec<Entry> {
        let snap = self.registry.snapshot();
        let mut root = Entry::new(self.base.clone());
        root.add_value("objectClass", "top");
        root.add_value("objectClass", "monitorServer");
        root.add_value("cn", "monitor");
        root.add_value(
            "description",
            "MetaComm live metrics (read-only; values materialized per search)",
        );
        let mut out = vec![];
        let mut components = Vec::new();
        for c in &snap.components {
            root.add_value("monitorComponent", c.name.clone());
            components.push(self.component_entry(c));
        }
        out.push(root);
        out.extend(components);
        out
    }

    fn component_entry(&self, c: &ComponentSnapshot) -> Entry {
        let mut e = Entry::new(self.base.child(Rdn::new("cn", c.name.clone())));
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "monitorComponent");
        e.add_value("cn", c.name.clone());
        for (k, v) in &c.counters {
            e.add_value(k.clone(), v.to_string());
        }
        for (k, v) in &c.gauges {
            e.add_value(k.clone(), v.to_string());
        }
        for (k, h) in &c.histograms {
            e.add_value(format!("{k}Count"), h.count.to_string());
            e.add_value(format!("{k}MeanNs"), format!("{:.0}", h.mean()));
            e.add_value(format!("{k}P50Ns"), h.p50.to_string());
            e.add_value(format!("{k}P95Ns"), h.p95.to_string());
            e.add_value(format!("{k}P99Ns"), h.p99.to_string());
            e.add_value(format!("{k}MaxNs"), h.max.to_string());
        }
        e
    }

    fn refuse_write(&self, dn: &Dn) -> Result<()> {
        if dn.is_within(&self.base) {
            Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                "cn=monitor is read-only",
            ))
        } else {
            Ok(())
        }
    }
}

impl Directory for MonitorDirectory {
    fn add(&self, entry: Entry) -> Result<()> {
        self.refuse_write(entry.dn())?;
        self.inner.add(entry)
    }

    fn delete(&self, dn: &Dn) -> Result<()> {
        self.refuse_write(dn)?;
        self.inner.delete(dn)
    }

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        self.refuse_write(dn)?;
        self.inner.modify(dn, mods)
    }

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        self.refuse_write(dn)?;
        if let Some(sup) = new_superior {
            self.refuse_write(&sup.child(new_rdn.clone()))?;
        }
        self.inner.modify_rdn(dn, new_rdn, delete_old, new_superior)
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
        if !base.is_within(&self.base) {
            // Forward so the inner directory's zero-copy path stays intact.
            return self
                .inner
                .search_visit(base, scope, filter, attrs, size_limit, visit);
        }
        let entries = self.materialize();
        let base_key = base.norm_key();
        if !entries.iter().any(|e| e.dn().norm_key() == base_key) {
            return Err(LdapError::no_such_object(base));
        }
        let mut count = 0;
        for e in &entries {
            let in_scope = match scope {
                Scope::Base => e.dn().norm_key() == base_key,
                Scope::One => e.dn().parent().is_some_and(|p| p.norm_key() == base_key),
                Scope::Sub => e.dn().is_within(base),
            };
            if !in_scope || !filter.matches(e) {
                continue;
            }
            if size_limit != 0 && count >= size_limit {
                return Ok((count, true));
            }
            count += 1;
            visit(&e.project(attrs));
        }
        Ok((count, false))
    }

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        if !dn.is_within(&self.base) {
            return self.inner.compare(dn, attr, value);
        }
        let entries = self.materialize();
        let key = dn.norm_key();
        match entries.iter().find(|e| e.dn().norm_key() == key) {
            Some(e) => Ok(e.has_value(attr, value)),
            None => Err(LdapError::no_such_object(dn)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldap::dit::{figure2_tree, Dit};

    fn rig() -> (Arc<MonitorDirectory>, Arc<Registry>) {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let registry = Registry::system();
        registry.component("um").counter("updates").add(5);
        registry.component("um").histogram("update").record(1_000);
        registry.component("relay").counter("ddus").add(2);
        (MonitorDirectory::new(dit, registry.clone()), registry)
    }

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    #[test]
    fn subtree_search_returns_root_and_components() {
        let (m, _r) = rig();
        let hits = m
            .search(&dn("cn=monitor"), Scope::Sub, &Filter::match_all(), &[], 0)
            .unwrap();
        let dns: Vec<String> = hits.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(
            dns,
            vec!["cn=monitor", "cn=relay,cn=monitor", "cn=um,cn=monitor"]
        );
        let um = &hits[2];
        assert_eq!(um.first("updates"), Some("5"));
        assert_eq!(um.first("updateCount"), Some("1"));
        assert!(um.first("updateP95Ns").is_some());
    }

    #[test]
    fn rfc2254_filters_and_scopes_apply() {
        let (m, _r) = rig();
        let f = Filter::parse("(cn=um)").unwrap();
        let hits = m.search(&dn("cn=monitor"), Scope::One, &f, &[], 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), "cn=um,cn=monitor");
        // Base scope on a component entry.
        let hits = m
            .search(
                &dn("cn=um,cn=monitor"),
                Scope::Base,
                &Filter::match_all(),
                &["updates".into()],
                0,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].first("updates"), Some("5"));
        assert!(hits[0].first("cn").is_none(), "projection must apply");
        // Missing base errors like a real server.
        let err = m
            .search(
                &dn("cn=ghost,cn=monitor"),
                Scope::Base,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchObject);
    }

    #[test]
    fn values_are_live_not_cached() {
        let (m, r) = rig();
        let before = m
            .search(
                &dn("cn=um,cn=monitor"),
                Scope::Base,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(before[0].first("updates"), Some("5"));
        r.component("um").counter("updates").add(10);
        let after = m
            .search(
                &dn("cn=um,cn=monitor"),
                Scope::Base,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(after[0].first("updates"), Some("15"));
    }

    #[test]
    fn writes_under_monitor_are_refused_and_passthrough_works() {
        let (m, _r) = rig();
        let err = m.delete(&dn("cn=um,cn=monitor")).unwrap_err();
        assert_eq!(err.code, ResultCode::UnwillingToPerform);
        let err = m.add(Entry::new(dn("cn=new,cn=monitor"))).unwrap_err();
        assert_eq!(err.code, ResultCode::UnwillingToPerform);
        // Pass-through read of the real tree underneath.
        let hits = m
            .search(&dn("o=Lucent"), Scope::Sub, &Filter::match_all(), &[], 0)
            .unwrap();
        assert_eq!(hits.len(), 9);
        // Compare against a monitor entry.
        assert!(m.compare(&dn("cn=um,cn=monitor"), "updates", "5").unwrap());
        assert!(!m.compare(&dn("cn=um,cn=monitor"), "updates", "6").unwrap());
    }
}
