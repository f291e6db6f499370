//! The metrics registry: named components, each holding named counters,
//! gauges, and histograms. One registry per deployment.
//!
//! Metric names are LDAP-attribute-safe camelCase identifiers — the same
//! name appears as an attribute of the component's `cn=monitor` entry
//! (histograms expand to `<name>Count`, `<name>MeanNs`, `<name>P50Ns`,
//! `<name>P95Ns`, `<name>P99Ns`, `<name>MaxNs`) and in a
//! [`RegistrySnapshot`] lookup.

use super::clock::{Clock, SystemClock};
use super::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, LockResult, PoisonError, RwLock};

/// A `std::sync` lock's guard, poisoned or not (as a holder that panicked left it).
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// One named component ("um", "ltap", "relay", "server", "device-pbx-west").
pub struct Component {
    name: String,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Component {
    /// A component outside any registry, for a subsystem that starts on
    /// its own (a WAL, a wire server, a gateway) and is adopted into a
    /// deployment's registry later ([`Registry::adopt`]).
    pub fn new(name: &str) -> Arc<Component> {
        Arc::new(Component {
            name: name.to_string(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        })
    }

    /// Get-or-register a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = unpoison(self.counters.read()).get(name) {
            return c.clone();
        }
        unpoison(self.counters.write())
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Register (or replace) a callback gauge computed at read time — for
    /// derived state only; an event count is a [`Component::counter`].
    pub fn gauge_callback(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        unpoison(self.gauges.write()).insert(name.to_string(), Arc::new(Gauge::callback(f)));
    }

    /// Get-or-register a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = unpoison(self.histograms.read()).get(name) {
            return h.clone();
        }
        unpoison(self.histograms.write())
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    pub(crate) fn snapshot(&self) -> ComponentSnapshot {
        ComponentSnapshot {
            name: self.name.clone(),
            counters: unpoison(self.counters.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: unpoison(self.gauges.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: unpoison(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The per-deployment registry.
pub struct Registry {
    clock: Arc<dyn Clock>,
    components: RwLock<BTreeMap<String, Arc<Component>>>,
}

impl Registry {
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Registry> {
        Arc::new(Registry {
            clock,
            components: RwLock::new(BTreeMap::new()),
        })
    }

    /// A registry on the real (monotonic) clock.
    pub fn system() -> Arc<Registry> {
        Registry::new(SystemClock::new())
    }

    /// The clock every latency in this registry is measured on.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Get-or-register a component.
    pub fn component(&self, name: &str) -> Arc<Component> {
        if let Some(c) = unpoison(self.components.read()).get(name) {
            return c.clone();
        }
        unpoison(self.components.write())
            .entry(name.to_string())
            .or_insert_with(|| Component::new(name))
            .clone()
    }

    /// Register a component built outside the registry under its own
    /// name, replacing any component of that name, so its handles report
    /// here from now on.
    pub fn adopt(&self, component: Arc<Component>) -> Arc<Component> {
        unpoison(self.components.write()).insert(component.name.clone(), component.clone());
        component
    }

    /// A consistent-enough point-in-time view of every metric: each
    /// histogram snapshot is internally consistent; counters are read once.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            components: unpoison(self.components.read())
                .values()
                .map(|c| c.snapshot())
                .collect(),
        }
    }
}

/// Snapshot of one component.
#[derive(Debug, Clone)]
pub struct ComponentSnapshot {
    pub name: String,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl ComponentSnapshot {
    /// A counter or gauge value by name (gauges clamp at 0).
    pub fn value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .or_else(|| {
                self.gauges
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| (*v).max(0) as u64)
            })
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Snapshot of the whole registry.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    pub components: Vec<ComponentSnapshot>,
}

impl RegistrySnapshot {
    pub fn component(&self, name: &str) -> Option<&ComponentSnapshot> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Shorthand: `value("um", "updates")`.
    pub fn value(&self, component: &str, metric: &str) -> Option<u64> {
        self.component(component)?.value(metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_metric() {
        let r = Registry::system();
        let c1 = r.component("um").counter("updates");
        let c2 = r.component("um").counter("updates");
        c1.inc();
        assert_eq!(c2.get(), 1);
        let names: Vec<_> = (r.snapshot().components.into_iter().map(|c| c.name)).collect();
        assert_eq!(names, ["um"]);
    }

    #[test]
    fn snapshot_and_lookup() {
        let r = Registry::system();
        r.component("um").counter("updates").add(3);
        r.component("um").gauge_callback("depth", || 7);
        r.component("um").histogram("update").record(100);
        let s = r.snapshot();
        assert_eq!(s.value("um", "updates"), Some(3));
        assert_eq!(s.value("um", "depth"), Some(7));
        let h = s.component("um").unwrap().histogram("update").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(s.value("um", "missing"), None);
        assert!(s.component("nope").is_none());
    }

    #[test]
    fn an_adopted_component_reports_through_its_existing_handles() {
        let r = Registry::system();
        let wal = Component::new("durability");
        let appends = wal.counter("walAppends");
        appends.inc();
        r.adopt(wal);
        appends.inc();
        assert_eq!(r.snapshot().value("durability", "walAppends"), Some(2));
        assert_eq!(r.component("durability").counter("walAppends").get(), 2);
    }
}
