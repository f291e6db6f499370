//! The metrics registry: named components, each holding named counters,
//! gauges, and histograms. One registry per [`crate::MetaComm`] deployment.
//!
//! Metric names are LDAP-attribute-safe camelCase identifiers — the same
//! name appears as an attribute of the component's `cn=monitor` entry
//! (histograms expand to `<name>Count`, `<name>MeanNs`, `<name>P50Ns`,
//! `<name>P95Ns`, `<name>P99Ns`, `<name>MaxNs`), as a key in
//! [`RegistrySnapshot::to_json`], and in [`crate::MetaComm::metrics_snapshot`].

use super::clock::{Clock, SystemClock};
use super::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One named component ("um", "ltap", "relay", "server", "device-pbx-west").
pub struct Component {
    name: String,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Component {
    fn new(name: &str) -> Arc<Component> {
        Arc::new(Component {
            name: name.to_string(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        })
    }

    /// Get-or-register a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Register (or replace) a callback gauge computed at read time.
    pub(crate) fn gauge_callback(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.gauges
            .write()
            .insert(name.to_string(), Arc::new(Gauge::callback(f)));
    }

    /// Get-or-register a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    pub(crate) fn snapshot(&self) -> ComponentSnapshot {
        ComponentSnapshot {
            name: self.name.clone(),
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
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
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Arc<Registry> {
        Arc::new(Registry {
            clock,
            components: RwLock::new(BTreeMap::new()),
        })
    }

    /// A registry on the real (monotonic) clock.
    pub fn system() -> Arc<Registry> {
        Registry::new(SystemClock::new())
    }

    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Get-or-register a component.
    pub fn component(&self, name: &str) -> Arc<Component> {
        if let Some(c) = self.components.read().get(name) {
            return c.clone();
        }
        self.components
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Component::new(name))
            .clone()
    }

    /// A consistent-enough point-in-time view of every metric: each
    /// histogram snapshot is internally consistent; counters are read once.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            components: self
                .components
                .read()
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

/// Snapshot of the whole registry (the [`crate::MetaComm::metrics_snapshot`]
/// return type).
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

    /// Hand-rolled JSON (the workspace has no serde): components →
    /// counters/gauges/histograms. Metric names are already JSON-safe
    /// identifiers; string values are escaped anyway.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{{", json_str(&c.name)));
            let mut first = true;
            for (k, v) in &c.counters {
                push_kv(&mut out, &mut first, k, &v.to_string());
            }
            for (k, v) in &c.gauges {
                push_kv(&mut out, &mut first, k, &v.to_string());
            }
            for (k, h) in &c.histograms {
                let val = format!(
                    "{{\"count\":{},\"sumNs\":{},\"meanNs\":{:.1},\"p50Ns\":{},\"p95Ns\":{},\"p99Ns\":{},\"maxNs\":{}}}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                );
                push_kv(&mut out, &mut first, k, &val);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn push_kv(out: &mut String, first: &mut bool, key: &str, raw_value: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&json_str(key));
    out.push(':');
    out.push_str(raw_value);
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn json_is_well_formed_and_non_empty() {
        let r = Registry::system();
        r.component("a").counter("x").inc();
        r.component("a").histogram("lat").record(42);
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"a\""));
        assert!(j.contains("\"x\":1"));
        assert!(j.contains("\"p95Ns\""));
        // Balanced braces (crude well-formedness check, no serde available).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced: {j}"
        );
    }
}
