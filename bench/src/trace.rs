//! Spans recorded by the benchmark around its own calls into each layer.
//! Kept in memory; written out once, when the traced run ends.

use crate::stats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent (a request's end-to-end span).
    pub parent: u64,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record one finished span; returns its id for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .push(span);
        id
    }

    /// Time `f` as a span and hand back its result.
    pub fn span<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// The id of the parentless span of request `req`, 0 if there is none.
    pub fn root_of(&self, req: u64) -> u64 {
        let spans = self.spans.lock().expect("span list");
        spans
            .iter()
            .find(|s| s.parent == 0 && s.req == req)
            .map_or(0, |s| s.id)
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("span list");
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (!d.is_empty()).then(|| stats::median(&d))
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list").len()
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list");
        let mut out = String::with_capacity(spans.len() * 96 + 16);
        out.push_str("{\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A latency budget: rows measured or derived by subtraction, and whatever
/// of the end-to-end median they leave unexplained.
pub struct Budget {
    pub title: &'static str,
    pub end_to_end_us: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Budget {
    pub fn unattributed_us(&self) -> f64 {
        self.end_to_end_us - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    pub fn unattributed_ratio(&self) -> f64 {
        self.unattributed_us() / self.end_to_end_us
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "budget: {} (end-to-end {:.1} us)\n",
            self.title, self.end_to_end_us
        );
        let mut line = |name: &str, us: f64| {
            out.push_str(&format!(
                "  {:<44} {:>12.1} us {:>6.1} %\n",
                name,
                us,
                100.0 * us / self.end_to_end_us
            ));
        };
        for (name, us) in &self.rows {
            line(name, *us);
        }
        line("unattributed", self.unattributed_us());
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(n, us)| format!("{{\"row\":\"{n}\",\"us\":{us:.3}}}"))
            .collect();
        format!(
            "{{\"title\":\"{}\",\"end_to_end_us\":{:.3},\"rows\":[{}],\"unattributed_us\":{:.3}}}",
            self.title,
            self.end_to_end_us,
            rows.join(","),
            self.unattributed_us()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, || 5), 5);
        assert_eq!(t.len(), 0);
        assert!(t.median_us("x").is_none());
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let t = Tracer::new(true);
        let a = Instant::now();
        let root = t.record("root", 0, 9, a, a + Duration::from_micros(30));
        t.record("child", root, 9, a, a + Duration::from_micros(10));
        t.record("child", root, 9, a, a + Duration::from_micros(20));
        assert_eq!(t.len(), 3);
        assert_eq!(t.root_of(9), root);
        assert_eq!(t.root_of(8), 0);
        assert_eq!(t.median_us("child"), Some(15.0));
        let json = t.to_json();
        assert!(json.contains(&format!("\"parent\":{root},\"req\":9,\"name\":\"child\"")));
    }

    #[test]
    fn budget_rows_and_unattributed_sum_to_the_total() {
        let b = Budget {
            title: "t",
            end_to_end_us: 100.0,
            rows: vec![("a", 30.0), ("b", 45.5)],
        };
        assert_eq!(b.unattributed_us(), 24.5);
        let sum: f64 = b.rows.iter().map(|r| r.1).sum::<f64>() + b.unattributed_us();
        assert_eq!(sum, b.end_to_end_us);
        assert!(b.render().contains("unattributed"));
    }
}
