//! Per-update tracing spans: a lightweight stage timer the Update Manager
//! threads through one trapped operation — queue acquisition, transitive
//! closure, lexpress translation, each device filter apply, and the final
//! directory commit (plus the abort path). Stage durations land in the
//! owning component's histograms and on the public
//! [`crate::UpdateTrace::stage_ns`] record.

use super::clock::Clock;
use std::sync::Arc;

/// A running span, owned by the one thread doing the work. `mark(stage)`
/// closes the current stage and is the only way a stage is recorded, so
/// stages are consecutive, non-overlapping stretches of that thread's wall
/// time and `Σ stage ≤ total` for every span.
pub struct Span {
    clock: Arc<dyn Clock>,
    started_ns: u64,
    last_ns: u64,
    stages: Vec<(String, u64)>,
}

impl Span {
    #[cfg(test)]
    fn start(clock: Arc<dyn Clock>) -> Span {
        let now = clock.now_ns();
        Span {
            clock,
            started_ns: now,
            last_ns: now,
            stages: Vec::with_capacity(8),
        }
    }

    /// Start a span whose first stage began earlier (e.g. when the trapped
    /// op was enqueued) — the gap to `origin_ns` becomes stage `stage`.
    pub(crate) fn start_from(clock: Arc<dyn Clock>, origin_ns: u64, stage: &str) -> Span {
        let now = clock.now_ns();
        let wait = now.saturating_sub(origin_ns);
        Span {
            clock,
            started_ns: origin_ns.min(now),
            last_ns: now,
            stages: vec![(stage.to_string(), wait)],
        }
    }

    /// Close the current stage under `name` and start the next one.
    /// Returns the closed stage's duration in nanoseconds.
    pub(crate) fn mark(&mut self, name: &str) -> u64 {
        let now = self.clock.now_ns();
        let d = now.saturating_sub(self.last_ns);
        self.last_ns = now;
        // Repeated marks with the same name (one per device filter)
        // accumulate into one stage.
        if let Some(s) = self.stages.iter_mut().find(|(n, _)| n == name) {
            s.1 += d;
        } else {
            self.stages.push((name.to_string(), d));
        }
        d
    }

    /// Total elapsed nanoseconds since the span's origin.
    pub(crate) fn total_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.started_ns)
    }

    /// The closed stages so far, in first-marked order.
    pub(crate) fn stages(&self) -> &[(String, u64)] {
        &self.stages
    }

    /// Consume the span: `(stage durations, total)`.
    pub(crate) fn finish(self) -> (Vec<(String, u64)>, u64) {
        let total = self.total_ns();
        (self.stages, total)
    }
}

#[cfg(test)]
mod tests {
    use super::super::clock::ManualClock;
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_are_exact_on_a_manual_clock() {
        let clock = ManualClock::new();
        let mut span = Span::start(clock.clone());
        clock.advance(Duration::from_micros(5));
        span.mark("translate");
        clock.advance(Duration::from_micros(2));
        span.mark("apply");
        clock.advance(Duration::from_micros(3));
        span.mark("apply"); // second device: accumulates
        clock.advance(Duration::from_micros(1));
        span.mark("commit");
        let (stages, total) = span.finish();
        assert_eq!(
            stages,
            vec![
                ("translate".to_string(), 5_000),
                ("apply".to_string(), 5_000),
                ("commit".to_string(), 1_000),
            ]
        );
        assert_eq!(total, 11_000);
    }

    #[test]
    fn start_from_records_queue_wait() {
        let clock = ManualClock::new();
        clock.advance(Duration::from_micros(10));
        let enqueued = clock.now_ns();
        clock.advance(Duration::from_micros(4));
        let span = Span::start_from(clock.clone(), enqueued, "acquire");
        assert_eq!(span.stages(), &[("acquire".to_string(), 4_000)]);
        clock.advance(Duration::from_micros(6));
        assert_eq!(span.total_ns(), 10_000);
    }
}
