//! The injectable clock every latency measurement goes through.
//!
//! Production uses [`SystemClock`] (a monotonic `Instant` base). Tests can
//! substitute a [`ManualClock`], which only
//! moves when explicitly advanced — so span durations, histogram
//! percentiles, and even a fault injector's injected latency
//! become exact, deterministic numbers instead of wall-clock noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock. `sleep` exists so fault-injected latency
/// can be made virtual: a [`ManualClock`] "sleeps" by advancing itself.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Monotonic.
    fn now_ns(&self) -> u64;

    /// Pause for `d` — real time by default, virtual on a [`ManualClock`].
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// The production clock: nanoseconds since the clock was created.
pub struct SystemClock {
    base: Instant,
}

impl SystemClock {
    pub fn new() -> Arc<SystemClock> {
        Arc::new(SystemClock {
            base: Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// A clock that only moves when told to — deterministic time for tests.
#[derive(Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Arc<ManualClock> {
        Arc::new(ManualClock::default())
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Virtual sleep: time passes, no thread blocks.
    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance_or_sleep() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(Duration::from_micros(5));
        assert_eq!(c.now_ns(), 5_000);
        c.sleep(Duration::from_nanos(7));
        assert_eq!(c.now_ns(), 5_007);
    }
}
