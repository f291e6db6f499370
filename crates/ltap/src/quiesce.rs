//! The quiesce facility (paper §5.1): "in order to guarantee that
//! synchronization requests are executed in isolation, all updates must be
//! disallowed while a synchronization request is being processed. To
//! support this, a new quiesce facility was added to LTAP."
//!
//! Semantics: ordinary updates hold a *pass*; a quiesce waits for all
//! outstanding passes to drain and blocks new ones until released.

use crate::unpoison;
use std::sync::{Condvar, Mutex};

#[derive(Default)]
struct State {
    active_updates: usize,
    quiesced: bool,
}

/// Quiesce gate shared by the gateway's update paths.
#[derive(Default)]
pub struct QuiesceGate {
    state: Mutex<State>,
    cv: Condvar,
}

impl QuiesceGate {
    pub(crate) fn new() -> QuiesceGate {
        QuiesceGate::default()
    }

    /// Take an update pass, blocking while a quiesce is in force.
    pub(crate) fn enter_update(&self) -> UpdatePass<'_> {
        let s = unpoison(self.state.lock());
        unpoison(self.cv.wait_while(s, |s| s.quiesced)).active_updates += 1;
        UpdatePass { gate: self }
    }

    /// Quiesce: block new updates and wait for in-flight ones to finish.
    /// Only one quiesce can be in force at a time; a second caller waits.
    /// In force until [`QuiesceGate::release`].
    pub(crate) fn quiesce(&self) {
        let s = unpoison(self.state.lock());
        let mut s = unpoison(self.cv.wait_while(s, |s| s.quiesced));
        s.quiesced = true;
        drop(unpoison(self.cv.wait_while(s, |s| s.active_updates > 0)));
    }

    /// Lift the quiesce in force: updates flow again, and the next
    /// quiesce may start.
    pub(crate) fn release(&self) {
        unpoison(self.state.lock()).quiesced = false;
        self.cv.notify_all();
    }

    /// Is a quiesce currently in force?
    #[cfg(test)]
    fn is_quiesced(&self) -> bool {
        unpoison(self.state.lock()).quiesced
    }

    /// In-flight ordinary updates.
    #[cfg(test)]
    fn active_updates(&self) -> usize {
        unpoison(self.state.lock()).active_updates
    }
}

/// RAII pass held by an ordinary update.
pub(crate) struct UpdatePass<'a> {
    gate: &'a QuiesceGate,
}

impl Drop for UpdatePass<'_> {
    fn drop(&mut self) {
        let mut s = unpoison(self.gate.state.lock());
        s.active_updates -= 1;
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn updates_flow_when_not_quiesced() {
        let g = QuiesceGate::new();
        let p1 = g.enter_update();
        let p2 = g.enter_update();
        assert_eq!(g.active_updates(), 2);
        drop(p1);
        drop(p2);
        assert_eq!(g.active_updates(), 0);
    }

    #[test]
    fn quiesce_waits_for_drain_and_blocks_new_updates() {
        let g = Arc::new(QuiesceGate::new());
        let in_quiesce = Arc::new(AtomicUsize::new(0));
        let update_ran_during_quiesce = Arc::new(AtomicUsize::new(0));

        let pass = g.enter_update();
        // Quiesce from another thread: must block until `pass` drops.
        let g2 = g.clone();
        let iq = in_quiesce.clone();
        let ur = update_ran_during_quiesce.clone();
        let g3 = g.clone();
        let quiescer = std::thread::spawn(move || {
            g2.quiesce();
            iq.store(1, Ordering::SeqCst);
            // While held, a new update must not get through.
            let g4 = g3.clone();
            let ur2 = ur.clone();
            let prober = std::thread::spawn(move || {
                let _p = g4.enter_update();
                ur2.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(
                ur.load(Ordering::SeqCst),
                0,
                "update leaked through quiesce"
            );
            g2.release();
            prober.join().unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            in_quiesce.load(Ordering::SeqCst),
            0,
            "quiesce should wait for drain"
        );
        drop(pass);
        quiescer.join().unwrap();
        assert_eq!(update_ran_during_quiesce.load(Ordering::SeqCst), 1);
        assert!(!g.is_quiesced());
    }

    #[test]
    fn sequential_quiesces() {
        let g = QuiesceGate::new();
        g.quiesce();
        assert!(g.is_quiesced());
        g.release();
        g.quiesce();
        assert!(g.is_quiesced());
        g.release();
        assert!(!g.is_quiesced());
    }
}
