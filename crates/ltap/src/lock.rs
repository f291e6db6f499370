//! Entry-level lock manager (paper §4.3: "LTAP also provides locking
//! facilities, forbidding updates to an entry while trigger processing is
//! being performed on that entry").

use crate::unpoison;
use std::collections::HashSet;
use std::sync::{Condvar, Mutex};

/// Locks normalized-DN keys. Fair enough for the workload: waiters block on
/// a condvar and retry.
#[derive(Default)]
pub struct LockManager {
    locked: Mutex<HashSet<String>>,
    cv: Condvar,
}

impl LockManager {
    pub(crate) fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquire the lock for `key`, blocking until available.
    pub(crate) fn lock(&self, key: impl Into<String>) -> LockGuard<'_> {
        let key = key.into();
        let locked = unpoison(self.locked.lock());
        let mut locked = unpoison(self.cv.wait_while(locked, |l| l.contains(&key)));
        locked.insert(key.clone());
        LockGuard { mgr: self, key }
    }

    /// Number of currently held locks.
    pub fn held(&self) -> usize {
        unpoison(self.locked.lock()).len()
    }
}

/// RAII guard releasing the entry lock on drop.
pub(crate) struct LockGuard<'a> {
    mgr: &'a LockManager,
    key: String,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        unpoison(self.mgr.locked.lock()).remove(&self.key);
        self.mgr.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_lock_unlock() {
        let m = LockManager::new();
        {
            let _g = m.lock("cn=a");
            assert_eq!(m.held(), 1);
        }
        assert_eq!(m.held(), 0);
    }

    #[test]
    fn distinct_keys_dont_block() {
        let m = LockManager::new();
        let _a = m.lock("cn=a");
        let _b = m.lock("cn=b");
        assert_eq!(m.held(), 2);
    }

    #[test]
    fn contended_lock_serializes() {
        let m = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _g = m.lock("cn=hot");
                    // Critical section: read-modify-write without tearing.
                    let v = *counter.lock().unwrap();
                    std::thread::yield_now();
                    *counter.lock().unwrap() = v + 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 8 * 50);
        assert_eq!(m.held(), 0);
    }
}
