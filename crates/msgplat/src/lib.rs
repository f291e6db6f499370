//! # msgplat — a voice-messaging platform simulator
//!
//! Stands in for the proprietary messaging platform (Octel/Intuity-style)
//! the paper integrates. The surface MetaComm needs:
//!
//! - a subscriber [`store`] with single-record atomicity, weak typing, no
//!   triggers;
//! - **platform-generated unique mailbox ids** assigned at add-commit —
//!   the paper's §5.5 "device-generated information" case that forces
//!   update reapplication until a fixpoint;
//! - commit-time notifications distinguishing console updates (DDUs) from
//!   MetaComm's session;
//! - a proprietary [`admin`] console.

#![warn(unreachable_pub)]

pub mod admin;
mod error;
pub mod store;

pub use error::{MpError, Result};
pub use store::{fields, record, Channel, EventKind, MpEvent, Record, Store};

/// What the calling thread asks the allocator for, counted for the unit
/// tests that pin where a change puts its bytes.
#[cfg(test)]
pub(crate) mod asked {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Fresh blocks, and resizes of held ones, this thread asked for.
        static ASKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    fn count(fresh: u64, resized: u64) {
        // A thread that is being torn down allocates without its counter.
        let _ = ASKED.try_with(|c| {
            let (a, r) = c.get();
            c.set((a + fresh, r + resized));
        });
    }

    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`; the counter
    // only observes that it happened.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(1, 0);
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(1, 0);
            System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            System.dealloc(p, layout)
        }
        unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(0, 1);
            System.realloc(p, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    /// `f`'s result, and the fresh blocks and the resizes this thread
    /// asked the allocator for while it ran.
    pub(crate) fn by<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let before = ASKED.with(Cell::get);
        let out = f();
        let after = ASKED.with(Cell::get);
        (out, (after.0 - before.0, after.1 - before.1))
    }
}

/// A complete simulated messaging platform.
///
/// ```
/// use msgplat::MsgPlat;
/// let mp = MsgPlat::new("mp");
/// let out = mp.console(r#"add subscriber 9123 name "Doe, John""#).unwrap();
/// assert!(out.contains("MB-"));
/// ```
pub struct MsgPlat {
    store: std::sync::Arc<Store>,
}

impl MsgPlat {
    pub fn new(name: impl Into<String>) -> MsgPlat {
        MsgPlat {
            store: std::sync::Arc::new(Store::new(name)),
        }
    }

    pub fn store(&self) -> &std::sync::Arc<Store> {
        &self.store
    }

    /// Execute an admin-console command (a direct device update).
    pub fn console(&self, line: &str) -> Result<String> {
        admin::execute(&self.store, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example() {
        let mp = MsgPlat::new("mp");
        mp.console(r#"add subscriber 9123 name "Doe, John""#)
            .unwrap();
        assert_eq!(mp.store().len(), 1);
        assert_eq!(mp.store().name(), "mp");
    }
}
