//! # pbx — a Definity®-style PBX simulator, and the one device store
//!
//! Stands in for the proprietary Lucent Definity switch the paper
//! integrates (see DESIGN.md §1 for the substitution argument). It exposes
//! exactly the surfaces MetaComm interacts with:
//!
//! - a record [`Store`] with **single-record atomic updates only**, no
//!   triggers, and weak (string) typing: each [`Record`] is its fields
//!   packed into one block, held in a set ordered by its own key field.
//!   The store is generic over a device [`Kind`] — key field, minted
//!   field, terminal channel, refusals — so the messaging platform
//!   (`msgplat`) is the same store with a kind of its own; the switch's
//!   kind is [`Switch`];
//! - a commit-time change [`Feed`] of the updates made at the device's own
//!   terminal (direct device updates, DDUs): MetaComm's own administration
//!   session commits without feeding an event, so there is no echo for a
//!   reader to drop;
//! - an [`ossi`] craft-terminal command interface — the legacy path device
//!   administrators keep using alongside the directory;
//! - a [`DialPlan`] partitioning extensions across switches, mirrored by
//!   the lexpress partitioning constraints on the directory side.

#![warn(unreachable_pub)]

mod dialplan;
mod error;
pub mod ossi;
mod record;
mod store;

pub use dialplan::DialPlan;
pub use error::{PbxError, Result};
pub use record::{fields, Record};
pub use store::{Channel, DeviceEvent, EventKind, Feed, Kind, Mint, Refusal, Store, Switch};

/// A complete simulated switch: store + dial plan + craft interface.
///
/// ```
/// use pbx::{Pbx, DialPlan};
/// let pbx = Pbx::new("pbx-west", DialPlan::with_prefix("9", 4));
/// pbx.craft(r#"add station 9123 name "Doe, John" room 2B-401"#).unwrap();
/// assert_eq!(pbx.store().len(), 1);
/// ```
pub struct Pbx {
    store: std::sync::Arc<Store>,
}

impl Pbx {
    pub fn new(name: impl Into<String>, plan: DialPlan) -> Pbx {
        Pbx {
            store: std::sync::Arc::new(Store::new(name, plan)),
        }
    }

    pub fn store(&self) -> &std::sync::Arc<Store> {
        &self.store
    }

    /// Execute a craft-terminal command (a direct device update).
    pub fn craft(&self, line: &str) -> Result<String> {
        ossi::execute(&self.store, line)
    }
}

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
