//! # ldap — directory substrate for the MetaComm reproduction
//!
//! A from-scratch LDAP directory implementation providing everything the
//! MetaComm meta-directory (Freire et al., ICDE 2000) assumes of its
//! directory server:
//!
//! - the X.500 data model: [`dn::Dn`]s, multi-valued attributes,
//!   [`entry::Entry`]s arranged in a [`dit::Dit`] tree;
//! - a [`schema::Schema`] with structural and auxiliary object classes —
//!   including the auxiliary-class restrictions the paper's integrated
//!   schema design works around;
//! - RFC 2254 search [`filter::Filter`]s;
//! - the LDAP update model: atomic single-entry add/delete/modify/modifyRDN,
//!   **no multi-entry transactions** (the weakness MetaComm's Update Manager
//!   is built to survive);
//! - LDIF import/export ([`ldif`]);
//! - an LDAPv3 wire subset: BER codec ([`ber`]), message layer ([`proto`]),
//!   a TCP [`server`] (one epoll loop thread plus a small shared worker
//!   pool, whatever the connection count; Linux) and [`client`].
//!
//! The [`directory::Directory`] trait unifies the in-process DIT, the TCP
//! client, and (in the `ltap` crate) the trigger gateway.

#![warn(unreachable_pub)]

pub mod attr;
pub mod backup;
pub mod ber;
mod block;
pub mod client;
mod directory;
pub mod dit;
pub mod dn;
pub mod entry;
pub mod error;
#[cfg(target_os = "linux")]
pub mod event;
pub mod filter;
pub mod ldif;
pub mod proto;
pub mod schema;
pub mod server;
pub mod wal;

pub use attr::{AttrName, AttrValues, Attribute, NameRef, Value};
pub use directory::Directory;
pub use dit::{ChangeOp, ChangeRecord, Dit, Footprint, Scope};
pub use dn::{Ava, Dn, Rdn};
pub use entry::{Entry, ModOp, Modification};
pub use error::{LdapError, Result, ResultCode};
pub use filter::Filter;
pub use schema::{AttributeType, ClassKind, ObjectClass, Schema, Syntax};
pub use wal::{FsyncPolicy, Wal};

/// The guard a `std::sync` lock or condvar wait hands back, poisoned or not:
/// a thread that panicked while holding the lock left the data as it stood,
/// and the next holder takes it as it is rather than panic in turn.
fn unpoison<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What the calling thread asks the allocator for, counted for the unit
/// tests that pin where a write puts its bytes.
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

#[test]
fn a_lock_whose_holder_panicked_is_taken_with_its_value() {
    let held = std::sync::Mutex::new(1);
    let holder = std::thread::scope(|s| {
        let panics = || {
            let mut guard = unpoison(held.lock());
            *guard = 2;
            panic!("panics while holding the lock");
        };
        s.spawn(panics).join()
    });
    assert!(holder.is_err() && held.is_poisoned());
    assert_eq!(*unpoison(held.lock()), 2);
}
