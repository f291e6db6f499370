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

pub use attr::{AttrName, Attribute, Value};
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
