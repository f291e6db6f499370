//! # ltap — the Lightweight Trigger Access Process
//!
//! A reconstruction of LTAP (Lieuwen, Arlein, Gehani — used by MetaComm,
//! ICDE 2000 §4.3/§5.1): a gateway that pretends to be an LDAP server,
//! intercepting update commands to add *active* (trigger) functionality to
//! trigger-less LDAP servers, plus
//!
//! - entry-level locking ([`LockManager`]) while trigger processing runs;
//! - the quiesce facility ([`QuiesceGate`]) and persistent synchronization
//!   sessions ([`SyncSession`]) MetaComm added (§5.1);
//! - both deployments of §5.5: bind the [`Gateway`] in-process
//!   (library mode) or serve it over TCP with `ldap::server::Server`
//!   (gateway mode);
//! - the simple LTAP-based security model §7 mentions ([`SecurityPolicy`]):
//!   declarative policies compiled into vetoing before-triggers.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod gateway;
mod lock;
mod quiesce;
mod security;
mod session;
mod trigger;

pub use gateway::{Gateway, Stats};
pub use lock::LockManager;
pub use quiesce::QuiesceGate;
pub use security::SecurityPolicy;
pub use session::SyncSession;
pub use trigger::{
    Disposition, LtapOp, OpKind, Timing, TriggerContext, TriggerHandler, TriggerSpec,
};

/// A `std::sync` lock's guard, poisoned or not (as a holder that panicked left it).
fn unpoison<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
