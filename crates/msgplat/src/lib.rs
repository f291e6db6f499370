//! # msgplat — a voice-messaging platform simulator
//!
//! Stands in for the proprietary messaging platform (Octel/Intuity-style)
//! the paper integrates. The surface MetaComm needs:
//!
//! - a subscriber [`Store`]: the one device store of `pbx`, with the
//!   platform's [`Platform`] kind — single-record atomicity, weak typing,
//!   no triggers, each mailbox one packed [`Record`] keyed by its own
//!   mailbox number;
//! - **platform-generated unique mailbox ids** assigned at add-commit —
//!   the paper's §5.5 "device-generated information" case that forces
//!   update reapplication until a fixpoint;
//! - a commit-time feed of the console's updates (DDUs); MetaComm's
//!   session commits without feeding one;
//! - a proprietary [`admin`] console.

#![warn(unreachable_pub)]

pub mod admin;
mod error;
pub mod store;

pub use error::{MpError, Result};
pub use store::{fields, record, Channel, Fields, Platform, Record, Store};

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
