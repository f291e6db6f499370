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
