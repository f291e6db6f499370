//! # pbx — a Definity®-style PBX simulator
//!
//! Stands in for the proprietary Lucent Definity switch the paper
//! integrates (see DESIGN.md §1 for the substitution argument). It exposes
//! exactly the surfaces MetaComm interacts with:
//!
//! - a station [`Store`] with **single-record atomic updates only**, no
//!   triggers, and weak (string) typing;
//! - commit-time change notifications distinguishing craft-terminal updates
//!   (direct device updates, DDUs) from MetaComm's own administration
//!   session;
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
pub use store::{Channel, DeviceEvent, EventKind, Store};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example() {
        let pbx = Pbx::new("pbx-west", DialPlan::with_prefix("9", 4));
        pbx.craft(r#"add station 9123 name "Doe, John""#).unwrap();
        assert_eq!(pbx.store().name(), "pbx-west");
        assert_eq!(pbx.store().len(), 1);
    }
}
