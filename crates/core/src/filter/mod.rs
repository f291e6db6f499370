//! Repository filters (paper §4.1): each integrated repository gets a
//! filter made of a *protocol converter* (the uniform device API: apply an
//! add/modify/delete, full dump, change notifications) and a *mapper* (the
//! lexpress mapping pair naming how its schema relates to the integrated
//! LDAP schema). The integration logic lives in the lexpress rules; the
//! converter is thin and written once for every record-keeping device.

pub(crate) mod fault;
mod record;

pub(crate) use record::for_msgplat;
pub use record::for_pbx;

use crate::error::Result;
use lexpress::{Image, TargetOp, UpdateDescriptor};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// The device-side *patch* for a modify: only the fields whose value
/// changed between the old and new target images, plus empty-string
/// markers for fields that disappeared (device stores blank-to-clear).
///
/// lexpress translates *update commands*, not full states (paper §4.1), so
/// reapplied operations must not clobber device fields that a concurrent
/// craft update just changed — only the fields this update actually touched
/// are written.
pub fn changed_fields(old: &Image, new: &Image) -> Image {
    if old.is_empty() {
        return new.clone();
    }
    let mut patch = Image::new();
    for (name, values) in new.iter() {
        if old.values(name) != values {
            patch.set(name, values.to_vec());
        }
    }
    for (name, _) in old.iter() {
        if !new.has(name) {
            patch.set(name, vec![String::new()]); // blank-to-clear
        }
    }
    patch
}

/// Result of applying a translated operation at a device.
#[derive(Debug, Clone, Default)]
pub struct ApplyOutcome {
    /// `false` when the op was a Skip (object not under this device) or
    /// left nothing to write.
    pub applied: bool,
    /// The conditional-update recovery path ran (modify→add fallback or a
    /// tolerated not-found) — paper §5.4.
    pub reapplied: bool,
    /// Device-generated information in *integrated-schema* terms (e.g. the
    /// messaging platform's mailbox id), to be folded into the directory
    /// image (paper §5.5).
    pub generated: Option<Image>,
}

/// A device's direct updates, read on its `ddu-relay-<name>` thread: the
/// commits made at the device's own craft terminal or console, the only
/// ones the device feeds. [`DirectUpdates::next`] blocks until the next
/// one and returns its descriptor, in the device's commit order. `None`
/// ends the relay: the shutdown channel passed in hung up (it is looked at
/// after every receive, so a busy device cannot hold a relay), or the
/// device did.
pub struct DirectUpdates {
    next: NextUpdate,
    sent: Arc<AtomicU64>,
}

/// A blocking read of a device's feed, given the relay's shutdown channel.
type NextUpdate = Box<dyn FnMut(&Receiver<()>) -> Option<UpdateDescriptor> + Send>;

impl DirectUpdates {
    /// The updates `next` reads, of which the device counts in `sent` each
    /// one it has sent, before it sends it.
    pub fn new(
        sent: Arc<AtomicU64>,
        next: impl FnMut(&Receiver<()>) -> Option<UpdateDescriptor> + Send + 'static,
    ) -> DirectUpdates {
        DirectUpdates {
            next: Box::new(next),
            sent,
        }
    }

    /// The next update, or `None` once `shutdown` hangs up or the device
    /// does.
    pub fn next(&mut self, shutdown: &Receiver<()>) -> Option<UpdateDescriptor> {
        (self.next)(shutdown)
    }

    /// The device's count of the updates it has sent into this feed.
    pub fn sent(&self) -> Arc<AtomicU64> {
        self.sent.clone()
    }
}

/// One integrated repository, as the Update Manager, the DDU relays,
/// synchronization and the recovery monitor see it. Only `apply`, `probe`
/// and `dump` go to the device; the rest are fixed facts about the
/// repository, answered from the filter without allocating.
pub trait DeviceFilter: Send + Sync {
    /// Repository id (the lexpress mappings are named after it).
    fn name(&self) -> &str;

    /// Mapping translating device descriptors → LDAP (`<name>_to_ldap`).
    fn mapping_to_ldap(&self) -> &str;

    /// Mapping translating LDAP descriptors → device ops (`ldap_to_<name>`).
    fn mapping_from_ldap(&self) -> &str;

    /// The device-schema field that keys this repository's records (the
    /// field synchronization reads off each dumped record to identify it).
    fn key_attr(&self) -> &str;

    /// Integrated-schema attributes this device owns — cleared from a
    /// person's entry when the device-side record is removed by a DDU.
    fn ldap_owned_attrs(&self) -> &[&str];

    /// The integrated-schema attribute whose presence marks "this entry has
    /// data on this device" (used by synchronization to find stale entries).
    fn ldap_presence_attr(&self) -> &str;

    /// Protocol converter: apply a translated operation to the device
    /// through MetaComm's own session. A conditional operation (§5.4) must
    /// tolerate having been applied already, or never. A link fault is
    /// [`crate::MetaError::DeviceUnreachable`] (the device never saw the
    /// op); anything the device refuses is [`crate::MetaError::Device`].
    fn apply(&self, op: &TargetOp) -> Result<ApplyOutcome>;

    /// Liveness probe: a cheap round-trip to the device, used by the
    /// recovery monitor to detect reconnection.
    fn probe(&self) -> Result<()>;

    /// Full dump for synchronization (device-schema images).
    fn dump(&self) -> Vec<Image>;

    /// Open the device's change feed: nothing the device commits after
    /// this returns is missed, whenever [`DirectUpdates`] is first read.
    fn subscribe(&self) -> DirectUpdates;
}
