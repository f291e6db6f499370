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
use pbx::{DeviceEvent, EventKind, Record, Sink};

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

/// The descriptor of a commit made at `filter`'s device's own terminal:
/// its records as device-schema images, keyed by the device's key field.
pub(crate) fn descriptor(filter: &dyn DeviceFilter, ev: DeviceEvent) -> UpdateDescriptor {
    let held = ev.new.as_ref().or(ev.old.as_ref());
    let key = held.and_then(|rec| rec.get(filter.key_attr()));
    let key = key.unwrap_or_default().to_string();
    let image = |rec: Option<Record>| {
        let fields = rec.as_ref().map(|rec| Image::from_pairs(rec.fields()));
        fields.unwrap_or_default()
    };
    let origin = filter.name();
    match ev.kind {
        EventKind::Add => UpdateDescriptor::add(key, image(ev.new), origin),
        EventKind::Change => UpdateDescriptor::modify(key, image(ev.old), image(ev.new), origin),
        EventKind::Remove => UpdateDescriptor::delete(key, image(ev.old), origin),
    }
}

/// One integrated repository, as the Update Manager, synchronization and
/// the device's relay (which relays its direct updates and probes it back
/// from an outage) see it. Only `apply`, `probe` and `dump` go to the
/// device; the rest are fixed facts about the repository, answered from
/// the filter without allocating.
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

    /// Liveness probe: a cheap round-trip to the device, which the device's
    /// relay makes while the device is not `Up` to detect reconnection.
    fn probe(&self) -> Result<()>;

    /// Full dump for synchronization (device-schema images).
    fn dump(&self) -> Vec<Image>;

    /// Hand `sink` every commit made at the device's own terminal or
    /// console from now on, as it commits, until `sink` answers that it is
    /// gone. MetaComm's own writes are never handed over.
    fn subscribe(&self, sink: Sink);
}
