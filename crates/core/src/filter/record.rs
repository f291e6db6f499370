//! The protocol converter for record-keeping devices — the Definity-style
//! switch and the messaging platform. [`RecordFilter`] writes the §5.4
//! conditional-reapply tree once; a [`RecordDevice`] says what differs
//! between the devices, and that is data and store calls only.

use super::{changed_fields, ApplyOutcome, DeviceFilter, DirectUpdates};
use crate::error::{MetaError, Result};
use lexpress::{Image, OpKind, TargetOp, UpdateDescriptor, UpdateKind};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle relay waits on its device feed before it looks at the
/// shutdown channel again.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(10);

/// How long a relay that has just dropped an echo lets the next ones queue
/// before it takes them; a DDU arriving meanwhile waits at most this long.
const ECHO_NAP: Duration = Duration::from_micros(100);

/// A commit at the device's own terminal: kind, key, record before, after.
type Change<R> = (UpdateKind, String, Option<R>, Option<R>);

/// What a store write answers: the post-commit record, where the store
/// hands one back.
type Stored<D> =
    std::result::Result<Option<<D as RecordDevice>::Record>, <D as RecordDevice>::Error>;

/// What one kind of record device supplies to the converter. Every store
/// call goes through MetaComm's own session, so the device can tell
/// MetaComm's writes from a craft's.
trait RecordDevice: Send + Sync + 'static {
    type Record;
    type Error: std::fmt::Display;
    type Event: Send + 'static;
    /// The device-schema field that keys a record.
    const KEY: &'static str;
    /// The one field the device mints itself at add-commit, and the
    /// integrated-schema attribute it surfaces as. Stripped before a
    /// re-add: the device mints a new one.
    const MINTED: Option<(&'static str, &'static str)>;
    /// Integrated-schema attributes the device owns.
    const OWNED: &'static [&'static str];
    /// The owned attribute every entry with data on this device carries.
    const PRESENCE: &'static str;

    fn record(fields: impl Iterator<Item = (String, String)>) -> Self::Record;
    fn fields(rec: &Self::Record) -> impl Iterator<Item = (&str, &str)>;
    fn add(&self, rec: Self::Record) -> Stored<Self>;
    fn change(&self, key: &str, patch: Self::Record) -> Stored<Self>;
    fn remove(&self, key: &str) -> std::result::Result<(), Self::Error>;
    /// Is `e` the device's "no such record"?
    fn is_missing(e: &Self::Error) -> bool;
    fn get(&self, key: &str) -> Option<Self::Record>;
    fn len(&self) -> usize;
    /// Every record, borrowed where the device keeps it: packed, as both
    /// devices keep their records at rest.
    fn for_each(&self, visit: impl FnMut(&pbx::Record));
    fn subscribe(&self) -> Receiver<Self::Event>;
    /// `None` for an echo of MetaComm's own session.
    fn surfaced(ev: Self::Event) -> Option<Change<Self::Record>>;
}

struct Switch(Arc<pbx::Store>);

impl RecordDevice for Switch {
    type Record = pbx::Record;
    type Error = pbx::PbxError;
    type Event = pbx::DeviceEvent;
    const KEY: &'static str = pbx::fields::EXTENSION;
    const MINTED: Option<(&'static str, &'static str)> = None;
    const OWNED: &'static [&'static str] = &[
        "definityExtension",
        "definityCoveragePath",
        "definityCor",
        "definityPort",
        "definitySetType",
    ];
    const PRESENCE: &'static str = "definityExtension";

    fn record(fields: impl Iterator<Item = (String, String)>) -> pbx::Record {
        pbx::Record::from_pairs(fields)
    }
    fn fields(rec: &pbx::Record) -> impl Iterator<Item = (&str, &str)> {
        rec.fields()
    }
    fn add(&self, rec: pbx::Record) -> Stored<Self> {
        self.0.add(rec, pbx::Channel::Metacomm).map(|()| None)
    }
    fn change(&self, key: &str, patch: pbx::Record) -> Stored<Self> {
        self.0
            .change(key, patch, pbx::Channel::Metacomm)
            .map(|()| None)
    }
    fn remove(&self, key: &str) -> pbx::Result<()> {
        self.0.remove(key, pbx::Channel::Metacomm)
    }
    fn is_missing(e: &pbx::PbxError) -> bool {
        matches!(e, pbx::PbxError::NoSuchStation(_))
    }
    fn get(&self, key: &str) -> Option<pbx::Record> {
        self.0.get(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, visit: impl FnMut(&pbx::Record)) {
        self.0.for_each(visit)
    }
    fn subscribe(&self) -> Receiver<pbx::DeviceEvent> {
        self.0.subscribe()
    }
    fn surfaced(ev: pbx::DeviceEvent) -> Option<Change<pbx::Record>> {
        let kind = match ev.kind {
            pbx::EventKind::Add => UpdateKind::Add,
            pbx::EventKind::Change => UpdateKind::Modify,
            pbx::EventKind::Remove => UpdateKind::Delete,
        };
        (ev.channel == pbx::Channel::Craft).then_some((kind, ev.key, ev.old, ev.new))
    }
}

struct Platform(Arc<msgplat::Store>);

impl RecordDevice for Platform {
    type Record = msgplat::Record;
    type Error = msgplat::MpError;
    type Event = msgplat::MpEvent;
    const KEY: &'static str = msgplat::fields::MAILBOX;
    const MINTED: Option<(&'static str, &'static str)> =
        Some((msgplat::fields::MBID, "mpMailboxId"));
    const OWNED: &'static [&'static str] = &["mpMailbox", "mpMailboxId", "mpClassOfService"];
    const PRESENCE: &'static str = "mpMailbox";

    fn record(fields: impl Iterator<Item = (String, String)>) -> msgplat::Record {
        fields.collect()
    }
    fn fields(rec: &msgplat::Record) -> impl Iterator<Item = (&str, &str)> {
        rec.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
    fn add(&self, rec: msgplat::Record) -> Stored<Self> {
        self.0.add(rec, msgplat::Channel::Metacomm).map(Some)
    }
    fn change(&self, key: &str, patch: msgplat::Record) -> Stored<Self> {
        self.0
            .change(key, patch, msgplat::Channel::Metacomm)
            .map(Some)
    }
    fn remove(&self, key: &str) -> msgplat::Result<()> {
        self.0.remove(key, msgplat::Channel::Metacomm)
    }
    fn is_missing(e: &msgplat::MpError) -> bool {
        matches!(e, msgplat::MpError::NoSuchMailbox(_))
    }
    fn get(&self, key: &str) -> Option<msgplat::Record> {
        self.0.get(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, visit: impl FnMut(&pbx::Record)) {
        self.0.for_each(visit)
    }
    fn subscribe(&self) -> Receiver<msgplat::MpEvent> {
        self.0.subscribe()
    }
    fn surfaced(ev: msgplat::MpEvent) -> Option<Change<msgplat::Record>> {
        let kind = match ev.kind {
            msgplat::EventKind::Add => UpdateKind::Add,
            msgplat::EventKind::Change => UpdateKind::Modify,
            msgplat::EventKind::Remove => UpdateKind::Delete,
        };
        (ev.channel == msgplat::Channel::Console).then_some((kind, ev.key, ev.old, ev.new))
    }
}

/// The filter for one switch.
pub fn for_pbx(store: Arc<pbx::Store>) -> Arc<dyn DeviceFilter> {
    Arc::new(RecordFilter::new(store.name(), Switch(store.clone())))
}

/// The filter for one messaging platform. Its adds *generate* information
/// at the device (the mailbox id), which the filter reports back so the
/// Update Manager can fold it into the directory image (paper §5.5).
pub(crate) fn for_msgplat(store: Arc<msgplat::Store>) -> Arc<dyn DeviceFilter> {
    Arc::new(RecordFilter::new(store.name(), Platform(store.clone())))
}

struct RecordFilter<D> {
    device: D,
    name: String,
    to_ldap: String,
    from_ldap: String,
}

impl<D: RecordDevice> RecordFilter<D> {
    fn new(name: &str, device: D) -> RecordFilter<D> {
        RecordFilter {
            device,
            name: name.to_string(),
            to_ldap: format!("{name}_to_ldap"),
            from_ldap: format!("ldap_to_{name}"),
        }
    }

    fn dev_err(&self, e: D::Error) -> MetaError {
        MetaError::Device {
            repository: self.name.clone(),
            detail: e.to_string(),
        }
    }

    fn image(rec: &D::Record) -> Image {
        Image::from_pairs(D::fields(rec))
    }

    /// The device record carrying `img`'s first values: keyed `key`, or
    /// without a key field when it is a patch; with the device-minted field
    /// only where `minted` says so.
    fn record(img: &Image, key: Option<&str>, minted: bool) -> D::Record {
        let dropped = |field: &str| {
            field.eq_ignore_ascii_case(D::KEY)
                || (!minted && D::MINTED.is_some_and(|(m, _)| field.eq_ignore_ascii_case(m)))
        };
        D::record(
            img.iter()
                .filter(|(field, _)| !dropped(field))
                .filter_map(|(field, values)| Some((field.to_string(), values.first()?.clone())))
                .chain(key.map(|k| (D::KEY.to_string(), k.to_string()))),
        )
    }

    /// Add the op's full image under `key`, as a fresh record.
    fn add_back(&self, op: &TargetOp, key: &str) -> Result<Option<D::Record>> {
        self.device
            .add(Self::record(&op.attrs, Some(key), false))
            .map_err(|e| self.dev_err(e))
    }

    /// Device-generated info in integrated-schema terms, read off the
    /// record as the device now holds it.
    fn generated(post: Option<D::Record>) -> Option<Image> {
        let (field, attr) = D::MINTED?;
        let post = post?;
        let (_, id) = D::fields(&post).find(|(name, _)| *name == field)?;
        Some(Image::from_pairs([(attr, id)]))
    }

    fn descriptor(origin: &str, ev: D::Event) -> Option<UpdateDescriptor> {
        let (kind, key, old, new) = D::surfaced(ev)?;
        let image = |rec: Option<D::Record>| rec.as_ref().map(Self::image).unwrap_or_default();
        Some(match kind {
            UpdateKind::Add => UpdateDescriptor::add(key, image(new), origin),
            UpdateKind::Modify => UpdateDescriptor::modify(key, image(old), image(new), origin),
            UpdateKind::Delete => UpdateDescriptor::delete(key, image(old), origin),
        })
    }
}

impl<D: RecordDevice> DeviceFilter for RecordFilter<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn mapping_to_ldap(&self) -> &str {
        &self.to_ldap
    }

    fn mapping_from_ldap(&self) -> &str {
        &self.from_ldap
    }

    fn key_attr(&self) -> &str {
        D::KEY
    }

    fn ldap_owned_attrs(&self) -> &[&str] {
        D::OWNED
    }

    fn ldap_presence_attr(&self) -> &str {
        D::PRESENCE
    }

    fn apply(&self, op: &TargetOp) -> Result<ApplyOutcome> {
        let done = |applied, reapplied, post| {
            Ok(ApplyOutcome {
                applied,
                reapplied,
                generated: Self::generated(post),
            })
        };
        fn key(k: &Option<String>) -> &str {
            k.as_deref().expect("engine validated")
        }
        match op.kind {
            OpKind::Skip => Ok(ApplyOutcome::default()),
            OpKind::Add => {
                let key = key(&op.new_key);
                let rec = || Self::record(&op.attrs, Some(key), true);
                if op.conditional {
                    // §5.4: a reapplied add goes in as a change (echoing
                    // the minted field back is allowed); a real add only
                    // when the record is missing.
                    match self.device.change(key, rec()) {
                        Ok(post) => return done(true, true, post),
                        Err(e) if D::is_missing(&e) => {}
                        Err(e) => return Err(self.dev_err(e)),
                    }
                }
                let post = self.device.add(rec()).map_err(|e| self.dev_err(e))?;
                done(true, op.conditional, post)
            }
            OpKind::Modify => {
                let (old_key, new_key) = (key(&op.old_key), key(&op.new_key));
                if old_key != new_key {
                    // The device's form cannot change a key: migrate via
                    // remove + add (§4.2).
                    match self.device.remove(old_key) {
                        Ok(()) => {}
                        Err(e) if op.conditional && D::is_missing(&e) => {}
                        Err(e) => return Err(self.dev_err(e)),
                    }
                    return done(true, op.conditional, self.add_back(op, new_key)?);
                }
                let mut patch = changed_fields(&op.old_attrs, &op.attrs);
                patch.remove(D::KEY);
                if patch.is_empty() {
                    // Nothing device-visible changed; what the device
                    // generated for the record is still reported.
                    let held = D::MINTED.and_then(|_| self.device.get(new_key));
                    return done(false, op.conditional, held);
                }
                match self
                    .device
                    .change(new_key, Self::record(&patch, None, true))
                {
                    Ok(post) => done(true, op.conditional, post),
                    // Conditional modify of a missing record: add the full
                    // image back.
                    Err(e) if op.conditional && D::is_missing(&e) => {
                        done(true, true, self.add_back(op, new_key)?)
                    }
                    Err(e) => Err(self.dev_err(e)),
                }
            }
            OpKind::Delete => match self.device.remove(key(&op.old_key)) {
                Ok(()) => done(true, op.conditional, None),
                // Reapplied delete: already gone — fine.
                Err(e) if op.conditional && D::is_missing(&e) => done(false, true, None),
                Err(e) => Err(self.dev_err(e)),
            },
        }
    }

    fn probe(&self) -> Result<()> {
        let _ = self.device.len();
        Ok(())
    }

    /// Each image is built straight from the record the device holds.
    fn dump(&self) -> Vec<Image> {
        let mut images = Vec::with_capacity(self.device.len());
        (self.device).for_each(|rec| images.push(Image::from_pairs(rec.fields())));
        images
    }

    fn subscribe(&self) -> DirectUpdates {
        let events = self.device.subscribe();
        let origin = self.name.clone();
        // One blocking receive on the feed, so a DDU wakes its relay as it
        // arrives; the shutdown channel is looked at after every receive, so
        // neither an idle device nor a busy one holds its relay.
        Box::new(move |shutdown| {
            let mut next = events.recv_timeout(SHUTDOWN_CHECK);
            while shutdown.try_recv() == Err(TryRecvError::Empty) {
                next = match next {
                    Ok(ev) => match Self::descriptor(&origin, ev) {
                        Some(d) => return Some(d),
                        // An echo of MetaComm's own write, which come in runs
                        // (a sync, a fan-out): take the next one without
                        // parking, or nap rather than park, so the writer
                        // does not pay a wake-up for each one.
                        None => events.try_recv().or_else(|_| {
                            std::thread::sleep(ECHO_NAP);
                            events.recv_timeout(SHUTDOWN_CHECK)
                        }),
                    },
                    Err(RecvTimeoutError::Timeout) => events.recv_timeout(SHUTDOWN_CHECK),
                    Err(RecvTimeoutError::Disconnected) => return None,
                };
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    //! The §5.4 conformance table: one scenario list, driven through the
    //! one filter for both devices.
    use super::*;

    /// What the table needs of a device besides its description: a fresh
    /// one, two ordinary fields, and a hand on its own terminal.
    trait Bench: RecordDevice + Sized {
        const NAME: &'static str;
        /// The subscriber-name field and one more non-key field.
        const FIELDS: [&'static str; 2];
        fn fresh() -> Self;
        /// Add / change one field of / remove `key` at the craft terminal
        /// or the console.
        fn craft_add(&self, key: &str, name: &str);
        fn craft_change(&self, key: &str, field: &str, value: &str);
        fn craft_remove(&self, key: &str);
    }

    impl Bench for Switch {
        const NAME: &'static str = "pbx-west";
        const FIELDS: [&'static str; 2] = [pbx::fields::NAME, pbx::fields::ROOM];
        fn fresh() -> Switch {
            let plan = pbx::DialPlan::with_prefix("9", 4);
            Switch(Arc::new(pbx::Store::new(Self::NAME, plan)))
        }
        fn craft_add(&self, key: &str, name: &str) {
            let rec = pbx::Record::from_pairs([(Self::KEY, key), (pbx::fields::NAME, name)]);
            self.0.add(rec, pbx::Channel::Craft).unwrap();
        }
        fn craft_change(&self, key: &str, field: &str, value: &str) {
            let patch = pbx::Record::from_pairs([(field, value)]);
            self.0.change(key, patch, pbx::Channel::Craft).unwrap();
        }
        fn craft_remove(&self, key: &str) {
            self.0.remove(key, pbx::Channel::Craft).unwrap();
        }
    }

    impl Bench for Platform {
        const NAME: &'static str = "mp";
        const FIELDS: [&'static str; 2] = [msgplat::fields::SUBSCRIBER, msgplat::fields::COS];
        fn fresh() -> Platform {
            Platform(Arc::new(msgplat::Store::new(Self::NAME)))
        }
        fn craft_add(&self, key: &str, name: &str) {
            let rec = msgplat::record([(Self::KEY, key), (msgplat::fields::SUBSCRIBER, name)]);
            self.0.add(rec, msgplat::Channel::Console).unwrap();
        }
        fn craft_change(&self, key: &str, field: &str, value: &str) {
            let patch = msgplat::record([(field, value)]);
            self.0
                .change(key, patch, msgplat::Channel::Console)
                .unwrap();
        }
        fn craft_remove(&self, key: &str) {
            self.0.remove(key, msgplat::Channel::Console).unwrap();
        }
    }

    fn filter<D: Bench>() -> RecordFilter<D> {
        RecordFilter::new(D::NAME, D::fresh())
    }

    /// `[name, other]` as an image of the device's two ordinary fields.
    fn attrs<D: Bench>(values: [&str; 2]) -> Image {
        Image::from_pairs(D::FIELDS.into_iter().zip(values))
    }

    fn op(
        kind: OpKind,
        conditional: bool,
        keys: (Option<&str>, Option<&str>),
        images: (Image, Image),
    ) -> TargetOp {
        TargetOp {
            kind,
            conditional,
            old_key: keys.0.map(str::to_string),
            new_key: keys.1.map(str::to_string),
            old_attrs: images.0,
            attrs: images.1,
        }
    }

    fn add<D: Bench>(key: &str, name: &str, conditional: bool) -> TargetOp {
        let image = attrs::<D>([name, "1"]);
        op(
            OpKind::Add,
            conditional,
            (None, Some(key)),
            (Image::new(), image),
        )
    }

    fn modify(conditional: bool, keys: (&str, &str), images: (Image, Image)) -> TargetOp {
        op(
            OpKind::Modify,
            conditional,
            (Some(keys.0), Some(keys.1)),
            images,
        )
    }

    fn delete(key: &str, conditional: bool) -> TargetOp {
        let none = (Image::new(), Image::new());
        op(OpKind::Delete, conditional, (Some(key), None), none)
    }

    /// `field` of the record at `key`, as the device holds it now.
    fn held<D: Bench>(f: &RecordFilter<D>, key: &str, field: &str) -> Option<String> {
        let rec = f.device.get(key)?;
        let found = D::fields(&rec).find(|(name, _)| *name == field);
        found.map(|(_, value)| value.to_string())
    }

    /// The device-minted id an outcome reports, in integrated-schema terms.
    /// Always the one the device holds at `key` — and there is one exactly
    /// when the device mints any.
    fn reported<D: Bench>(f: &RecordFilter<D>, key: &str, out: &ApplyOutcome) -> Option<String> {
        let minted = D::MINTED.and_then(|(field, attr)| {
            let id = out.generated.as_ref()?.first(attr)?.to_string();
            assert!(id.starts_with("MB-"), "{id}");
            assert_eq!(held(f, key, field).as_ref(), Some(&id));
            Some(id)
        });
        assert_eq!(minted.is_some(), D::MINTED.is_some(), "{out:?}");
        assert_eq!(out.generated.is_some(), D::MINTED.is_some(), "{out:?}");
        minted
    }

    fn plain_add_modify_delete<D: Bench>() {
        let f = filter::<D>();
        let [name, other] = D::FIELDS;
        let out = f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        assert!(out.applied && !out.reapplied);
        reported(&f, "9123", &out);
        assert_eq!(f.device.len(), 1);
        assert_eq!(held(&f, "9123", name).as_deref(), Some("Doe, John"));

        let image = attrs::<D>(["Doe, John", "2B-401"]);
        let out = f
            .apply(&modify(false, ("9123", "9123"), (Image::new(), image)))
            .unwrap();
        assert!(out.applied && !out.reapplied);
        assert_eq!(held(&f, "9123", other).as_deref(), Some("2B-401"));

        let out = f.apply(&delete("9123", false)).unwrap();
        assert!(out.applied && !out.reapplied && out.generated.is_none());
        assert_eq!(f.device.len(), 0);
        // Unconditional delete of a missing record is a device error …
        let err = f.apply(&delete("9123", false)).unwrap_err();
        assert!(
            matches!(&err, MetaError::Device { repository, .. } if repository == f.name()),
            "{err:?}"
        );
        // … and so is an unconditional modify of one.
        let image = attrs::<D>(["Doe, John", "3C-100"]);
        assert!(f
            .apply(&modify(false, ("9123", "9123"), (Image::new(), image)))
            .is_err());
    }

    fn conditional_add_reapplies_as_a_change_and_keeps_the_minted_id<D: Bench>() {
        let f = filter::<D>();
        let first = f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        // Reapplied add: must not fail on the duplicate; becomes a change.
        let again = f.apply(&add::<D>("9123", "Doe, John", true)).unwrap();
        assert!(again.applied && again.reapplied);
        assert_eq!(f.device.len(), 1);
        assert_eq!(
            reported(&f, "9123", &first),
            reported(&f, "9123", &again),
            "reapplication must not regenerate the id"
        );
        // Conditional add of a MISSING record falls back to a real add.
        let out = f.apply(&add::<D>("9200", "Smith, Pat", true)).unwrap();
        assert!(out.applied && out.reapplied);
        reported(&f, "9200", &out);
        assert_eq!(f.device.len(), 2);
    }

    fn conditional_delete_tolerates_a_missing_record<D: Bench>() {
        let f = filter::<D>();
        let out = f.apply(&delete("9123", true)).unwrap();
        assert!(!out.applied && out.reapplied);
        // And after a real delete as well.
        f.apply(&add::<D>("9123", "X", false)).unwrap();
        let out = f.apply(&delete("9123", true)).unwrap();
        assert!(out.applied && out.reapplied);
        let out = f.apply(&delete("9123", true)).unwrap();
        assert!(!out.applied && out.reapplied);
    }

    fn key_change_migrates_by_remove_and_add<D: Bench>() {
        let f = filter::<D>();
        let [name, _] = D::FIELDS;
        let first = f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        let id = reported(&f, "9123", &first);
        // The new image echoes the old minted id back, as the directory's
        // materialization would.
        let mut image = Image::from_pairs([(name, "Doe, John")]);
        if let (Some((field, _)), Some(id)) = (D::MINTED, &id) {
            image.set(field, vec![id.clone()]);
        }
        let out = f
            .apply(&modify(false, ("9123", "9200"), (Image::new(), image)))
            .unwrap();
        assert!(out.applied && !out.reapplied);
        assert!(f.device.get("9123").is_none());
        assert_eq!(held(&f, "9200", name).as_deref(), Some("Doe, John"));
        if let Some(renumbered) = reported(&f, "9200", &out) {
            assert_ne!(Some(renumbered), id, "a new record gets a new minted id");
        }
    }

    fn conditional_key_change_tolerates_an_old_record_already_gone<D: Bench>() {
        let f = filter::<D>();
        let renumber = |conditional| {
            modify(
                conditional,
                ("9123", "9200"),
                (Image::new(), attrs::<D>(["Doe, John", "1"])),
            )
        };
        // Unconditionally, the missing old record is the device's error and
        // nothing is added.
        assert!(f.apply(&renumber(false)).is_err());
        assert_eq!(f.device.len(), 0);
        let out = f.apply(&renumber(true)).unwrap();
        assert!(out.applied && out.reapplied);
        reported(&f, "9200", &out);
        assert_eq!(f.device.len(), 1);
    }

    fn conditional_modify_of_a_missing_record_adds_the_full_image<D: Bench>() {
        let f = filter::<D>();
        let [name, other] = D::FIELDS;
        // Only the name changed, so the patch is the name alone — the
        // fallback must still add both fields.
        let images = (
            attrs::<D>(["Doe, John", "2B-401"]),
            attrs::<D>(["Doe, Jack", "2B-401"]),
        );
        let out = f.apply(&modify(true, ("9123", "9123"), images)).unwrap();
        assert!(out.applied && out.reapplied);
        reported(&f, "9123", &out);
        assert_eq!(held(&f, "9123", name).as_deref(), Some("Doe, Jack"));
        assert_eq!(held(&f, "9123", other).as_deref(), Some("2B-401"));
    }

    fn an_empty_patch_is_not_applied_and_still_reports_the_minted_id<D: Bench>() {
        let f = filter::<D>();
        let first = f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        let same = attrs::<D>(["Doe, John", "1"]);
        for conditional in [false, true] {
            let out = f
                .apply(&modify(
                    conditional,
                    ("9123", "9123"),
                    (same.clone(), same.clone()),
                ))
                .unwrap();
            assert!(!out.applied);
            assert_eq!(out.reapplied, conditional);
            assert_eq!(reported(&f, "9123", &out), reported(&f, "9123", &first));
        }
    }

    fn skip_is_a_noop<D: Bench>() {
        let f = filter::<D>();
        let none = (Image::new(), Image::new());
        let out = f
            .apply(&op(OpKind::Skip, false, (None, None), none))
            .unwrap();
        assert!(!out.applied && !out.reapplied && out.generated.is_none());
        assert_eq!(f.device.len(), 0);
    }

    fn only_the_devices_own_terminal_surfaces_and_in_commit_order<D: Bench>() {
        let f = filter::<D>();
        let [name, other] = D::FIELDS;
        let mut updates = f.subscribe();
        let (shutdown, stopped) = std::sync::mpsc::channel::<()>();
        // MetaComm's own writes, before and between the craft's: suppressed.
        f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        f.device.craft_add("9200", "Smith, Pat");
        f.apply(&delete("9123", false)).unwrap();
        f.device.craft_change("9200", other, "2B-401");
        f.device.craft_remove("9200");

        let d = updates(&stopped).expect("the craft add");
        assert_eq!(
            (d.kind, d.origin.as_str(), d.key.as_str()),
            (UpdateKind::Add, f.name(), "9200")
        );
        assert_eq!(d.new.first(name), Some("Smith, Pat"));
        if let Some((field, _)) = D::MINTED {
            // The descriptor carries what the device generated at commit.
            assert!(d.new.first(field).unwrap().starts_with("MB-"), "{d:?}");
        }
        let d = updates(&stopped).expect("the craft change");
        assert_eq!(
            (d.kind, d.origin.as_str(), d.key.as_str()),
            (UpdateKind::Modify, f.name(), "9200")
        );
        assert_eq!(d.new.first(other), Some("2B-401"));
        assert_eq!(d.old.first(other), None);
        assert!(d.is_explicit(&other.to_ascii_lowercase()));
        assert!(!d.is_explicit(&name.to_ascii_lowercase()));
        let d = updates(&stopped).expect("the craft remove");
        assert_eq!((d.kind, d.key.as_str()), (UpdateKind::Delete, "9200"));
        assert_eq!(d.old.first(name), Some("Smith, Pat"));
        // Nothing else surfaced: with the feed drained, hanging up the
        // shutdown channel is all that is left to end the wait.
        drop(shutdown);
        assert!(updates(&stopped).is_none());
    }

    fn dump_carries_every_record_with_its_key<D: Bench>() {
        let f = filter::<D>();
        f.apply(&add::<D>("9123", "A", false)).unwrap();
        f.apply(&add::<D>("9200", "B", false)).unwrap();
        let images = f.dump();
        assert_eq!(images.len(), 2);
        let keys: Vec<_> = images
            .iter()
            .filter_map(|i| i.first(f.key_attr()))
            .collect();
        assert_eq!(keys, ["9123", "9200"]);
        assert!(f.probe().is_ok());
    }

    fn table<D: Bench>() {
        let scenarios: [(&str, fn()); 10] = [
            ("plain add, modify, delete", plain_add_modify_delete::<D>),
            (
                "conditional add",
                conditional_add_reapplies_as_a_change_and_keeps_the_minted_id::<D>,
            ),
            (
                "tolerant delete",
                conditional_delete_tolerates_a_missing_record::<D>,
            ),
            ("key change", key_change_migrates_by_remove_and_add::<D>),
            (
                "conditional key change, old record gone",
                conditional_key_change_tolerates_an_old_record_already_gone::<D>,
            ),
            (
                "conditional modify of a missing record",
                conditional_modify_of_a_missing_record_adds_the_full_image::<D>,
            ),
            (
                "empty patch",
                an_empty_patch_is_not_applied_and_still_reports_the_minted_id::<D>,
            ),
            ("skip", skip_is_a_noop::<D>),
            (
                "direct updates",
                only_the_devices_own_terminal_surfaces_and_in_commit_order::<D>,
            ),
            ("dump", dump_carries_every_record_with_its_key::<D>),
        ];
        for (name, scenario) in scenarios {
            println!("{}: {name}", D::NAME);
            scenario();
        }
    }

    #[test]
    fn the_switch_conforms() {
        table::<Switch>();
    }

    #[test]
    fn the_messaging_platform_conforms() {
        table::<Platform>();
    }

    #[test]
    fn the_mappings_are_named_after_the_repository() {
        let f = filter::<Switch>();
        assert_eq!(f.mapping_to_ldap(), "pbx-west_to_ldap");
        assert_eq!(f.mapping_from_ldap(), "ldap_to_pbx-west");
        assert!(f.ldap_owned_attrs().contains(&f.ldap_presence_attr()));
        let f = filter::<Platform>();
        assert_eq!(
            (f.mapping_to_ldap(), f.mapping_from_ldap()),
            ("mp_to_ldap", "ldap_to_mp")
        );
        assert!(f.ldap_owned_attrs().contains(&f.ldap_presence_attr()));
    }
}
