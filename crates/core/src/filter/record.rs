//! The protocol converter for record-keeping devices — the Definity-style
//! switch and the messaging platform, each the one device store
//! ([`pbx::Store`]) with a [`Kind`] of its own. [`RecordFilter`] writes the
//! §5.4 conditional-reapply tree once against that store; what a kind
//! surfaces as in the integrated schema is a [`Surface`], data only.

use super::{changed_fields, ApplyOutcome, DeviceFilter, DirectUpdates};
use crate::error::{MetaError, Result};
use lexpress::{Image, OpKind, TargetOp, UpdateDescriptor};
use pbx::{DeviceEvent, EventKind, Kind, Record};
use std::fmt::Display;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle relay waits on its device feed before it looks at the
/// shutdown channel again.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(10);

/// The integrated-schema attributes one kind of device surfaces as.
struct Surface {
    /// Attributes the device owns.
    owned: &'static [&'static str],
    /// The owned attribute every entry with data on this device carries.
    presence: &'static str,
    /// The attribute the device-minted field surfaces as.
    minted: Option<&'static str>,
}

const SWITCH: Surface = Surface {
    owned: &[
        "definityExtension",
        "definityCoveragePath",
        "definityCor",
        "definityPort",
        "definitySetType",
    ],
    presence: "definityExtension",
    minted: None,
};

const PLATFORM: Surface = Surface {
    owned: &["mpMailbox", "mpMailboxId", "mpClassOfService"],
    presence: "mpMailbox",
    minted: Some("mpMailboxId"),
};

/// The store a filter serves: a switch, or the platform behind its
/// map-building `get`.
type Held<K> = Arc<dyn AsRef<pbx::Store<K>> + Send + Sync>;

/// The filter for one switch.
pub fn for_pbx(store: Arc<pbx::Store>) -> Arc<dyn DeviceFilter> {
    Arc::new(RecordFilter::new(store, &SWITCH))
}

/// The filter for one messaging platform. Its adds *generate* information
/// at the device (the mailbox id), which the filter reports back so the
/// Update Manager can fold it into the directory image (paper §5.5).
pub(crate) fn for_msgplat(store: Arc<msgplat::Store>) -> Arc<dyn DeviceFilter> {
    Arc::new(RecordFilter::new(store, &PLATFORM))
}

struct RecordFilter<K: Kind> {
    held: Held<K>,
    surface: &'static Surface,
    name: String,
    to_ldap: String,
    from_ldap: String,
}

impl<K: Kind<Error: Display>> RecordFilter<K> {
    fn new(held: Held<K>, surface: &'static Surface) -> RecordFilter<K> {
        let name = (*held).as_ref().name().to_string();
        RecordFilter {
            to_ldap: format!("{name}_to_ldap"),
            from_ldap: format!("ldap_to_{name}"),
            held,
            surface,
            name,
        }
    }

    fn store(&self) -> &pbx::Store<K> {
        (*self.held).as_ref()
    }

    fn dev_err(&self, e: K::Error) -> MetaError {
        MetaError::Device {
            repository: self.name.clone(),
            detail: e.to_string(),
        }
    }

    /// The device record carrying `img`'s first values: keyed `key`, or
    /// without a key field when it is a patch; with the device-minted field
    /// only where `minted` says so.
    fn record(img: &Image, key: Option<&str>, minted: bool) -> Record {
        let dropped = |field: &str| {
            field.eq_ignore_ascii_case(K::KEY)
                || (!minted && K::MINTED.is_some_and(|(m, _)| field.eq_ignore_ascii_case(m)))
        };
        let kept = img.iter().filter(|(field, _)| !dropped(field));
        let firsts = kept.filter_map(|(field, values)| Some((field, values.first()?.as_str())));
        Record::from_pairs(firsts.chain(key.map(|k| (K::KEY, k))))
    }

    /// Add `rec` through MetaComm's own session.
    fn add(&self, rec: Record) -> Result<()> {
        (self.store().add(rec, K::METACOMM)).map_err(|e| self.dev_err(e))
    }

    /// Add the op's full image under `key`, as a fresh record.
    fn add_back(&self, op: &TargetOp, key: &str) -> Result<()> {
        self.add(Self::record(&op.attrs, Some(key), false))
    }

    /// What the device generated for the record at `key`, in
    /// integrated-schema terms, read off the record as the device now
    /// holds it.
    fn generated(&self, key: &str) -> Option<Image> {
        let ((field, _), attr) = (K::MINTED?, self.surface.minted?);
        let id = |held: &Record| held.get(field).map(str::to_string);
        Some(Image::from_pairs([(attr, self.store().read(key, id)??)]))
    }

    fn descriptor(origin: &str, ev: DeviceEvent) -> UpdateDescriptor {
        let held = ev.new.as_ref().or(ev.old.as_ref());
        let key = held.and_then(|rec| rec.get(K::KEY)).unwrap_or_default();
        let key = key.to_string();
        let image = |rec: Option<Record>| {
            let fields = rec.as_ref().map(|rec| Image::from_pairs(rec.fields()));
            fields.unwrap_or_default()
        };
        match ev.kind {
            EventKind::Add => UpdateDescriptor::add(key, image(ev.new), origin),
            EventKind::Change => {
                UpdateDescriptor::modify(key, image(ev.old), image(ev.new), origin)
            }
            EventKind::Remove => UpdateDescriptor::delete(key, image(ev.old), origin),
        }
    }
}

impl<K: Kind<Error: Display>> DeviceFilter for RecordFilter<K> {
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
        K::KEY
    }

    fn ldap_owned_attrs(&self) -> &[&str] {
        self.surface.owned
    }

    fn ldap_presence_attr(&self) -> &str {
        self.surface.presence
    }

    fn apply(&self, op: &TargetOp) -> Result<ApplyOutcome> {
        // `post`: the key of the record the op left on the device, whose
        // minted field is reported.
        let done = |applied, reapplied, post: Option<&str>| {
            Ok(ApplyOutcome {
                applied,
                reapplied,
                generated: post.and_then(|key| self.generated(key)),
            })
        };
        fn key(k: &Option<String>) -> &str {
            k.as_deref().expect("engine validated")
        }
        let store = self.store();
        match op.kind {
            OpKind::Skip => Ok(ApplyOutcome::default()),
            OpKind::Add => {
                let key = key(&op.new_key);
                let rec = || Self::record(&op.attrs, Some(key), true);
                if op.conditional {
                    // §5.4: a reapplied add goes in as a change (echoing
                    // the minted field back is allowed); a real add only
                    // when the record is missing.
                    match store.change(key, rec(), K::METACOMM) {
                        Ok(()) => return done(true, true, Some(key)),
                        Err(e) if K::is_missing(&e) => {}
                        Err(e) => return Err(self.dev_err(e)),
                    }
                }
                self.add(rec())?;
                done(true, op.conditional, Some(key))
            }
            OpKind::Modify => {
                let (old_key, new_key) = (key(&op.old_key), key(&op.new_key));
                if old_key != new_key {
                    // The device's form cannot change a key: migrate via
                    // remove + add (§4.2).
                    match store.remove(old_key, K::METACOMM) {
                        Ok(()) => {}
                        Err(e) if op.conditional && K::is_missing(&e) => {}
                        Err(e) => return Err(self.dev_err(e)),
                    }
                    self.add_back(op, new_key)?;
                    return done(true, op.conditional, Some(new_key));
                }
                let mut patch = changed_fields(&op.old_attrs, &op.attrs);
                patch.remove(K::KEY);
                if patch.is_empty() {
                    // Nothing device-visible changed; what the device
                    // generated for the record is still reported.
                    return done(false, op.conditional, Some(new_key));
                }
                let patch = Self::record(&patch, None, true);
                match store.change(new_key, patch, K::METACOMM) {
                    Ok(()) => done(true, op.conditional, Some(new_key)),
                    // Conditional modify of a missing record: add the full
                    // image back.
                    Err(e) if op.conditional && K::is_missing(&e) => {
                        self.add_back(op, new_key)?;
                        done(true, true, Some(new_key))
                    }
                    Err(e) => Err(self.dev_err(e)),
                }
            }
            OpKind::Delete => match store.remove(key(&op.old_key), K::METACOMM) {
                Ok(()) => done(true, op.conditional, None),
                // Reapplied delete: already gone — fine.
                Err(e) if op.conditional && K::is_missing(&e) => done(false, true, None),
                Err(e) => Err(self.dev_err(e)),
            },
        }
    }

    fn probe(&self) -> Result<()> {
        let _ = self.store().len();
        Ok(())
    }

    /// Each image is built straight from the record the device holds.
    fn dump(&self) -> Vec<Image> {
        let mut images = Vec::with_capacity(self.store().len());
        (self.store()).for_each(|rec| images.push(Image::from_pairs(rec.fields())));
        images
    }

    fn subscribe(&self) -> DirectUpdates {
        let feed = self.store().subscribe();
        let sent = feed.sent();
        let origin = self.name.clone();
        // One blocking receive on the feed, so a DDU wakes its relay as it
        // arrives; the shutdown channel is looked at after every receive, so
        // neither an idle device nor a busy one holds its relay. Every event
        // is a terminal commit: MetaComm's own writes are never fed.
        DirectUpdates::new(sent, move |shutdown| loop {
            let next = feed.recv_timeout(SHUTDOWN_CHECK);
            if shutdown.try_recv() != Err(TryRecvError::Empty) {
                return None;
            }
            match next {
                Ok(ev) => return Some(Self::descriptor(&origin, ev)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    //! The §5.4 conformance table: one scenario list, driven through the
    //! one filter for both device kinds.
    use super::*;
    use lexpress::UpdateKind;

    /// What the table needs of a kind besides its description: a filter
    /// over a fresh store, and two ordinary fields.
    trait Bench: Kind<Error: Display> + Sized {
        const NAME: &'static str;
        /// The subscriber-name field and one more non-key field.
        const FIELDS: [&'static str; 2];
        fn fresh() -> RecordFilter<Self>;
    }

    impl Bench for pbx::Switch {
        const NAME: &'static str = "pbx-west";
        const FIELDS: [&'static str; 2] = [pbx::fields::NAME, pbx::fields::ROOM];
        fn fresh() -> RecordFilter<pbx::Switch> {
            let plan = pbx::DialPlan::with_prefix("9", 4);
            RecordFilter::new(Arc::new(pbx::Store::new(Self::NAME, plan)), &SWITCH)
        }
    }

    impl Bench for msgplat::Platform {
        const NAME: &'static str = "mp";
        const FIELDS: [&'static str; 2] = [msgplat::fields::SUBSCRIBER, msgplat::fields::COS];
        fn fresh() -> RecordFilter<msgplat::Platform> {
            RecordFilter::new(Arc::new(msgplat::Store::new(Self::NAME)), &PLATFORM)
        }
    }

    fn filter<D: Bench>() -> RecordFilter<D> {
        D::fresh()
    }

    /// Add / change one field of / remove `key` at the device's own
    /// terminal.
    fn craft_add<D: Bench>(f: &RecordFilter<D>, key: &str, name: &str) {
        let rec = Record::from_pairs([(D::KEY, key), (D::FIELDS[0], name)]);
        assert!(f.store().add(rec, D::TERMINAL).is_ok());
    }

    fn craft_change<D: Bench>(f: &RecordFilter<D>, key: &str, field: &str, value: &str) {
        let patch = Record::from_pairs([(field, value)]);
        assert!(f.store().change(key, patch, D::TERMINAL).is_ok());
    }

    fn craft_remove<D: Bench>(f: &RecordFilter<D>, key: &str) {
        assert!(f.store().remove(key, D::TERMINAL).is_ok());
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
        f.store().get(key)?.get(field).map(str::to_string)
    }

    /// The device-minted id an outcome reports, in integrated-schema terms.
    /// Always the one the device holds at `key` — and there is one exactly
    /// when the device mints any.
    fn reported<D: Bench>(f: &RecordFilter<D>, key: &str, out: &ApplyOutcome) -> Option<String> {
        let minted = D::MINTED.and_then(|(field, _)| {
            let attr = f.surface.minted.expect("a minted field surfaces");
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
        assert_eq!(f.store().len(), 1);
        assert_eq!(held(&f, "9123", name).as_deref(), Some("Doe, John"));

        let image = attrs::<D>(["Doe, John", "2B-401"]);
        let out = f
            .apply(&modify(false, ("9123", "9123"), (Image::new(), image)))
            .unwrap();
        assert!(out.applied && !out.reapplied);
        assert_eq!(held(&f, "9123", other).as_deref(), Some("2B-401"));

        let out = f.apply(&delete("9123", false)).unwrap();
        assert!(out.applied && !out.reapplied && out.generated.is_none());
        assert_eq!(f.store().len(), 0);
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
        assert_eq!(f.store().len(), 1);
        assert_eq!(
            reported(&f, "9123", &first),
            reported(&f, "9123", &again),
            "reapplication must not regenerate the id"
        );
        // Conditional add of a MISSING record falls back to a real add.
        let out = f.apply(&add::<D>("9200", "Smith, Pat", true)).unwrap();
        assert!(out.applied && out.reapplied);
        reported(&f, "9200", &out);
        assert_eq!(f.store().len(), 2);
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
        assert!(f.store().get("9123").is_none());
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
        assert_eq!(f.store().len(), 0);
        let out = f.apply(&renumber(true)).unwrap();
        assert!(out.applied && out.reapplied);
        reported(&f, "9200", &out);
        assert_eq!(f.store().len(), 1);
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
        assert_eq!(f.store().len(), 0);
    }

    fn only_the_devices_own_terminal_surfaces_and_in_commit_order<D: Bench>() {
        let f = filter::<D>();
        let [name, other] = D::FIELDS;
        let mut updates = f.subscribe();
        let (shutdown, stopped) = std::sync::mpsc::channel::<()>();
        // MetaComm's own writes, before and between the craft's: never fed.
        f.apply(&add::<D>("9123", "Doe, John", false)).unwrap();
        craft_add(&f, "9200", "Smith, Pat");
        f.apply(&delete("9123", false)).unwrap();
        craft_change(&f, "9200", other, "2B-401");
        craft_remove(&f, "9200");
        let sent = updates.sent().load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(sent, 3, "the feed counts the terminal commits alone");

        let d = updates.next(&stopped).expect("the craft add");
        assert_eq!(
            (d.kind, d.origin.as_str(), d.key.as_str()),
            (UpdateKind::Add, f.name(), "9200")
        );
        assert_eq!(d.new.first(name), Some("Smith, Pat"));
        if let Some((field, _)) = D::MINTED {
            // The descriptor carries what the device generated at commit.
            assert!(d.new.first(field).unwrap().starts_with("MB-"), "{d:?}");
        }
        let d = updates.next(&stopped).expect("the craft change");
        assert_eq!(
            (d.kind, d.origin.as_str(), d.key.as_str()),
            (UpdateKind::Modify, f.name(), "9200")
        );
        assert_eq!(d.new.first(other), Some("2B-401"));
        assert_eq!(d.old.first(other), None);
        assert!(d.is_explicit(&other.to_ascii_lowercase()));
        assert!(!d.is_explicit(&name.to_ascii_lowercase()));
        let d = updates.next(&stopped).expect("the craft remove");
        assert_eq!((d.kind, d.key.as_str()), (UpdateKind::Delete, "9200"));
        assert_eq!(d.old.first(name), Some("Smith, Pat"));
        // Nothing else surfaced: with the feed drained, hanging up the
        // shutdown channel is all that is left to end the wait.
        drop(shutdown);
        assert!(updates.next(&stopped).is_none());
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
        table::<pbx::Switch>();
    }

    #[test]
    fn the_messaging_platform_conforms() {
        table::<msgplat::Platform>();
    }

    #[test]
    fn the_mappings_are_named_after_the_repository() {
        let f = filter::<pbx::Switch>();
        assert_eq!(f.mapping_to_ldap(), "pbx-west_to_ldap");
        assert_eq!(f.mapping_from_ldap(), "ldap_to_pbx-west");
        assert!(f.ldap_owned_attrs().contains(&f.ldap_presence_attr()));
        let f = filter::<msgplat::Platform>();
        assert_eq!(
            (f.mapping_to_ldap(), f.mapping_from_ldap()),
            ("mp_to_ldap", "ldap_to_mp")
        );
        assert!(f.ldap_owned_attrs().contains(&f.ldap_presence_attr()));
    }
}
