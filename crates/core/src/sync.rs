//! Synchronization (paper §4.4): "the UM also supports the synchronization
//! of preexisting directories. This is necessary to populate the directory
//! initially and to recover from disconnected operations of devices
//! without logging facilities."
//!
//! A synchronization runs in isolation: it opens an LTAP [`ltap::SyncSession`]
//! (which quiesces all ordinary updates — §5.1's persistent connection +
//! quiesce) and reconciles the directory against the device's full dump.

use crate::errorlog::ErrorLog;
use crate::filter::DeviceFilter;
use crate::image::{diff_mods, entry_to_image, image_to_entry, EntryFrame};
use crate::schema::LAST_UPDATER;
use crate::um::aux_class_mods;
use ldap::dn::Dn;
use ldap::entry::Modification;
use ldap::{Filter, ResultCode, Scope};
use lexpress::{Engine, Image, OpKind, TargetOp, UpdateDescriptor};
use ltap::{Gateway, SyncSession};
use std::collections::HashMap;
use std::sync::Arc;

/// What a synchronization did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Person entries created from device records.
    pub added: usize,
    /// Entries whose device attributes were corrected.
    pub repaired: usize,
    /// Entries already consistent.
    pub unchanged: usize,
    /// Entries whose device attributes were cleared because the device no
    /// longer has the record.
    pub cleared: usize,
    /// Device records that could not be reconciled (logged).
    pub failed: usize,
}

impl SyncReport {
    pub(crate) fn merge(&mut self, other: &SyncReport) {
        self.added += other.added;
        self.repaired += other.repaired;
        self.unchanged += other.unchanged;
        self.cleared += other.cleared;
        self.failed += other.failed;
    }
}

/// Synchronize the directory with one device. The device is authoritative
/// for its own attributes (its records were the ones that kept working
/// while the link was down).
///
/// Cost: one translation, one directory read and at most one write per
/// device record; one partition evaluation, reading the stored entry in
/// place, per entry that holds another device's data; a copy of the entry
/// and the full delete probe only for an orphan this device's
/// partition claims. Every lookup in between is a hash probe, so the time
/// the quiesce is held grows with records + holders and nothing else.
pub fn synchronize_device(
    gateway: &Arc<Gateway>,
    engine: &Engine,
    filter: &Arc<dyn DeviceFilter>,
    suffix: &Dn,
    errorlog: Option<&ErrorLog>,
) -> crate::error::Result<SyncReport> {
    let mut session = gateway.begin_sync();
    let mut report = SyncReport::default();
    let to_ldap = filter.mapping_to_ldap();
    let any_entry = Filter::match_all();
    let records = filter.dump();
    // The entry that canonically holds a device record → the first device
    // key that claimed it.
    let mut claimant: HashMap<Dn, String> = HashMap::with_capacity(records.len());
    for record in records {
        // Translate the device record exactly as a DDU add would be.
        let key = record
            .first(filter.key_attr())
            .unwrap_or_default()
            .to_string();
        let d = UpdateDescriptor::add(key, record, filter.name());
        let top = match engine.translate(to_ldap, &d) {
            Ok(t) => t,
            Err(_) => {
                report.failed += 1;
                continue;
            }
        };
        if top.kind == OpKind::Skip {
            continue;
        }
        let dn = match Dn::parse(top.new_key.as_deref().unwrap_or_default()) {
            Ok(dn) if !dn.is_root() => dn,
            _ => {
                report.failed += 1;
                continue;
            }
        };
        let UpdateDescriptor {
            key, new: record, ..
        } = d;
        // Two device records mapping to the same person DN cannot both be
        // represented (the integrated schema keys people by name). This
        // happens after half-crashed renames leave duplicate names on the
        // device — the paper's "extreme case": log it for the
        // administrator instead of silently merging (§4.4).
        if let Some(other_key) = claimant.get(&dn).filter(|k| **k != key) {
            report.failed += 1;
            if let Some(log) = errorlog {
                log.log(
                    gateway.inner().as_ref(),
                    0,
                    &format!(
                        "sync conflict at {}: device records {other_key} and {key} \
                         both map to {dn}; fix the duplicate name on the device",
                        filter.name()
                    ),
                    &format!("{record}"),
                );
            }
            continue;
        }
        claimant.insert(dn.clone(), key);
        // Diff against the entry where the directory holds it; the write
        // waits until the read is over.
        let mut attrs = top.attrs;
        let mut mods = None;
        let read = session.search_visit(&dn, Scope::Base, &any_entry, &mut |existing| {
            attrs.remove(LAST_UPDATER); // reconciliation, not an update
            let mut m = aux_class_mods(existing, &attrs);
            m.extend(diff_mods(existing, &attrs));
            mods = Some(m);
        });
        match read {
            Ok(()) => {}
            Err(e) if e.code == ResultCode::NoSuchObject => {}
            Err(e) => return Err(e.into()),
        }
        match mods {
            Some(mods) if mods.is_empty() => report.unchanged += 1,
            Some(mods) => {
                session.modify(&dn, &mods)?;
                report.repaired += 1;
            }
            None => {
                session.add(image_to_entry(dn, &attrs))?;
                report.added += 1;
            }
        }
    }
    // Stale directory data: entries claiming device data whose key the
    // device no longer has. The holders stream past under the directory's
    // read lock, so the visitor only sorts them — a hash probe, and for an
    // entry that is not this device's canonical one a partition evaluation
    // — and leaves the delete probe and the clearing writes until the read
    // is over.
    let presence = filter.ldap_presence_attr();
    let from_ldap = filter.mapping_from_ldap();
    let mut claimed: Vec<(Dn, Image)> = Vec::new();
    session.search_visit(
        suffix,
        Scope::Sub,
        &Filter::parse(&format!("({presence}=*)")).expect("valid filter"),
        &mut |entry| {
            // The device still has this record — but only ONE entry may
            // claim it. A crashed rename can leave a stale entry under the
            // old name claiming the same key as the canonical entry.
            if claimant.get(entry.dn()).map(String::as_str) == entry.first(presence) {
                return;
            }
            // Respect partitioning: only clear entries THIS device's
            // constraint claims (another switch may own the extension).
            // With several switches most holders are another switch's, so
            // the constraint is asked on its own first, of the entry where
            // it stands; only an entry it claims is worth copying into a
            // delete descriptor and a full translation.
            if matches!(
                engine.partition_claims(from_ldap, &EntryFrame(entry)),
                Ok(true)
            ) {
                claimed.push((entry.dn().clone(), entry_to_image(entry)));
            }
        },
    )?;
    let owned = filter.ldap_owned_attrs();
    for (dn, image) in claimed {
        let mods: Vec<Modification> = owned
            .iter()
            .filter(|a| image.has(a))
            .map(|a| Modification::delete_attr(*a))
            .chain(std::iter::once(Modification::set(
                LAST_UPDATER,
                filter.name(),
            )))
            .collect();
        // The partition alone does not decide: the translation must also
        // yield a key to delete by and no runtime error.
        let probe = UpdateDescriptor::delete(dn.to_string(), image, filter.name());
        match engine.translate(from_ldap, &probe) {
            Ok(top) if top.kind == OpKind::Delete => {}
            _ => continue,
        }
        session.modify(&dn, &mods)?;
        report.cleared += 1;
    }
    Ok(report)
}

/// The inverse direction: reapply the directory's current materialization
/// onto a device that missed updates while its circuit breaker was open.
/// Here the *directory* is authoritative — the device was unreachable
/// while legs skipped it, so its records are stale, not ahead. Runs in
/// isolation, like [`synchronize_device`]. Report fields read device-side:
/// `added`/`repaired`/`cleared` count device records created/corrected/
/// removed.
pub fn resynchronize_device_from_directory(
    gateway: &Arc<Gateway>,
    engine: &Engine,
    filter: &Arc<dyn DeviceFilter>,
    suffix: &Dn,
    errorlog: Option<&ErrorLog>,
    retry: &crate::resilience::RetryPolicy,
    stats: &crate::um::UmStats,
) -> crate::error::Result<SyncReport> {
    resynchronize_in(
        &mut gateway.begin_sync(),
        engine,
        filter,
        suffix,
        errorlog,
        retry,
        stats,
    )
}

/// [`resynchronize_device_from_directory`] within `session`, which the
/// caller holds around it (recovery re-checks the device's state under it
/// first, and marks the device clean before it drops). A transient device
/// fault that retry does not mask ends the resync with that error: the
/// link is gone again, and every later apply would only fail too.
///
/// Cost: one translation per holder, read in place; one device apply, and
/// for a generated field one directory write, per record that differs.
pub(crate) fn resynchronize_in(
    session: &mut SyncSession,
    engine: &Engine,
    filter: &Arc<dyn DeviceFilter>,
    suffix: &Dn,
    errorlog: Option<&ErrorLog>,
    retry: &crate::resilience::RetryPolicy,
    stats: &crate::um::UmStats,
) -> crate::error::Result<SyncReport> {
    let mut report = SyncReport::default();
    // A record the resync could not set right: counted, and logged for the
    // administrator (§4.4).
    let dir = session.directory().clone();
    let fail = |report: &mut SyncReport, text: String, detail: String| {
        report.failed += 1;
        if let Some(log) = errorlog {
            log.log(dir.as_ref(), 0, &text, &detail);
        }
    };
    let presence = filter.ldap_presence_attr();
    // Current device state, keyed the way the device keys it.
    let mut device: HashMap<String, Image> = filter
        .dump()
        .into_iter()
        .filter_map(|r| {
            let key = r.first(filter.key_attr())?.to_string();
            Some((key, r))
        })
        .collect();
    // The holders stream past where the directory keeps them: the visitor
    // translates each and keeps only the ops for records the device lacks
    // or holds differently. Applying them waits until the read is over.
    let from_ldap = filter.mapping_from_ldap();
    let mut pending: Vec<(Dn, String, TargetOp, bool)> = Vec::new();
    session.search_visit(
        suffix,
        Scope::Sub,
        &Filter::parse(&format!("({presence}=*)")).expect("valid filter"),
        &mut |entry| {
            let d =
                UpdateDescriptor::add(entry.dn().to_string(), entry_to_image(entry), filter.name());
            let mut top = match engine.translate(from_ldap, &d) {
                Ok(t) => t,
                Err(_) => {
                    report.failed += 1;
                    return;
                }
            };
            if top.kind == OpKind::Skip {
                return; // another device's partition
            }
            let Some(key) = top.new_key.clone() else {
                report.failed += 1;
                return;
            };
            let existing = device.remove(&key);
            if let Some(rec) = &existing {
                // The device may carry generated fields the directory never
                // set (defaults filled in at add time) — only the attrs the
                // directory materializes need to match.
                let consistent = top
                    .attrs
                    .iter()
                    .all(|(name, values)| rec.first(name) == values.first().map(String::as_str));
                if consistent {
                    report.unchanged += 1;
                    return;
                }
            }
            // §5.4 conditional add: modify-then-add, i.e. an upsert.
            top.conditional = true;
            pending.push((entry.dn().clone(), key, top, existing.is_some()));
        },
    )?;
    let any_entry = Filter::match_all();
    for (dn, key, top, existed) in pending {
        // Retried — a still-flaky link must not silently shrink the resync.
        let outcome = match crate::resilience::apply_with_retry(filter, &top, retry, stats) {
            Ok(outcome) => outcome,
            Err(e) if e.is_transient() => return Err(e),
            Err(e) => {
                let text = format!("resync of {key} to {} failed: {e}", filter.name());
                fail(&mut report, text, format!("{top:?}"));
                continue;
            }
        };
        // Fold device-generated info back into the entry where it stands.
        // It may be gone by now, or the schema may refuse the fields: then
        // the device has the record but the directory lost what the device
        // generated for it, which the administrator must hear about.
        let mut mods = Vec::new();
        let folded = match outcome.generated {
            None => Ok(()),
            Some(gen) => session
                .search_visit(&dn, Scope::Base, &any_entry, &mut |entry| {
                    mods = aux_class_mods(entry, &gen);
                    for (name, values) in gen.iter() {
                        if entry.values(name) != values {
                            mods.push(Modification::replace(name, values.to_vec()));
                        }
                    }
                })
                .and_then(|()| {
                    if mods.is_empty() {
                        Ok(())
                    } else {
                        session.modify(&dn, &mods)
                    }
                }),
        };
        match folded {
            Ok(()) if existed => report.repaired += 1,
            Ok(()) => report.added += 1,
            Err(e) => {
                let text = format!(
                    "resync of {key} to {} applied, but folding its generated fields back \
                     into {dn} failed: {e}",
                    filter.name(),
                );
                fail(&mut report, text, format!("{mods:?}"));
            }
        }
    }
    // Device records no directory entry claims: the person (or their claim
    // to this device) was removed while the device was unreachable.
    for key in device.into_keys() {
        let top = TargetOp {
            kind: OpKind::Delete,
            conditional: true,
            old_key: Some(key.clone()),
            new_key: None,
            attrs: Image::new(),
            old_attrs: Image::new(),
        };
        match crate::resilience::apply_with_retry(filter, &top, retry, stats) {
            Ok(_) => report.cleared += 1,
            Err(e) if e.is_transient() => return Err(e),
            Err(e) => {
                let text = format!("resync removal of {key} at {} failed: {e}", filter.name());
                fail(&mut report, text, format!("{top:?}"));
            }
        }
    }
    Ok(report)
}
