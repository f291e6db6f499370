//! Synchronization sessions — the two LTAP modifications MetaComm required
//! (paper §5.1): *persistent connections* that carry a sequence of updates,
//! and execution in isolation under the *quiesce* facility.

use crate::gateway::Gateway;
use ldap::dit::Scope;
use ldap::dn::Dn;
use ldap::entry::{Entry, Modification};
use ldap::error::Result;
use ldap::filter::Filter;
use ldap::Directory;
use std::sync::Arc;

/// An open synchronization session. While it lives, all ordinary updates
/// through the gateway are blocked; the session's own operations go
/// directly to the backing directory without trigger processing (the UM is
/// the one driving the session — re-triggering it would loop). Dropping
/// the session lifts the quiesce.
pub struct SyncSession {
    gateway: Arc<Gateway>,
}

impl SyncSession {
    pub(crate) fn open(gateway: Arc<Gateway>) -> SyncSession {
        gateway.quiesce_gate().quiesce();
        SyncSession { gateway }
    }

    /// The backing directory the session writes to, for writes that are
    /// not part of the synchronization itself (the error log).
    pub fn directory(&self) -> &Arc<dyn Directory> {
        self.gateway.inner()
    }

    pub fn add(&mut self, entry: Entry) -> Result<()> {
        self.directory().add(entry)
    }

    pub fn modify(&mut self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        self.directory().modify(dn, mods)
    }

    /// Reads within the session (consistency checks during resync).
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> Result<Vec<Entry>> {
        self.directory()
            .search(base, scope, filter, attrs, size_limit)
    }

    /// [`search`](SyncSession::search) without the result vector: `visit`
    /// sees each match borrowed from the directory, under the visitor
    /// contract of [`Directory::search_visit`] — so it must not write
    /// through this session; note what to change and apply it once the
    /// read returns.
    pub fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<()> {
        self.directory()
            .search_visit(base, scope, filter, &[], 0, visit)
            .map(|_| ())
    }

    pub fn get(&self, dn: &Dn) -> Result<Option<Entry>> {
        self.directory().get(dn)
    }
}

impl Drop for SyncSession {
    fn drop(&mut self) {
        self.gateway.quiesce_gate().release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::{Disposition, TriggerContext, TriggerSpec};
    use ldap::dit::{figure2_tree, Dit};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn session_applies_without_triggering() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let gw = Gateway::new(dit);
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        gw.register(
            TriggerSpec::all_updates("um", Dn::root()),
            Arc::new(move |_: &TriggerContext<'_>| {
                f2.fetch_add(1, Ordering::SeqCst);
                Ok(Disposition::Proceed)
            }),
        );
        let mut session = gw.begin_sync();
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        session
            .modify(&john, &[Modification::set("telephoneNumber", "9001")])
            .unwrap();
        session
            .modify(&john, &[Modification::set("roomNumber", "2B-401")])
            .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "sync must not re-trigger");
        assert_eq!(
            session.get(&john).unwrap().unwrap().first("roomNumber"),
            Some("2B-401")
        );
        drop(session);
        // Ordinary updates trigger again afterwards.
        gw.modify(&john, &[Modification::set("description", "x")])
            .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn session_blocks_ordinary_updates_until_dropped() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        let gw = Gateway::new(dit);
        let session = gw.begin_sync();
        let gw2 = gw;
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = done.clone();
        let updater = std::thread::spawn(move || {
            let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
            gw2.modify(&john, &[Modification::set("description", "later")])
                .unwrap();
            d2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            done.load(Ordering::SeqCst),
            0,
            "update ran during sync isolation"
        );
        drop(session);
        updater.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
