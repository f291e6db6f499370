//! Failure handling (paper §4.4): "the update is aborted, an error is
//! logged into the directory, and a notification is sent to the
//! administrator. The administrator can browse through the errors and
//! manually fix the resulting inconsistencies at a later time."

use crate::unpoison;
use ldap::dn::{Dn, Rdn};
use ldap::entry::Entry;
use ldap::{Directory, Filter, Scope};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// An administrator notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminAlert {
    pub id: u64,
    pub text: String,
    pub failed_op: String,
}

/// Error log writing error entries under `cn=errors,<suffix>`.
pub struct ErrorLog {
    base: Dn,
    next_id: AtomicU64,
    alerts: Mutex<Vec<Sender<AdminAlert>>>,
}

impl ErrorLog {
    /// Create the log container entry (idempotent) and the log handle.
    pub fn install(dir: &dyn Directory, suffix: &Dn) -> ldap::Result<ErrorLog> {
        let base = suffix.child(Rdn::new("ou", "errors"));
        if dir.get(&base)?.is_none() {
            let mut container = Entry::new(base.clone());
            container.add_value("objectClass", "top");
            container.add_value("objectClass", "organizationalUnit");
            container.add_value("ou", "errors");
            dir.add(container)?;
        }
        Ok(ErrorLog {
            base,
            next_id: AtomicU64::new(1),
            alerts: Mutex::new(Vec::new()),
        })
    }

    /// Where error entries are written.
    #[cfg(test)]
    fn base(&self) -> &Dn {
        &self.base
    }

    /// Subscribe to administrator alerts.
    pub fn subscribe(&self) -> Receiver<AdminAlert> {
        let (tx, rx) = channel();
        unpoison(self.alerts.lock()).push(tx);
        rx
    }

    /// Record a failure: writes an error entry into the directory and
    /// notifies administrators. Logging never fails the caller — if even
    /// the log write fails the alert still goes out.
    pub(crate) fn log(&self, dir: &dyn Directory, seq: u64, text: &str, failed_op: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let dn = self.base.child(Rdn::new("metacommErrorId", id.to_string()));
        let mut e = Entry::new(dn);
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "metacommError");
        e.add_value("metacommErrorId", id.to_string());
        e.add_value("metacommErrorText", text);
        e.add_value("metacommFailedOp", failed_op);
        e.add_value("metacommErrorSeq", seq.to_string());
        let _ = dir.add(e);
        let alert = AdminAlert {
            id,
            text: text.to_string(),
            failed_op: failed_op.to_string(),
        };
        unpoison(self.alerts.lock()).retain(|tx| tx.send(alert.clone()).is_ok());
        id
    }

    /// Browse the logged errors (paper: "the administrator can browse
    /// through the errors").
    pub(crate) fn browse(&self, dir: &dyn Directory) -> ldap::Result<Vec<Entry>> {
        dir.search(
            &self.base,
            Scope::One,
            &Filter::parse("(objectClass=metacommError)").expect("static filter"),
            &[],
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::integrated_schema;
    use ldap::dit::Dit;
    use std::sync::Arc;

    fn dir() -> Arc<Dit> {
        let dit = Dit::with_schema(Arc::new(integrated_schema()));
        let mut lucent = Entry::new(Dn::parse("o=Lucent").unwrap());
        lucent.add_value("objectClass", "top");
        lucent.add_value("objectClass", "organization");
        lucent.add_value("o", "Lucent");
        ldap::Dit::add(&dit, lucent).unwrap();
        dit
    }

    #[test]
    fn log_and_browse() {
        let dit = dir();
        let suffix = Dn::parse("o=Lucent").unwrap();
        let log = ErrorLog::install(dit.as_ref(), &suffix).unwrap();
        let rx = log.subscribe();
        let id1 = log.log(dit.as_ref(), 7, "device rejected update", "modify cn=X");
        let id2 = log.log(dit.as_ref(), 8, "fixpoint not reached", "add cn=Y");
        assert_ne!(id1, id2);
        let alerts: Vec<AdminAlert> = rx.try_iter().collect();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].text, "device rejected update");
        let errors = log.browse(dit.as_ref()).unwrap();
        assert_eq!(errors.len(), 2);
        assert!(errors
            .iter()
            .any(|e| e.first("metacommFailedOp") == Some("modify cn=X")));
    }

    #[test]
    fn install_is_idempotent() {
        let dit = dir();
        let suffix = Dn::parse("o=Lucent").unwrap();
        let a = ErrorLog::install(dit.as_ref(), &suffix).unwrap();
        let b = ErrorLog::install(dit.as_ref(), &suffix).unwrap();
        assert_eq!(a.base(), b.base());
    }
}
