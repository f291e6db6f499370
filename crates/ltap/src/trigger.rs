//! Trigger specifications and handler interface.

use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::filter::Filter;
use ldap::Directory;

/// The update operations LTAP can trap.
#[derive(Debug, Clone, PartialEq)]
pub enum LtapOp {
    Add(Entry),
    Modify(Dn, Vec<Modification>),
    Delete(Dn),
    ModifyRdn {
        dn: Dn,
        new_rdn: Rdn,
        delete_old: bool,
        new_superior: Option<Dn>,
    },
}

impl LtapOp {
    /// The DN the operation addresses (the pre-rename DN for ModifyRdn).
    pub fn dn(&self) -> &Dn {
        match self {
            LtapOp::Add(e) => e.dn(),
            LtapOp::Modify(dn, _) => dn,
            LtapOp::Delete(dn) => dn,
            LtapOp::ModifyRdn { dn, .. } => dn,
        }
    }

    /// The DN the entry has once the operation is applied: for a
    /// ModifyRdn the new DN (under `new_superior` when the entry moves),
    /// otherwise [`LtapOp::dn`]. Fails only for a rename of the root.
    pub fn target_dn(&self) -> ldap::Result<Dn> {
        match self {
            LtapOp::ModifyRdn {
                new_rdn,
                new_superior: Some(sup),
                ..
            } => Ok(sup.child(new_rdn.clone())),
            LtapOp::ModifyRdn { dn, new_rdn, .. } => dn.with_rdn(new_rdn.clone()),
            other => Ok(other.dn().clone()),
        }
    }

    pub fn kind(&self) -> OpKind {
        match self {
            LtapOp::Add(_) => OpKind::Add,
            LtapOp::Modify(..) => OpKind::Modify,
            LtapOp::Delete(_) => OpKind::Delete,
            LtapOp::ModifyRdn { .. } => OpKind::ModifyRdn,
        }
    }
}

/// Operation kinds for trigger masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Add,
    Modify,
    Delete,
    ModifyRdn,
}

/// When the trigger fires relative to servicing the command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Fires while the entry lock is held, before the server applies the
    /// command; may veto (error) or take over servicing ([`Disposition::Handled`]).
    Before,
    /// Fires after a successful apply; return values are ignored.
    After,
}

/// What a before-trigger tells the gateway to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Continue: apply the original operation.
    Proceed,
    /// The handler serviced the operation itself (possibly transformed);
    /// the gateway must not apply the original.
    Handled,
}

/// A trigger registration: which operations, where in the tree, and an
/// optional entry filter.
#[derive(Debug, Clone)]
pub struct TriggerSpec {
    pub name: String,
    pub timing: Timing,
    pub ops: Vec<OpKind>,
    /// Subtree the trigger watches (root = everything).
    pub base: Dn,
    /// Optional filter over the affected entry (pre-image for
    /// modify/delete/rename, the new entry for add).
    pub filter: Option<Filter>,
}

impl TriggerSpec {
    /// A before-trigger on every update under `base`.
    pub fn all_updates(name: impl Into<String>, base: Dn) -> TriggerSpec {
        TriggerSpec {
            name: name.into(),
            timing: Timing::Before,
            ops: vec![
                OpKind::Add,
                OpKind::Modify,
                OpKind::Delete,
                OpKind::ModifyRdn,
            ],
            base,
            filter: None,
        }
    }

    pub fn after(mut self) -> TriggerSpec {
        self.timing = Timing::After;
        self
    }

    pub fn with_filter(mut self, f: Filter) -> TriggerSpec {
        self.filter = Some(f);
        self
    }

    pub(crate) fn matches(&self, op: &LtapOp, affected: Option<&Entry>) -> bool {
        if !self.ops.contains(&op.kind()) {
            return false;
        }
        if !op.dn().is_within(&self.base) {
            return false;
        }
        match (&self.filter, affected) {
            (Some(f), Some(e)) => f.matches(e),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }
}

/// Context handed to a firing trigger.
pub struct TriggerContext<'a> {
    pub op: &'a LtapOp,
    /// Entry image before the operation (None for Add).
    pub pre_image: Option<&'a Entry>,
    /// Origin tag carried by persistent-connection clients (MetaComm device
    /// filters relaying DDUs tag their operations with the device name);
    /// `None` for ordinary LDAP clients.
    pub origin: Option<&'a str>,
    /// The directory behind the gateway. A `Handled` trigger uses this to
    /// service the (possibly transformed) operation itself; the entry lock
    /// is already held by the gateway.
    pub directory: &'a dyn Directory,
}

/// Trigger callbacks. For [`Timing::Before`] triggers the result decides
/// whether the gateway proceeds; an `Err` aborts the client operation with
/// that error. For [`Timing::After`] triggers the result is ignored.
pub trait TriggerHandler: Send + Sync {
    fn fire(&self, ctx: &TriggerContext<'_>) -> ldap::Result<Disposition>;
}

/// Closures are handlers.
impl<F> TriggerHandler for F
where
    F: Fn(&TriggerContext<'_>) -> ldap::Result<Disposition> + Send + Sync,
{
    fn fire(&self, ctx: &TriggerContext<'_>) -> ldap::Result<Disposition> {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dn: &str) -> Entry {
        Entry::with_attrs(
            Dn::parse(dn).unwrap(),
            [("objectClass", "person"), ("cn", "X"), ("sn", "X")],
        )
    }

    #[test]
    fn spec_matching() {
        let spec = TriggerSpec::all_updates("t", Dn::parse("o=Lucent").unwrap());
        let op = LtapOp::Delete(Dn::parse("cn=X,o=Marketing,o=Lucent").unwrap());
        assert!(spec.matches(&op, Some(&entry("cn=X,o=Marketing,o=Lucent"))));
        let outside = LtapOp::Delete(Dn::parse("cn=X,o=Other").unwrap());
        assert!(!spec.matches(&outside, None));
    }

    #[test]
    fn op_mask() {
        let spec = TriggerSpec {
            name: "adds-only".into(),
            timing: Timing::Before,
            ops: vec![OpKind::Add],
            base: Dn::root(),
            filter: None,
        };
        assert!(spec.matches(&LtapOp::Add(entry("cn=X,o=L")), Some(&entry("cn=X,o=L"))));
        assert!(!spec.matches(&LtapOp::Delete(Dn::parse("cn=X,o=L").unwrap()), None));
    }

    #[test]
    fn filter_scoping() {
        let spec = TriggerSpec::all_updates("t", Dn::root())
            .with_filter(Filter::parse("(objectClass=person)").unwrap());
        let e = entry("cn=X,o=L");
        let op = LtapOp::Modify(e.dn().clone(), vec![]);
        assert!(spec.matches(&op, Some(&e)));
        let org = Entry::with_attrs(
            Dn::parse("o=L").unwrap(),
            [("objectClass", "organization"), ("o", "L")],
        );
        let op2 = LtapOp::Modify(org.dn().clone(), vec![]);
        assert!(!spec.matches(&op2, Some(&org)));
        // Filtered trigger with no affected image: no match.
        assert!(!spec.matches(&op, None));
    }

    #[test]
    fn op_dn_extraction() {
        let dn = Dn::parse("cn=X,o=L").unwrap();
        assert_eq!(
            LtapOp::ModifyRdn {
                dn: dn.clone(),
                new_rdn: Rdn::new("cn", "Y"),
                delete_old: true,
                new_superior: None,
            }
            .dn(),
            &dn
        );
        assert_eq!(LtapOp::Modify(dn, vec![]).kind(), OpKind::Modify);
    }

    #[test]
    fn target_dn_is_the_post_rename_dn() {
        let dn = Dn::parse("cn=John Doe,o=Lucent").unwrap();
        // A rename in place keeps the parent.
        let rename = LtapOp::ModifyRdn {
            dn: dn.clone(),
            new_rdn: Rdn::new("cn", "Jack Doe"),
            delete_old: true,
            new_superior: None,
        };
        assert_eq!(
            rename.target_dn().unwrap(),
            Dn::parse("cn=Jack Doe,o=Lucent").unwrap()
        );
        // A move lands under the new superior.
        let moved = LtapOp::ModifyRdn {
            dn: dn.clone(),
            new_rdn: Rdn::new("cn", "Jack Doe"),
            delete_old: true,
            new_superior: Some(Dn::parse("ou=Sales,o=Lucent").unwrap()),
        };
        assert_eq!(
            moved.target_dn().unwrap(),
            Dn::parse("cn=Jack Doe,ou=Sales,o=Lucent").unwrap()
        );
        // Everything else stays where it is.
        assert_eq!(LtapOp::Delete(dn.clone()).target_dn().unwrap(), dn);
    }
}
