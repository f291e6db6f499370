//! MetaComm error type.

use std::fmt;

/// Errors surfaced by the Update Manager and filters.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaError {
    /// An LDAP operation failed.
    Ldap(ldap::LdapError),
    /// lexpress translation failed (missing key, fixpoint not reached, …).
    Translate(lexpress::RuntimeError),
    /// A mapping description failed to compile.
    Compile(lexpress::CompileError),
    /// A device rejected an operation.
    Device { repository: String, detail: String },
    /// A device could not be reached (link down, timeout, injected fault).
    /// Unlike [`MetaError::Device`] this is *transient*: the operation was
    /// not judged invalid, the device just never saw it — so it is safe to
    /// retry or queue for reapplication (§4.4 recovery).
    DeviceUnreachable { repository: String, detail: String },
    /// The Update Manager is shut down (or crashed, in failure-injection
    /// experiments).
    Unavailable(String),
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::Ldap(e) => write!(f, "ldap: {e}"),
            MetaError::Translate(e) => write!(f, "translate: {e}"),
            MetaError::Compile(e) => write!(f, "compile: {e}"),
            MetaError::Device { repository, detail } => {
                write!(f, "device {repository}: {detail}")
            }
            MetaError::DeviceUnreachable { repository, detail } => {
                write!(f, "device {repository} unreachable: {detail}")
            }
            MetaError::Unavailable(m) => write!(f, "update manager unavailable: {m}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl From<ldap::LdapError> for MetaError {
    fn from(e: ldap::LdapError) -> Self {
        MetaError::Ldap(e)
    }
}

impl From<lexpress::RuntimeError> for MetaError {
    fn from(e: lexpress::RuntimeError) -> Self {
        MetaError::Translate(e)
    }
}

impl From<lexpress::CompileError> for MetaError {
    fn from(e: lexpress::CompileError) -> Self {
        MetaError::Compile(e)
    }
}

impl MetaError {
    /// Convert into the LdapError returned to the client whose update was
    /// aborted (paper §4.4: invalid updates abort with an error).
    pub(crate) fn into_ldap(self) -> ldap::LdapError {
        match self {
            MetaError::Ldap(e) => e,
            e @ MetaError::DeviceUnreachable { .. } => {
                ldap::LdapError::new(ldap::ResultCode::Unavailable, format!("metacomm: {e}"))
            }
            other => ldap::LdapError::new(
                ldap::ResultCode::UnwillingToPerform,
                format!("metacomm: {other}"),
            ),
        }
    }

    /// Whether retrying (or queueing for later reapplication) could
    /// succeed. Semantic rejections ([`MetaError::Device`], translation and
    /// schema failures) are permanent and must abort the update instead.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, MetaError::DeviceUnreachable { .. })
    }
}

pub type Result<T> = std::result::Result<T, MetaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MetaError = ldap::LdapError::no_such_object("cn=x").into();
        assert!(e.to_string().contains("cn=x"));
        let e = MetaError::Device {
            repository: "pbx-west".into(),
            detail: "station exists".into(),
        };
        assert!(e.to_string().contains("pbx-west"));
        let l = e.into_ldap();
        assert_eq!(l.code, ldap::ResultCode::UnwillingToPerform);
    }
}
