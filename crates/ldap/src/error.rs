//! LDAP result codes and the crate-wide error type.
//!
//! Result codes follow RFC 2251 §4.1.10; only the subset a directory server
//! actually returns is enumerated, everything else maps to [`ResultCode::Other`].

use std::fmt;

/// LDAP result codes (RFC 2251 §4.1.10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ResultCode {
    Success = 0,
    OperationsError = 1,
    ProtocolError = 2,
    TimeLimitExceeded = 3,
    SizeLimitExceeded = 4,
    CompareFalse = 5,
    CompareTrue = 6,
    AuthMethodNotSupported = 7,
    NoSuchAttribute = 16,
    UndefinedAttributeType = 17,
    ConstraintViolation = 19,
    AttributeOrValueExists = 20,
    InvalidAttributeSyntax = 21,
    NoSuchObject = 32,
    InvalidDnSyntax = 34,
    InvalidCredentials = 49,
    InsufficientAccessRights = 50,
    Busy = 51,
    Unavailable = 52,
    UnwillingToPerform = 53,
    NamingViolation = 64,
    ObjectClassViolation = 65,
    NotAllowedOnNonLeaf = 66,
    NotAllowedOnRdn = 67,
    EntryAlreadyExists = 68,
    ObjectClassModsProhibited = 69,
    Other = 80,
}

impl ResultCode {
    /// Numeric wire value of the code.
    pub(crate) fn code(self) -> u32 {
        self as u32
    }

    /// Inverse of [`ResultCode::code`]; unknown values map to `Other`.
    pub(crate) fn from_code(code: u32) -> ResultCode {
        use ResultCode::*;
        match code {
            0 => Success,
            1 => OperationsError,
            2 => ProtocolError,
            3 => TimeLimitExceeded,
            4 => SizeLimitExceeded,
            5 => CompareFalse,
            6 => CompareTrue,
            7 => AuthMethodNotSupported,
            16 => NoSuchAttribute,
            17 => UndefinedAttributeType,
            19 => ConstraintViolation,
            20 => AttributeOrValueExists,
            21 => InvalidAttributeSyntax,
            32 => NoSuchObject,
            34 => InvalidDnSyntax,
            49 => InvalidCredentials,
            50 => InsufficientAccessRights,
            51 => Busy,
            52 => Unavailable,
            53 => UnwillingToPerform,
            64 => NamingViolation,
            65 => ObjectClassViolation,
            66 => NotAllowedOnNonLeaf,
            67 => NotAllowedOnRdn,
            68 => EntryAlreadyExists,
            69 => ObjectClassModsProhibited,
            _ => Other,
        }
    }

    /// `true` for `Success`, `CompareTrue` and `CompareFalse` — the codes
    /// that do not indicate a failed operation.
    pub(crate) fn is_non_error(self) -> bool {
        matches!(
            self,
            ResultCode::Success | ResultCode::CompareTrue | ResultCode::CompareFalse
        )
    }
}

impl fmt::Display for ResultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}({})", self, self.code())
    }
}

/// Crate-wide error: an LDAP result code plus a human-readable diagnostic,
/// mirroring the `LDAPResult` wire structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdapError {
    pub code: ResultCode,
    pub message: String,
}

impl LdapError {
    pub fn new(code: ResultCode, message: impl Into<String>) -> Self {
        LdapError {
            code,
            message: message.into(),
        }
    }

    pub fn no_such_object(dn: impl fmt::Display) -> Self {
        Self::new(ResultCode::NoSuchObject, format!("no such object: {dn}"))
    }

    pub(crate) fn already_exists(dn: impl fmt::Display) -> Self {
        Self::new(
            ResultCode::EntryAlreadyExists,
            format!("entry already exists: {dn}"),
        )
    }

    pub fn invalid_dn(detail: impl fmt::Display) -> Self {
        Self::new(ResultCode::InvalidDnSyntax, format!("invalid DN: {detail}"))
    }

    pub(crate) fn protocol(detail: impl fmt::Display) -> Self {
        Self::new(ResultCode::ProtocolError, detail.to_string())
    }

    pub fn unwilling(detail: impl fmt::Display) -> Self {
        Self::new(ResultCode::UnwillingToPerform, detail.to_string())
    }
}

impl fmt::Display for LdapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for LdapError {}

impl From<std::io::Error> for LdapError {
    fn from(e: std::io::Error) -> Self {
        LdapError::new(ResultCode::Unavailable, format!("i/o error: {e}"))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LdapError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_code_round_trip() {
        for code in [
            ResultCode::Success,
            ResultCode::NoSuchObject,
            ResultCode::EntryAlreadyExists,
            ResultCode::ObjectClassViolation,
            ResultCode::NotAllowedOnNonLeaf,
            ResultCode::CompareTrue,
            ResultCode::CompareFalse,
            ResultCode::InvalidDnSyntax,
        ] {
            assert_eq!(ResultCode::from_code(code.code()), code);
        }
    }

    #[test]
    fn unknown_code_maps_to_other() {
        assert_eq!(ResultCode::from_code(9999), ResultCode::Other);
    }

    #[test]
    fn non_error_codes() {
        assert!(ResultCode::Success.is_non_error());
        assert!(ResultCode::CompareTrue.is_non_error());
        assert!(ResultCode::CompareFalse.is_non_error());
        assert!(!ResultCode::NoSuchObject.is_non_error());
    }

    #[test]
    fn error_display_contains_code_and_message() {
        let e = LdapError::no_such_object("cn=x,o=y");
        let s = e.to_string();
        assert!(s.contains("NoSuchObject"));
        assert!(s.contains("cn=x,o=y"));
    }
}
