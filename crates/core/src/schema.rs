//! The integrated schema (paper §5.2).
//!
//! Design chosen by the paper: a standard X.500 `person` entry extended
//! with **one auxiliary object class per device**, each with
//! device-unique attribute names and *no mandatory attributes* (auxiliary
//! classes cannot have them) — so the presence of `definityUser` only
//! means a person *may* use a PBX; one must check `definityExtension` to
//! know. A `lastUpdater` operational attribute records which repository
//! originated the last write (the lexpress `Originator` mechanism).
//!
//! The *rejected* design — a child entry per device under the person —
//! is also provided ([`child_entry_schema`]) so experiment E9 can
//! demonstrate why it loses without multi-entry transactions.

use ldap::schema::{AttributeType, ClassKind, ObjectClass, Schema, Syntax};

/// Auxiliary class name for Definity PBX users.
pub(crate) const DEFINITY_USER: &str = "definityUser";
/// Auxiliary class name for messaging-platform users.
pub(crate) const MESSAGING_USER: &str = "messagingUser";
/// Operational attribute recording the source of the last update.
pub(crate) const LAST_UPDATER: &str = "lastUpdater";

/// Build the integrated MetaComm schema: X.500 core + device auxiliaries.
pub fn integrated_schema() -> Schema {
    let mut s = Schema::x500_core();
    // Definity attributes (device-unique names, §5.2 footnote 2).
    for at in [
        AttributeType::string("definityExtension").single(),
        AttributeType::string("definityCoveragePath").single(),
        AttributeType::string("definityCor").single(),
        AttributeType::string("definityPort").single(),
        AttributeType::string("definitySetType").single(),
    ] {
        s.add_attribute(at).expect("definity attrs");
    }
    s.add_class(ObjectClass {
        name: DEFINITY_USER.into(),
        kind: ClassKind::Auxiliary,
        superior: Some("top".into()),
        must: vec![], // auxiliary classes cannot have mandatory attributes
        may: vec![
            "definityExtension".into(),
            "definityCoveragePath".into(),
            "definityCor".into(),
            "definityPort".into(),
            "definitySetType".into(),
        ],
    })
    .expect("definityUser class");
    // Messaging-platform attributes.
    for at in [
        AttributeType::string("mpMailbox").single(),
        AttributeType::string("mpMailboxId").single(),
        AttributeType::string("mpClassOfService").single(),
    ] {
        s.add_attribute(at).expect("mp attrs");
    }
    s.add_class(ObjectClass {
        name: MESSAGING_USER.into(),
        kind: ClassKind::Auxiliary,
        superior: Some("top".into()),
        must: vec![],
        may: vec![
            "mpMailbox".into(),
            "mpMailboxId".into(),
            "mpClassOfService".into(),
        ],
    })
    .expect("messagingUser class");
    // Operational attributes.
    s.add_operational(AttributeType::string(LAST_UPDATER).single())
        .expect("lastUpdater");
    // Error-log entries (§4.4 failure handling) live in the directory too.
    for at in [
        AttributeType::string("metacommErrorId").single(),
        AttributeType::string("metacommErrorText"),
        AttributeType::string("metacommFailedOp"),
        AttributeType::string("metacommErrorSeq")
            .single()
            .syntax(Syntax::Integer),
    ] {
        s.add_attribute(at).expect("error attrs");
    }
    s.add_class(ObjectClass {
        name: "metacommError".into(),
        kind: ClassKind::Structural,
        superior: Some("top".into()),
        must: vec!["metacommErrorId".into()],
        may: vec![
            "metacommErrorText".into(),
            "metacommFailedOp".into(),
            "metacommErrorSeq".into(),
        ],
    })
    .expect("error class");
    s
}

/// The rejected child-entry-per-device design: device data lives in a
/// generic `deviceProfile` child entry of the person. Kept for the E9
/// schema ablation.
pub fn child_entry_schema() -> Schema {
    let mut s = Schema::x500_core();
    for at in [
        AttributeType::string("deviceName").single(),
        AttributeType::string("deviceKey").single(),
        AttributeType::string("deviceField1"),
        AttributeType::string("deviceField2"),
        AttributeType::string("deviceField3"),
    ] {
        s.add_attribute(at).expect("profile attrs");
    }
    s.add_class(ObjectClass {
        name: "deviceProfile".into(),
        kind: ClassKind::Structural,
        superior: Some("top".into()),
        must: vec!["deviceName".into()],
        may: vec![
            "deviceKey".into(),
            "deviceField1".into(),
            "deviceField2".into(),
            "deviceField3".into(),
        ],
    })
    .expect("deviceProfile class");
    s.add_operational(AttributeType::string(LAST_UPDATER).single())
        .expect("lastUpdater");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldap::dn::Dn;
    use ldap::entry::Entry;
    use ldap::ResultCode;

    fn person_with_devices() -> Entry {
        Entry::with_attrs(
            Dn::parse("cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("objectClass", DEFINITY_USER),
                ("objectClass", MESSAGING_USER),
                ("cn", "John Doe"),
                ("sn", "Doe"),
                ("telephoneNumber", "+1 908 582 9123"),
                ("definityExtension", "9123"),
                ("definityCoveragePath", "1"),
                ("mpMailbox", "9123"),
                ("mpMailboxId", "MB-000001"),
                ("roomNumber", "2B-401"),
                (LAST_UPDATER, "pbx-west"),
            ],
        )
    }

    #[test]
    fn integrated_entry_validates() {
        integrated_schema()
            .validate_entry(&person_with_devices())
            .unwrap();
    }

    #[test]
    fn device_attrs_require_aux_class() {
        let s = integrated_schema();
        let mut e = person_with_devices();
        e.remove_value("objectClass", DEFINITY_USER);
        let err = s.validate_entry(&e).unwrap_err();
        assert_eq!(err.code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn paper_anomaly_class_without_extension_is_legal() {
        // §5.2: "the presence of an auxiliary objectclass only indicates
        // that a person MAY use a device" — entries with definityUser but no
        // definityExtension validate (and off-the-shelf browsers can create
        // them).
        let s = integrated_schema();
        let mut e = person_with_devices();
        e.remove_attr("definityExtension");
        e.remove_attr("definityCoveragePath");
        s.validate_entry(&e).unwrap();
    }

    #[test]
    fn error_entries_validate() {
        let s = integrated_schema();
        let e = Entry::with_attrs(
            Dn::parse("metacommErrorId=42,cn=errors,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "metacommError"),
                ("metacommErrorId", "42"),
                ("metacommErrorText", "device rejected update"),
                ("metacommErrorSeq", "7"),
            ],
        );
        s.validate_entry(&e).unwrap();
    }

    #[test]
    fn child_entry_schema_validates_profiles() {
        let s = child_entry_schema();
        let e = Entry::with_attrs(
            Dn::parse("deviceName=pbx-west,cn=John Doe,o=Lucent").unwrap(),
            [
                ("objectClass", "top"),
                ("objectClass", "deviceProfile"),
                ("deviceName", "pbx-west"),
                ("deviceKey", "9123"),
            ],
        );
        s.validate_entry(&e).unwrap();
    }
}
