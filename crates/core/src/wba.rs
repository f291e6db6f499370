//! Web-Based Administration (paper Figure 1 / §4.5): "a single point of
//! administration for the telecom devices … an authorized user/program can
//! easily redirect a telephone extension to a port in another room."
//!
//! This is the programmatic core of the WBA: high-level administrative
//! verbs over any [`Directory`] (normally the LTAP gateway). The
//! `examples/wba_admin.rs` binary puts a terminal UI on top — the paper's
//! point being that *any* LDAP tool works here.

use crate::schema::LAST_UPDATER;
use ldap::dn::{Dn, Rdn};
use ldap::entry::{Entry, Modification};
use ldap::{Directory, Filter, Scope};

/// The administration front-end. All writes are labelled `wba` in
/// `lastUpdater` so origin tracking tells them from updates relayed from a
/// device.
pub struct Wba<D: Directory> {
    dir: D,
    suffix: Dn,
}

impl<D: Directory> Wba<D> {
    pub(crate) fn new(dir: D, suffix: Dn) -> Wba<D> {
        Wba { dir, suffix }
    }

    pub fn suffix(&self) -> &Dn {
        &self.suffix
    }

    pub fn directory(&self) -> &D {
        &self.dir
    }

    fn person_dn(&self, cn: &str) -> Dn {
        self.suffix.child(Rdn::new("cn", cn))
    }

    /// Create a person entry (no device data yet).
    pub fn add_person(&self, cn: &str, sn: &str) -> ldap::Result<Dn> {
        let dn = self.person_dn(cn);
        let e = Entry::with_attrs(
            dn.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("cn", cn),
                ("sn", sn),
                (LAST_UPDATER, "wba"),
            ],
        );
        self.dir.add(e)?;
        Ok(dn)
    }

    /// Create a person complete with a PBX extension (and so a station).
    pub fn add_person_with_extension(
        &self,
        cn: &str,
        sn: &str,
        extension: &str,
        room: &str,
    ) -> ldap::Result<Dn> {
        let dn = self.person_dn(cn);
        let e = Entry::with_attrs(
            dn.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("objectClass", crate::schema::DEFINITY_USER),
                ("cn", cn),
                ("sn", sn),
                ("definityExtension", extension),
                ("telephoneNumber", &format!("+1 908 582 {extension}")),
                ("roomNumber", room),
                (LAST_UPDATER, "wba"),
            ],
        );
        self.dir.add(e)?;
        Ok(dn)
    }

    fn modify_as_wba(&self, dn: &Dn, mut mods: Vec<Modification>) -> ldap::Result<()> {
        mods.push(Modification::set(LAST_UPDATER, "wba"));
        self.dir.modify(dn, &mods)
    }

    /// Change a person's telephone number — the paper's flagship update:
    /// the transitive closure adjusts the extension, partitioning may move
    /// the station between switches.
    pub fn set_phone(&self, cn: &str, number: &str) -> ldap::Result<()> {
        self.modify_as_wba(
            &self.person_dn(cn),
            vec![Modification::set("telephoneNumber", number)],
        )
    }

    /// Assign (or reassign) a PBX extension.
    pub fn set_extension(&self, cn: &str, extension: &str) -> ldap::Result<()> {
        let dn = self.person_dn(cn);
        let mut mods = vec![Modification::set("definityExtension", extension)];
        let entry = self
            .dir
            .get(&dn)?
            .ok_or_else(|| ldap::LdapError::no_such_object(&dn))?;
        if !entry.has_object_class(crate::schema::DEFINITY_USER) {
            mods.insert(
                0,
                Modification::add("objectClass", vec![crate::schema::DEFINITY_USER.into()]),
            );
        }
        self.modify_as_wba(&dn, mods)
    }

    /// Hoteling (paper §4.5): "redirect a telephone extension to a port in
    /// another room" — reassign the person's room; their extension follows.
    pub fn assign_room(&self, cn: &str, room: &str) -> ldap::Result<()> {
        self.modify_as_wba(
            &self.person_dn(cn),
            vec![Modification::set("roomNumber", room)],
        )
    }

    /// Give a person a voice mailbox.
    pub fn assign_mailbox(&self, cn: &str, mailbox: &str, cos: &str) -> ldap::Result<()> {
        let dn = self.person_dn(cn);
        let entry = self
            .dir
            .get(&dn)?
            .ok_or_else(|| ldap::LdapError::no_such_object(&dn))?;
        let mut mods = vec![
            Modification::set("mpMailbox", mailbox),
            Modification::set("mpClassOfService", cos),
        ];
        if !entry.has_object_class(crate::schema::MESSAGING_USER) {
            mods.insert(
                0,
                Modification::add("objectClass", vec![crate::schema::MESSAGING_USER.into()]),
            );
        }
        self.modify_as_wba(&dn, mods)
    }

    /// Create a *location entry* for a person — the paper's §5.3 workaround
    /// for LDAP's uncorrelatable set-valued attributes: "we require that a
    /// given person have a different directory entry for each location
    /// associated with that person". The entry is named by a multi-AVA RDN
    /// (`cn=<name>+l=<location>`) so each location carries its own phone
    /// and room without colliding with the primary entry.
    pub fn add_person_location(
        &self,
        cn: &str,
        sn: &str,
        location: &str,
        phone: &str,
        room: &str,
    ) -> ldap::Result<Dn> {
        let rdn = Rdn::multi(vec![
            ldap::Ava::new("cn", cn),
            ldap::Ava::new("l", location),
        ])?;
        let dn = self.suffix.child(rdn);
        let e = Entry::with_attrs(
            dn.clone(),
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("objectClass", "organizationalPerson"),
                ("cn", cn),
                ("sn", sn),
                ("l", location),
                ("telephoneNumber", phone),
                ("roomNumber", room),
                (LAST_UPDATER, "wba"),
            ],
        );
        self.dir.add(e)?;
        Ok(dn)
    }

    /// All entries (primary + locations) for a person.
    pub fn person_locations(&self, cn: &str) -> ldap::Result<Vec<Entry>> {
        self.find(&format!("(cn={cn})"))
    }

    /// Rename a person (a ModifyRDN through the gateway).
    pub fn rename_person(&self, cn: &str, new_cn: &str) -> ldap::Result<Dn> {
        let dn = self.person_dn(cn);
        self.dir
            .modify_rdn(&dn, &Rdn::new("cn", new_cn), true, None)?;
        Ok(self.person_dn(new_cn))
    }

    /// Remove a person entirely (devices included, via the UM fan-out).
    pub fn remove_person(&self, cn: &str) -> ldap::Result<()> {
        self.dir.delete(&self.person_dn(cn))
    }

    /// Fetch one person.
    pub fn person(&self, cn: &str) -> ldap::Result<Option<Entry>> {
        self.dir.get(&self.person_dn(cn))
    }

    /// Search people with an RFC 2254 filter string.
    pub fn find(&self, filter: &str) -> ldap::Result<Vec<Entry>> {
        let f = Filter::parse(filter)?;
        let f = Filter::And(vec![Filter::eq("objectClass", "person"), f]);
        self.dir.search(&self.suffix, Scope::Sub, &f, &[], 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::integrated_schema;
    use ldap::dit::Dit;
    use std::sync::Arc;

    /// WBA straight against a schema-checked DIT (no UM) — verifies the
    /// front-end emits valid LDAP independent of the meta-directory.
    fn wba() -> Wba<Arc<Dit>> {
        let dit = Dit::with_schema(Arc::new(integrated_schema()));
        let mut org = Entry::new(Dn::parse("o=Lucent").unwrap());
        org.add_value("objectClass", "top");
        org.add_value("objectClass", "organization");
        org.add_value("o", "Lucent");
        Dit::add(&dit, org).unwrap();
        Wba::new(dit, Dn::parse("o=Lucent").unwrap())
    }

    #[test]
    fn add_and_fetch_person() {
        let w = wba();
        let dn = w.add_person("John Doe", "Doe").unwrap();
        assert_eq!(dn.to_string(), "cn=John Doe,o=Lucent");
        let e = w.person("John Doe").unwrap().unwrap();
        assert_eq!(e.first("sn"), Some("Doe"));
        assert_eq!(e.first(LAST_UPDATER), Some("wba"));
        assert!(w.person("Nobody").unwrap().is_none());
    }

    #[test]
    fn add_person_with_extension_is_schema_valid() {
        let w = wba();
        w.add_person_with_extension("John Doe", "Doe", "9123", "2B-401")
            .unwrap();
        let e = w.person("John Doe").unwrap().unwrap();
        assert!(e.has_object_class("definityUser"));
        assert_eq!(e.first("telephoneNumber"), Some("+1 908 582 9123"));
    }

    #[test]
    fn set_extension_adds_aux_class_when_missing() {
        let w = wba();
        w.add_person("Plain Person", "Person").unwrap();
        w.set_extension("Plain Person", "9200").unwrap();
        let e = w.person("Plain Person").unwrap().unwrap();
        assert!(e.has_object_class("definityUser"));
        assert_eq!(e.first("definityExtension"), Some("9200"));
        // Second call must not try to re-add the class.
        w.set_extension("Plain Person", "9300").unwrap();
        assert_eq!(
            w.person("Plain Person")
                .unwrap()
                .unwrap()
                .first("definityExtension"),
            Some("9300")
        );
    }

    #[test]
    fn assign_mailbox_adds_aux_class() {
        let w = wba();
        w.add_person("John Doe", "Doe").unwrap();
        w.assign_mailbox("John Doe", "9123", "executive").unwrap();
        let e = w.person("John Doe").unwrap().unwrap();
        assert!(e.has_object_class("messagingUser"));
        assert_eq!(e.first("mpClassOfService"), Some("executive"));
    }

    #[test]
    fn rename_and_remove() {
        let w = wba();
        w.add_person("John Doe", "Doe").unwrap();
        let new_dn = w.rename_person("John Doe", "Jack Doe").unwrap();
        assert_eq!(new_dn.to_string(), "cn=Jack Doe,o=Lucent");
        assert!(w.person("John Doe").unwrap().is_none());
        assert!(w.person("Jack Doe").unwrap().is_some());
        w.remove_person("Jack Doe").unwrap();
        assert!(w.person("Jack Doe").unwrap().is_none());
    }

    #[test]
    fn find_composes_filters() {
        let w = wba();
        w.add_person_with_extension("John Doe", "Doe", "9100", "2B")
            .unwrap();
        w.add_person_with_extension("Pat Smith", "Smith", "9200", "2C")
            .unwrap();
        let hits = w.find("(definityExtension=91*)").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].first("cn"), Some("John Doe"));
        // The person-class conjunct keeps org entries out.
        let all = w.find("(cn=*)").unwrap();
        assert_eq!(all.len(), 2);
        assert!(w.find("(((").is_err());
    }

    #[test]
    fn errors_surface_as_ldap_codes() {
        let w = wba();
        assert_eq!(
            w.set_phone("Nobody", "+1 908 582 9000").unwrap_err().code,
            ldap::ResultCode::NoSuchObject
        );
        assert_eq!(
            w.set_extension("Nobody", "9123").unwrap_err().code,
            ldap::ResultCode::NoSuchObject
        );
        w.add_person("John Doe", "Doe").unwrap();
        assert_eq!(
            w.add_person("John Doe", "Doe").unwrap_err().code,
            ldap::ResultCode::EntryAlreadyExists
        );
    }
}

#[cfg(test)]
mod location_tests {
    use super::*;
    use crate::schema::integrated_schema;
    use ldap::dit::Dit;
    use std::sync::Arc;

    #[test]
    fn one_entry_per_location_per_the_papers_workaround() {
        // §5.3: set-valued attributes cannot correlate phone↔address, so a
        // person gets one entry per location, each with its own values.
        let dit = Dit::with_schema(Arc::new(integrated_schema()));
        let mut org = Entry::new(Dn::parse("o=Lucent").unwrap());
        org.add_value("objectClass", "top");
        org.add_value("objectClass", "organization");
        org.add_value("o", "Lucent");
        Dit::add(&dit, org).unwrap();
        let w = Wba::new(dit, Dn::parse("o=Lucent").unwrap());

        w.add_person("John Doe", "Doe").unwrap();
        let mh = w
            .add_person_location(
                "John Doe",
                "Doe",
                "Murray Hill",
                "+1 908 582 9123",
                "2B-401",
            )
            .unwrap();
        let wm = w
            .add_person_location("John Doe", "Doe", "Westminster", "+1 303 538 1000", "W-100")
            .unwrap();
        assert_ne!(mh, wm, "locations are distinct entries");

        // Three entries share the cn; each location correlates its own
        // phone with its own room — impossible with set-valued attributes.
        let all = w.person_locations("John Doe").unwrap();
        assert_eq!(all.len(), 3);
        let mh_entry = all
            .iter()
            .find(|e| e.first("l") == Some("Murray Hill"))
            .unwrap();
        assert_eq!(mh_entry.first("telephoneNumber"), Some("+1 908 582 9123"));
        assert_eq!(mh_entry.first("roomNumber"), Some("2B-401"));
        let wm_entry = all
            .iter()
            .find(|e| e.first("l") == Some("Westminster"))
            .unwrap();
        assert_eq!(wm_entry.first("telephoneNumber"), Some("+1 303 538 1000"));

        // Multi-AVA RDN is order-insensitive: both spellings address it.
        let alt = Dn::parse("l=Murray Hill+cn=John Doe,o=Lucent").unwrap();
        assert!(w.directory().get(&alt).unwrap().is_some());
    }
}
