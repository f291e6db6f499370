//! The name pool holds 4,096 display forms and never frees one. A name that
//! arrives once it is full is spelled out in its entry's attribute block
//! instead of taking a 2-byte pool id: it stores, reads back in any case,
//! is found by a search and round-trips through LDIF like any other name,
//! and only its entry pays for its bytes. A test binary of its own, because
//! the pool is process-wide and filling it would change what every other
//! test in the binary sees.

use ldap::dit::{Dit, Scope};
use ldap::{ldif, AttrName, Dn, Entry, Filter, Modification};

/// Members the name pool holds.
const POOL_CAP: usize = 4096;

fn entry(dn: &Dn, name: &str, values: &[&str]) -> Entry {
    let base = [("objectClass", "top"), ("o", "X")];
    Entry::with_attrs(
        dn.clone(),
        base.into_iter().chain(values.iter().map(|v| (name, *v))),
    )
}

/// Bytes of attribute blocks a tree holding only `e` keeps.
fn attr_bytes(e: Entry) -> usize {
    let dit = Dit::new();
    dit.add(e).expect("add");
    dit.footprint().attr_bytes
}

#[test]
fn the_name_after_a_full_pool_stores_reads_back_and_round_trips() {
    let dn = Dn::parse("o=X").unwrap();
    // Pooled while there is room: the same length as the name below.
    let early = format!("early{}", "N".repeat(35));
    let early = early.as_str();
    let pooled = attr_bytes(entry(&dn, early, &["v1"]));
    for i in 0..POOL_CAP {
        drop(AttrName::from(format!("filler{i:04}").as_str()));
    }
    let late = format!("late{}", "N".repeat(36));
    let (late, norm) = (late.as_str(), late.to_ascii_lowercase());
    assert_eq!(late.len(), early.len());
    let e = entry(&dn, late, &["v1", "V1", "v2"]);

    // Read back, in any case, the repeat dropped and the spelling kept.
    assert_eq!(e.values(late), ["v1", "v2"]);
    assert_eq!(e.values(&late.to_ascii_uppercase()), ["v1", "v2"]);
    let attr = e.get(&norm).expect("held");
    assert_eq!(
        (attr.name.as_str(), attr.name.norm()),
        (late, norm.as_str())
    );
    let names: Vec<&str> = e.attributes().map(|a| a.name.as_str()).collect();
    assert_eq!(names, [late, "o", "objectClass"]);

    // Through LDIF and back.
    let text = ldif::to_ldif(std::slice::from_ref(&e));
    assert!(
        text.contains(&format!("{late}: v1\n{late}: v2\n")),
        "{text}"
    );
    assert_eq!(
        ldif::parse_content(&text).unwrap(),
        std::slice::from_ref(&e)
    );

    // Stored, found, edited.
    let dit = Dit::new();
    dit.add(e.clone()).unwrap();
    let found = |value: &str| {
        let filter = Filter::eq(late.to_ascii_uppercase(), value);
        dit.search(&Dn::root(), Scope::Sub, &filter, &[], 0)
            .unwrap()
    };
    assert_eq!(found("V2"), [e]);
    dit.modify(&dn, &[Modification::add(late, vec!["v3".into()])])
        .unwrap();
    assert_eq!(dit.get(&dn).unwrap().values(late), ["v1", "v2", "v3"]);
    assert_eq!(found("v3").len(), 1);

    // The name is in the block, both forms, where a pooled one is 2 bytes
    // (give or take the allocator's 16-byte rounding).
    let spelled = attr_bytes(entry(&dn, late, &["v1"]));
    assert!(
        spelled + 16 >= pooled + 2 * late.len(),
        "spelled out {spelled} B, pooled {pooled} B"
    );
}
