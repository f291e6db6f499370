//! One conformance table for every [`Directory`]: the same small tree
//! behind each implementor, and for every row of a (base, scope, filter,
//! projection) table at every interesting size limit the three search
//! doors — `search_visit` (the one an implementor writes), and the provided
//! `search_capped` and `search` — must agree on entries, order, count and
//! truncated ⇔ `sizeLimitExceeded`; a missing base is `noSuchObject` from
//! all three and `None` from `get`; and a modification that would store one
//! value twice is `attributeOrValueExists` from every implementor, the wire
//! client included, and changes nothing. Across implementors, every row at a
//! limit below, at and above its match count streams what a plain [`Dit`]
//! holding the same tree streams: same entries, same attributes, same
//! truncated flag.

use ldap::client::TcpDirectory;
use ldap::server::Server;
use ldap::{Directory, Dit, Dn, Entry, Filter, Modification, ResultCode, Scope};
use ltap::Gateway;
use metacomm::obs::{MonitorDirectory, Registry};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

/// The tree, parents first: a spine root, two departments, seven people.
fn tree() -> Vec<Entry> {
    let mut out = vec![Entry::with_attrs(
        dn("o=Lucent"),
        [("objectClass", "organization"), ("o", "Lucent")],
    )];
    for ou in ["Wireless", "Optical"] {
        out.push(Entry::with_attrs(
            dn(&format!("ou={ou},o=Lucent")),
            [("objectClass", "organizationalUnit"), ("ou", ou)],
        ));
    }
    for (cn, parent) in [
        ("Pat Smith", "o=Lucent"),
        ("Ana Chen", "ou=Wireless,o=Lucent"),
        ("Bo Chen", "ou=Wireless,o=Lucent"),
        ("Cy Diaz", "ou=Wireless,o=Lucent"),
        ("Wei Lu", "ou=Optical,o=Lucent"),
        ("Xi Lu", "ou=Optical,o=Lucent"),
        ("Yo Smith", "ou=Optical,o=Lucent"),
    ] {
        out.push(Entry::with_attrs(
            dn(&format!("cn={cn},{parent}")),
            [
                ("objectClass", "person"),
                ("cn", cn),
                ("sn", cn.split(' ').next_back().unwrap()),
            ],
        ));
    }
    out
}

fn loaded_dit() -> Arc<Dit> {
    let dit = Dit::new();
    for e in tree() {
        dit.add(e).unwrap();
    }
    dit
}

/// One row: (base, scope, filter, projection, matches without a limit).
type Case = (
    &'static str,
    Scope,
    &'static str,
    &'static [&'static str],
    usize,
);

/// Rows over the tree.
const TREE_CASES: &[Case] = &[
    ("o=Lucent", Scope::Sub, "(objectClass=*)", &[], 10),
    ("o=Lucent", Scope::Sub, "(objectClass=person)", &["cn"], 7),
    ("o=Lucent", Scope::Sub, "(sn=Lu)", &["*"], 2),
    ("o=Lucent", Scope::Sub, "(sn=Nobody)", &[], 0),
    ("o=Lucent", Scope::One, "(objectClass=*)", &["*", "cn"], 3),
    ("o=Lucent", Scope::Base, "(objectClass=*)", &[], 1),
    (
        "ou=Wireless,o=Lucent",
        Scope::Sub,
        "(objectClass=*)",
        &[],
        4,
    ),
    (
        "ou=Wireless,o=Lucent",
        Scope::One,
        "(sn=Chen)",
        &["sn", "cn"],
        2,
    ),
    ("ou=Optical,o=Lucent", Scope::Sub, "(cn=*Lu)", &[], 2),
    (
        "cn=Wei Lu,ou=Optical,o=Lucent",
        Scope::Base,
        "(sn=Lu)",
        &[],
        1,
    ),
];

const TREE_MISSING: &[&str] = &["ou=Ghost,o=Lucent", "cn=ghost,ou=Wireless,o=Lucent"];

/// Rows a modify must refuse: (replace or add, attribute, values that are
/// one value under `caseIgnoreMatch`).
const TREE_REPEATS: &[(bool, &str, [&str; 2])] = &[
    (true, "l", ["Murray Hill", "murray  hill"]),
    (false, "description", ["a", "A"]),
    (false, "sn", ["LU", "Lucent"]),
];

/// Rows inside `cn=monitor` (root + components `relay` and `um`).
const MONITOR_CASES: &[Case] = &[
    ("cn=monitor", Scope::Sub, "(objectClass=*)", &[], 3),
    ("cn=monitor", Scope::One, "(objectClass=*)", &["cn"], 2),
    ("cn=monitor", Scope::Sub, "(cn=um)", &["*"], 1),
    (
        "cn=um,cn=monitor",
        Scope::Base,
        "(updates=5)",
        &["updates"],
        1,
    ),
    ("cn=monitor", Scope::One, "(cn=nothing)", &[], 0),
];

/// What selecting `attrs` must leave of `e` — DN plus `(name, values)`
/// sorted by name — written without `Entry::project`.
fn selected(e: &Entry, attrs: &[String]) -> (String, Vec<(String, Vec<String>)>) {
    let all = attrs.is_empty() || attrs.iter().any(|a| a == "*");
    let mut kept: Vec<_> = e
        .attributes()
        .filter(|a| {
            all || attrs
                .iter()
                .any(|n| n.eq_ignore_ascii_case(a.name.as_str()))
        })
        .map(|a| {
            (
                a.name.as_str().to_ascii_lowercase(),
                a.values.iter().map(|v| v.to_string()).collect(),
            )
        })
        .collect();
    kept.sort();
    (e.dn().to_string(), kept)
}

fn visited(
    dir: &dyn Directory,
    base: &Dn,
    scope: Scope,
    filter: &Filter,
    attrs: &[String],
    limit: usize,
) -> ldap::Result<(Vec<Entry>, bool)> {
    let mut seen = Vec::new();
    let (count, truncated) = dir.search_visit(base, scope, filter, attrs, limit, &mut |e| {
        seen.push(e.clone())
    })?;
    assert_eq!(count, seen.len(), "search_visit counts what it visits");
    Ok((seen, truncated))
}

fn check_case(name: &str, dir: &dyn Directory, case: &Case) {
    let at = format!("{name}: {case:?}");
    let &(base, scope, filter, attrs, n) = case;
    let base = dn(base);
    let filter = Filter::parse(filter).unwrap();
    let attrs: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();

    let (all, truncated) = visited(dir, &base, scope, &filter, &attrs, 0).unwrap();
    assert!(!truncated, "{at}: unlimited is never truncated");
    assert_eq!(all.len(), n, "{at}: {all:?}");
    let (whole, _) = visited(dir, &base, scope, &filter, &[], 0).unwrap();
    let got: Vec<_> = all.iter().map(|e| selected(e, &[])).collect();
    let expected: Vec<_> = whole.iter().map(|e| selected(e, &attrs)).collect();
    assert_eq!(got, expected, "{at}: projection");

    // 0, below, at and above the match count.
    for limit in [0, n.saturating_sub(1), n, n + 1] {
        let at = format!("{at} limit {limit}");
        let over = limit != 0 && limit < n;
        let (seen, truncated) = visited(dir, &base, scope, &filter, &attrs, limit).unwrap();
        assert_eq!(truncated, over, "{at}: truncated");
        let keep = if over { limit } else { n };
        assert_eq!(seen, all[..keep], "{at}: a limit keeps a prefix");

        let capped = dir.search_capped(&base, scope, &filter, &attrs, limit);
        assert_eq!(capped.unwrap(), (seen.clone(), over), "{at}: search_capped");

        match dir.search(&base, scope, &filter, &attrs, limit) {
            Ok(found) => {
                assert!(!over, "{at}: search must raise sizeLimitExceeded");
                assert_eq!(found, seen, "{at}: search");
            }
            Err(e) => {
                assert!(over, "{at}: {e:?}");
                assert_eq!(e.code, ResultCode::SizeLimitExceeded, "{at}");
            }
        }
    }

    if scope == Scope::Base && attrs.is_empty() {
        assert_eq!(dir.get(&base).unwrap().as_ref(), all.first(), "{at}: get");
    }
}

fn check_missing(name: &str, dir: &dyn Directory, base: &str) {
    let base = dn(base);
    let f = Filter::match_all();
    for scope in [Scope::Base, Scope::One, Scope::Sub] {
        let at = format!("{name}: missing {base} {scope:?}");
        let codes = [
            visited(dir, &base, scope, &f, &[], 0).unwrap_err().code,
            dir.search_capped(&base, scope, &f, &[], 0)
                .unwrap_err()
                .code,
            dir.search(&base, scope, &f, &[], 1).unwrap_err().code,
        ];
        assert_eq!(codes, [ResultCode::NoSuchObject; 3], "{at}");
    }
    assert_eq!(dir.get(&base).unwrap(), None, "{name}: get {base}");
}

fn check_repeats(name: &str, dir: &dyn Directory) {
    let wei = dn("cn=Wei Lu,ou=Optical,o=Lucent");
    let before = dir.get(&wei).unwrap();
    for &(replace, attr, values) in TREE_REPEATS {
        let values = values.iter().map(|v| v.to_string()).collect();
        let m = match replace {
            true => Modification::replace(attr, values),
            false => Modification::add(attr, values),
        };
        let err = dir.modify(&wei, &[m]).unwrap_err();
        let at = format!("{name}: {attr} {err}");
        assert_eq!(err.code, ResultCode::AttributeOrValueExists, "{at}");
        assert_eq!(dir.get(&wei).unwrap(), before, "{at}");
    }
}

/// What `dir` streams for a tree row is what a plain `Dit` over the same
/// tree streams, attributes included, at a limit below, at and above the
/// match count — for the wire client, entry for entry what was decoded off
/// the socket against what the server's store holds.
fn check_against_dit(name: &str, dir: &dyn Directory, reference: &Dit, case: &Case) {
    let &(base, scope, filter, attrs, n) = case;
    let base = dn(base);
    let filter = Filter::parse(filter).unwrap();
    let attrs: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
    for limit in [n.saturating_sub(1), n, n + 1] {
        let got = visited(dir, &base, scope, &filter, &attrs, limit).unwrap();
        let want = visited(reference, &base, scope, &filter, &attrs, limit).unwrap();
        assert_eq!(got, want, "{name}: {case:?} limit {limit}: same as Dit");
    }
}

fn check_tree(name: &str, dir: &dyn Directory) {
    let reference = loaded_dit();
    for c in TREE_CASES {
        check_case(name, dir, c);
        check_against_dit(name, dir, &reference, c);
    }
    check_repeats(name, dir);
    for base in TREE_MISSING {
        check_missing(name, dir, base);
    }
}

#[test]
fn every_directory_answers_the_table_alike() {
    let dit = loaded_dit();
    check_tree("Dit", &*dit);

    let shared: Arc<dyn Directory> = loaded_dit();
    check_tree("Arc<dyn Directory>", &shared);

    check_tree("Gateway", &*Gateway::new(loaded_dit()));

    let registry = Registry::system();
    registry.component("um").counter("updates").add(5);
    registry.component("relay").counter("ddus").add(2);
    let monitor = MonitorDirectory::new(loaded_dit(), registry);
    check_tree("MonitorDirectory", &*monitor);
    for c in MONITOR_CASES {
        check_case("MonitorDirectory", &*monitor, c);
    }
    check_missing("MonitorDirectory", &*monitor, "cn=ghost,cn=monitor");

    let server = Server::start(loaded_dit(), "127.0.0.1:0").unwrap();
    let client = TcpDirectory::connect(&server.addr().to_string()).unwrap();
    check_tree("TcpDirectory", &client);
}

/// Pairs of distinct names that read alike once the escapes are dropped: a
/// value holding `,` or `+`, and the name that separator would make.
const LOOKALIKES: [(&str, &str); 2] = [
    (r"cn=a\,ou=b,o=x", "cn=a,ou=b,o=x"),
    (r"cn=p\+sn=q,o=x", "cn=p+sn=q,o=x"),
];

fn check_lookalikes(name: &str, dir: &dyn Directory) {
    for parent in ["o=x", "ou=b,o=x"] {
        let ava = dn(parent).rdn().unwrap().first().clone();
        dir.add(Entry::with_attrs(dn(parent), [(ava.attr(), ava.value())]))
            .unwrap();
    }
    for (one, other) in LOOKALIKES {
        for text in [one, other] {
            let name = dn(text);
            let mut e = Entry::with_attrs(name.clone(), [("objectClass", "person")]);
            for ava in name.rdn().unwrap().avas() {
                e.add_value(ava.attr(), ava.value());
            }
            dir.add(e)
                .unwrap_or_else(|err| panic!("{name}: add `{text}`: {err}"));
        }
        for text in [one, other] {
            let found = dir.get(&dn(text)).unwrap();
            let found = found.unwrap_or_else(|| panic!("{name}: `{text}` is not there"));
            assert_eq!(found.dn().to_string(), text, "{name}: `{text}` read back");
        }
        dir.delete(&dn(one)).unwrap();
        assert_eq!(dir.get(&dn(one)).unwrap(), None, "{name}: `{one}` deleted");
        let kept = dir.get(&dn(other)).unwrap();
        assert_eq!(
            kept.map(|e| e.dn().to_string()).as_deref(),
            Some(other),
            "{name}: `{other}` outlives `{one}`"
        );
    }
}

#[test]
fn names_that_read_alike_without_their_escapes_stay_two_entries() {
    check_lookalikes("Dit", &*Dit::new());
    check_lookalikes("Gateway", &*Gateway::new(Dit::new()));
    let server = Server::start(Dit::new(), "127.0.0.1:0").unwrap();
    let client = TcpDirectory::connect(&server.addr().to_string()).unwrap();
    check_lookalikes("TcpDirectory", &client);
}

#[test]
fn the_gateway_counts_one_read_per_call_whichever_door() {
    let gw = Gateway::new(loaded_dit());
    let reads = || gw.stats().reads.load(Ordering::Relaxed);
    let base = dn("o=Lucent");
    let f = Filter::match_all();
    let wei = dn("cn=Wei Lu,ou=Optical,o=Lucent");

    gw.search_visit(&base, Scope::Sub, &f, &[], 0, &mut |_| {})
        .unwrap();
    assert_eq!(reads(), 1);
    gw.search_capped(&base, Scope::Sub, &f, &[], 3).unwrap();
    assert_eq!(reads(), 2);
    gw.search(&base, Scope::Sub, &f, &[], 0).unwrap();
    assert_eq!(reads(), 3);
    gw.search(&base, Scope::Sub, &f, &[], 3).unwrap_err();
    assert_eq!(reads(), 4);
    gw.get(&wei).unwrap().unwrap();
    assert_eq!(reads(), 5);
    assert_eq!(gw.get(&dn("cn=ghost,o=Lucent")).unwrap(), None);
    assert_eq!(reads(), 6);
    assert!(gw.compare(&wei, "sn", "Lu").unwrap());
    assert_eq!(reads(), 7);
    assert_eq!(gw.stats().updates.load(Ordering::Relaxed), 0);
}
