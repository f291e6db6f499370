//! The `cn=monitor` subtree over the wire: a stock BER client searches a
//! served deployment's monitor tree, and the entry/attribute shape must
//! match the checked-in golden snapshot (`tests/golden/monitor_subtree.txt`,
//! volatile numeric values normalized to `#`).
//!
//! Regenerate the golden file after an intentional shape change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test monitor_wire
//! ```

use ldap::client::TcpDirectory;
use ldap::dit::Scope;
use ldap::entry::Modification;
use ldap::filter::Filter;
use ldap::{Directory, Dn, Entry, ResultCode};
use metacomm::MetaCommBuilder;
use msgplat::Store as MpStore;
use pbx::{DialPlan, Store as PbxStore};
use std::sync::Arc;

struct Served {
    system: metacomm::MetaComm,
    /// Keeps the listener alive for the duration of the test.
    _server: ldap::server::Server,
    addr: String,
}

fn deployment() -> MetaCommBuilder {
    let switch = Arc::new(PbxStore::new("pbx-west", DialPlan::with_prefix("1", 4)));
    let mp = Arc::new(MpStore::new("mp"));
    MetaCommBuilder::new("o=Lucent")
        .add_pbx(switch, "1???")
        .add_msgplat(mp, "*")
}

fn served() -> Served {
    serve(deployment())
}

fn serve(deployment: MetaCommBuilder) -> Served {
    let system = deployment.build().expect("build");
    let server = system.serve("127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();
    Served {
        system,
        _server: server,
        addr,
    }
}

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

/// Scripted updates whose effects the monitor entries must reflect.
fn scripted_updates(sys: &metacomm::MetaComm, n: usize) {
    let wba = sys.wba();
    for i in 0..n {
        wba.add_person_with_extension(
            &format!("Mon Person {i:02}"),
            "Person",
            &format!("1{i:03}"),
            "R1",
        )
        .expect("add");
    }
    for i in 0..n / 2 {
        wba.assign_room(&format!("Mon Person {i:02}"), "R2")
            .expect("modify");
    }
    sys.settle();
}

/// LDIF-ish rendering with every numeric attribute value replaced by `#`:
/// the entry and attribute *shape* is deterministic (all metrics register
/// at build/serve time), the values are not.
fn normalize(entries: &[Entry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!("dn: {}\n", e.dn()));
        let mut lines: Vec<String> = Vec::new();
        for a in e.attributes() {
            for v in &a.values {
                let shown = if v.parse::<f64>().is_ok() { "#" } else { v };
                lines.push(format!("{}: {}", a.name, shown));
            }
        }
        lines.sort();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[test]
fn monitor_subtree_shape_matches_golden_snapshot() {
    let s = served();
    scripted_updates(&s.system, 6);
    let client = TcpDirectory::connect(&s.addr).expect("connect");
    let hits = client
        .search(&dn("cn=monitor"), Scope::Sub, &Filter::match_all(), &[], 0)
        .expect("search cn=monitor");
    let actual = normalize(&hits);
    let golden_path = format!(
        "{}/tests/golden/monitor_subtree.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(&golden_path).expect("read golden snapshot");
    assert_eq!(
        actual, expected,
        "cn=monitor shape drifted from {golden_path}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
    s.system.shutdown();
}

#[test]
fn counters_and_percentiles_move_after_scripted_updates() {
    let s = served();
    let client = TcpDirectory::connect(&s.addr).expect("connect");
    let read = |comp: &str, attr: &str| -> u64 {
        let hits = client
            .search(
                &dn(&format!("cn={comp},cn=monitor")),
                Scope::Base,
                &Filter::match_all(),
                &[],
                0,
            )
            .expect("base search");
        hits[0]
            .first(attr)
            .unwrap_or_else(|| panic!("{comp} entry lacks {attr}"))
            .parse::<u64>()
            .expect("numeric")
    };

    // Quiet deployment: nothing trapped yet, histograms empty.
    assert_eq!(read("um", "updates"), 0);
    assert_eq!(read("um", "updateCount"), 0);
    let searches_before = read("server", "searches");

    scripted_updates(&s.system, 8);

    // Counters moved, the latency histogram filled in, and its percentiles
    // carry real (non-zero) nanosecond readings.
    assert_eq!(read("um", "updates"), 12, "8 adds + 4 modifies");
    assert_eq!(read("um", "updateCount"), 12);
    assert!(read("um", "updateP95Ns") > 0);
    assert!(read("um", "updateMaxNs") >= read("um", "updateP95Ns"));
    assert_eq!(read("device-pbx-west", "applies"), 12);
    assert!(read("device-pbx-west", "applyCount") >= 12);
    // Partitioning keeps pure-PBX updates away from the messaging
    // platform: its component is present but records no applies.
    assert_eq!(read("device-mp", "applies"), 0);
    assert!(read("um", "skipped") > 0);
    assert!(read("ltap", "updates") >= 12);
    assert!(read("ltap", "updateNsTotal") > 0);

    // The server component watches the wire itself — including the very
    // searches this test issues.
    assert!(read("server", "searches") > searches_before);
    assert!(read("server", "entriesReturned") > 0);
    assert!(read("server", "resultCode0") > 0);
    s.system.shutdown();
}

/// The idle timeout the way an operator meets it: set on the deployment,
/// enforced by the served wire, counted in the monitor.
#[test]
fn a_deployments_idle_timeout_sheds_a_silent_client_and_the_monitor_counts_it() {
    use std::io::Read;
    use std::time::Duration;
    let s = serve(deployment().with_idle_timeout(Duration::from_millis(250)));
    let silent = std::net::TcpStream::connect(&s.addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut one = [0u8; 1];
    let read = (&silent)
        .read(&mut one)
        .expect("closed by the server, not timed out");
    assert_eq!(read, 0, "the silent client reads EOF");

    let client = TcpDirectory::connect(&s.addr).expect("connect");
    let server = client
        .get(&dn("cn=server,cn=monitor"))
        .expect("read cn=server")
        .expect("cn=server exists");
    assert_eq!(server.first("disconnectIdle"), Some("1"));
    assert_eq!(server.first("connectionsOpen"), Some("1"));
    s.system.shutdown();
}

#[test]
fn monitor_is_searchable_with_filters_and_read_only_over_the_wire() {
    let s = served();
    let client = TcpDirectory::connect(&s.addr).expect("connect");

    // RFC 2254 filter + one-level scope narrows to a single component.
    let f = Filter::parse("(cn=um)").unwrap();
    let hits = client
        .search(&dn("cn=monitor"), Scope::One, &f, &[], 0)
        .expect("filtered search");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].dn().to_string(), "cn=um,cn=monitor");

    // Projection applies like any other search.
    let hits = client
        .search(
            &dn("cn=um,cn=monitor"),
            Scope::Base,
            &Filter::match_all(),
            &["updates".into()],
            0,
        )
        .expect("projected search");
    assert!(hits[0].first("updates").is_some());
    assert!(hits[0].first("cn").is_none(), "projection must apply");

    // Compare works against live values.
    assert!(client
        .compare(&dn("cn=um,cn=monitor"), "updates", "0")
        .expect("compare"));

    // Writes are refused with unwillingToPerform; the real tree underneath
    // stays writable through the same connection.
    let err = client
        .modify(
            &dn("cn=um,cn=monitor"),
            &[Modification::set("updates", "999")],
        )
        .expect_err("monitor must be read-only");
    assert_eq!(err.code, ResultCode::UnwillingToPerform);
    let err = client
        .delete(&dn("cn=server,cn=monitor"))
        .expect_err("monitor must be read-only");
    assert_eq!(err.code, ResultCode::UnwillingToPerform);
    let mut e = Entry::new(dn("cn=Wire Proof,o=Lucent"));
    for (k, v) in [
        ("objectClass", "top"),
        ("objectClass", "person"),
        ("cn", "Wire Proof"),
        ("sn", "Proof"),
    ] {
        e.add_value(k, v);
    }
    client.add(e).expect("real tree stays writable");
    s.system.shutdown();
}
