//! The experiment harness: one module per experiment in EXPERIMENTS.md.
//!
//! The paper is an industrial experience paper with no numeric tables, so
//! each experiment operationalizes one *testable claim* (see DESIGN.md §3)
//! as a workload + sweep + printed table.

pub mod e10_ldap;
pub mod e11_ablations;
pub mod e12_outage;
pub mod e13_throughput;
pub mod e14_wire;
pub mod e15_durability;
pub mod e16_soak;
pub mod e17_shard;
pub mod e18_scale;
pub mod e1_propagation;
pub mod e2_convergence;
pub mod e3_reapply;
pub mod e4_sync;
pub mod e5_gateway;
pub mod e6_lexpress;
pub mod e7_partition;
pub mod e8_failure;
pub mod e9_schema;

/// How big to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly sizes (seconds).
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

/// One experiment's output.
pub struct Report {
    pub id: &'static str,
    pub title: &'static str,
    pub claim: &'static str,
    /// Pre-formatted table rows.
    pub table: String,
    /// One-line takeaways (recorded in EXPERIMENTS.md).
    pub observations: Vec<String>,
    /// Optional machine-readable section spliced into `BENCH_metacomm.json`
    /// as a top-level key: `(key, raw JSON value)`. E13 uses this to emit
    /// the throughput trajectory CI tracks from PR to PR.
    pub extra: Option<(&'static str, String)>,
}

impl Report {
    pub fn print(&self) {
        println!("================================================================");
        println!("{} — {}", self.id, self.title);
        println!("claim under test: {}", self.claim);
        println!("----------------------------------------------------------------");
        println!("{}", self.table.trim_end());
        for o in &self.observations {
            println!("  » {o}");
        }
        println!();
    }
}

/// The median of a non-empty set of repeated measurements.
fn median(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Run every experiment.
pub fn run_all(scale: Scale) -> Vec<Report> {
    vec![
        e1_propagation::run(scale),
        e2_convergence::run(scale),
        e3_reapply::run(scale),
        e4_sync::run(scale),
        e5_gateway::run(scale),
        e6_lexpress::run(scale),
        e7_partition::run(scale),
        e8_failure::run(scale),
        e9_schema::run(scale),
        e10_ldap::run(scale),
        e11_ablations::run(scale),
        e12_outage::run(scale),
        e13_throughput::run(scale),
        e14_wire::run(scale),
        e15_durability::run(scale),
        e16_soak::run(scale),
        e17_shard::run(scale),
        e18_scale::run(scale),
    ]
}

/// Run one experiment by id (`e1` … `e18`).
pub fn run_one(id: &str, scale: Scale) -> Option<Report> {
    Some(match id {
        "e1" => e1_propagation::run(scale),
        "e2" => e2_convergence::run(scale),
        "e3" => e3_reapply::run(scale),
        "e4" => e4_sync::run(scale),
        "e5" => e5_gateway::run(scale),
        "e6" => e6_lexpress::run(scale),
        "e7" => e7_partition::run(scale),
        "e8" => e8_failure::run(scale),
        "e9" => e9_schema::run(scale),
        "e10" => e10_ldap::run(scale),
        "e11" => e11_ablations::run(scale),
        "e12" => e12_outage::run(scale),
        "e13" => e13_throughput::run(scale),
        "e14" => e14_wire::run(scale),
        "e15" => e15_durability::run(scale),
        "e16" => e16_soak::run(scale),
        "e17" => e17_shard::run(scale),
        "e18" => e18_scale::run(scale),
        _ => return None,
    })
}

/// The machine-readable artifact the harness writes next to its tables:
/// every report's id/title/observations plus a live metrics snapshot from
/// an instrumented deployment run (CI uploads this as `BENCH_metacomm.json`).
pub fn bench_json(scale: Scale, reports: &[Report]) -> String {
    let mut out = String::from("{\"bench\":\"metacomm\"");
    // `"scale"` (the E18 section) is taken by an experiment extra, so the
    // run-size knob travels as `"run_scale"`.
    out.push_str(&format!(
        ",\"run_scale\":{}",
        jstr(match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        })
    ));
    out.push_str(",\"experiments\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"title\":{},\"observations\":[{}]}}",
            jstr(r.id),
            jstr(r.title),
            r.observations
                .iter()
                .map(|o| jstr(o))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push(']');
    // Machine-readable sections contributed by individual experiments
    // (E13's `"throughput"` — the perf trajectory CI tracks across PRs).
    for r in reports {
        if let Some((key, json)) = &r.extra {
            out.push_str(&format!(",\"{key}\":{json}"));
        }
    }
    // Harness-process peak RSS (VmHWM, kB; null off Linux) so the artifact
    // records how much memory the whole sweep needed, PR over PR.
    out.push_str(&format!(
        ",\"peak_rss_kb\":{}",
        crate::rss::peak_rss_kb()
            .map(|kb| kb.to_string())
            .unwrap_or_else(|| "null".into())
    ));
    out.push_str(",\"metrics\":");
    out.push_str(&metrics_workload_snapshot());
    out.push('}');
    out
}

/// Run a small scripted workload on an instrumented deployment and return
/// its whole-registry snapshot as JSON — the per-component counters and
/// latency percentiles half of the artifact.
fn metrics_workload_snapshot() -> String {
    let r = crate::rig(1, true);
    let wba = r.system.wba();
    let mut w = crate::workload::Workload::new(7);
    let people = w.people(25, 1);
    for p in &people {
        wba.add_person_with_extension(&p.cn, &p.sn, &p.extension, &p.room)
            .expect("add");
    }
    for p in people.iter().take(10) {
        wba.assign_room(&p.cn, "9Z-999").expect("modify");
    }
    r.system.settle();
    let json = r.system.metrics_snapshot().to_json();
    r.system.shutdown();
    json
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mean of a duration sample in microseconds.
pub(crate) fn mean_us(samples: &[std::time::Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / samples.len() as f64
}

/// p95 of a duration sample in microseconds.
pub(crate) fn p95_us(samples: &[std::time::Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    us[(us.len() - 1) * 95 / 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keep the harness from bit-rotting: the fast experiments run in CI.
    #[test]
    fn quick_e7_partitioning() {
        let r = e7_partition::run(Scale::Quick);
        assert_eq!(r.id, "E7");
        assert!(r.table.contains("del@1+add@2"));
    }

    #[test]
    fn quick_e9_schema_ablation() {
        let r = e9_schema::run(Scale::Quick);
        assert!(r.table.contains("auxiliary classes (paper)"));
        // The paper's design has zero torn states.
        let aux_line = r
            .table
            .lines()
            .find(|l| l.contains("auxiliary classes"))
            .expect("aux row");
        assert!(aux_line.trim_end().ends_with('0'), "{aux_line}");
    }

    #[test]
    fn quick_e11_ablations() {
        let r = e11_ablations::run(Scale::Quick);
        assert!(r.table.contains("hub closure ON (paper)"));
        assert!(r.observations.iter().any(|o| o.contains("migrated=false")));
    }

    #[test]
    fn quick_e12_outage() {
        let r = e12_outage::run(Scale::Quick);
        assert_eq!(r.id, "E12");
        // Both recovery mechanisms must appear in the sweep, losing nothing.
        assert!(r.table.contains("drain("), "{}", r.table);
        assert!(r.table.contains("resync"), "{}", r.table);
        assert!(r.observations.iter().any(|o| o.contains("total lost = 0")));
    }

    #[test]
    fn quick_e13_throughput() {
        let r = e13_throughput::run(Scale::Quick);
        assert_eq!(r.id, "E13");
        // Both ablation axes must appear in the table…
        assert!(r.table.contains("search    scan"), "{}", r.table);
        assert!(r.table.contains("search indexed"), "{}", r.table);
        assert!(r.table.contains("update  w=1"), "{}", r.table);
        assert!(r.table.contains("update  w=4"), "{}", r.table);
        // …and the machine-readable section must carry the speedups CI
        // tracks (the ≥3x / ≥1.5x acceptance gates run on the artifact,
        // not here, to keep this test robust on loaded machines).
        let (key, json) = r.extra.as_ref().expect("throughput section");
        assert_eq!(*key, "throughput");
        assert!(json.contains("\"search_speedup_t1\":"), "{json}");
        assert!(json.contains("\"update_speedup\":"), "{json}");
    }

    #[test]
    fn quick_e14_wire() {
        let r = e14_wire::run(Scale::Quick);
        assert_eq!(r.id, "E14");
        // Every axis must appear in the table…
        assert!(r.table.contains("stream  "), "{}", r.table);
        assert!(r.table.contains("pipe   w=1"), "{}", r.table);
        // The second pipeline arm is the adaptive default: a worker pool on
        // multi-core hosts, inline decode on a 1-core host.
        assert!(r.table.contains("pipe   auto"), "{}", r.table);
        assert!(r.table.contains("sync   full"), "{}", r.table);
        assert!(r.table.contains("sync   delta"), "{}", r.table);
        // …and the machine-readable section must carry the numbers CI
        // gates on (the ≥2x / ≤10% acceptance checks run on the artifact,
        // not here, to keep this test robust on loaded machines).
        let (key, json) = r.extra.as_ref().expect("wire section");
        assert_eq!(*key, "wire");
        assert!(json.contains("\"label\":\"search/streaming\""), "{json}");
        assert!(json.contains("\"pipeline_speedup\":"), "{json}");
        assert!(json.contains("\"pipeline_mode\":"), "{json}");
        assert!(json.contains("\"delta_ratio\":"), "{json}");
    }

    #[test]
    fn quick_e16_soak() {
        let r = e16_soak::run(Scale::Quick);
        assert_eq!(r.id, "E16");
        assert!(r.table.contains("load"), "{}", r.table);
        assert!(r.table.contains("churn"), "{}", r.table);
        assert!(r.table.contains("fixpoint identical"), "{}", r.table);
        assert!(
            r.table.contains("violations 0"),
            "oracle must be clean: {}",
            r.table
        );
        let (key, json) = r.extra.as_ref().expect("soak section");
        assert_eq!(*key, "soak");
        assert!(json.contains("\"invariant_checks\":"), "{json}");
        assert!(json.contains("\"violations\":0"), "{json}");
        assert!(json.contains("\"fixpoint_match\":true"), "{json}");
        assert!(json.contains("\"um.update\""), "{json}");
        assert!(json.contains("\"trajectory\":["), "{json}");
    }

    #[test]
    fn quick_e17_shard() {
        let r = e17_shard::run(Scale::Quick);
        assert_eq!(r.id, "E17");
        assert!(r.table.contains("shards"), "{}", r.table);
        // The merge must be provably identical across shard counts.
        assert!(
            r.observations.iter().any(|o| o.contains("identical")),
            "{:?}",
            r.observations
        );
        let (key, json) = r.extra.as_ref().expect("shard section");
        assert_eq!(*key, "shard");
        assert!(json.contains("\"parity\":true"), "{json}");
        assert!(json.contains("\"curve\":["), "{json}");
        assert!(json.contains("\"mixed_ops_per_sec\":"), "{json}");
        assert!(json.contains("\"tree_search_ms\":"), "{json}");
    }

    #[test]
    fn quick_e18_scale() {
        let r = e18_scale::run(Scale::Quick);
        assert_eq!(r.id, "E18");
        assert!(r.table.contains("restart  snapshot"), "{}", r.table);
        assert!(!r.table.contains("DIVERGED"), "{}", r.table);
        let (key, json) = r.extra.as_ref().expect("scale section");
        assert_eq!(*key, "scale");
        assert!(json.contains("\"parity\":true"), "{json}");
        assert!(json.contains("\"peak_rss_kb\":"), "{json}");
        assert!(json.contains("\"restart_secs\":"), "{json}");
    }

    #[test]
    fn bench_json_splices_extra_sections() {
        let r = Report {
            id: "EX",
            title: "t",
            claim: "c",
            table: String::new(),
            observations: vec![],
            extra: Some(("throughput", "{\"x\":1}".to_string())),
        };
        let json = bench_json(Scale::Quick, std::slice::from_ref(&r));
        assert!(json.contains("\"throughput\":{\"x\":1}"), "{json}");
        assert!(json.contains("\"metrics\":"), "{json}");
    }

    #[test]
    fn run_one_dispatches_every_id() {
        for id in ["e7", "e9", "e12", "e13", "e14"] {
            assert!(run_one(id, Scale::Quick).is_some());
        }
        assert!(run_one("e99", Scale::Quick).is_none());
    }
}
