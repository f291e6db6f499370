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
    /// Why the claim did not hold, for an experiment that checks its own
    /// (E12 lost updates, E14 connection scaling, E16 fixpoint and oracle,
    /// E18 digest parity).
    /// The `experiments` binary exits non-zero on any `Some`.
    pub failed: Option<String>,
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

/// How an experiment is run.
type Run = fn(Scale) -> Report;

/// Every experiment, in running order, by the id `--exp` takes. E17 is
/// retired (see EXPERIMENTS.md) and E18 keeps its id.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("e1", e1_propagation::run),
    ("e2", e2_convergence::run),
    ("e3", e3_reapply::run),
    ("e4", e4_sync::run),
    ("e5", e5_gateway::run),
    ("e6", e6_lexpress::run),
    ("e7", e7_partition::run),
    ("e8", e8_failure::run),
    ("e9", e9_schema::run),
    ("e10", e10_ldap::run),
    ("e11", e11_ablations::run),
    ("e12", e12_outage::run),
    ("e13", e13_throughput::run),
    ("e14", e14_wire::run),
    ("e15", e15_durability::run),
    ("e16", e16_soak::run),
    ("e18", e18_scale::run),
];

/// The ids of [`EXPERIMENTS`], space-separated, for usage and error text.
pub fn ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    ids.join(" ")
}

/// Run every experiment.
pub fn run_all(scale: Scale) -> Vec<Report> {
    EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect()
}

/// Run one experiment by its id in [`EXPERIMENTS`].
pub fn run_one(id: &str, scale: Scale) -> Option<Report> {
    let (_, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    Some(run(scale))
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
        // The drain-vs-resync arm prints the line CI greps for.
        assert!(r.table.contains("\ndrain vs resync: "), "{}", r.table);
        assert_eq!(r.failed, None);
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
        // …and both speedups in the observations (their sizes are not
        // asserted, to keep this test robust on loaded machines).
        assert!(r.observations[0].contains("x ops/sec over the full subtree scan"));
        assert!(r.observations[1].contains("x ops/sec over the single coordinator"));
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
        // …and the connection arm must state its verdict. `r.failed` is not
        // asserted: beside every other test in one process neither of the
        // arm's figures means anything; the `experiments` binary judges it.
        assert!(
            r.observations
                .iter()
                .any(|o| o.contains("connection scaling")),
            "{:?}",
            r.observations
        );
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
        assert_eq!(r.failed, None, "fixpoint and oracle");
    }

    #[test]
    fn quick_e18_scale() {
        let r = e18_scale::run(Scale::Quick);
        assert_eq!(r.id, "E18");
        assert!(r.table.contains("restart  snapshot"), "{}", r.table);
        assert!(!r.table.contains("DIVERGED"), "{}", r.table);
        assert_eq!(r.failed, None, "digest parity across the crash");
    }

    #[test]
    fn run_one_dispatches_every_id() {
        for id in ["e7", "e9", "e12", "e13", "e14"] {
            assert!(run_one(id, Scale::Quick).is_some());
        }
        assert!(run_one("e17", Scale::Quick).is_none(), "retired");
        assert!(run_one("e99", Scale::Quick).is_none());
        assert!(ids().starts_with("e1 e2 ") && ids().ends_with(" e16 e18"));
    }
}
