//! The experiment harness: one module per throughput and scale experiment
//! in EXPERIMENTS.md (E13-E18), each a workload + sweep + printed table.
//! The paper's own claims, E1-E12, are asserting tests in
//! `tests/paper_claims.rs`.

pub mod e13_throughput;
pub mod e14_wire;
pub mod e15_durability;
pub mod e16_soak;
pub mod e18_scale;

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
    /// (E14 connection scaling, E16 fixpoint and oracle, E18 digest parity).
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn only_the_harness_ids_are_known() {
        assert_eq!(ids(), "e13 e14 e15 e16 e18");
        for id in ["e1", "e12", "e17", "e99"] {
            assert!(run_one(id, Scale::Quick).is_none(), "{id}");
        }
    }
}
