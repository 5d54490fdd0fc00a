//! The strict-JSON sweep report, the `BENCH_tune.json` format.
//!
//! The report is the artifact `hpceval tune sweep` writes and CI
//! re-derives with `hpceval bench tune`: per server, the paper's §V
//! score (mean PPW at the nominal clock) next to what the DVFS sweep
//! found — every kernel's energy-delay Pareto frontier and its
//! energy-/EDP-optimal picks. The whole pipeline is deterministic, so
//! the baseline gate (`hpceval::bench`) declares every metric `exact`:
//! drift in *either* direction beyond `--tolerance` means the model
//! changed and the baseline must be regenerated deliberately.

use std::collections::BTreeMap;

use serde::Serialize;

use hpceval_core::evaluation::Evaluator;
use hpceval_machine::presets;

use crate::frontier::{kernel_frontiers, CellResult, KernelFrontier};

/// Everything one sweep produced, JSON-shaped for `BENCH_tune.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TuneReport {
    /// Meter seed the cells ran with.
    pub seed: u64,
    /// Measured cells the report reduces.
    pub cells: usize,
    /// What the drift check means for this artifact.
    pub note: String,
    /// Per-server §V score + frontiers, sorted by server name.
    pub servers: Vec<ServerReport>,
    /// The gated metrics (see [`build_report`] for the key scheme);
    /// every one is deterministic, so the gate is two-sided.
    pub metrics: BTreeMap<String, f64>,
}

/// One server's slice of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// Server preset name.
    pub server: String,
    /// The paper's §V score (mean PPW) at the nominal clock.
    pub section_v_score: f64,
    /// Per-kernel frontiers, sorted by kernel id.
    pub frontiers: Vec<KernelFrontier>,
}

/// Reduce measured cells to the report: group by server, compute every
/// kernel's Pareto frontier, and derive the gated metrics —
/// `<server>.section_v_score` (the paper's headline, pinned so DVFS
/// work can never move it), `<server>.frontier_points` (total frontier
/// size), `<server>.energy_opt_j` (Σ over kernels of the
/// energy-optimal cell's energy) and `<server>.edp_opt_js` (Σ of the
/// EDP-optimal cell's EDP).
pub fn build_report(results: &[CellResult], seed: u64) -> TuneReport {
    let mut by_server: BTreeMap<&str, Vec<CellResult>> = BTreeMap::new();
    for r in results {
        by_server.entry(&r.cell.server).or_default().push(r.clone());
    }
    let mut servers = Vec::new();
    let mut metrics = BTreeMap::new();
    for (name, cells) in by_server {
        let frontiers = kernel_frontiers(&cells);
        let section_v_score = presets::by_name(name)
            .map(|spec| Evaluator::new(spec).run().final_score())
            .unwrap_or(f64::NAN);
        let points: usize = frontiers.iter().map(|f| f.frontier.len()).sum();
        let energy_opt: f64 = frontiers.iter().map(|f| f.energy_optimal.measure.energy_j).sum();
        let edp_opt: f64 = frontiers.iter().map(|f| f.edp_optimal.measure.edp).sum();
        metrics.insert(format!("{name}.section_v_score"), section_v_score);
        metrics.insert(format!("{name}.frontier_points"), points as f64);
        metrics.insert(format!("{name}.energy_opt_j"), energy_opt);
        metrics.insert(format!("{name}.edp_opt_js"), edp_opt);
        servers.push(ServerReport { server: name.to_string(), section_v_score, frontiers });
    }
    TuneReport {
        seed,
        cells: results.len(),
        note: "energy-delay Pareto frontiers per kernel from the DVFS sweep; every metric is \
               deterministic, so the drift check is two-sided: regenerate the baseline when the \
               model changes deliberately"
            .to_string(),
        servers,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cell;
    use crate::plan::{plan_sweep, SweepOptions};

    fn tiny_results() -> Vec<CellResult> {
        let opts = SweepOptions {
            servers: vec!["Xeon-E5462".to_string()],
            kernels: vec!["ep".to_string(), "stream".to_string()],
            max_states: 2,
            ..SweepOptions::default()
        };
        plan_sweep(&opts)
            .unwrap()
            .into_iter()
            .map(|cell| {
                let measure = run_cell(&cell).unwrap();
                CellResult { cell, measure }
            })
            .collect()
    }

    #[test]
    fn report_pins_the_section_v_score_and_counts_frontiers() {
        let rep = build_report(&tiny_results(), 42);
        assert_eq!(rep.servers.len(), 1);
        let srv = &rep.servers[0];
        assert_eq!(srv.server, "Xeon-E5462");
        // The paper's Table IV headline, untouched by the sweep.
        assert!((srv.section_v_score - 0.0639).abs() < 0.002, "{}", srv.section_v_score);
        assert_eq!(srv.frontiers.len(), 2);
        assert!(rep.metrics["Xeon-E5462.frontier_points"] >= 2.0);
        assert!(rep.metrics["Xeon-E5462.energy_opt_j"] > 0.0);
        assert!(rep.metrics["Xeon-E5462.edp_opt_js"] > 0.0);
    }

    #[test]
    fn report_is_deterministic_and_permutation_invariant() {
        let results = tiny_results();
        let a = serde_json::to_string_pretty(&build_report(&results, 42)).unwrap();
        let mut shuffled = results.clone();
        shuffled.reverse();
        let b = serde_json::to_string_pretty(&build_report(&shuffled, 42)).unwrap();
        assert_eq!(a, b, "replay order must not change the report");
    }
}
