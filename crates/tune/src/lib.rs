//! `hpceval-tune` — the DVFS-aware energy-optimal configuration
//! autotuner.
//!
//! The paper scores servers at one fixed clock; this crate sweeps the
//! other axis the hardware actually exposes. Every server preset
//! carries a discrete DVFS ladder (`hpceval-machine::DvfsCurve`), and
//! the tuner enumerates **freq-state × core-count × kernel** cells,
//! measures each one end to end on the simulated machine (roofline
//! time, ground-truth power, WT210 metering), and reduces the cells to
//! per-kernel *energy-delay Pareto frontiers* — the configurations for
//! which no other configuration is both faster and cheaper in energy.
//!
//! Layering: this crate is pure analysis + single-cell measurement. It
//! knows nothing about the fleet; `hpceval-fleet` depends on it to run
//! each cell as a WAL-backed `JobKind::Tune` job and to drive whole
//! sweeps through the sharded router (`hpceval_fleet::sweep`).
//!
//! - [`cell`] — one sweep cell and its deterministic measurement.
//! - [`plan`] — the sweep planner (feasibility-filtered enumeration).
//! - [`frontier`] — exact Pareto dominance filtering and the
//!   energy-/EDP-optimal picks.
//! - [`report`] — the strict-JSON sweep report (the `BENCH_tune.json`
//!   format).

#![warn(missing_docs)]

pub mod cell;
pub mod frontier;
pub mod plan;
pub mod report;

pub use cell::{run_cell, CellMeasure, TuneCell};
pub use frontier::{
    canonical_order, dominates, kernel_frontiers, pareto_frontier, CellResult, KernelFrontier,
};
pub use plan::{plan_sweep, SweepOptions};
pub use report::{build_report, ServerReport, TuneReport};
