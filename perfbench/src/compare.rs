//! `perfbench compare DIR [DIR]`: the run-to-run spread of each
//! end-to-end metric over the saved runs in one directory, and with a
//! second directory the change of each median against the first.
//!
//! Each file in a directory is one run's standard output. Runs whose
//! context stamps differ are not compared: the command refuses.

use std::path::Path;

use serde::Value;

use crate::report::end_to_end_catalog;
use crate::stats::{median, spread};

/// One saved run: its record line and its result line.
struct Run {
    workload: String,
    stamp: Value,
    metrics: Value,
}

fn load_dir(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for name in crate::work::dir_entries(dir)? {
        let path = dir.join(&name);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let parse = |line: &str| serde_json::from_str(line).map_err(|e| format!("{name}: {e}"));
        let record = text
            .lines()
            .find(|l| l.starts_with("{\"record\""))
            .ok_or(format!("{name}: no record line"))?;
        let record = parse(record)?;
        let record = record.get("record").ok_or(format!("{name}: bad record"))?;
        let result = parse(text.lines().last().unwrap_or_default())?;
        let field = |k| record.get(k).cloned().ok_or(format!("{name}: record lacks {k}"));
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            stamp: field("stamp")?,
            metrics: result.get("metrics").cloned().ok_or(format!("{name}: no metrics"))?,
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no runs", dir.display()));
    }
    Ok(runs)
}

/// Values of `metric` for `workload`, one per run.
fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Print, per workload and end-to-end metric, the run count and median
/// of the first set, the spread of each set and, with a second set, the
/// ratio of its median to the first. Judging these against the bounds
/// in `BENCHMARK.json` is left to whoever reads the table.
pub fn run(dirs: &[String]) -> Result<(), String> {
    let sets = dirs.iter().map(|d| load_dir(Path::new(d))).collect::<Result<Vec<_>, _>>()?;
    let first = &sets[0][0].stamp;
    for (dir, runs) in dirs.iter().zip(&sets) {
        if let Some(r) = runs.iter().find(|r| r.stamp != *first) {
            return Err(format!(
                "refusing to compare: a run in {dir} has stamp {} but the first has {}",
                serde_json::to_string(&r.stamp).unwrap_or_default(),
                serde_json::to_string(first).unwrap_or_default()
            ));
        }
    }
    let mut workloads: Vec<&str> = sets[0].iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!("workload      metric       runs  median_a      spread_a  spread_b  median_b/a");
    for w in workloads {
        for (metric, _) in end_to_end_catalog() {
            let a = values(&sets[0], w, &metric);
            let Some(med_a) = median(&a) else { continue };
            let b = sets.get(1).map(|b| values(b, w, &metric)).unwrap_or_default();
            let shown = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            println!(
                "{w:<13} {metric:<12} {:>4}  {med_a:<12.6}  {:<8}  {:<8}  {}",
                a.len(),
                shown(spread(&a)),
                shown(spread(&b)),
                shown(median(&b).map(|med_b| med_b / med_a)),
            );
        }
    }
    Ok(())
}
