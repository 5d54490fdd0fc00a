//! Metric catalogs, the per-layer accumulator and the result lines.

use std::collections::BTreeMap;

use hpceval_trace::Region;
use serde::Value;

use crate::stats;
use crate::work::kernels;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end_catalog() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("p50_ms", "ms"),
        ("throughput", "1/s"),
        ("pass_share", "share"),
        ("rss_mb", "MiB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// The workloads whose traced op is split into child spans, so their
/// coverage is reported.
pub const COVERED: [&str; 3] = ["kernels", "trace_model", "fleet_sweep"];

/// The per-layer metrics every traced run reports.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| c.push((name, unit));
    for id in kernels::kernel_ids() {
        add(format!("kernels.{id}.ms"), "ms");
        add(format!("kernels.{id}.gops"), "Gop/s");
    }
    add("kernels.useful_gop".into(), "Gop");
    add("rayon.join_us".into(), "us");
    add("rayon.par_iter_us".into(), "us");
    for r in Region::ALL {
        add(format!("trace.capture.{}.ms", r.name()), "ms");
    }
    add("trace.events".into(), "count");
    add("trace.accesses".into(), "count");
    add("trace.dropped".into(), "count");
    for r in Region::ALL {
        add(format!("trace.replay.{}.ms", r.name()), "ms");
    }
    add("trace.replay.maccess_per_s".into(), "Maccess/s");
    for (name, unit) in [
        ("regression.train_ms", "ms"),
        ("regression.validate_ms", "ms"),
        ("fleet.daemon.status_us", "us"),
        ("fleet.shard_rtt_us", "us"),
        ("fleet.table.shard_ms", "ms"),
        ("fleet.pool.call_us", "us"),
        ("fleet.router_rtt_us", "us"),
        ("fleet.router.self_us", "us"),
        ("fleet.table.router_ms", "ms"),
        ("fleet.codec.parse_table_us", "us"),
        ("fleet.codec.encode_request_us", "us"),
        ("fleet.frame_bytes.by_id", "bytes"),
        ("fleet.frame_bytes.table", "bytes"),
        ("wal.entries_per_job", "count"),
        ("wal.bytes_per_job", "bytes"),
        ("wal.replay_ms", "ms"),
        ("fleet.open_ms", "ms"),
        ("fleet.submit_ms", "ms"),
        ("fleet.drain_ms", "ms"),
        ("fleet.collect_ms", "ms"),
        ("fleet.teardown_ms", "ms"),
        ("tune.cell_us", "us"),
        ("tune.cells", "count"),
    ] {
        add(name.into(), unit);
    }
    for w in crate::WORKLOADS {
        add(format!("overhead.{w}"), "ratio");
    }
    for w in COVERED {
        add(format!("coverage.{w}"), "share");
    }
    c
}

/// Per-layer values gathered over the rounds of a traced run: timed
/// samples (reported as their median) and exact counts (which must
/// repeat exactly on every round).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
    exact: BTreeMap<String, f64>,
    /// Exact counts that changed between rounds.
    pub mismatches: Vec<String>,
}

impl Layers {
    pub fn sample(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    pub fn exact(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.exact.get(&name) {
            Some(&old) if old.to_bits() != value.to_bits() => {
                self.mismatches.push(format!("{name}: {old} then {value}"));
            }
            Some(_) => {}
            None => {
                self.exact.insert(name, value);
            }
        }
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|s| stats::median(s))
    }

    /// Resolve every catalog entry; names with no value are returned as
    /// the error.
    pub fn finish(&self, catalog: &[(String, &'static str)]) -> Result<Vec<Metric>, Vec<String>> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in catalog {
            match self.exact.get(name).copied().or_else(|| self.median(name)) {
                Some(value) => out.push(Metric { name: name.clone(), unit, value }),
                None => missing.push(name.clone()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&v).expect("finite metrics encode")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(c: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn catalogs_match_the_declared_metrics() {
        assert_eq!(owned(end_to_end_catalog()), declared("end_to_end"));
        assert_eq!(owned(per_layer_catalog()), declared("per_layer"));
    }

    #[test]
    fn every_declared_workload_runs() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").and_then(Value::as_seq).expect("workload list");
        assert!(workloads.len() >= 2);
        for w in workloads {
            let name = w.get("name").and_then(Value::as_str).expect("workload name");
            assert!(crate::WORKLOADS.contains(&name), "{name} is not a workload");
        }
    }

    #[test]
    fn every_named_metric_is_printed_with_its_unit() {
        for catalog in [end_to_end_catalog(), per_layer_catalog()] {
            let mut layers = Layers::default();
            for (k, (name, _)) in catalog.iter().enumerate() {
                layers.sample(name.clone(), 1.0 + k as f64);
            }
            let metrics = layers.finish(&catalog).expect("every name has a value");
            let line = result_line(true, 3, 0, &metrics);
            let doc = serde_json::from_str(&line).expect("result line parses");
            let printed = doc.get("metrics").expect("metrics");
            for (name, unit) in &catalog {
                let m = printed.get(name).unwrap_or_else(|| panic!("{name} printed"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            }
            let keys: Vec<&str> = match &doc {
                Value::Map(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result line is an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn a_missing_metric_is_named_and_exact_counts_must_repeat() {
        let catalog = vec![("a".to_string(), "ms"), ("b".to_string(), "count")];
        let mut layers = Layers::default();
        layers.sample("a", 2.0);
        assert_eq!(layers.finish(&catalog), Err(vec!["b".to_string()]));
        layers.exact("b", 7.0);
        layers.exact("b", 7.0);
        assert!(layers.mismatches.is_empty());
        layers.exact("b", 8.0);
        assert_eq!(layers.mismatches.len(), 1);
        let m = layers.finish(&catalog).unwrap();
        assert_eq!(m[1], Metric { name: "b".into(), unit: "count", value: 7.0 });
    }
}
