//! One gate for every committed baseline.
//!
//! `BENCH_kernels.json`, `BENCH_fleet.json` and `BENCH_tune.json` pin
//! the kernel timings, the fleet's sustained-load numbers and the DVFS
//! tune report. Each is a [`Suite`]: a small declaration of which JSON
//! fields are gated and which way each may move ([`Direction`]), which
//! stamps must match before any metric is compared, and whether
//! baseline groups the run did not measure are skipped. One extractor
//! reads the parsed baseline file and the fresh report alike, one
//! checker applies the direction rules, and [`gate`] prints the
//! verdict: one trend line per compared metric, worst first, then one
//! line per failure. `hpceval bench <kernels|fleet|tune>` is the CLI.

use std::collections::BTreeMap;

use serde::Value;

/// Which way a gated metric may move before the gate fails, at
/// tolerance `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better: fails when `cur > base·(1+t)`.
    Lower,
    /// Higher is better: fails when `cur < base/(1+t)`.
    Higher,
    /// Deterministic: fails unless `|base|/(1+t) ≤ |cur| ≤ |base|·(1+t)`
    /// with the same sign, or both values are 0.
    Exact,
}

/// A field that must be equal in the baseline and the run before any
/// metric is compared: numbers taken under a different SIMD tier or
/// tile plan are not comparable.
#[derive(Debug)]
pub struct Stamp {
    /// Top-level field name.
    pub field: &'static str,
    /// How to reproduce the baseline's value; `{base}` is replaced by it.
    pub pin: &'static str,
}

/// One committed baseline's declaration.
#[derive(Debug)]
pub struct Suite {
    /// CLI name (`hpceval bench <name>`).
    pub name: &'static str,
    /// The flags its measurement takes beside `--check/--tolerance`.
    pub flags: &'static [&'static str],
    /// Gated path patterns (`.`-separated; `*` matches every key of an
    /// object) and each pattern's direction.
    pub metrics: &'static [(&'static str, Direction)],
    /// Must-match stamps.
    pub stamps: &'static [Stamp],
    /// Skip baseline groups (the key the first `*` matched) that the
    /// run did not measure, so a one-configuration run checks against
    /// a full-sweep baseline. A measured group the baseline lacks
    /// still fails.
    pub skip_unmeasured: bool,
}

/// `BENCH_kernels.json`: best-of-3 seconds per kernel.
const KERNELS: Suite = Suite {
    name: "kernels",
    flags: &[],
    metrics: &[("kernels.*.seconds", Direction::Lower)],
    stamps: &[
        Stamp { field: "simd", pin: "pin HPCEVAL_SIMD={base}" },
        Stamp {
            field: "tiles",
            pin: "pin the HPCEVAL_SPEC preset whose tile plan is {base} (unset for the \
                  reference geometry)",
        },
    ],
    skip_unmeasured: false,
};

/// `BENCH_fleet.json`: per-configuration latency and throughput.
const FLEET: Suite = Suite {
    name: "fleet",
    flags: &["ops", "shards", "clients", "pipeline-depth", "submit-every"],
    metrics: &[
        ("configs.*.metrics.p50_us", Direction::Lower),
        ("configs.*.metrics.p99_us", Direction::Lower),
        ("configs.*.metrics.ops_per_sec", Direction::Higher),
    ],
    stamps: &[],
    skip_unmeasured: true,
};

/// `BENCH_tune.json`: the deterministic DVFS sweep metrics.
const TUNE: Suite = Suite {
    name: "tune",
    flags: &[],
    metrics: &[("metrics.*", Direction::Exact)],
    stamps: &[],
    skip_unmeasured: false,
};

/// The suite called `name`.
pub fn suite(name: &str) -> Option<&'static Suite> {
    [&KERNELS, &FLEET, &TUNE].into_iter().find(|s| s.name == name)
}

/// One extracted gated value.
#[derive(Debug)]
struct Gated {
    /// The key the pattern's first `*` matched.
    group: String,
    /// The declaring pattern's direction.
    direction: Direction,
    value: f64,
}

/// What the gate reads from one report: its stamps, rendered, and its
/// gated values keyed by concrete path (`kernels.npb_ft.seconds`).
#[derive(Debug)]
struct Extract {
    /// Each declared stamp's value, rendered, in declaration order.
    stamps: Vec<String>,
    /// Concrete path → value.
    metrics: BTreeMap<String, Gated>,
}

/// Read a report — the parsed baseline file or a fresh run — through
/// the suite's declaration. A missing field, a wildcard over a
/// non-object or a non-numeric gated value is an error.
fn extract(suite: &Suite, v: &Value) -> Result<Extract, String> {
    let stamps = suite
        .stamps
        .iter()
        .map(|s| match v.get(s.field) {
            Some(Value::Str(text)) => Ok(text.clone()),
            Some(other) => serde_json::to_string(other).map_err(|e| e.to_string()),
            None => Err(format!("no `{}` stamp", s.field)),
        })
        .collect::<Result<_, _>>()?;
    let mut metrics = BTreeMap::new();
    for &(pattern, direction) in suite.metrics {
        let segments: Vec<&str> = pattern.split('.').collect();
        let mut hits = Vec::new();
        walk(v, &segments, String::new(), None, &mut hits)?;
        for (path, group, value) in hits {
            let value = value.as_f64().ok_or_else(|| format!("`{path}` is not numeric"))?;
            metrics.insert(path, Gated { group: group.unwrap_or_default(), direction, value });
        }
    }
    Ok(Extract { stamps, metrics })
}

/// Collect every value matching `segments` under `v`, with its
/// concrete path and the key the first `*` matched.
fn walk<'v>(
    v: &'v Value,
    segments: &[&str],
    path: String,
    group: Option<String>,
    hits: &mut Vec<(String, Option<String>, &'v Value)>,
) -> Result<(), String> {
    let Some((&seg, rest)) = segments.split_first() else {
        hits.push((path, group, v));
        return Ok(());
    };
    let join = |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    if seg == "*" {
        let Value::Map(pairs) = v else {
            return Err(format!("`{path}` is not an object"));
        };
        for (key, child) in pairs {
            walk(child, rest, join(key), group.clone().or_else(|| Some(key.clone())), hits)?;
        }
        Ok(())
    } else {
        let child = v.get(seg).ok_or_else(|| format!("no `{}`", join(seg)))?;
        walk(child, rest, join(seg), group, hits)
    }
}

/// Compare a run against its baseline; one message per failure. A
/// stamp mismatch fails alone, with the remedy, before any metric is
/// compared. Metric-set drift fails both ways, except that baseline
/// groups the run did not measure are skipped when the suite says so.
fn check(suite: &Suite, base: &Extract, cur: &Extract, tolerance: f64) -> Vec<String> {
    let stamp_failures: Vec<String> = suite
        .stamps
        .iter()
        .zip(base.stamps.iter().zip(&cur.stamps))
        .filter(|(_, (b, c))| b != c)
        .map(|(stamp, (b, c))| {
            let field = stamp.field;
            format!(
                "{field} mismatch: baseline was recorded at {field}={b} but this run resolved \
                 {field}={c} — {} for the check, or re-record the baseline",
                stamp.pin.replace("{base}", b)
            )
        })
        .collect();
    if !stamp_failures.is_empty() {
        return stamp_failures;
    }
    let measured = |group: &str| cur.metrics.values().any(|g| g.group == group);
    let mut failures = Vec::new();
    for (path, b) in &base.metrics {
        let Some(c) = cur.metrics.get(path) else {
            if !suite.skip_unmeasured || measured(&b.group) {
                failures.push(format!("{path}: in baseline but no longer measured"));
            }
            continue;
        };
        let (base, cur, t) = (b.value, c.value, tolerance);
        let failure = match b.direction {
            Direction::Lower => (cur > base * (1.0 + t))
                .then(|| format!("limit {} at tolerance {t}", base * (1.0 + t))),
            Direction::Higher => (cur < base / (1.0 + t))
                .then(|| format!("floor {} at tolerance {t}", base / (1.0 + t))),
            Direction::Exact => {
                let within = cur.abs() <= base.abs() * (1.0 + t)
                    && cur.abs() >= base.abs() / (1.0 + t)
                    && cur.signum() == base.signum();
                (!(within || (base == 0.0 && cur == 0.0)))
                    .then(|| format!("two-sided tolerance {t}"))
            }
        };
        if let Some(why) = failure {
            failures.push(format!("{path}: {cur} vs baseline {base} ({why})"));
        }
    }
    for path in cur.metrics.keys().filter(|p| !base.metrics.contains_key(*p)) {
        failures.push(format!("{path}: measured but missing from baseline — regenerate it"));
    }
    failures
}

/// A parsed `--check FILE --tolerance X` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Baseline file to check against.
    pub baseline: String,
    /// Fractional tolerance (finite, ≥ 0).
    pub tolerance: f64,
}

/// The one `--check/--tolerance` parser. No `--check` means no gate;
/// `--tolerance` is required with `--check` and meaningless without it.
pub fn parse_gate(check: Option<&str>, tolerance: Option<&str>) -> Result<Option<Gate>, String> {
    match (check, tolerance) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err("--tolerance needs --check".to_string()),
        (Some(_), None) => Err("--check needs --tolerance (e.g. --tolerance 3.0)".to_string()),
        (Some(path), Some(raw)) => match raw.parse::<f64>() {
            Ok(t) if t >= 0.0 && t.is_finite() => {
                Ok(Some(Gate { baseline: path.to_string(), tolerance: t }))
            }
            _ => Err(format!("--tolerance takes a non-negative number, got {raw:?}")),
        },
    }
}

/// Check `report` against the gate's baseline file and print the
/// verdict. Once the stamps match, every compared metric gets a `trend`
/// line on stdout (signed delta, current and baseline value), worst
/// first for its direction, pass or fail, so a CI log is a perf trend
/// record; then the verdict, with one line per failure on stderr. `Err`
/// means the baseline or the report could not be read.
pub fn gate(suite: &Suite, report: &Value, gate: &Gate) -> Result<bool, String> {
    let path = &gate.baseline;
    let base = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        .and_then(|v| extract(suite, &v))
        .map_err(|e| format!("cannot load baseline {path}: {e}"))?;
    let cur = extract(suite, report).map_err(|e| format!("bad {} report: {e}", suite.name))?;
    let failures = check(suite, &base, &cur, gate.tolerance);
    let mut compared: Vec<(f64, &String, f64, f64)> = cur
        .metrics
        .iter()
        .filter(|_| base.stamps == cur.stamps)
        .filter_map(|(path, c)| {
            let b = base.metrics.get(path)?.value;
            let delta = c.value / b - 1.0;
            let worse = match c.direction {
                Direction::Lower => delta,
                Direction::Higher => -delta,
                Direction::Exact => delta.abs(),
            };
            Some((worse, path, c.value, b))
        })
        .collect();
    compared.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, path, c, b) in &compared {
        println!("  trend {path}: {:+.1}% vs baseline ({c} vs {b})", 100.0 * (c / b - 1.0));
    }
    if !failures.is_empty() {
        eprintln!("{} check FAILED:", suite.name);
        for f in &failures {
            eprintln!("  {f}");
        }
        return Ok(false);
    }
    println!(
        "{} check passed: {} metric(s) within tolerance {}",
        suite.name,
        compared.len(),
        gate.tolerance
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TILES: &str = r#"{"mc": 64, "kc": 48, "nc": 48}"#;

    fn kernels(simd: &str, points: &[(&str, f64)]) -> String {
        let body: Vec<String> = points
            .iter()
            .map(|(k, s)| format!(r#""{k}": {{"seconds": {s}, "gflops": 1}}"#))
            .collect();
        format!(r#"{{"simd": "{simd}", "tiles": {TILES}, "kernels": {{{}}}}}"#, body.join(", "))
    }

    /// `(config, p50_us, p99_us, ops_per_sec)` rows.
    fn fleet(configs: &[(&str, f64, f64, f64)]) -> String {
        let body: Vec<String> = configs
            .iter()
            .map(|(k, p50, p99, ops)| {
                format!(
                    r#""{k}": {{"ops": 4000, "metrics": {{"ops_per_sec": {ops}, "p50_us": {p50}, "p99_us": {p99}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"configs": {{{}}}}}"#, body.join(", "))
    }

    fn tune(metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics.iter().map(|(k, v)| format!(r#""{k}": {v}"#)).collect();
        format!(r#"{{"seed": 42, "metrics": {{{}}}}}"#, body.join(", "))
    }

    fn parse(suite: &Suite, json: &str) -> Result<Extract, String> {
        extract(suite, &serde_json::from_str(json).map_err(|e| e.to_string())?)
    }

    enum Want {
        Pass,
        /// One substring per expected failure line, in order.
        Fail(&'static [&'static str]),
        /// The baseline is rejected; the error contains this.
        Malformed(&'static str),
    }

    #[test]
    fn the_gate_rules_table() {
        let k = |s: f64| kernels("scalar", &[("a", s)]);
        let f = |p50: f64, ops: f64| fleet(&[("s2", p50, 500.0, ops)]);
        let t = |v: f64| tune(&[("X.energy_opt_j", v)]);
        #[rustfmt::skip]
        let rows: Vec<(&str, &Suite, String, String, f64, Want)> = vec![
            // lower: the limit is base·(1+t)
            ("lower at its limit", &KERNELS, k(1.0), k(1.5), 0.5, Want::Pass),
            ("lower just beyond", &KERNELS, k(1.0), k(1.500001), 0.5, Want::Fail(&["kernels.a.seconds: 1.500001 vs baseline 1 (limit 1.5"])),
            ("lower improves", &KERNELS, k(1.0), k(0.001), 0.5, Want::Pass),
            ("lower, fleet latency", &FLEET, f(100.0, 1e4), f(200.0, 1e4), 1.0, Want::Pass),
            ("lower, fleet latency beyond", &FLEET, f(100.0, 1e4), f(200.5, 1e4), 1.0, Want::Fail(&["configs.s2.metrics.p50_us"])),
            // higher: the floor is base/(1+t)
            ("higher at its floor", &FLEET, f(100.0, 1e4), f(100.0, 5e3), 1.0, Want::Pass),
            ("higher just below", &FLEET, f(100.0, 1e4), f(100.0, 4999.0), 1.0, Want::Fail(&["configs.s2.metrics.ops_per_sec: 4999 vs baseline 10000 (floor 5000"])),
            ("higher improves", &FLEET, f(100.0, 1e4), f(1.0, 1e9), 1.0, Want::Pass),
            ("all three fleet metrics regress", &FLEET, fleet(&[("s2", 100.0, 500.0, 1e4)]), fleet(&[("s2", 300.0, 1100.0, 4e3)]), 1.0,
                Want::Fail(&["ops_per_sec", "p50_us", "p99_us"])),
            // exact: |base|/(1+t) ≤ |cur| ≤ |base|·(1+t), same sign, or both 0
            ("exact at its upper limit", &TUNE, t(100.0), t(125.0), 0.25, Want::Pass),
            ("exact at its lower limit", &TUNE, t(100.0), t(80.0), 0.25, Want::Pass),
            ("exact just above", &TUNE, t(100.0), t(125.001), 0.25, Want::Fail(&["metrics.X.energy_opt_j: 125.001 vs baseline 100 (two-sided"])),
            ("exact just below", &TUNE, t(100.0), t(79.999), 0.25, Want::Fail(&["metrics.X.energy_opt_j"])),
            ("exact sign flip", &TUNE, t(100.0), t(-100.0), 0.25, Want::Fail(&["metrics.X.energy_opt_j"])),
            ("exact both zero", &TUNE, t(0.0), t(0.0), 0.0, Want::Pass),
            ("exact zero vs tiny", &TUNE, t(0.0), t(1e-300), 0.25, Want::Fail(&["metrics.X.energy_opt_j"])),
            ("exact self-check at zero", &TUNE, t(0.1 + 0.2), t(0.1 + 0.2), 0.0, Want::Pass),
            // set drift fails both ways
            ("kernel set drift", &KERNELS, kernels("scalar", &[("a", 1.0), ("gone", 1.0)]), kernels("scalar", &[("a", 1.0), ("new", 1.0)]), 0.5,
                Want::Fail(&["kernels.gone.seconds: in baseline but no longer measured", "kernels.new.seconds: measured but missing from baseline"])),
            ("tune set drift", &TUNE, tune(&[("x", 1.0), ("gone", 1.0)]), tune(&[("x", 1.0), ("new", 1.0)]), 0.1,
                Want::Fail(&["metrics.gone: in baseline", "metrics.new: measured but missing"])),
            // fleet: unmeasured baseline configs are skipped ...
            ("fleet skips unmeasured configs", &FLEET, fleet(&[("s2", 100.0, 500.0, 1e4), ("s8", 1.0, 1.0, 1e9)]), fleet(&[("s2", 100.0, 500.0, 1e3)]), 1.0,
                Want::Fail(&["configs.s2.metrics.ops_per_sec"])),
            // ... but a measured config the baseline lacks fails.
            ("fleet novel config", &FLEET, fleet(&[("s2", 100.0, 500.0, 1e4)]), fleet(&[("s4", 100.0, 500.0, 1e4)]), 1.0,
                Want::Fail(&["configs.s4.metrics.ops_per_sec: measured but missing", "configs.s4.metrics.p50_us: measured", "configs.s4.metrics.p99_us: measured"])),
            // stamps refuse first, naming the pin, whatever the metrics say
            ("simd stamp", &KERNELS, kernels("fma", &[("a", 1.0)]), kernels("scalar", &[("a", 9.0)]), 0.5,
                Want::Fail(&["simd mismatch: baseline was recorded at simd=fma but this run resolved simd=scalar — pin HPCEVAL_SIMD=fma"])),
            ("tiles stamp", &KERNELS, kernels("scalar", &[("a", 1.0)]).replace("\"mc\": 64", "\"mc\": 96"), k(1.0), 0.5,
                Want::Fail(&[r#"tiles mismatch: baseline was recorded at tiles={"mc":96,"kc":48,"nc":48} but this run resolved tiles={"mc":64,"kc":48,"nc":48} — pin the HPCEVAL_SPEC preset"#])),
            // malformed baselines are rejected, not half-read
            ("no simd stamp", &KERNELS, format!(r#"{{"tiles": {TILES}, "kernels": {{}}}}"#), k(1.0), 0.5, Want::Malformed("no `simd` stamp")),
            ("no tiles stamp", &KERNELS, r#"{"simd": "scalar", "kernels": {}}"#.into(), k(1.0), 0.5, Want::Malformed("no `tiles` stamp")),
            ("no kernels", &KERNELS, format!(r#"{{"simd": "scalar", "tiles": {TILES}}}"#), k(1.0), 0.5, Want::Malformed("no `kernels`")),
            ("kernels not an object", &KERNELS, format!(r#"{{"simd": "scalar", "tiles": {TILES}, "kernels": 3}}"#), k(1.0), 0.5, Want::Malformed("`kernels` is not an object")),
            ("kernel without seconds", &KERNELS, format!(r#"{{"simd": "scalar", "tiles": {TILES}, "kernels": {{"a": {{"gflops": 1}}}}}}"#), k(1.0), 0.5, Want::Malformed("no `kernels.a.seconds`")),
            ("empty fleet file", &FLEET, "{}".into(), f(1.0, 1.0), 1.0, Want::Malformed("no `configs`")),
            ("legacy fleet file", &FLEET, r#"{"metrics": {"p50_us": 471.4}}"#.into(), f(1.0, 1.0), 1.0, Want::Malformed("no `configs`")),
            ("configs not an object", &FLEET, r#"{"configs": 3}"#.into(), f(1.0, 1.0), 1.0, Want::Malformed("`configs` is not an object")),
            ("config without metrics", &FLEET, r#"{"configs": {"s2": {}}}"#.into(), f(1.0, 1.0), 1.0, Want::Malformed("no `configs.s2.metrics`")),
            ("non-numeric fleet metric", &FLEET, r#"{"configs": {"s2": {"metrics": {"p50_us": "fast", "p99_us": 1, "ops_per_sec": 1}}}}"#.into(), f(1.0, 1.0), 1.0, Want::Malformed("`configs.s2.metrics.p50_us` is not numeric")),
            ("tune metrics not an object", &TUNE, r#"{"metrics": 3}"#.into(), t(1.0), 0.0, Want::Malformed("`metrics` is not an object")),
            ("non-numeric tune metric", &TUNE, r#"{"metrics": {"x": "fast"}}"#.into(), t(1.0), 0.0, Want::Malformed("`metrics.x` is not numeric")),
        ];
        for (what, suite, base, cur, tolerance, want) in rows {
            let cur = parse(suite, &cur).unwrap();
            let base = parse(suite, &base);
            match (want, base) {
                (Want::Pass, Ok(base)) => {
                    let failures = check(suite, &base, &cur, tolerance);
                    assert!(failures.is_empty(), "{what}: {failures:?}");
                }
                (Want::Fail(expected), Ok(base)) => {
                    let failures = check(suite, &base, &cur, tolerance);
                    assert_eq!(failures.len(), expected.len(), "{what}: {failures:?}");
                    for (got, want) in failures.iter().zip(expected) {
                        assert!(got.contains(want), "{what}: {got:?} lacks {want:?}");
                    }
                }
                (Want::Malformed(expected), Err(e)) => {
                    assert!(e.contains(expected), "{what}: {e:?} lacks {expected:?}")
                }
                (_, base) => panic!("{what}: baseline read as {base:?}"),
            }
        }
    }

    #[test]
    fn committed_baselines_self_check_at_zero_tolerance() {
        for (suite, json, gated) in [
            (&KERNELS, include_str!("../BENCH_kernels.json"), 15),
            (&FLEET, include_str!("../BENCH_fleet.json"), 9),
            (&TUNE, include_str!("../BENCH_tune.json"), 12),
        ] {
            let base = parse(suite, json).unwrap();
            assert_eq!(base.metrics.len(), gated, "{}", suite.name);
            assert!(check(suite, &base, &base, 0.0).is_empty(), "{}", suite.name);
        }
    }

    #[test]
    fn check_and_tolerance_come_as_a_pair() {
        assert_eq!(parse_gate(None, None), Ok(None));
        assert_eq!(
            parse_gate(Some("b.json"), Some("3.0")),
            Ok(Some(Gate { baseline: "b.json".into(), tolerance: 3.0 }))
        );
        assert_eq!(parse_gate(Some("b.json"), Some("0")).unwrap().unwrap().tolerance, 0.0);
        for (check, tolerance) in [
            (Some("b.json"), None),
            (None, Some("1")),
            (Some("b.json"), Some("-1")),
            (Some("b.json"), Some("nan")),
            (Some("b.json"), Some("inf")),
            (Some("b.json"), Some("lots")),
        ] {
            assert!(parse_gate(check, tolerance).is_err(), "{check:?} {tolerance:?}");
        }
        assert!(suite("kernels").is_some() && suite("scaling").is_none());
    }
}
