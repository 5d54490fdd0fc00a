//! perfbench — the end-to-end and per-layer benchmark of hpceval.
//!
//! ```text
//! perfbench --workload <kernels|trace_model|fleet_status|fleet_sweep|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <dir> [<dir>]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). An untraced run drives closed-loop
//! ops for `--seconds` in several slices, each on a fresh set-up, and
//! prints the end-to-end metrics; `--workload all` runs each workload
//! that way in a child process of its own. A traced run is the same
//! whatever `--workload` names, `all` included: it sets up every
//! workload and, for `--seconds`, repeats rounds of one untraced and
//! one traced op of each, plus direct probes of single layers; it
//! prints every per-layer metric and writes its spans to
//! `.perfbench/spans-<workload>-seed<n>.jsonl`. Human-readable tables
//! go to stderr; the last stdout line is the JSON result.

mod compare;
mod report;
mod spans;
mod stamp;
mod stats;
mod work;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde::Value;

use report::{Layers, Metric};
use spans::Tracer;
use stamp::Stamp;
use work::fleet_status::FleetStatus;
use work::fleet_sweep::FleetSweep;
use work::kernels::Kernels;
use work::trace_model::TraceModel;
use work::{Ctx, Ops, Workload};

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["kernels", "trace_model", "fleet_status", "fleet_sweep"];

const USAGE: &str = "usage: perfbench --workload <kernels|trace_model|fleet_status|fleet_sweep|all> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <dir> [<dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// The scratch directory of one run, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What an untraced run measured.
struct Untraced {
    setup_s: Vec<f64>,
    ops: Ops,
}

/// Split the `seconds` of timed ops into `W::SETUPS` slices, each run
/// on a fresh set-up. The host's speed drifts over seconds; set-ups
/// spread over the whole run average that drift as the ops do, where
/// set-ups packed at its start would sample a single moment. Set-ups
/// are not ops: throughput counts only the slices' op windows.
fn run_untraced<W: Workload>(ctx: &Ctx, seconds: u64) -> Result<Untraced, String> {
    W::prepare(ctx)?;
    // rss_mb is the peak of set-up and ops, not of the untimed fixture
    // generation.
    stamp::reset_peak_rss()?;
    let slice = Duration::from_secs_f64(seconds as f64 / W::SETUPS as f64);
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut ops = Ops::default();
    for _ in 0..W::SETUPS {
        let (w, secs) = work::timed(|| W::setup(ctx));
        let mut w = w?;
        setup_s.push(secs);
        ops.merge(w.drive(Instant::now() + slice));
        w.close()?;
    }
    Ok(Untraced { setup_s, ops })
}

/// Every workload, set up once, traced round-robin for `seconds`.
fn run_traced(ctx: &Ctx, seconds: u64) -> Result<(Ops, Layers, Tracer), String> {
    TraceModel::prepare(ctx)?;
    Kernels::prepare(ctx)?;
    FleetStatus::prepare(ctx)?;
    FleetSweep::prepare(ctx)?;
    let mut kernels = Kernels::setup(ctx)?;
    let mut trace_model = TraceModel::setup(ctx)?;
    let mut fleet_status = FleetStatus::setup(ctx)?;
    let mut fleet_sweep = FleetSweep::setup(ctx)?;
    let (mut tr, mut layers, mut ops) = (Tracer::new(), Layers::default(), Ops::default());
    let start = Instant::now();
    loop {
        ops.merge(kernels.traced_round(&mut tr, &mut layers));
        ops.merge(trace_model.traced_round(&mut tr, &mut layers));
        ops.merge(fleet_status.traced_round(&mut tr, &mut layers));
        ops.merge(fleet_sweep.traced_round(&mut tr, &mut layers));
        if start.elapsed().as_secs() >= seconds {
            break;
        }
    }
    ops.window_s = start.elapsed().as_secs_f64();
    kernels.finish_layers(&tr, &mut layers);
    trace_model.finish_layers(&tr, &mut layers);
    fleet_status.finish_layers(&tr, &mut layers);
    fleet_sweep.finish_layers(&tr, &mut layers);
    for w in WORKLOADS {
        let traced = stats::median(&tr.durations(&format!("{w}.op")));
        if let (Some(traced), Some(plain)) = (traced, layers.median(&format!("untraced.{w}"))) {
            layers.sample(format!("overhead.{w}"), traced / plain);
        }
    }
    for w in report::COVERED {
        if let Some(c) = stats::median(&tr.coverage(&format!("{w}.op"))) {
            layers.sample(format!("coverage.{w}"), c);
        }
    }
    kernels.close()?;
    trace_model.close()?;
    fleet_status.close()?;
    fleet_sweep.close()?;
    Ok((ops, layers, tr))
}

fn untraced_metrics(u: &Untraced) -> Vec<Metric> {
    let ops = &u.ops;
    let value = |name: &str| match name {
        "setup_s" => stats::median(&u.setup_s),
        "p50_ms" => stats::median(&ops.lat_s).map(|s| s * 1e3),
        "throughput" => Some(ops.attempted as f64 / ops.window_s),
        "pass_share" => Some(stats::pass_share(ops.attempted, ops.failed)),
        "rss_mb" => stamp::peak_rss_mb(),
        _ => None,
    };
    report::end_to_end_catalog()
        .into_iter()
        .filter_map(|(name, unit)| Some(Metric { unit, value: value(&name)?, name }))
        .collect()
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let root = Path::new(".perfbench");
    let work = WorkDir(root.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(work.0.join("wal"))
        .map_err(|e| format!("{}: {e}", work.0.display()))?;
    let work_abs = work.0.canonicalize().map_err(|e| e.to_string())?;
    // run_sweep puts its temporary WALs under the temp dir; keep them
    // inside the checkout, in the directory each op checks is empty.
    // Set before any thread starts.
    std::env::set_var("TMPDIR", work_abs.join("wal"));
    let ctx = Ctx { seed: args.seed, work: work_abs.clone() };
    let stamp = Stamp::capture(&ctx.wal_dir());
    let w = args.workload.as_str();
    eprintln!(
        "perfbench {w} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );

    let (ops, metrics, setup_s, p90_ms, correct) = if args.trace {
        let (ops, layers, tr) = run_traced(&ctx, args.seconds)?;
        let spans = root.join(format!("spans-{w}-seed{}.jsonl", args.seed));
        tr.write_jsonl(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        eprintln!("self time per span, median over spans (ms):");
        for (name, selfs) in tr.self_times() {
            let med = stats::median(&selfs).unwrap_or(0.0);
            eprintln!("  {name:<34} {:>12.4}  x{}", med * 1e3, selfs.len());
        }
        for m in &layers.mismatches {
            eprintln!("exact count changed between rounds: {m}");
        }
        let metrics = layers.finish(&report::per_layer_catalog()).map_err(|missing| {
            format!("traced run produced no value for {}", missing.join(", "))
        })?;
        let correct = layers.mismatches.is_empty();
        (ops, metrics, Vec::new(), None, correct)
    } else {
        let u = match w {
            "kernels" => run_untraced::<Kernels>(&ctx, args.seconds),
            "trace_model" => run_untraced::<TraceModel>(&ctx, args.seconds),
            "fleet_status" => run_untraced::<FleetStatus>(&ctx, args.seconds),
            "fleet_sweep" => run_untraced::<FleetSweep>(&ctx, args.seconds),
            other => Err(format!("no untraced run for workload {other:?}")),
        }?;
        let metrics = untraced_metrics(&u);
        let p90_ms = stats::p90(&u.ops.lat_s).map(|s| s * 1e3);
        (u.ops, metrics, u.setup_s, p90_ms, true)
    };
    let correct = correct && ops.failed == 0;

    eprintln!("{} ops, {} failed, {:.2} s window", ops.attempted, ops.failed, ops.window_s);
    print_metrics(&metrics);
    if !args.trace {
        match p90_ms {
            Some(p90) => eprintln!("  {:<34} {p90:>16.6} ms", "p90_ms"),
            None => {
                eprintln!("  p90_ms omitted: {} ops < {}", ops.lat_s.len(), stats::MIN_OPS_FOR_P90)
            }
        }
    }
    eprintln!("stamp {}", serde_json::to_string(&stamp.to_value()).unwrap_or_default());
    for e in &ops.errors {
        eprintln!("failure: {e}");
    }

    let record = Value::Map(vec![
        ("workload".into(), Value::Str(w.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::UInt(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("stamp".into(), stamp.to_value()),
        ("ops".into(), Value::UInt(ops.attempted)),
        ("setup_samples_s".into(), Value::Seq(setup_s.into_iter().map(Value::Float).collect())),
        ("p90_ms".into(), p90_ms.map_or(Value::Null, Value::Float)),
        ("errors".into(), Value::Seq(ops.errors.iter().cloned().map(Value::Str).collect())),
    ]);
    let record = Value::Map(vec![("record".into(), record)]);
    println!("{}", serde_json::to_string(&record).map_err(|e| e.to_string())?);
    println!("{}", report::result_line(correct, ops.attempted, ops.failed, &metrics));
    Ok(())
}

/// Run every workload untraced in a child process of its own (so each
/// gets its own peak RSS), passing the same seed and seconds.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let result = serde_json::from_str(last).map_err(|_| format!("{w} printed no result"))?;
        all_correct &=
            out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Map(metrics)) = result.get("metrics") {
            combined.extend(metrics.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
    }
    let summary = Value::Map(vec![
        ("correct".into(), Value::Bool(all_correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(combined)),
    ]);
    println!("{}", serde_json::to_string(&summary).map_err(|e| e.to_string())?);
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if (2..=3).contains(&args.len()) => {
            compare::run(&args[1..]).map(|()| ExitCode::SUCCESS)
        }
        _ => match parse_args(&args) {
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(a) if a.workload == "all" && !a.trace => run_all(&a),
            Ok(a) => run_one(&a).map(|()| ExitCode::SUCCESS),
        },
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose untimed preparation alone touches `HOG_MIB`.
    struct Hog;

    const HOG_MIB: usize = 192;

    impl Workload for Hog {
        const SETUPS: usize = 1;

        fn prepare(_ctx: &Ctx) -> Result<(), String> {
            let hog = vec![1u8; HOG_MIB << 20];
            std::hint::black_box(&hog);
            drop(hog);
            match stamp::peak_rss_mb() {
                Some(peak) if peak >= HOG_MIB as f64 => Ok(()),
                peak => Err(format!("preparation peaked at {peak:?} MiB")),
            }
        }

        fn setup(_ctx: &Ctx) -> Result<Self, String> {
            Ok(Hog)
        }

        fn drive(&mut self, _deadline: Instant) -> Ops {
            let mut ops = Ops::default();
            ops.record(1e-3, Ok(()));
            ops.window_s = 1e-3;
            ops
        }

        fn traced_round(&mut self, _tr: &mut Tracer, _layers: &mut Layers) -> Ops {
            unreachable!("Hog is never traced")
        }

        fn finish_layers(&self, _tr: &Tracer, _layers: &mut Layers) {}
    }

    #[test]
    fn rss_mb_excludes_the_untimed_preparation() {
        let ctx = Ctx { seed: 1, work: PathBuf::from(".") };
        let u = run_untraced::<Hog>(&ctx, 1).expect("Hog runs");
        let rss = untraced_metrics(&u).into_iter().find(|m| m.name == "rss_mb");
        let rss = rss.expect("rss_mb is reported").value;
        assert!(rss < (HOG_MIB / 2) as f64, "rss_mb {rss} MiB includes the preparation");
    }
}
