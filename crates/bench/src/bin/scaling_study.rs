//! Record the thread-scaling baseline of the parallel hot paths.
//!
//! Runs the two dense HPCC paths — DGEMM (n = 768) and HPL LU
//! (n = 512) — plus one NPB program per parallel-decomposition family:
//! FT (batched line FFTs + tiled transposes), CG (fixed-chunk reduction
//! dot products), MG (elementwise grid sweeps) and LU (hyperplane
//! wavefront), across a sweep of logical widths — `--widths 1,2,4,8` to
//! choose them, default 1/2/4/max (the same sweep as
//! `benches/scaling.rs`) — and writes `BENCH_scaling.json` at the repo
//! root: best-of-3 wall time, GFLOP/s and speedup vs the 1-thread run
//! for every (kernel, width) point, plus the host's
//! `available_parallelism` the numbers were taken on. On a host with a
//! single hardware thread the speedup column is withheld (`null`, with
//! a `single_hw_thread` flag in the report) — one core cannot
//! demonstrate scaling. Pass `--json` to print the report to stdout
//! instead of (in addition to) the table.

use std::process::ExitCode;
use std::time::Instant;

use hpceval_bench::{heading, json_requested};
use hpceval_kernels::fft::Direction;
use hpceval_kernels::hpcc::dgemm::dgemm;
use hpceval_kernels::hpl::lu;
use hpceval_kernels::npb::ft::{fft3_with, Field3, FtWorkspace};
use hpceval_kernels::npb::lu::SsorProblem;
use hpceval_kernels::npb::{cg, mg};
use hpceval_kernels::rng::NpbRng;
use serde::Serialize;

const DGEMM_N: usize = 768;
const LU_N: usize = 512;

#[derive(Serialize)]
struct Point {
    kernel: &'static str,
    n: usize,
    threads: usize,
    seconds: f64,
    gflops: f64,
    /// `null` on a single-hardware-thread host: every width shares one
    /// core there, so a ratio of their times measures scheduler overhead,
    /// not scaling, and reporting it as "speedup" would be dishonest.
    speedup_vs_1t: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the context every speedup number must be read against.
    available_parallelism: usize,
    /// Measurement caveats; contains `"single_hw_thread"` when the host
    /// exposes one hardware thread (speedups are withheld).
    flags: Vec<&'static str>,
    /// The widths this run actually swept.
    widths: Vec<usize>,
    note: &'static str,
    points: Vec<Point>,
}

/// Best of three runs (the usual HPC convention for scaling tables:
/// minimum filters scheduler noise better than the mean).
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn default_widths() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = vec![1, 2, 4, max];
    w.sort_unstable();
    w.dedup();
    w
}

/// The sweep widths: `--widths 1,2,4,8` when given, else the default
/// 1/2/4/max list. `Err` carries the usage message.
fn parse_widths(args: &[String]) -> Result<Vec<usize>, String> {
    let Some(pos) = args.iter().position(|a| a == "--widths") else {
        return Ok(default_widths());
    };
    let raw = args
        .get(pos + 1)
        .ok_or("--widths needs a comma-separated list, e.g. --widths 1,2,4,8")?;
    let mut widths = raw
        .split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(w) if w >= 1 => Ok(w),
            _ => Err(format!("bad width {part:?} in --widths {raw:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    widths.sort_unstable();
    widths.dedup();
    if widths.is_empty() {
        return Err("--widths list is empty".to_string());
    }
    Ok(widths)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let widths = match parse_widths(&args) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: scaling_study [--widths 1,2,4,8] [--json]");
            return ExitCode::FAILURE;
        }
    };
    heading("Scaling", "HPCC dense paths and NPB programs: wall time vs thread count");

    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One hardware thread cannot demonstrate scaling: all widths time-
    // share a single core, so width-to-width ratios are noise. Withhold
    // the speedup column instead of publishing sub-1.0 "speedups".
    let speedup = |base: f64, secs: f64| (hw_threads > 1).then(|| base / secs);

    let mut points = Vec::new();

    let n = DGEMM_N;
    let mut rng = NpbRng::new(17);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let flops = 2.0 * (n as f64).powi(3);
    let mut base = f64::NAN;
    for &t in &widths {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        let mut c = vec![0.0; n * n];
        let secs = best_of_3(|| pool.install(|| dgemm(n, 1.0, &a, &b, 0.0, &mut c)));
        if base.is_nan() {
            base = secs; // the sweep's narrowest width anchors speedup
        }
        points.push(Point {
            kernel: "dgemm",
            n,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    let n = LU_N;
    let a = lu::Matrix::random(n, 5);
    let flops = 2.0 * (n as f64).powi(3) / 3.0;
    let mut base = f64::NAN;
    for &t in &widths {
        let secs = best_of_3(|| {
            lu::factor(a.clone(), 32, t).expect("nonsingular");
        });
        if base.is_nan() {
            base = secs;
        }
        points.push(Point {
            kernel: "hpl_lu",
            n,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    // NPB FT: batched line FFTs and tiled transposes through one
    // persistent workspace (allocation-free after warm-up).
    let (nx, ny, nz) = (64usize, 64, 32);
    let mut f = Field3::random(nx, ny, nz, 19);
    let mut ws = FtWorkspace::new(nx, ny, nz);
    let pts = (nx * ny * nz) as f64;
    let flops = 2.0 * 5.0 * pts * pts.log2();
    let mut base = f64::NAN;
    for &t in &widths {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        let secs = best_of_3(|| {
            pool.install(|| {
                fft3_with(&mut f, Direction::Forward, &mut ws);
                fft3_with(&mut f, Direction::Inverse, &mut ws);
            })
        });
        if base.is_nan() {
            base = secs;
        }
        points.push(Point {
            kernel: "npb_ft",
            n: nx * ny * nz,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    // NPB CG: sparse matvecs with fixed-chunk deterministic dot products.
    let n = 6000;
    let flops = 2.0 * 25.0 * (n as f64) * 64.0;
    let mut base = f64::NAN;
    for &t in &widths {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        let secs = best_of_3(|| {
            pool.install(|| {
                cg::run(n, 8, 2, 12.0);
            })
        });
        if base.is_nan() {
            base = secs;
        }
        points.push(Point {
            kernel: "npb_cg",
            n,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    // NPB MG: elementwise smooth/residual/transfer sweeps down a
    // recursive workspace.
    let n = 64;
    let v = mg::Grid::random_rhs(n, 41);
    let mut u = mg::Grid::zeros(n);
    let mut mg_ws = mg::MgWorkspace::new(n);
    let flops = 60.0 * (n as f64).powi(3);
    let mut base = f64::NAN;
    for &t in &widths {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        let secs = best_of_3(|| {
            pool.install(|| {
                mg::v_cycle_with(&mut u, &v, &mut mg_ws);
            })
        });
        if base.is_nan() {
            base = secs;
        }
        points.push(Point {
            kernel: "npb_mg",
            n: n * n * n,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    // NPB LU: Gauss-Seidel SSOR parallelized over x+y+z hyperplanes.
    let n = 24;
    let prob = SsorProblem::new(n, 7);
    let mut rng = NpbRng::new(11);
    let b: Vec<[f64; 5]> = (0..n * n * n)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let mut u = vec![[0.0f64; 5]; n * n * n];
    let flops = 1820.0 * (n as f64).powi(3);
    let mut base = f64::NAN;
    for &t in &widths {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        let secs = best_of_3(|| {
            pool.install(|| {
                prob.ssor_step(&mut u, &b, 1.2);
            })
        });
        if base.is_nan() {
            base = secs;
        }
        points.push(Point {
            kernel: "npb_lu",
            n: n * n * n,
            threads: t,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup_vs_1t: speedup(base, secs),
        });
    }

    let report = Report {
        available_parallelism: hw_threads,
        flags: if hw_threads == 1 { vec!["single_hw_thread"] } else { Vec::new() },
        widths: widths.clone(),
        note: "best-of-3 wall time per point; speedup is relative to the narrowest width \
               in the sweep on the same host, and is withheld (null, flagged \
               single_hw_thread) when available_parallelism == 1 because width-to-width \
               ratios on one core measure scheduler overhead, not scaling",
        points,
    };

    let json = serde_json::to_string_pretty(&report).expect("serializable");
    if json_requested() {
        println!("{json}");
    } else {
        println!(
            "{:>8} {:>6} {:>9} {:>11} {:>11} {:>9}",
            "kernel", "n", "threads", "seconds", "GFLOP/s", "speedup"
        );
        for p in &report.points {
            let speedup = p.speedup_vs_1t.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
            println!(
                "{:>8} {:>6} {:>9} {:>11.4} {:>11.3} {:>9}",
                p.kernel, p.n, p.threads, p.seconds, p.gflops, speedup
            );
        }
        std::fs::write("BENCH_scaling.json", json + "\n").expect("write BENCH_scaling.json");
        println!(
            "\nwrote BENCH_scaling.json (host available_parallelism {})",
            report.available_parallelism
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_widths;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn widths_flag_is_parsed_sorted_and_deduped() {
        assert_eq!(parse_widths(&args(&["--widths", "8,1,4,2,4"])).unwrap(), vec![1, 2, 4, 8]);
        assert_eq!(parse_widths(&args(&["--json"])).unwrap(), super::default_widths());
    }

    #[test]
    fn malformed_widths_are_rejected() {
        for bad in [&["--widths"][..], &["--widths", "1,zero"][..], &["--widths", "0"][..]] {
            assert!(parse_widths(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
