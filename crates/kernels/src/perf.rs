//! The kernel-perf suite: every NPB program and every HPCC kernel timed
//! at pinned, scaled sizes (best-of-N wall time, so scheduler noise is
//! filtered the same way the scaling study filters it).
//!
//! [`measure`] returns the `BENCH_kernels.json` report: per-kernel
//! seconds and a nominal GFLOP/s, plus the thread width,
//! `available_parallelism`, SIMD tier and DGEMM tile plan the numbers
//! were taken under. `hpceval bench kernels` prints it and gates it
//! against the committed baseline (seconds only, lower is better; the
//! SIMD tier and tile plan must match first). The committed baseline is
//! recorded at `HPCEVAL_SIMD=scalar` so it stays comparable across hosts
//! with and without AVX2 — see DESIGN.md §13.
//!
//! The GFLOP/s column uses nominal operation counts (NPB reported-op
//! conventions scaled to the pinned grids); for the integer kernels
//! (is, random_access) it is Gop/s and for b_eff it is effective GB/s.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use crate::fft::{fft_batched_with, Direction, TwiddleTable, C64};
use crate::hpcc::dgemm::{dgemm_with, DgemmWorkspace};
use crate::hpcc::{beff, ptrans, random_access, stream};
use crate::hpl::lu as hpl_lu;
use crate::npb::ft::{fft3_with, Field3, FtWorkspace};
use crate::npb::lu::SsorProblem;
use crate::npb::{bt, cg, ep, is, mg, sp};
use crate::rng::NpbRng;
use crate::tile::TilePlan;

/// Timed runs per kernel; the minimum is reported.
pub const BEST_OF: u32 = 3;

/// One kernel's best-of-N time and nominal rate.
#[derive(Debug, Serialize, Clone, Copy)]
pub struct KernelPoint {
    /// Best-of-N wall seconds.
    pub seconds: f64,
    /// Nominal GFLOP/s (Gop/s for the integer kernels, GB/s for b_eff).
    pub gflops: f64,
}

/// The DGEMM blocking the run used, straight from
/// [`TilePlan::active`] — recorded so a baseline pins not just *how
/// fast* but *under which plan* the numbers were taken.
#[derive(Debug, Serialize, Clone, Copy)]
pub struct TileInfo {
    /// Rows of A per packed block.
    pub mc: usize,
    /// Shared inner dimension per packed block.
    pub kc: usize,
    /// Columns of B per packed block.
    pub nc: usize,
}

/// One run of the suite, JSON-shaped for `BENCH_kernels.json`.
#[derive(Debug, Serialize)]
pub struct Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub available_parallelism: usize,
    /// Effective executor width (HPCEVAL_THREADS pin included).
    pub threads: usize,
    /// Resolved SIMD path (`HPCEVAL_SIMD` pin or auto-detect).
    pub simd: String,
    /// Active DGEMM tile plan (`HPCEVAL_SPEC` pin or reference geometry).
    pub tiles: TileInfo,
    /// Timed runs per kernel.
    pub best_of: u32,
    /// What the numbers mean.
    pub note: String,
    /// Kernel name → its measurement.
    pub kernels: BTreeMap<String, KernelPoint>,
}

fn best_of(runs: u32, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run the full suite at the pinned sizes.
pub fn measure() -> Report {
    let mut kernels = BTreeMap::new();
    let mut put = |name: &str, seconds: f64, ops: f64| {
        kernels.insert(name.to_string(), KernelPoint { seconds, gflops: ops / seconds / 1e9 });
    };

    // --- HPCC ------------------------------------------------------
    {
        let n = 384;
        let mut rng = NpbRng::new(17);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut c = vec![0.0; n * n];
        // Warm workspace: measure the allocation-free hot path.
        let mut ws = DgemmWorkspace::new(n);
        let secs = best_of(BEST_OF, || dgemm_with(n, 1.0, &a, &b, 0.0, &mut c, &mut ws));
        put("hpcc_dgemm", secs, 2.0 * (n as f64).powi(3));
    }
    {
        let n = 384;
        let a = hpl_lu::Matrix::random(n, 5);
        let threads = rayon::current_num_threads();
        let secs = best_of(BEST_OF, || {
            hpl_lu::factor(a.clone(), 32, threads).expect("nonsingular");
        });
        put("hpcc_hpl", secs, 2.0 * (n as f64).powi(3) / 3.0);
    }
    {
        // Cache-resident arrays (3×8 KiB) cycled many times: at the
        // DRAM-bound full size the wall time measures the host's memory
        // bus, which a code change cannot regress — resident, it
        // measures the kernel's compute path (and shows the SIMD
        // speedup), which is exactly what this harness gates.
        let (n, reps) = (1 << 10, 2000u32);
        let secs = best_of(BEST_OF, || {
            stream::run(n, reps);
        });
        // copy 0 + scale 1 + add 1 + triad 2 flops per element per rep.
        put("hpcc_stream", secs, 4.0 * n as f64 * f64::from(reps));
    }
    {
        let (n, reps) = (768usize, 8);
        let mut rng = NpbRng::new(23);
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64()).collect();
        let mut a = vec![0.0; n * n];
        let secs = best_of(BEST_OF, || {
            for _ in 0..reps {
                ptrans::add_transpose(n, &mut a, &b);
            }
        });
        put("hpcc_ptrans", secs, (n * n * reps) as f64);
    }
    {
        let (log2_table, updates) = (22u32, 1u64 << 21);
        let secs = best_of(BEST_OF, || {
            random_access::run(log2_table, updates, 1);
        });
        put("hpcc_random_access", secs, updates as f64);
    }
    {
        let (line, lines) = (4096usize, 64usize);
        let table = TwiddleTable::new(line);
        let mut rng = NpbRng::new(29);
        let mut data: Vec<C64> =
            (0..line * lines).map(|_| C64::new(rng.next_f64() - 0.5, 0.0)).collect();
        let secs = best_of(BEST_OF, || {
            fft_batched_with(&table, &mut data, Direction::Forward);
        });
        put("hpcc_fft", secs, 5.0 * (line * lines) as f64 * (line as f64).log2());
    }
    {
        let b = beff::Beff { max_log2_size: 18, reps: 16 };
        let secs = best_of(BEST_OF, || {
            beff::run(b.max_log2_size, b.reps);
        });
        // Effective GB/s, not flops: b_eff moves bytes.
        put("hpcc_beff", secs, b.total_bytes());
    }

    // --- NPB -------------------------------------------------------
    {
        let threads = rayon::current_num_threads();
        let m = 19u32;
        let secs = best_of(BEST_OF, || {
            ep::run(m, threads);
        });
        put("npb_ep", secs, 20.0 * (1u64 << m) as f64);
    }
    {
        let (n, nonzer, niter, shift) = (2000usize, 7u32, 2u32, 12.0);
        let secs = best_of(BEST_OF, || {
            cg::run(n, nonzer, niter, shift);
        });
        // ~25 inner CG iterations per outer step, matvec-dominated.
        let nnz = n as f64 * f64::from(nonzer).powi(2);
        put("npb_cg", secs, f64::from(niter) * 25.0 * (2.0 * nnz + 12.0 * n as f64));
    }
    {
        let (nx, ny, nz) = (64usize, 32, 32);
        let mut ws = FtWorkspace::new(nx, ny, nz);
        let mut f = Field3::random(nx, ny, nz, 31);
        let pts = (nx * ny * nz) as f64;
        let secs = best_of(BEST_OF, || {
            fft3_with(&mut f, Direction::Forward, &mut ws);
            fft3_with(&mut f, Direction::Inverse, &mut ws);
        });
        put("npb_ft", secs, 2.0 * 5.0 * pts * pts.log2());
    }
    {
        let (log2_keys, log2_max) = (22u32, 13u32);
        let keys = is::generate_keys(1usize << log2_keys, 1u32 << log2_max, 37);
        let secs = best_of(BEST_OF, || {
            is::rank_keys(&keys, 1 << log2_max);
        });
        put("npb_is", secs, (1u64 << log2_keys) as f64);
    }
    {
        let n = 64usize;
        let v = mg::Grid::random_rhs(n, 41);
        let mut u = mg::Grid::zeros(n);
        let mut ws = mg::MgWorkspace::new(n);
        let secs = best_of(BEST_OF, || {
            mg::v_cycle_with(&mut u, &v, &mut ws);
        });
        // ~4 smooths + residual + grid transfers, coarse levels ≈ 8/7.
        put("npb_mg", secs, 60.0 * (n * n * n) as f64);
    }
    {
        let n = 20usize;
        let prob = bt::AdiProblem::new(n, 43);
        let mut rng = NpbRng::new(44);
        let b: Vec<[f64; 5]> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0f64; 5]; n * n * n];
        let secs = best_of(BEST_OF, || {
            prob.adi_step(&mut u, &b);
        });
        put("npb_bt", secs, bt::FLOPS_PER_POINT_STEP * (n * n * n) as f64);
    }
    {
        let n = 24usize;
        let prob = sp::SpProblem::new(n, 47);
        let mut rng = NpbRng::new(48);
        let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
        let mut u = vec![0.0f64; n * n * n * 5];
        let secs = best_of(BEST_OF, || {
            prob.adi_step(&mut u, &b);
        });
        put("npb_sp", secs, sp::FLOPS_PER_POINT_STEP * (n * n * n) as f64);
    }
    {
        let n = 24usize;
        let prob = SsorProblem::new(n, 53);
        let mut rng = NpbRng::new(54);
        let b: Vec<[f64; 5]> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0f64; 5]; n * n * n];
        let secs = best_of(BEST_OF, || {
            prob.ssor_step(&mut u, &b, 1.2);
        });
        // Official LU.A reported ops per point per step.
        put("npb_lu", secs, 1820.0 * (n * n * n) as f64);
    }

    let plan = TilePlan::active();
    Report {
        available_parallelism: std::thread::available_parallelism().map_or(1, |v| v.get()),
        threads: rayon::current_num_threads(),
        simd: crate::simd::mode().label().to_string(),
        tiles: TileInfo { mc: plan.mc, kc: plan.kc, nc: plan.nc },
        best_of: BEST_OF,
        note: "best-of-N wall seconds per kernel at pinned scaled sizes; gflops is \
               nominal (Gop/s for is/random_access, GB/s for beff); the regression \
               check compares seconds only"
            .to_string(),
        kernels,
    }
}
