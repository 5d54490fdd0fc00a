//! NPB CG — the Conjugate Gradient kernel.
//!
//! CG estimates the smallest eigenvalue of a large sparse symmetric
//! positive-definite matrix by inverse power iteration: each outer
//! iteration solves `A·z = x` with 25 unpreconditioned conjugate-gradient
//! steps and updates `ζ = λ_shift + 1 / (xᵀz)`. Its irregular sparse
//! matrix-vector products make it the suite's memory-latency stressor.
//!
//! Class parameters (na, nonzer/row seed, outer iterations, shift):
//! A = (14000, 11, 15, 20), B = (75000, 13, 75, 60),
//! C = (150000, 15, 75, 110).
//!
//! The MPI reference implementation replicates substantial per-rank
//! buffers, which is what the paper trips over: cg.C.1 fits the 8 GiB
//! Xeon-E5462 but cg.C.2 and cg.C.4 do not (Fig 3), while cg.C.16 runs
//! within the Opteron's 32 GiB (Fig 4). The signature encodes that.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::simd;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::Class;

// Logical trace addresses of the matvec operands. The row index is the
// chunk id (each row is one rayon item, so the id is width-invariant).
const TRACE_ROWPTR: u64 = 0x1_0000_0000;
const TRACE_COLS: u64 = 0x2_0000_0000;
const TRACE_VALS: u64 = 0x3_0000_0000;
const TRACE_X: u64 = 0x4_0000_0000;
const TRACE_Y: u64 = 0x5_0000_0000;

/// The CG benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Cg {
    class: Class,
}

/// Class parameter tuple.
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// Matrix order.
    pub na: u64,
    /// Nonzeros seeded per row before symmetrization.
    pub nonzer: u32,
    /// Outer (power iteration) steps.
    pub niter: u32,
    /// Eigenvalue shift λ.
    pub shift: f64,
}

impl Cg {
    /// CG at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// Published class parameters.
    pub fn params(&self) -> CgParams {
        match self.class {
            Class::W => CgParams { na: 7_000, nonzer: 8, niter: 15, shift: 12.0 },
            Class::A => CgParams { na: 14_000, nonzer: 11, niter: 15, shift: 20.0 },
            Class::B => CgParams { na: 75_000, nonzer: 13, niter: 75, shift: 60.0 },
            Class::C => CgParams { na: 150_000, nonzer: 15, niter: 75, shift: 110.0 },
        }
    }

    /// Total reported operations (the official NPB Mop counts).
    pub fn reported_flops(&self) -> f64 {
        match self.class {
            Class::W => 3.0e8,
            Class::A => 1.508e9,
            Class::B => 5.489e10,
            Class::C => 1.433e11,
        }
    }
}

/// Compressed sparse row matrix (symmetric positive definite by
/// construction).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Matrix order.
    pub n: usize,
    /// Row start offsets, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices.
    pub cols: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
}

impl SparseMatrix {
    /// Build an NPB-style random sparse SPD matrix: `nonzer` random
    /// off-diagonal entries per row, symmetrized, with a dominant
    /// diagonal (`row_sum + 1`) guaranteeing positive definiteness.
    pub fn npb_like(n: usize, nonzer: u32, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        // Collect symmetric entries in triplet form, then build CSR.
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(n * nonzer as usize * 2);
        for r in 0..n as u32 {
            for _ in 0..nonzer {
                let c = (rng.next_f64() * n as f64) as u32 % n as u32;
                let v = rng.next_f64() - 0.5;
                if c != r {
                    triplets.push((r, c, v));
                    triplets.push((c, r, v));
                }
            }
        }
        // Row counts.
        let mut counts = vec![0usize; n + 1];
        for &(r, _, _) in &triplets {
            counts[r as usize + 1] += 1;
        }
        // +1 slot per row for the diagonal.
        let mut row_ptr = vec![0usize; n + 1];
        for i in 0..n {
            row_ptr[i + 1] = row_ptr[i] + counts[i + 1] + 1;
        }
        let nnz = row_ptr[n];
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor: Vec<usize> = row_ptr[..n].to_vec();
        // Reserve the first slot of each row for the diagonal.
        let diag_pos: Vec<usize> = cursor.clone();
        for c in cursor.iter_mut() {
            *c += 1;
        }
        let mut abs_row_sum = vec![0.0f64; n];
        for (r, c, v) in triplets {
            let at = cursor[r as usize];
            cols[at] = c;
            vals[at] = v;
            cursor[r as usize] += 1;
            abs_row_sum[r as usize] += v.abs();
        }
        for r in 0..n {
            cols[diag_pos[r]] = r as u32;
            vals[diag_pos[r]] = abs_row_sum[r] + 1.0;
        }
        Self { n, row_ptr, cols, vals }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A·x`, rayon-parallel over rows.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        // Every CG step revisits every row; the epoch keeps the per-row
        // traces of successive matvecs apart so replay sees each sweep.
        let tracer = hooks::current(Region::Cg);
        tracer.begin_epoch();
        y.par_iter_mut().enumerate().for_each(|(r, out)| {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut s = 0.0;
            for k in lo..hi {
                s += self.vals[k] * x[self.cols[k] as usize];
            }
            *out = s;
            // Trace the row's stream: row_ptr pair, vals/cols runs, the
            // irregular x gathers (one event each — they are what makes
            // CG the latency stressor), and the y write.
            if let Some(tr) = tracer.chunk(r as u64) {
                let nnz = (hi - lo) as u32;
                tr.record(AccessKind::Read, TRACE_ROWPTR + (r * 8) as u64, 8, 2);
                tr.record(AccessKind::Read, TRACE_VALS + (lo * 8) as u64, 8, nnz);
                tr.record(AccessKind::Read, TRACE_COLS + (lo * 4) as u64, 4, nnz);
                for k in lo..hi {
                    tr.record(AccessKind::Read, TRACE_X + u64::from(self.cols[k]) * 8, 0, 1);
                }
                tr.record(AccessKind::Write, TRACE_Y + (r * 8) as u64, 8, 1);
            }
        });
    }
}

/// One NPB outer iteration: 25 CG steps on `A·z = x`; returns `(z,
/// final residual norm)`.
pub fn cg_solve(a: &SparseMatrix, x: &[f64]) -> (Vec<f64>, f64) {
    let n = a.n;
    let m = simd::mode();
    let mut z = vec![0.0; n];
    let mut r = x.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rho: f64 = dot(m, &r, &r);
    for _ in 0..25 {
        a.matvec(&p, &mut q);
        let alpha = rho / dot(m, &p, &q);
        // Elementwise axpy updates over fixed spans: disjoint writes,
        // width-invariant, and `r + (−α)·q` is bitwise `r − α·q`.
        z.par_chunks_mut(DOT_CHUNK)
            .zip(p.par_chunks(DOT_CHUNK))
            .for_each(|(zc, pc)| simd::axpy(m, zc, pc, alpha));
        r.par_chunks_mut(DOT_CHUNK)
            .zip(q.par_chunks(DOT_CHUNK))
            .for_each(|(rc, qc)| simd::axpy(m, rc, qc, -alpha));
        let rho_new = dot(m, &r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        p.par_chunks_mut(DOT_CHUNK)
            .zip(r.par_chunks(DOT_CHUNK))
            .for_each(|(pc, rc)| simd::xpby(m, pc, rc, beta));
    }
    // NPB reports ‖x − A·z‖ as the residual.
    a.matvec(&z, &mut q);
    let res = x.iter().zip(&q).map(|(xi, qi)| (xi - qi) * (xi - qi)).sum::<f64>().sqrt();
    (z, res)
}

/// Chunk length of the parallel dot product. Fixed (never derived from
/// the pool width) so the float summation tree — the strided-4 SIMD
/// contract within a chunk, partials combined in chunk order — rounds
/// identically at any width and on either SIMD path.
const DOT_CHUNK: usize = 4096;

fn dot(m: simd::SimdMode, a: &[f64], b: &[f64]) -> f64 {
    let partials: Vec<f64> = a
        .par_chunks(DOT_CHUNK)
        .zip(b.par_chunks(DOT_CHUNK))
        .map(|(ca, cb)| simd::dot(m, ca, cb))
        .collect();
    partials.iter().sum()
}

/// Result of the full benchmark loop.
#[derive(Debug, Clone, Copy)]
pub struct CgOutcome {
    /// Final ζ estimate.
    pub zeta: f64,
    /// Final inner residual.
    pub residual: f64,
}

/// Run the NPB CG structure: `niter` outer iterations of
/// (solve, ζ update, renormalize).
pub fn run(n: usize, nonzer: u32, niter: u32, shift: f64) -> CgOutcome {
    let a = SparseMatrix::npb_like(n, nonzer, 314_159_265);
    let m = simd::mode();
    let mut x = vec![1.0; n];
    let mut zeta = 0.0;
    let mut residual = 0.0;
    for _ in 0..niter {
        let (z, res) = cg_solve(&a, &x);
        residual = res;
        let xz = dot(m, &x, &z);
        zeta = shift + 1.0 / xz;
        // x = z / ‖z‖ (elementwise, per-lane division — width-invariant).
        let norm = dot(m, &z, &z).sqrt();
        x.par_chunks_mut(DOT_CHUNK)
            .zip(z.par_chunks(DOT_CHUNK))
            .for_each(|(xc, zc)| simd::scale_div(m, xc, zc, norm));
    }
    CgOutcome { zeta, residual }
}

impl Benchmark for Cg {
    fn id(&self) -> &'static str {
        "cg"
    }

    fn display_name(&self) -> String {
        format!("cg.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let flops = self.reported_flops();
        let (base_gb, per_proc_gb) = match self.class {
            Class::W => (0.02, 0.01),
            Class::A => (0.06, 0.03),
            Class::B => (0.45, 0.12),
            // Base + per-rank replication chosen to reproduce the paper's
            // runnability matrix: 6.5 + 1·p GiB ⇒ p=1 fits 8 GiB, p≥2
            // does not; p=16 fits 32 GiB.
            Class::C => (6.5, 1.0),
        };
        let gib = f64::from(1u32 << 30);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.25,
            dram_bytes: flops * 5.0, // sparse matvec: ~10 B + 2 flops per nnz
            footprint_bytes: base_gb * gib,
            footprint_per_proc_bytes: per_proc_gb * gib,
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.12,
            cpu_intensity: 0.72,
            kind: ComputeKind::Mixed(0.55),
            locality: LocalityProfile {
                instr_per_op: 2.2,
                accesses_per_instr: 0.42,
                l1_hit: 0.62,
                l2_hit: 0.18,
                l3_hit: 0.08,
                mem: 0.12,
                write_fraction: 0.15,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::PowerOfTwo
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        // Scaled instance with the class-A structure.
        let out = run(1400, 7, 5, 10.0);
        let ok = out.residual < 1e-8 && out.zeta.is_finite() && out.zeta > 10.0;
        if ok {
            VerifyOutcome::pass(
                format!("zeta={:.6} residual={:.3e}", out.zeta, out.residual),
                1400.0 * 7.0 * 2.0 * 25.0 * 5.0 * 2.0,
            )
        } else {
            VerifyOutcome::fail(format!("zeta={} residual={} out of range", out.zeta, out.residual))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let a = SparseMatrix::npb_like(200, 5, 42);
        // Gather into a dense map and check A[i][j] == A[j][i].
        let mut dense = vec![0.0f64; 200 * 200];
        for r in 0..200 {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                dense[r * 200 + a.cols[k] as usize] += a.vals[k];
            }
        }
        for i in 0..200 {
            for j in 0..200 {
                assert!(
                    (dense[i * 200 + j] - dense[j * 200 + i]).abs() < 1e-12,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let a = SparseMatrix::npb_like(300, 6, 7);
        for r in 0..300 {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                if a.cols[k] as usize == r {
                    diag += a.vals[k];
                } else {
                    off += a.vals[k].abs();
                }
            }
            assert!(diag > off, "row {r}: diag {diag} <= off {off}");
        }
    }

    #[test]
    fn cg_solves_to_small_residual() {
        let a = SparseMatrix::npb_like(500, 8, 99);
        let x = vec![1.0; 500];
        let (_, res) = cg_solve(&a, &x);
        assert!(res < 1e-6, "residual {res}");
    }

    #[test]
    fn zeta_converges_and_is_stable() {
        // Power iteration: successive zeta deltas must shrink, i.e. the
        // estimate settles as outer iterations accumulate.
        let z4 = run(800, 6, 4, 10.0).zeta;
        let z8 = run(800, 6, 8, 10.0).zeta;
        let z12 = run(800, 6, 12, 10.0).zeta;
        let early = (z8 - z4).abs();
        let late = (z12 - z8).abs();
        assert!(late < early, "not converging: |{z8}-{z4}|={early} then |{z12}-{z8}|={late}");
        assert!(z12.is_finite() && z12 > 10.0);
    }

    #[test]
    fn verify_passes() {
        let out = Cg::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn class_c_reproduces_paper_runnability() {
        // Fig 3 / Fig 4: cg.C.1 runs in 8 GiB; cg.C.2/4 do not;
        // cg.C.8/16 run in 32 GiB.
        let sig = Cg::new(Class::C).signature();
        let gib8 = 8u64 << 30;
        let gib32 = 32u64 << 30;
        assert!(sig.fits_in(1, gib8));
        assert!(!sig.fits_in(2, gib8));
        assert!(!sig.fits_in(4, gib8));
        assert!(sig.fits_in(8, gib32));
        assert!(sig.fits_in(16, gib32));
    }

    #[test]
    fn signature_is_memory_heavy() {
        let sig = Cg::new(Class::B).signature();
        assert!(sig.arithmetic_intensity() < 1.0, "CG must be memory bound");
    }
}
