//! Blocked LU factorization with row partial pivoting, and the HPL
//! verification criterion.
//!
//! Right-looking algorithm: factor a `NB`-wide panel unblocked, apply its
//! row swaps across the matrix, triangular-solve the block row of U, then
//! update the trailing submatrix with a rayon-parallel blocked
//! matrix-multiply — the same structure (panel factorization, U update,
//! DGEMM trailing update) as netlib HPL, minus the distributed memory.

use rayon::prelude::*;

use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::simd;

// Logical trace addresses: the whole factorization works one row-major
// matrix, so a single base suffices; element (r, c) maps to
// `TRACE_MAT + (r·n + c)·8`. Chunk ids: each panel iteration is its own
// epoch (`Tracer::begin_epoch` at the serial top of the loop), within
// which the serial panel and U-row phases use fixed phase ids and the
// parallel trailing update uses the updated row's matrix index — a
// width-invariant id even though the band decomposition is sized to the
// pool. All ids stay far below the recorder's `1 << 44` epoch shift.
const TRACE_MAT: u64 = 0x1_0000_0000;
const TRACE_PANEL_CHUNK: u64 = 1 << 32;
const TRACE_UROW_CHUNK: u64 = 2 << 32;

/// A dense row-major matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Row count (== column count; HPL matrices are square).
    pub n: usize,
    /// Row-major storage, `n * n` elements.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * n] }
    }

    /// Uniform(-0.5, 0.5) random matrix from the NPB generator — the same
    /// distribution HPL's `HPL_pdmatgen` uses.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let data = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        Self { n, data }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n)
            .map(|r| self.data[r * self.n..(r + 1) * self.n].iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|r| {
                self.data[r * self.n..(r + 1) * self.n]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect()
    }
}

/// Error cases of the factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// A pivot column was exactly zero: the matrix is singular.
    Singular {
        /// Column at which factorization broke down.
        column: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// LU factorization result: `P·A = L·U` packed into one matrix, plus the
/// pivot row for every column.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    pub lu: Matrix,
    /// `pivots[k]` = row swapped into position `k` at step `k`.
    pub pivots: Vec<usize>,
}

/// Factor `a` in place with block size `nb` using `threads` rayon workers.
pub fn factor(mut a: Matrix, nb: usize, threads: usize) -> Result<LuFactors, LuError> {
    let n = a.n;
    let nb = nb.max(1).min(n);
    let mut pivots = vec![0usize; n];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool");

    let tracer = hooks::current(Region::Hpl);

    pool.install(|| {
        let mut k = 0;
        while k < n {
            // Serial point: one epoch per panel iteration, so repeated
            // phase chunk ids never collide across iterations.
            tracer.begin_epoch();
            let kb = nb.min(n - k);
            let tr = tracer.chunk(TRACE_PANEL_CHUNK);
            // --- Panel factorization (columns k..k+kb), unblocked. ---
            for j in k..k + kb {
                // Find pivot in column j at/below row j.
                let (piv, maxval) = (j..n)
                    .map(|r| (r, a.get(r, j).abs()))
                    .fold((j, -1.0), |acc, x| if x.1 > acc.1 { x } else { acc });
                if maxval == 0.0 {
                    return Err(LuError::Singular { column: j });
                }
                pivots[j] = piv;
                if piv != j {
                    for c in 0..n {
                        let t = a.get(j, c);
                        a.set(j, c, a.get(piv, c));
                        a.set(piv, c, t);
                    }
                }
                let d = a.get(j, j);
                // Scale multipliers and update the remainder of the panel.
                for r in j + 1..n {
                    let m = a.get(r, j) / d;
                    a.set(r, j, m);
                    for c in j + 1..k + kb {
                        let v = a.get(r, c) - m * a.get(j, c);
                        a.set(r, c, v);
                    }
                }
                if let Some(tr) = &tr {
                    let stride = (n * 8) as u32;
                    // Pivot search walks column j, the scaling writes it
                    // back below the diagonal, and the panel update
                    // re-reads pivot row j across the panel width.
                    let col = TRACE_MAT + ((j * n + j) * 8) as u64;
                    tr.record(AccessKind::Read, col, stride, (n - j) as u32);
                    if j + 1 < n {
                        let below = TRACE_MAT + (((j + 1) * n + j) * 8) as u64;
                        tr.record(AccessKind::Write, below, stride, (n - j - 1) as u32);
                    }
                    tr.record(AccessKind::Read, col, 8, (k + kb - j) as u32);
                }
            }

            let end = k + kb;
            if end < n {
                // --- U block row: solve L11 · U12 = A12 (unit lower). ---
                let m = simd::mode();
                let tru = tracer.chunk(TRACE_UROW_CHUNK);
                let w = (n - end) as u32;
                for j in k..end {
                    if let Some(tru) = &tru {
                        let rj = TRACE_MAT + ((j * n + end) * 8) as u64;
                        tru.record(AccessKind::Read, rj, 8, w);
                        tru.record(AccessKind::Write, rj, 8, w);
                    }
                    for r in k..j {
                        let mult = a.get(j, r);
                        if mult != 0.0 {
                            // Rows r < j: split the storage between them
                            // and stream `row_j -= mult · row_r` over the
                            // U columns (`y + (−m)·x` is bitwise `y − m·x`).
                            let (head, rest) = a.data.split_at_mut(j * n);
                            let rowr = &head[r * n + end..r * n + n];
                            let rowj = &mut rest[end..n];
                            simd::axpy(m, rowj, rowr, -mult);
                            if let Some(tru) = &tru {
                                let ra = TRACE_MAT + ((r * n + end) * 8) as u64;
                                tru.record(AccessKind::Read, ra, 8, w);
                            }
                        }
                    }
                }
                // --- Trailing update: A22 -= L21 · U12 (parallel bands). ---
                let (head, tail) = a.data.split_at_mut(end * n);
                let u12 = &head[k * n..]; // rows k..end
                trailing_update(tail, u12, n, k, end);
            }
            k = end;
        }
        Ok(())
    })?;

    Ok(LuFactors { lu: a, pivots })
}

/// The DGEMM-shaped trailing update `A22 -= L21 · U12` of one blocked
/// LU step, over full matrix rows: `tail` holds rows `end..n` (each of
/// length `n`, multipliers in columns `k..end`, updated columns
/// `end..n`) and `u12` holds the U rows `k..end`.
///
/// Rows are grouped into bands sized to the installed pool (4 bands
/// per thread for load balance) so each piece amortises dispatch over
/// many rows instead of paying it per row; within a row, pairs of U
/// rows stream through one fused SIMD pass ([`simd::sub2`]). Per-row
/// arithmetic is unchanged by the banding and bitwise identical across
/// SIMD paths, so results are deterministic at every width × path.
/// Public (and allocation-free at width 1) so `tests/alloc_free.rs`
/// can pin it directly.
pub fn trailing_update(tail: &mut [f64], u12: &[f64], n: usize, k: usize, end: usize) {
    assert!(k <= end && end <= n);
    assert_eq!(tail.len() % n.max(1), 0, "tail must hold whole rows");
    assert_eq!(u12.len(), (end - k) * n, "u12 must hold rows k..end");
    let m = simd::mode();
    let tracer = hooks::current(Region::Hpl);
    let rows = tail.len() / n.max(1);
    let band = rows.div_ceil(4 * rayon::current_num_threads()).max(1);
    tail.par_chunks_mut(n * band).enumerate().for_each(|(bi, bandrows)| {
        for (ri, row) in bandrows.chunks_mut(n).enumerate() {
            // The chunk id is the updated row's matrix index — the band
            // decomposition is pool-shaped, but `bi·band + ri` is the
            // row's absolute position in `tail` at any width.
            let grow = end + bi * band + ri;
            if let Some(tr) = tracer.chunk(grow as u64) {
                // One GEMM row: the fixed L21 multipliers, every U12
                // row streamed against it, and the updated row segment.
                let lrow = TRACE_MAT + ((grow * n + k) * 8) as u64;
                tr.record(AccessKind::Read, lrow, 8, (end - k) as u32);
                for ur in k..end {
                    let ua = TRACE_MAT + ((ur * n + end) * 8) as u64;
                    tr.record(AccessKind::Read, ua, 8, (n - end) as u32);
                }
                let ca = TRACE_MAT + ((grow * n + end) * 8) as u64;
                tr.record(AccessKind::Read, ca, 8, (n - end) as u32);
                tr.record(AccessKind::Write, ca, 8, (n - end) as u32);
            }
            // The multipliers row[k..end] are fixed L21 entries (only
            // columns end.. are written), so pairs of U rows can stream
            // through one fused pass.
            let mut urows = u12.chunks(n);
            let mut j = k;
            while j + 2 <= end {
                let u0 = urows.next().expect("U12 row");
                let u1 = urows.next().expect("U12 row");
                let m0 = row[j];
                let m1 = row[j + 1];
                simd::sub2(m, &mut row[end..], &u0[end..], &u1[end..], m0, m1);
                j += 2;
            }
            if j < end {
                let u0 = urows.next().expect("U12 row");
                let m0 = row[j];
                simd::axpy(m, &mut row[end..], &u0[end..], -m0);
            }
        }
    });
}

impl LuFactors {
    /// Solve `A·x = b` given the factorization of `A`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.n;
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        // Apply row permutation.
        for k in 0..n {
            x.swap(k, self.pivots[k]);
        }
        // Forward substitution (L unit lower).
        for r in 1..n {
            let mut s = x[r];
            for c in 0..r {
                s -= self.lu.get(r, c) * x[c];
            }
            x[r] = s;
        }
        // Back substitution (U upper).
        for r in (0..n).rev() {
            let mut s = x[r];
            for c in r + 1..n {
                s -= self.lu.get(r, c) * x[c];
            }
            x[r] = s / self.lu.get(r, r);
        }
        x
    }
}

/// Outcome of an end-to-end HPL-style solve of a random system.
#[derive(Debug, Clone, Copy)]
pub struct SolveCheck {
    /// `‖A·x − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · n)` — HPL's acceptance
    /// metric.
    pub scaled_residual: f64,
}

impl SolveCheck {
    /// HPL accepts runs with scaled residual below 16.
    pub fn passes(&self) -> bool {
        self.scaled_residual.is_finite() && self.scaled_residual < 16.0
    }
}

/// Generate a random system of order `n`, factor with block size `nb`,
/// solve, and compute the HPL residual.
pub fn solve_random(n: usize, nb: usize, threads: usize) -> Result<SolveCheck, LuError> {
    let a = Matrix::random(n, 42);
    let mut rng = NpbRng::new(777);
    let b: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    let factors = factor(a.clone(), nb, threads)?;
    let x = factors.solve(&b);
    let ax = a.matvec(&x);
    let r_inf = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
    let x_inf = x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let b_inf = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let denom = f64::EPSILON * (a.norm_inf() * x_inf + b_inf) * n as f64;
    Ok(SolveCheck { scaled_residual: r_inf / denom })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_small_system() {
        // A = [[2,1],[1,3]], b = [3,5] -> x = [0.8, 1.4]
        let mut a = Matrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let f = factor(a, 1, 1).unwrap();
        let x = f.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_element() {
        // Without pivoting this matrix breaks at (0,0).
        let mut a = Matrix::zeros(2);
        a.set(0, 0, 0.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 1.0);
        let f = factor(a, 2, 1).unwrap();
        let x = f.solve(&[1.0, 2.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::zeros(3);
        match factor(a, 2, 1) {
            Err(LuError::Singular { column }) => assert_eq!(column, 0),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = Matrix::random(48, 7);
        let f1 = factor(a.clone(), 1, 1).unwrap();
        let f2 = factor(a.clone(), 8, 1).unwrap();
        let f3 = factor(a, 48, 1).unwrap();
        for (x, y) in f1.lu.data.iter().zip(&f2.lu.data) {
            assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in f1.lu.data.iter().zip(&f3.lu.data) {
            assert!((x - y).abs() < 1e-9);
        }
        assert_eq!(f1.pivots, f2.pivots);
    }

    #[test]
    fn parallel_matches_serial() {
        let a = Matrix::random(96, 3);
        let f1 = factor(a.clone(), 16, 1).unwrap();
        let f4 = factor(a, 16, 4).unwrap();
        assert_eq!(f1.pivots, f4.pivots);
        for (x, y) in f1.lu.data.iter().zip(&f4.lu.data) {
            assert_eq!(x, y, "parallel trailing update must be bitwise deterministic");
        }
    }

    #[test]
    fn residual_passes_hpl_criterion() {
        for n in [32, 100, 200] {
            let check = solve_random(n, 24, 2).unwrap();
            assert!(check.passes(), "n={n}: residual {}", check.scaled_residual);
        }
    }

    #[test]
    fn reconstructs_pa_equals_lu() {
        let n = 40;
        let a = Matrix::random(n, 11);
        let f = factor(a.clone(), 8, 1).unwrap();
        // Build P·A by replaying the swaps.
        let mut pa = a.clone();
        for k in 0..n {
            let piv = f.pivots[k];
            if piv != k {
                for c in 0..n {
                    let t = pa.get(k, c);
                    pa.set(k, c, pa.get(piv, c));
                    pa.set(piv, c, t);
                }
            }
        }
        // L·U from the packed factors.
        for r in 0..n {
            for c in 0..n {
                let mut s = 0.0;
                for k in 0..=r.min(c) {
                    let l = if k == r { 1.0 } else { f.lu.get(r, k) };
                    if k <= c {
                        s += l * f.lu.get(k, c);
                    }
                }
                assert!(
                    (s - pa.get(r, c)).abs() < 1e-8,
                    "P·A != L·U at ({r},{c}): {s} vs {}",
                    pa.get(r, c)
                );
            }
        }
    }
}
