//! Portable SIMD micro-kernels with a bitwise scalar↔vector
//! determinism contract and an opt-in fused tolerance tier.
//!
//! Every flop-dominated hot loop in this crate (DGEMM's packed-B tile
//! kernel, the HPL trailing update, STREAM's four ops, CG's axpy and
//! fixed-chunk dots, MG's stencil sweeps, the FFT butterfly) funnels
//! through the span operations in this module. The implementations
//! form two tiers:
//!
//! **Bitwise tier** — `scalar` (the *reference semantics*), `avx2`
//! (4-lane f64), `avx512` (8-lane f64) and `neon` (2-lane f64 on
//! aarch64). Every member reproduces the scalar loop bit for bit.
//!
//! **Tolerance tier** — `fma`: AVX2+FMA with fused multiply-adds and
//! wider (8-accumulator) register tiles. Faster, *more* accurate
//! per-element (one rounding instead of two), but **not** bitwise
//! equal to scalar. Never selected by default; see the contract below.
//!
//! # The determinism contract (bitwise tier)
//!
//! The bitwise paths are **identical by construction**, so the
//! cross-width determinism guarantee of the executor (DESIGN.md §10)
//! extends across instruction sets:
//!
//! * Element-wise operations use separate per-lane multiplies and adds
//!   in the exact association order of the scalar loop — never FMA
//!   contraction, whose single rounding would diverge from the two
//!   roundings of `mul` + `add`. An IEEE-754 lane op equals the scalar
//!   op on the same operands, so any vector/tail split point yields
//!   the same bits.
//! * Reductions ([`dot`]) commit to a **fixed 4-accumulator strided
//!   layout**: accumulator `j` sums the products of elements with
//!   index ≡ j (mod 4), the remainder feeds accumulators `0..len%4`,
//!   and the four partials combine as `(acc0 + acc1) + (acc2 + acc3)`.
//!   The scalar path runs the identical recurrence with four scalar
//!   accumulators, so vector lane `j` and scalar accumulator `j` see
//!   the same operands in the same order. The AVX-512 path keeps the
//!   256-bit reduction (widening it would change the recurrence); the
//!   NEON path splits the four accumulators across two 128-bit pairs.
//!
//! # The tolerance contract (fma tier)
//!
//! The `fma` tier never claims bitwise parity. Its documented bound,
//! verified by the property suite (`tests/proptests.rs`), is
//! componentwise
//!
//! ```text
//! |fma(x) − scalar(x)| ≤ ops · ε · scale(x)
//! ```
//!
//! where `ε = f64::EPSILON`, `ops` is the number of roundings along
//! the element's accumulation chain (2 for a single `a + s·b` span op,
//! `2·kw + 2` for a `kw`-deep tile-row accumulation, `2·len + 2` for a
//! dot), and `scale(x)` is the sum of absolute values of every term
//! entering that element (including its initial value). Each fused op
//! replaces two roundings by one, so the fma result is at least as
//! close to the exact value; the bound caps the *divergence between
//! the two paths*, which is at most the sum of both paths' errors.
//! The fma tier is still width-invariant — every span op is a pure
//! function of its operand values — so cross-width determinism holds
//! under an `HPCEVAL_SIMD=fma` pin; only cross-*tier* bitwise equality
//! is given up.
//!
//! # Mode resolution
//!
//! The rule the pool width and trace capture follow too: a
//! thread-local [`with_mode`] scope on the calling thread wins;
//! otherwise `HPCEVAL_SIMD={auto,scalar,avx2,fma,avx512,neon}` (read
//! once) supplies the process default; otherwise `auto`: AVX2 when the
//! CPU reports it, NEON on aarch64, scalar elsewhere. `auto` **never**
//! selects the tolerance tier or AVX-512, so default behavior is
//! bitwise-unchanged from the two-path layer. Requesting a tier the hardware lacks degrades down
//! the ladder (`fma → avx2 → scalar`, `avx512 → avx2 → scalar`,
//! `neon → scalar`) rather than faulting. Kernels resolve [`mode`]
//! **once at their public entry point, on the caller's thread**, and
//! capture the resolved mode into their parallel closures — worker
//! threads never consult the thread-local, so [`with_mode`] reliably
//! scopes the whole kernel.
// The one place in the kernels crate allowed to use `unsafe`: every
// unsafe block wraps `core::arch` intrinsics that are only reached
// after the matching `is_x86_feature_detected!` (or, for NEON, the
// aarch64 baseline ISA guarantee) has confirmed the ISA.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::fft::C64;

/// Which micro-kernel implementation spans are processed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Plain Rust loops (the reference semantics).
    Scalar,
    /// 4-lane `f64` AVX2 intrinsics (bitwise equal to scalar).
    Avx2,
    /// AVX2+FMA fused tier (tolerance-verified, never bitwise, opt-in).
    Fma,
    /// 8-lane `f64` AVX-512F intrinsics (bitwise equal to scalar).
    Avx512,
    /// 2-lane `f64` NEON intrinsics on aarch64 (bitwise equal to
    /// scalar).
    Neon,
}

impl SimdMode {
    /// Stable lowercase label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
            SimdMode::Fma => "fma",
            SimdMode::Avx512 => "avx512",
            SimdMode::Neon => "neon",
        }
    }

    /// Whether this mode belongs to the bitwise determinism contract
    /// (everything except the fused tolerance tier).
    pub fn bitwise(self) -> bool {
        !matches!(self, SimdMode::Fma)
    }
}

/// Whether this process can execute the AVX2 path.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this process can execute the fused AVX2+FMA tier.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this process can execute the AVX-512 path. The AVX2 check
/// rides along because the 512-bit module keeps the 256-bit reduction
/// of the contract (every real AVX-512F CPU also reports AVX2).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this process can execute the NEON path. NEON with f64
/// arithmetic is part of the aarch64 baseline ISA, so this is a
/// compile-time fact rather than a runtime probe.
pub fn neon_available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// The `HPCEVAL_SIMD` default, read once. `auto`, unset, or unparsable
/// values resolve to `None` (auto-detect), matching the forgiving
/// `HPCEVAL_THREADS` parse.
fn env_mode() -> Option<SimdMode> {
    static ENV: OnceLock<Option<SimdMode>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("HPCEVAL_SIMD").ok()?.trim() {
        "scalar" => Some(SimdMode::Scalar),
        "avx2" => Some(SimdMode::Avx2),
        "fma" => Some(SimdMode::Fma),
        "avx512" => Some(SimdMode::Avx512),
        "neon" => Some(SimdMode::Neon),
        _ => None,
    })
}

thread_local! {
    /// Mode override installed by [`with_mode`] on the calling thread.
    static OVERRIDE: std::cell::Cell<Option<SimdMode>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with the given mode requested on this thread (the
/// determinism suite uses this to compare paths in one process). The
/// request beats the `HPCEVAL_SIMD` default, exactly as an installed
/// pool beats `HPCEVAL_THREADS`; an `Avx2` request without AVX2
/// hardware degrades to scalar.
pub fn with_mode<R>(mode: SimdMode, f: impl FnOnce() -> R) -> R {
    /// Restores the outer request on scope exit, unwinding included.
    struct Restore(Option<SimdMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(mode))));
    f()
}

/// The resolved mode a kernel entered right now would use: the
/// [`with_mode`] request, else the `HPCEVAL_SIMD` default, else the best
/// *bitwise* path the hardware offers (AVX2 on x86-64, NEON on
/// aarch64, scalar elsewhere). A request the hardware cannot honor
/// degrades down the ladder — `fma → avx2 → scalar`,
/// `avx512 → avx2 → scalar`, `neon → scalar` — and never returns a
/// mode whose intrinsics could fault.
pub fn mode() -> SimdMode {
    let requested = OVERRIDE.with(std::cell::Cell::get).or_else(env_mode);
    let best_bitwise_x86 = || {
        if avx2_available() {
            SimdMode::Avx2
        } else {
            SimdMode::Scalar
        }
    };
    match requested {
        Some(SimdMode::Scalar) => SimdMode::Scalar,
        Some(SimdMode::Fma) => {
            if fma_available() {
                SimdMode::Fma
            } else {
                best_bitwise_x86()
            }
        }
        Some(SimdMode::Avx512) => {
            if avx512_available() {
                SimdMode::Avx512
            } else {
                best_bitwise_x86()
            }
        }
        Some(SimdMode::Neon) => {
            if neon_available() {
                SimdMode::Neon
            } else {
                SimdMode::Scalar
            }
        }
        Some(SimdMode::Avx2) => best_bitwise_x86(),
        None => {
            if avx2_available() {
                SimdMode::Avx2
            } else if neon_available() {
                SimdMode::Neon
            } else {
                SimdMode::Scalar
            }
        }
    }
}

/// Dispatch one span operation across the five tiers: the scalar body,
/// or a vector body guarded by a final (cached, branch-predicted)
/// availability check so a hand-constructed vector mode value can
/// never reach intrinsics on hardware without them. Vector arms that
/// fail the check degrade exactly like [`mode`]'s resolution ladder.
/// Ops with no fusable multiply-add pass their `avx2` body for the
/// `fma:` arm — the tiers share those bits by definition.
macro_rules! dispatch {
    ($m:expr,
     scalar: $scalar:expr,
     avx2: $avx2:expr,
     fma: $fma:expr,
     avx512: $avx512:expr,
     neon: $neon:expr) => {
        match $m {
            SimdMode::Scalar => $scalar,
            SimdMode::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx2_available() {
                        // SAFETY: AVX2 support was just confirmed.
                        unsafe { $avx2 }
                    } else {
                        $scalar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    $scalar
                }
            }
            SimdMode::Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    if fma_available() {
                        // SAFETY: AVX2+FMA support was just confirmed.
                        unsafe { $fma }
                    } else if avx2_available() {
                        // SAFETY: AVX2 support was just confirmed.
                        unsafe { $avx2 }
                    } else {
                        $scalar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    $scalar
                }
            }
            SimdMode::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx512_available() {
                        // SAFETY: AVX-512F (and AVX2) support was just
                        // confirmed.
                        unsafe { $avx512 }
                    } else if avx2_available() {
                        // SAFETY: AVX2 support was just confirmed.
                        unsafe { $avx2 }
                    } else {
                        $scalar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    $scalar
                }
            }
            SimdMode::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    // SAFETY: NEON is part of the aarch64 baseline ISA.
                    unsafe { $neon }
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    $scalar
                }
            }
        }
    };
}

// ---------------------------------------------------------------------
// Element-wise spans (STREAM, CG, MG smooth, DGEMM beta scale)
// ---------------------------------------------------------------------

/// `dst[i] = s · src[i]` (STREAM scale).
pub fn scale(m: SimdMode, dst: &mut [f64], src: &[f64], s: f64) {
    assert_eq!(dst.len(), src.len());
    dispatch!(
        m,
        scalar: scalar::scale(dst, src, s),
        avx2: avx2::scale(dst, src, s),
        fma: avx2::scale(dst, src, s),
        avx512: avx512::scale(dst, src, s),
        neon: neon::scale(dst, src, s)
    );
}

/// `dst[i] *= s` in place (DGEMM's beta pass).
pub fn scale_in_place(m: SimdMode, dst: &mut [f64], s: f64) {
    dispatch!(
        m,
        scalar: scalar::scale_in_place(dst, s),
        avx2: avx2::scale_in_place(dst, s),
        fma: avx2::scale_in_place(dst, s),
        avx512: avx512::scale_in_place(dst, s),
        neon: neon::scale_in_place(dst, s)
    );
}

/// `dst[i] = a[i] + b[i]` (STREAM add).
pub fn add(m: SimdMode, dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    dispatch!(
        m,
        scalar: scalar::add(dst, a, b),
        avx2: avx2::add(dst, a, b),
        fma: avx2::add(dst, a, b),
        avx512: avx512::add(dst, a, b),
        neon: neon::add(dst, a, b)
    );
}

/// `dst[i] = a[i] + s · b[i]` (STREAM triad).
pub fn triad(m: SimdMode, dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    dispatch!(
        m,
        scalar: scalar::triad(dst, a, b, s),
        avx2: avx2::triad(dst, a, b, s),
        fma: fma::triad(dst, a, b, s),
        avx512: avx512::triad(dst, a, b, s),
        neon: neon::triad(dst, a, b, s)
    );
}

/// `y[i] += a · x[i]` — the BLAS axpy (CG updates, MG smoothing, and,
/// with a negated coefficient, every `y -= a·x` form: IEEE negation
/// and multiplication commute exactly, so `y + (−a)·x` is bitwise
/// `y − a·x`).
pub fn axpy(m: SimdMode, y: &mut [f64], x: &[f64], a: f64) {
    assert_eq!(y.len(), x.len());
    dispatch!(
        m,
        scalar: scalar::axpy(y, x, a),
        avx2: avx2::axpy(y, x, a),
        fma: fma::axpy(y, x, a),
        avx512: avx512::axpy(y, x, a),
        neon: neon::axpy(y, x, a)
    );
}

/// `y[i] = x[i] + b · y[i]` (CG's search-direction update).
pub fn xpby(m: SimdMode, y: &mut [f64], x: &[f64], b: f64) {
    assert_eq!(y.len(), x.len());
    dispatch!(
        m,
        scalar: scalar::xpby(y, x, b),
        avx2: avx2::xpby(y, x, b),
        fma: fma::xpby(y, x, b),
        avx512: avx512::xpby(y, x, b),
        neon: neon::xpby(y, x, b)
    );
}

/// `dst[i] = src[i] / d` (CG's renormalization; lane division is
/// exactly rounded, so the paths agree bitwise).
pub fn scale_div(m: SimdMode, dst: &mut [f64], src: &[f64], d: f64) {
    assert_eq!(dst.len(), src.len());
    dispatch!(
        m,
        scalar: scalar::scale_div(dst, src, d),
        avx2: avx2::scale_div(dst, src, d),
        fma: avx2::scale_div(dst, src, d),
        avx512: avx512::scale_div(dst, src, d),
        neon: neon::scale_div(dst, src, d)
    );
}

// ---------------------------------------------------------------------
// Reductions (CG dots)
// ---------------------------------------------------------------------

/// Strided-4-accumulator dot product — the reduction layout of the
/// determinism contract (see the module docs). Both paths produce the
/// same bits for the same input; across *different* span lengths the
/// value legitimately differs from a serial sum by accumulated
/// rounding, which [`dot_serial`] exists to bound in tests.
pub fn dot(m: SimdMode, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    dispatch!(
        m,
        scalar: scalar::dot(a, b),
        avx2: avx2::dot(a, b),
        fma: fma::dot(a, b),
        // The strided-4 contract layout is 256-bit shaped; widening
        // the reduction would change the recurrence, so the AVX-512
        // tier keeps the AVX2 dot.
        avx512: avx2::dot(a, b),
        neon: neon::dot(a, b)
    )
}

/// The legacy left-to-right serial dot (`Σ aᵢ·bᵢ` in index order) —
/// the pre-SIMD reference the property suite compares [`dot`] against
/// within a rounding tolerance.
pub fn dot_serial(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------
// DGEMM / LU fused update spans
// ---------------------------------------------------------------------

/// `c[i] += a0·b0[i] + a1·b1[i] + a2·b2[i] + a3·b3[i]` — DGEMM's
/// 4×-unrolled register-tile update (broadcast-A, four packed B rows
/// streaming per pass), left-associated exactly like the scalar loop.
#[allow(clippy::too_many_arguments)] // mirrors the 4x-unrolled kernel shape
pub fn update4(
    m: SimdMode,
    c: &mut [f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
    a0: f64,
    a1: f64,
    a2: f64,
    a3: f64,
) {
    assert_eq!(c.len(), b0.len());
    assert_eq!(c.len(), b1.len());
    assert_eq!(c.len(), b2.len());
    assert_eq!(c.len(), b3.len());
    dispatch!(
        m,
        scalar: scalar::update4(c, b0, b1, b2, b3, a0, a1, a2, a3),
        avx2: avx2::update4(c, b0, b1, b2, b3, a0, a1, a2, a3),
        fma: fma::update4(c, b0, b1, b2, b3, a0, a1, a2, a3),
        avx512: avx512::update4(c, b0, b1, b2, b3, a0, a1, a2, a3),
        neon: neon::update4(c, b0, b1, b2, b3, a0, a1, a2, a3)
    );
}

/// One C row against a packed `kw×jw` B tile:
/// `c[j] += Σ_k (alpha·a[k])·bt[k·jw + j]`, accumulated per element as
/// a sequence of [`update4`] k-quads followed by [`axpy`] singles for
/// `kw mod 4` — bitwise, the fused kernel IS that call sequence. The
/// AVX2 path exploits the fusion: the C row stays in registers across
/// the entire k loop (two independent accumulator chains over eight
/// columns at a time) instead of being re-loaded and re-stored per
/// quad, which is where DGEMM's headroom over the scalar path lives.
pub fn tile_row_update(m: SimdMode, c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
    assert_eq!(bt.len(), a.len() * c.len(), "bt must be a packed a.len()×c.len() tile");
    dispatch!(
        m,
        scalar: scalar::tile_row_update(c, bt, a, alpha),
        avx2: avx2::tile_row_update(c, bt, a, alpha),
        fma: fma::tile_row_update(c, bt, a, alpha),
        avx512: avx512::tile_row_update(c, bt, a, alpha),
        neon: neon::tile_row_update(c, bt, a, alpha)
    );
}

/// `row[i] -= m0·u0[i] + m1·u1[i]` — the HPL trailing update's fused
/// two-U-row pass.
pub fn sub2(m: SimdMode, row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
    assert_eq!(row.len(), u0.len());
    assert_eq!(row.len(), u1.len());
    dispatch!(
        m,
        scalar: scalar::sub2(row, u0, u1, m0, m1),
        avx2: avx2::sub2(row, u0, u1, m0, m1),
        fma: fma::sub2(row, u0, u1, m0, m1),
        avx512: avx512::sub2(row, u0, u1, m0, m1),
        neon: neon::sub2(row, u0, u1, m0, m1)
    );
}

// ---------------------------------------------------------------------
// MG 7-point stencil span
// ---------------------------------------------------------------------

/// Interior residual span of the periodic 7-point −∇² stencil:
/// `out[i] = v[i] − (6·uc[i] − uxm[i] − uxp[i] − uym[i] − uyp[i]
/// − uzm[i] − uzp[i])`, subtractions in that exact order. The six
/// neighbor slices are the same row shifted (x±1) or the adjacent
/// rows/planes (y±1, z±1); periodic boundary points stay on the
/// caller's scalar path.
#[allow(clippy::too_many_arguments)] // one slice per stencil leg
pub fn stencil7(
    m: SimdMode,
    out: &mut [f64],
    v: &[f64],
    uc: &[f64],
    uxm: &[f64],
    uxp: &[f64],
    uym: &[f64],
    uyp: &[f64],
    uzm: &[f64],
    uzp: &[f64],
) {
    let n = out.len();
    assert!(
        v.len() == n
            && uc.len() == n
            && uxm.len() == n
            && uxp.len() == n
            && uym.len() == n
            && uyp.len() == n
            && uzm.len() == n
            && uzp.len() == n
    );
    dispatch!(
        m,
        scalar: scalar::stencil7(out, v, uc, uxm, uxp, uym, uyp, uzm, uzp),
        avx2: avx2::stencil7(out, v, uc, uxm, uxp, uym, uyp, uzm, uzp),
        fma: fma::stencil7(out, v, uc, uxm, uxp, uym, uyp, uzm, uzp),
        avx512: avx512::stencil7(out, v, uc, uxm, uxp, uym, uyp, uzm, uzp),
        neon: neon::stencil7(out, v, uc, uxm, uxp, uym, uyp, uzm, uzp)
    );
}

// ---------------------------------------------------------------------
// FFT butterfly span
// ---------------------------------------------------------------------

/// One radix-2 butterfly stage over a chunk split at `half`:
/// `v = hi[k]·w[k]`, `lo[k] = lo[k] + v`, `hi[k] = lo[k] − v`, with
/// `w[k]` conjugated when `conj` (the inverse direction — a sign flip,
/// exact). The complex multiply is per-lane mul/add
/// (`re·re − im·im`, `im·re + re·im`), never FMA.
pub fn butterfly(m: SimdMode, lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
    assert_eq!(lo.len(), hi.len());
    assert_eq!(lo.len(), tw.len());
    dispatch!(
        m,
        scalar: scalar::butterfly(lo, hi, tw, conj),
        avx2: avx2::butterfly(lo, hi, tw, conj),
        fma: fma::butterfly(lo, hi, tw, conj),
        // AVX-512F has no addsub; the bitwise 512-bit emulation (xor
        // sign mask + add) buys nothing over the 256-bit kernel here,
        // so the AVX-512 tier keeps the AVX2 butterfly.
        avx512: avx2::butterfly(lo, hi, tw, conj),
        neon: neon::butterfly(lo, hi, tw, conj)
    );
}

// ---------------------------------------------------------------------
// Scalar reference path
// ---------------------------------------------------------------------

/// The portable loops. Each function is the semantic definition its
/// AVX2 twin must match bitwise; the vector path also calls these for
/// the sub-4-lane tails, so the two implementations can never drift on
/// remainder elements.
mod scalar {
    use crate::fft::C64;

    pub fn scale(dst: &mut [f64], src: &[f64], s: f64) {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = s * x;
        }
    }

    pub fn scale_in_place(dst: &mut [f64], s: f64) {
        for d in dst.iter_mut() {
            *d *= s;
        }
    }

    pub fn add(dst: &mut [f64], a: &[f64], b: &[f64]) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x + y;
        }
    }

    pub fn triad(dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x + s * y;
        }
    }

    pub fn axpy(y: &mut [f64], x: &[f64], a: f64) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    pub fn xpby(y: &mut [f64], x: &[f64], b: f64) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi + b * *yi;
        }
    }

    pub fn scale_div(dst: &mut [f64], src: &[f64], d: f64) {
        for (o, &x) in dst.iter_mut().zip(src) {
            *o = x / d;
        }
    }

    /// The contract reduction: four strided accumulators, remainder
    /// into accumulators `0..len%4`, combined `(0+1) + (2+3)`.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        let n4 = a.len() & !3;
        let mut i = 0;
        while i < n4 {
            acc[0] += a[i] * b[i];
            acc[1] += a[i + 1] * b[i + 1];
            acc[2] += a[i + 2] * b[i + 2];
            acc[3] += a[i + 3] * b[i + 3];
            i += 4;
        }
        dot_tail(&mut acc, &a[n4..], &b[n4..]);
        dot_combine(acc)
    }

    /// Remainder elements feed accumulators `0..tail_len` (shared with
    /// the AVX2 path so the tail recurrence is literally the same code).
    pub fn dot_tail(acc: &mut [f64; 4], a: &[f64], b: &[f64]) {
        for (j, (&x, &y)) in a.iter().zip(b).enumerate() {
            acc[j] += x * y;
        }
    }

    /// The fixed combine order of the contract.
    pub fn dot_combine(acc: [f64; 4]) -> f64 {
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    #[allow(clippy::too_many_arguments)]
    pub fn update4(
        c: &mut [f64],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
        a0: f64,
        a1: f64,
        a2: f64,
        a3: f64,
    ) {
        for (i, cv) in c.iter_mut().enumerate() {
            *cv += a0 * b0[i] + a1 * b1[i] + a2 * b2[i] + a3 * b3[i];
        }
    }

    /// The semantic definition of the fused tile kernel: k-quads via
    /// [`update4`], the `kw mod 4` remainder via [`axpy`], on full rows.
    pub fn tile_row_update(c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        let jw = c.len();
        let kw = a.len();
        let mut kk = 0;
        while kk + 4 <= kw {
            let a0 = alpha * a[kk];
            let a1 = alpha * a[kk + 1];
            let a2 = alpha * a[kk + 2];
            let a3 = alpha * a[kk + 3];
            let (b0, rest) = bt[kk * jw..].split_at(jw);
            let (b1, rest) = rest.split_at(jw);
            let (b2, rest) = rest.split_at(jw);
            update4(c, b0, b1, b2, &rest[..jw], a0, a1, a2, a3);
            kk += 4;
        }
        while kk < kw {
            axpy(c, &bt[kk * jw..kk * jw + jw], alpha * a[kk]);
            kk += 1;
        }
    }

    pub fn sub2(row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        for (i, r) in row.iter_mut().enumerate() {
            *r -= m0 * u0[i] + m1 * u1[i];
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn stencil7(
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64],
    ) {
        for (i, o) in out.iter_mut().enumerate() {
            let au = 6.0 * uc[i] - uxm[i] - uxp[i] - uym[i] - uyp[i] - uzm[i] - uzp[i];
            *o = v[i] - au;
        }
    }

    pub fn butterfly(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
        for k in 0..lo.len() {
            let w = if conj { C64::new(tw[k].re, -tw[k].im) } else { tw[k] };
            let h = hi[k];
            let l = lo[k];
            // Lane order of the AVX2 addsub: re·re − im·im, im·re + re·im.
            let vre = h.re * w.re - h.im * w.im;
            let vim = h.im * w.re + h.re * w.im;
            lo[k] = C64::new(l.re + vre, l.im + vim);
            hi[k] = C64::new(l.re - vre, l.im - vim);
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 path
// ---------------------------------------------------------------------

/// Four-lane `f64` implementations. Unaligned loads/stores throughout
/// (`Vec<f64>` gives no 32-byte guarantee); every arithmetic step is a
/// separate `vmulpd`/`vaddpd`/`vsubpd`/`vdivpd` so lane `i` performs
/// the scalar path's exact operation sequence — FMA contraction is
/// deliberately absent. Tails shorter than one vector defer to the
/// [`scalar`] functions on the remaining subslice.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_movedup_pd,
        _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm256_xor_pd,
    };

    use super::scalar;
    use crate::fft::C64;

    /// `f64` lanes per vector.
    const LANES: usize = 4;

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(dst: &mut [f64], src: &[f64], s: f64) {
        let n4 = dst.len() & !(LANES - 1);
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_mul_pd(vs, x));
            i += LANES;
        }
        scalar::scale(&mut dst[n4..], &src[n4..], s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_in_place(dst: &mut [f64], s: f64) {
        let n4 = dst.len() & !(LANES - 1);
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(dst.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_mul_pd(x, vs));
            i += LANES;
        }
        scalar::scale_in_place(&mut dst[n4..], s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n4 = dst.len() & !(LANES - 1);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(x, y));
            i += LANES;
        }
        scalar::add(&mut dst[n4..], &a[n4..], &b[n4..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn triad(dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        let n4 = dst.len() & !(LANES - 1);
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            let t = _mm256_mul_pd(vs, y);
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(x, t));
            i += LANES;
        }
        scalar::triad(&mut dst[n4..], &a[n4..], &b[n4..], s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f64], x: &[f64], a: f64) {
        let n4 = y.len() & !(LANES - 1);
        let va = _mm256_set1_pd(a);
        let mut i = 0;
        while i < n4 {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let t = _mm256_mul_pd(va, xv);
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_add_pd(yv, t));
            i += LANES;
        }
        scalar::axpy(&mut y[n4..], &x[n4..], a);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn xpby(y: &mut [f64], x: &[f64], b: f64) {
        let n4 = y.len() & !(LANES - 1);
        let vb = _mm256_set1_pd(b);
        let mut i = 0;
        while i < n4 {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let t = _mm256_mul_pd(vb, yv);
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_add_pd(xv, t));
            i += LANES;
        }
        scalar::xpby(&mut y[n4..], &x[n4..], b);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_div(dst: &mut [f64], src: &[f64], d: f64) {
        let n4 = dst.len() & !(LANES - 1);
        let vd = _mm256_set1_pd(d);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_div_pd(x, vd));
            i += LANES;
        }
        scalar::scale_div(&mut dst[n4..], &src[n4..], d);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n4 = a.len() & !(LANES - 1);
        let mut vacc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            // Lane j accumulates index 4k+j products: the strided layout.
            vacc = _mm256_add_pd(vacc, _mm256_mul_pd(x, y));
            i += LANES;
        }
        let mut acc = [0.0f64; 4];
        _mm256_storeu_pd(acc.as_mut_ptr(), vacc);
        scalar::dot_tail(&mut acc, &a[n4..], &b[n4..]);
        scalar::dot_combine(acc)
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn update4(
        c: &mut [f64],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
        a0: f64,
        a1: f64,
        a2: f64,
        a3: f64,
    ) {
        let n4 = c.len() & !(LANES - 1);
        let va0 = _mm256_set1_pd(a0);
        let va1 = _mm256_set1_pd(a1);
        let va2 = _mm256_set1_pd(a2);
        let va3 = _mm256_set1_pd(a3);
        let mut i = 0;
        while i < n4 {
            // t = ((a0·b0 + a1·b1) + a2·b2) + a3·b3, then c += t —
            // the scalar expression's association, lane for lane.
            let t0 = _mm256_mul_pd(va0, _mm256_loadu_pd(b0.as_ptr().add(i)));
            let t1 = _mm256_mul_pd(va1, _mm256_loadu_pd(b1.as_ptr().add(i)));
            let t2 = _mm256_mul_pd(va2, _mm256_loadu_pd(b2.as_ptr().add(i)));
            let t3 = _mm256_mul_pd(va3, _mm256_loadu_pd(b3.as_ptr().add(i)));
            let s = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(t0, t1), t2), t3);
            let cv = _mm256_loadu_pd(c.as_ptr().add(i));
            _mm256_storeu_pd(c.as_mut_ptr().add(i), _mm256_add_pd(cv, s));
            i += LANES;
        }
        scalar::update4(&mut c[n4..], &b0[n4..], &b1[n4..], &b2[n4..], &b3[n4..], a0, a1, a2, a3);
    }

    /// The fused DGEMM tile kernel. Per element this performs exactly
    /// the scalar path's k-quad `update4` expressions and `axpy`
    /// singles, in the same order — but the C accumulators live in
    /// registers for the whole k loop (intermediate loads/stores round
    /// nothing, so eliding them is bitwise-neutral). k is walked in
    /// `KC`-sized blocks so the scaled multipliers `alpha·a[k]` fit a
    /// stack buffer; `KC` is a multiple of 4, so blocking never splits
    /// a quad and the quad/single grouping matches the scalar path.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_row_update(c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        const KC: usize = 64;
        let jw = c.len();
        let kw = a.len();
        let mut k0 = 0;
        while k0 < kw {
            let kc = (kw - k0).min(KC);
            let mut sa = [0.0f64; KC];
            for (s, &av) in sa[..kc].iter_mut().zip(&a[k0..k0 + kc]) {
                *s = alpha * av;
            }
            let bt0 = bt.as_ptr().add(k0 * jw);
            // Eight columns per pass: two independent accumulator
            // chains hide the add latency the single-chain quad loop
            // would serialize on.
            let mut j = 0;
            while j + 8 <= jw {
                let mut c0 = _mm256_loadu_pd(c.as_ptr().add(j));
                let mut c1 = _mm256_loadu_pd(c.as_ptr().add(j + 4));
                let mut kk = 0;
                while kk + 4 <= kc {
                    let va0 = _mm256_set1_pd(sa[kk]);
                    let va1 = _mm256_set1_pd(sa[kk + 1]);
                    let va2 = _mm256_set1_pd(sa[kk + 2]);
                    let va3 = _mm256_set1_pd(sa[kk + 3]);
                    let r0 = bt0.add(kk * jw + j);
                    let r1 = bt0.add((kk + 1) * jw + j);
                    let r2 = bt0.add((kk + 2) * jw + j);
                    let r3 = bt0.add((kk + 3) * jw + j);
                    let s0 = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(
                                _mm256_mul_pd(va0, _mm256_loadu_pd(r0)),
                                _mm256_mul_pd(va1, _mm256_loadu_pd(r1)),
                            ),
                            _mm256_mul_pd(va2, _mm256_loadu_pd(r2)),
                        ),
                        _mm256_mul_pd(va3, _mm256_loadu_pd(r3)),
                    );
                    c0 = _mm256_add_pd(c0, s0);
                    let s1 = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(
                                _mm256_mul_pd(va0, _mm256_loadu_pd(r0.add(4))),
                                _mm256_mul_pd(va1, _mm256_loadu_pd(r1.add(4))),
                            ),
                            _mm256_mul_pd(va2, _mm256_loadu_pd(r2.add(4))),
                        ),
                        _mm256_mul_pd(va3, _mm256_loadu_pd(r3.add(4))),
                    );
                    c1 = _mm256_add_pd(c1, s1);
                    kk += 4;
                }
                while kk < kc {
                    let va = _mm256_set1_pd(sa[kk]);
                    let r = bt0.add(kk * jw + j);
                    c0 = _mm256_add_pd(c0, _mm256_mul_pd(va, _mm256_loadu_pd(r)));
                    c1 = _mm256_add_pd(c1, _mm256_mul_pd(va, _mm256_loadu_pd(r.add(4))));
                    kk += 1;
                }
                _mm256_storeu_pd(c.as_mut_ptr().add(j), c0);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 4), c1);
                j += 8;
            }
            while j + 4 <= jw {
                let mut c0 = _mm256_loadu_pd(c.as_ptr().add(j));
                let mut kk = 0;
                while kk + 4 <= kc {
                    let s0 = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(
                                _mm256_mul_pd(
                                    _mm256_set1_pd(sa[kk]),
                                    _mm256_loadu_pd(bt0.add(kk * jw + j)),
                                ),
                                _mm256_mul_pd(
                                    _mm256_set1_pd(sa[kk + 1]),
                                    _mm256_loadu_pd(bt0.add((kk + 1) * jw + j)),
                                ),
                            ),
                            _mm256_mul_pd(
                                _mm256_set1_pd(sa[kk + 2]),
                                _mm256_loadu_pd(bt0.add((kk + 2) * jw + j)),
                            ),
                        ),
                        _mm256_mul_pd(
                            _mm256_set1_pd(sa[kk + 3]),
                            _mm256_loadu_pd(bt0.add((kk + 3) * jw + j)),
                        ),
                    );
                    c0 = _mm256_add_pd(c0, s0);
                    kk += 4;
                }
                while kk < kc {
                    let va = _mm256_set1_pd(sa[kk]);
                    c0 =
                        _mm256_add_pd(c0, _mm256_mul_pd(va, _mm256_loadu_pd(bt0.add(kk * jw + j))));
                    kk += 1;
                }
                _mm256_storeu_pd(c.as_mut_ptr().add(j), c0);
                j += 4;
            }
            // Column tail: the same per-element expressions, plain Rust.
            while j < jw {
                let mut cj = c[j];
                let mut kk = 0;
                while kk + 4 <= kc {
                    cj += sa[kk] * *bt0.add(kk * jw + j)
                        + sa[kk + 1] * *bt0.add((kk + 1) * jw + j)
                        + sa[kk + 2] * *bt0.add((kk + 2) * jw + j)
                        + sa[kk + 3] * *bt0.add((kk + 3) * jw + j);
                    kk += 4;
                }
                while kk < kc {
                    cj += sa[kk] * *bt0.add(kk * jw + j);
                    kk += 1;
                }
                c[j] = cj;
                j += 1;
            }
            k0 += kc;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sub2(row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        let n4 = row.len() & !(LANES - 1);
        let vm0 = _mm256_set1_pd(m0);
        let vm1 = _mm256_set1_pd(m1);
        let mut i = 0;
        while i < n4 {
            let t0 = _mm256_mul_pd(vm0, _mm256_loadu_pd(u0.as_ptr().add(i)));
            let t1 = _mm256_mul_pd(vm1, _mm256_loadu_pd(u1.as_ptr().add(i)));
            let s = _mm256_add_pd(t0, t1);
            let r = _mm256_loadu_pd(row.as_ptr().add(i));
            _mm256_storeu_pd(row.as_mut_ptr().add(i), _mm256_sub_pd(r, s));
            i += LANES;
        }
        scalar::sub2(&mut row[n4..], &u0[n4..], &u1[n4..], m0, m1);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn stencil7(
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64],
    ) {
        let n4 = out.len() & !(LANES - 1);
        let six = _mm256_set1_pd(6.0);
        let mut i = 0;
        while i < n4 {
            // 6·uc − uxm − uxp − uym − uyp − uzm − uzp, subtractions in
            // the scalar expression's left-to-right order.
            let mut au = _mm256_mul_pd(six, _mm256_loadu_pd(uc.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uxm.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uxp.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uym.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uyp.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uzm.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uzp.as_ptr().add(i)));
            let vv = _mm256_loadu_pd(v.as_ptr().add(i));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_sub_pd(vv, au));
            i += LANES;
        }
        scalar::stencil7(
            &mut out[n4..],
            &v[n4..],
            &uc[n4..],
            &uxm[n4..],
            &uxp[n4..],
            &uym[n4..],
            &uyp[n4..],
            &uzm[n4..],
            &uzp[n4..],
        );
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
        // Two complexes (four f64) per vector: [re0, im0, re1, im1].
        // C64 is #[repr(C)], so a C64 pointer is a pair-of-f64 pointer.
        let half = lo.len();
        let n2 = half & !1;
        // Conjugation flips the sign bit of the imaginary lanes — the
        // exact operation the scalar path's `-tw[k].im` performs.
        let conj_mask = if conj {
            _mm256_loadu_pd([0.0f64, -0.0, 0.0, -0.0].as_ptr())
        } else {
            _mm256_setzero_pd()
        };
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let tp = tw.as_ptr() as *const f64;
        let mut k = 0;
        while k < n2 {
            let w = _mm256_xor_pd(_mm256_loadu_pd(tp.add(2 * k)), conj_mask);
            let h = _mm256_loadu_pd(hp.add(2 * k));
            let l = _mm256_loadu_pd(lp.add(2 * k));
            // v = h·w: addsub(h·dup(w.re), swap(h)·dup(w.im)) gives
            // (h.re·w.re − h.im·w.im, h.im·w.re + h.re·w.im) per complex.
            let wre = _mm256_movedup_pd(w);
            let wim = _mm256_permute_pd::<0b1111>(w);
            let hswap = _mm256_permute_pd::<0b0101>(h);
            let v = _mm256_addsub_pd(_mm256_mul_pd(h, wre), _mm256_mul_pd(hswap, wim));
            _mm256_storeu_pd(lp.add(2 * k), _mm256_add_pd(l, v));
            _mm256_storeu_pd(hp.add(2 * k), _mm256_sub_pd(l, v));
            k += 2;
        }
        scalar::butterfly(&mut lo[n2..], &mut hi[n2..], &tw[n2..], conj);
    }
}

// ---------------------------------------------------------------------
// FMA tolerance tier
// ---------------------------------------------------------------------

/// The fused AVX2+FMA tier — the one module exempt from the bitwise
/// contract. Each `_mm256_fmadd_pd` performs one rounding where the
/// scalar path performs two, so results differ from scalar by at most
/// the documented componentwise tolerance (module docs) while being
/// pointwise *closer* to the exact value. Ops with no multiply-add to
/// fuse (`scale`, `scale_in_place`, `add`, `scale_div`) are dispatched
/// to the [`avx2`] bodies and stay bitwise. Sub-vector tails use
/// `f64::mul_add`, which compiles to the scalar FMA instruction inside
/// these `target_feature` functions, so tails obey the same bound.
#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_fmadd_pd, _mm256_fmaddsub_pd, _mm256_fmsub_pd, _mm256_fnmadd_pd,
        _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
    };

    use super::scalar;
    use crate::fft::C64;

    /// `f64` lanes per vector.
    const LANES: usize = 4;

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn triad(dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        let n4 = dst.len() & !(LANES - 1);
        let vs = _mm256_set1_pd(s);
        let mut i = 0;
        while i < n4 {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_fmadd_pd(vs, y, x));
            i += LANES;
        }
        for j in n4..dst.len() {
            dst[j] = s.mul_add(b[j], a[j]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(y: &mut [f64], x: &[f64], a: f64) {
        let n4 = y.len() & !(LANES - 1);
        let va = _mm256_set1_pd(a);
        let mut i = 0;
        while i < n4 {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(va, xv, yv));
            i += LANES;
        }
        for j in n4..y.len() {
            y[j] = a.mul_add(x[j], y[j]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn xpby(y: &mut [f64], x: &[f64], b: f64) {
        let n4 = y.len() & !(LANES - 1);
        let vb = _mm256_set1_pd(b);
        let mut i = 0;
        while i < n4 {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(vb, yv, xv));
            i += LANES;
        }
        for j in n4..y.len() {
            y[j] = b.mul_add(y[j], x[j]);
        }
    }

    /// Two fused accumulator chains over eight elements per pass; the
    /// tolerance tier keeps the 4-accumulator *combine* of the
    /// contract so its value stays comparable to the bitwise dots.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let n8 = n & !(2 * LANES - 1);
        let n4 = n & !(LANES - 1);
        let mut vacc0 = _mm256_setzero_pd();
        let mut vacc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            let x0 = _mm256_loadu_pd(a.as_ptr().add(i));
            let y0 = _mm256_loadu_pd(b.as_ptr().add(i));
            vacc0 = _mm256_fmadd_pd(x0, y0, vacc0);
            let x1 = _mm256_loadu_pd(a.as_ptr().add(i + LANES));
            let y1 = _mm256_loadu_pd(b.as_ptr().add(i + LANES));
            vacc1 = _mm256_fmadd_pd(x1, y1, vacc1);
            i += 2 * LANES;
        }
        if i < n4 {
            let x = _mm256_loadu_pd(a.as_ptr().add(i));
            let y = _mm256_loadu_pd(b.as_ptr().add(i));
            vacc0 = _mm256_fmadd_pd(x, y, vacc0);
        }
        let mut acc = [0.0f64; 4];
        _mm256_storeu_pd(acc.as_mut_ptr(), _mm256_add_pd(vacc0, vacc1));
        for (j, idx) in (n4..n).enumerate() {
            acc[j] = a[idx].mul_add(b[idx], acc[j]);
        }
        scalar::dot_combine(acc)
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn update4(
        c: &mut [f64],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
        a0: f64,
        a1: f64,
        a2: f64,
        a3: f64,
    ) {
        let n4 = c.len() & !(LANES - 1);
        let va0 = _mm256_set1_pd(a0);
        let va1 = _mm256_set1_pd(a1);
        let va2 = _mm256_set1_pd(a2);
        let va3 = _mm256_set1_pd(a3);
        let mut i = 0;
        while i < n4 {
            let mut cv = _mm256_loadu_pd(c.as_ptr().add(i));
            cv = _mm256_fmadd_pd(va0, _mm256_loadu_pd(b0.as_ptr().add(i)), cv);
            cv = _mm256_fmadd_pd(va1, _mm256_loadu_pd(b1.as_ptr().add(i)), cv);
            cv = _mm256_fmadd_pd(va2, _mm256_loadu_pd(b2.as_ptr().add(i)), cv);
            cv = _mm256_fmadd_pd(va3, _mm256_loadu_pd(b3.as_ptr().add(i)), cv);
            _mm256_storeu_pd(c.as_mut_ptr().add(i), cv);
            i += LANES;
        }
        for j in n4..c.len() {
            c[j] = a3.mul_add(b3[j], a2.mul_add(b2[j], a1.mul_add(b1[j], a0.mul_add(b0[j], c[j]))));
        }
    }

    /// The wide register tile of the tolerance tier: **eight** fused
    /// accumulator chains spanning 32 C columns per pass (vs the
    /// bitwise kernel's two chains over 8), with one fmadd per packed
    /// B row — half the arithmetic ops of the mul+add kernel and four
    /// times the chain-level parallelism, which is where the measured
    /// DGEMM headroom of this tier comes from.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_row_update(c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        const KC: usize = 64;
        let jw = c.len();
        let kw = a.len();
        let mut k0 = 0;
        while k0 < kw {
            let kc = (kw - k0).min(KC);
            let mut sa = [0.0f64; KC];
            for (s, &av) in sa[..kc].iter_mut().zip(&a[k0..k0 + kc]) {
                *s = alpha * av;
            }
            let bt0 = bt.as_ptr().add(k0 * jw);
            let mut j = 0;
            while j + 8 * LANES <= jw {
                let mut c0 = _mm256_loadu_pd(c.as_ptr().add(j));
                let mut c1 = _mm256_loadu_pd(c.as_ptr().add(j + 4));
                let mut c2 = _mm256_loadu_pd(c.as_ptr().add(j + 8));
                let mut c3 = _mm256_loadu_pd(c.as_ptr().add(j + 12));
                let mut c4 = _mm256_loadu_pd(c.as_ptr().add(j + 16));
                let mut c5 = _mm256_loadu_pd(c.as_ptr().add(j + 20));
                let mut c6 = _mm256_loadu_pd(c.as_ptr().add(j + 24));
                let mut c7 = _mm256_loadu_pd(c.as_ptr().add(j + 28));
                for (kk, &s) in sa[..kc].iter().enumerate() {
                    let va = _mm256_set1_pd(s);
                    let r = bt0.add(kk * jw + j);
                    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r), c0);
                    c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(4)), c1);
                    c2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(8)), c2);
                    c3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(12)), c3);
                    c4 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(16)), c4);
                    c5 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(20)), c5);
                    c6 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(24)), c6);
                    c7 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(28)), c7);
                }
                _mm256_storeu_pd(c.as_mut_ptr().add(j), c0);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 4), c1);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 8), c2);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 12), c3);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 16), c4);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 20), c5);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 24), c6);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 28), c7);
                j += 8 * LANES;
            }
            while j + 2 * LANES <= jw {
                let mut c0 = _mm256_loadu_pd(c.as_ptr().add(j));
                let mut c1 = _mm256_loadu_pd(c.as_ptr().add(j + 4));
                for (kk, &s) in sa[..kc].iter().enumerate() {
                    let va = _mm256_set1_pd(s);
                    let r = bt0.add(kk * jw + j);
                    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r), c0);
                    c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(r.add(4)), c1);
                }
                _mm256_storeu_pd(c.as_mut_ptr().add(j), c0);
                _mm256_storeu_pd(c.as_mut_ptr().add(j + 4), c1);
                j += 2 * LANES;
            }
            while j + LANES <= jw {
                let mut c0 = _mm256_loadu_pd(c.as_ptr().add(j));
                for (kk, &s) in sa[..kc].iter().enumerate() {
                    let va = _mm256_set1_pd(s);
                    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(bt0.add(kk * jw + j)), c0);
                }
                _mm256_storeu_pd(c.as_mut_ptr().add(j), c0);
                j += LANES;
            }
            while j < jw {
                let mut cj = c[j];
                for (kk, &s) in sa[..kc].iter().enumerate() {
                    cj = s.mul_add(*bt0.add(kk * jw + j), cj);
                }
                c[j] = cj;
                j += 1;
            }
            k0 += kc;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sub2(row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        let n4 = row.len() & !(LANES - 1);
        let vm0 = _mm256_set1_pd(m0);
        let vm1 = _mm256_set1_pd(m1);
        let mut i = 0;
        while i < n4 {
            let r = _mm256_loadu_pd(row.as_ptr().add(i));
            let t = _mm256_fnmadd_pd(vm0, _mm256_loadu_pd(u0.as_ptr().add(i)), r);
            let t = _mm256_fnmadd_pd(vm1, _mm256_loadu_pd(u1.as_ptr().add(i)), t);
            _mm256_storeu_pd(row.as_mut_ptr().add(i), t);
            i += LANES;
        }
        for j in n4..row.len() {
            row[j] = (-m1).mul_add(u1[j], (-m0).mul_add(u0[j], row[j]));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn stencil7(
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64],
    ) {
        let n4 = out.len() & !(LANES - 1);
        let six = _mm256_set1_pd(6.0);
        let mut i = 0;
        while i < n4 {
            // au = 6·uc − uxm fused, then the remaining subtractions.
            let mut au = _mm256_fmsub_pd(
                six,
                _mm256_loadu_pd(uc.as_ptr().add(i)),
                _mm256_loadu_pd(uxm.as_ptr().add(i)),
            );
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uxp.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uym.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uyp.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uzm.as_ptr().add(i)));
            au = _mm256_sub_pd(au, _mm256_loadu_pd(uzp.as_ptr().add(i)));
            let vv = _mm256_loadu_pd(v.as_ptr().add(i));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_sub_pd(vv, au));
            i += LANES;
        }
        for j in n4..out.len() {
            let au = 6.0f64.mul_add(uc[j], -uxm[j]) - uxp[j] - uym[j] - uyp[j] - uzm[j] - uzp[j];
            out[j] = v[j] - au;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn butterfly(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
        // Same two-complex layout as the AVX2 kernel; the complex
        // multiply fuses into one fmaddsub per vector.
        let half = lo.len();
        let n2 = half & !1;
        let conj_mask = if conj {
            _mm256_loadu_pd([0.0f64, -0.0, 0.0, -0.0].as_ptr())
        } else {
            _mm256_setzero_pd()
        };
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let tp = tw.as_ptr() as *const f64;
        let mut k = 0;
        while k < n2 {
            let w = _mm256_xor_pd(_mm256_loadu_pd(tp.add(2 * k)), conj_mask);
            let h = _mm256_loadu_pd(hp.add(2 * k));
            let l = _mm256_loadu_pd(lp.add(2 * k));
            let wre = _mm256_movedup_pd(w);
            let wim = _mm256_permute_pd::<0b1111>(w);
            let hswap = _mm256_permute_pd::<0b0101>(h);
            let v = _mm256_fmaddsub_pd(h, wre, _mm256_mul_pd(hswap, wim));
            _mm256_storeu_pd(lp.add(2 * k), _mm256_add_pd(l, v));
            _mm256_storeu_pd(hp.add(2 * k), _mm256_sub_pd(l, v));
            k += 2;
        }
        scalar::butterfly(&mut lo[n2..], &mut hi[n2..], &tw[n2..], conj);
    }
}

// ---------------------------------------------------------------------
// AVX-512 path (bitwise tier)
// ---------------------------------------------------------------------

/// Eight-lane `f64` implementations of the element-wise spans and the
/// fused tile kernel. Same rules as [`avx2`]: separate per-lane
/// mul/add/sub/div in the scalar expression's association order, never
/// FMA; tails defer to the [`scalar`] functions. The reduction
/// ([`super::dot`]) and the butterfly stay on the AVX2 bodies — the
/// contract's 4-accumulator layout and addsub shape are 256-bit-wide
/// by definition.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_div_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd,
        _mm512_storeu_pd, _mm512_sub_pd,
    };

    use super::scalar;

    /// `f64` lanes per vector.
    const LANES: usize = 8;

    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale(dst: &mut [f64], src: &[f64], s: f64) {
        let n8 = dst.len() & !(LANES - 1);
        let vs = _mm512_set1_pd(s);
        let mut i = 0;
        while i < n8 {
            let x = _mm512_loadu_pd(src.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_mul_pd(vs, x));
            i += LANES;
        }
        scalar::scale(&mut dst[n8..], &src[n8..], s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale_in_place(dst: &mut [f64], s: f64) {
        let n8 = dst.len() & !(LANES - 1);
        let vs = _mm512_set1_pd(s);
        let mut i = 0;
        while i < n8 {
            let x = _mm512_loadu_pd(dst.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_mul_pd(x, vs));
            i += LANES;
        }
        scalar::scale_in_place(&mut dst[n8..], s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn add(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n8 = dst.len() & !(LANES - 1);
        let mut i = 0;
        while i < n8 {
            let x = _mm512_loadu_pd(a.as_ptr().add(i));
            let y = _mm512_loadu_pd(b.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_add_pd(x, y));
            i += LANES;
        }
        scalar::add(&mut dst[n8..], &a[n8..], &b[n8..]);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn triad(dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        let n8 = dst.len() & !(LANES - 1);
        let vs = _mm512_set1_pd(s);
        let mut i = 0;
        while i < n8 {
            let x = _mm512_loadu_pd(a.as_ptr().add(i));
            let y = _mm512_loadu_pd(b.as_ptr().add(i));
            let t = _mm512_mul_pd(vs, y);
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_add_pd(x, t));
            i += LANES;
        }
        scalar::triad(&mut dst[n8..], &a[n8..], &b[n8..], s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy(y: &mut [f64], x: &[f64], a: f64) {
        let n8 = y.len() & !(LANES - 1);
        let va = _mm512_set1_pd(a);
        let mut i = 0;
        while i < n8 {
            let xv = _mm512_loadu_pd(x.as_ptr().add(i));
            let yv = _mm512_loadu_pd(y.as_ptr().add(i));
            let t = _mm512_mul_pd(va, xv);
            _mm512_storeu_pd(y.as_mut_ptr().add(i), _mm512_add_pd(yv, t));
            i += LANES;
        }
        scalar::axpy(&mut y[n8..], &x[n8..], a);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn xpby(y: &mut [f64], x: &[f64], b: f64) {
        let n8 = y.len() & !(LANES - 1);
        let vb = _mm512_set1_pd(b);
        let mut i = 0;
        while i < n8 {
            let xv = _mm512_loadu_pd(x.as_ptr().add(i));
            let yv = _mm512_loadu_pd(y.as_ptr().add(i));
            let t = _mm512_mul_pd(vb, yv);
            _mm512_storeu_pd(y.as_mut_ptr().add(i), _mm512_add_pd(xv, t));
            i += LANES;
        }
        scalar::xpby(&mut y[n8..], &x[n8..], b);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale_div(dst: &mut [f64], src: &[f64], d: f64) {
        let n8 = dst.len() & !(LANES - 1);
        let vd = _mm512_set1_pd(d);
        let mut i = 0;
        while i < n8 {
            let x = _mm512_loadu_pd(src.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_div_pd(x, vd));
            i += LANES;
        }
        scalar::scale_div(&mut dst[n8..], &src[n8..], d);
    }

    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn update4(
        c: &mut [f64],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
        a0: f64,
        a1: f64,
        a2: f64,
        a3: f64,
    ) {
        let n8 = c.len() & !(LANES - 1);
        let va0 = _mm512_set1_pd(a0);
        let va1 = _mm512_set1_pd(a1);
        let va2 = _mm512_set1_pd(a2);
        let va3 = _mm512_set1_pd(a3);
        let mut i = 0;
        while i < n8 {
            let t0 = _mm512_mul_pd(va0, _mm512_loadu_pd(b0.as_ptr().add(i)));
            let t1 = _mm512_mul_pd(va1, _mm512_loadu_pd(b1.as_ptr().add(i)));
            let t2 = _mm512_mul_pd(va2, _mm512_loadu_pd(b2.as_ptr().add(i)));
            let t3 = _mm512_mul_pd(va3, _mm512_loadu_pd(b3.as_ptr().add(i)));
            let s = _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(t0, t1), t2), t3);
            let cv = _mm512_loadu_pd(c.as_ptr().add(i));
            _mm512_storeu_pd(c.as_mut_ptr().add(i), _mm512_add_pd(cv, s));
            i += LANES;
        }
        scalar::update4(&mut c[n8..], &b0[n8..], &b1[n8..], &b2[n8..], &b3[n8..], a0, a1, a2, a3);
    }

    /// The fused tile kernel at 512-bit width: 16 columns per pass via
    /// two accumulator chains, the same k-quad/single grouping and
    /// per-element association as the scalar definition.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_row_update(c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        const KC: usize = 64;
        let jw = c.len();
        let kw = a.len();
        let mut k0 = 0;
        while k0 < kw {
            let kc = (kw - k0).min(KC);
            let mut sa = [0.0f64; KC];
            for (s, &av) in sa[..kc].iter_mut().zip(&a[k0..k0 + kc]) {
                *s = alpha * av;
            }
            let bt0 = bt.as_ptr().add(k0 * jw);
            let mut j = 0;
            while j + 2 * LANES <= jw {
                let mut c0 = _mm512_loadu_pd(c.as_ptr().add(j));
                let mut c1 = _mm512_loadu_pd(c.as_ptr().add(j + LANES));
                let mut kk = 0;
                while kk + 4 <= kc {
                    let va0 = _mm512_set1_pd(sa[kk]);
                    let va1 = _mm512_set1_pd(sa[kk + 1]);
                    let va2 = _mm512_set1_pd(sa[kk + 2]);
                    let va3 = _mm512_set1_pd(sa[kk + 3]);
                    let r0 = bt0.add(kk * jw + j);
                    let r1 = bt0.add((kk + 1) * jw + j);
                    let r2 = bt0.add((kk + 2) * jw + j);
                    let r3 = bt0.add((kk + 3) * jw + j);
                    let s0 = _mm512_add_pd(
                        _mm512_add_pd(
                            _mm512_add_pd(
                                _mm512_mul_pd(va0, _mm512_loadu_pd(r0)),
                                _mm512_mul_pd(va1, _mm512_loadu_pd(r1)),
                            ),
                            _mm512_mul_pd(va2, _mm512_loadu_pd(r2)),
                        ),
                        _mm512_mul_pd(va3, _mm512_loadu_pd(r3)),
                    );
                    c0 = _mm512_add_pd(c0, s0);
                    let s1 = _mm512_add_pd(
                        _mm512_add_pd(
                            _mm512_add_pd(
                                _mm512_mul_pd(va0, _mm512_loadu_pd(r0.add(LANES))),
                                _mm512_mul_pd(va1, _mm512_loadu_pd(r1.add(LANES))),
                            ),
                            _mm512_mul_pd(va2, _mm512_loadu_pd(r2.add(LANES))),
                        ),
                        _mm512_mul_pd(va3, _mm512_loadu_pd(r3.add(LANES))),
                    );
                    c1 = _mm512_add_pd(c1, s1);
                    kk += 4;
                }
                while kk < kc {
                    let va = _mm512_set1_pd(sa[kk]);
                    let r = bt0.add(kk * jw + j);
                    c0 = _mm512_add_pd(c0, _mm512_mul_pd(va, _mm512_loadu_pd(r)));
                    c1 = _mm512_add_pd(c1, _mm512_mul_pd(va, _mm512_loadu_pd(r.add(LANES))));
                    kk += 1;
                }
                _mm512_storeu_pd(c.as_mut_ptr().add(j), c0);
                _mm512_storeu_pd(c.as_mut_ptr().add(j + LANES), c1);
                j += 2 * LANES;
            }
            while j + LANES <= jw {
                let mut c0 = _mm512_loadu_pd(c.as_ptr().add(j));
                let mut kk = 0;
                while kk + 4 <= kc {
                    let s0 = _mm512_add_pd(
                        _mm512_add_pd(
                            _mm512_add_pd(
                                _mm512_mul_pd(
                                    _mm512_set1_pd(sa[kk]),
                                    _mm512_loadu_pd(bt0.add(kk * jw + j)),
                                ),
                                _mm512_mul_pd(
                                    _mm512_set1_pd(sa[kk + 1]),
                                    _mm512_loadu_pd(bt0.add((kk + 1) * jw + j)),
                                ),
                            ),
                            _mm512_mul_pd(
                                _mm512_set1_pd(sa[kk + 2]),
                                _mm512_loadu_pd(bt0.add((kk + 2) * jw + j)),
                            ),
                        ),
                        _mm512_mul_pd(
                            _mm512_set1_pd(sa[kk + 3]),
                            _mm512_loadu_pd(bt0.add((kk + 3) * jw + j)),
                        ),
                    );
                    c0 = _mm512_add_pd(c0, s0);
                    kk += 4;
                }
                while kk < kc {
                    let va = _mm512_set1_pd(sa[kk]);
                    c0 =
                        _mm512_add_pd(c0, _mm512_mul_pd(va, _mm512_loadu_pd(bt0.add(kk * jw + j))));
                    kk += 1;
                }
                _mm512_storeu_pd(c.as_mut_ptr().add(j), c0);
                j += LANES;
            }
            // Column tail: the same per-element expressions, plain Rust.
            while j < jw {
                let mut cj = c[j];
                let mut kk = 0;
                while kk + 4 <= kc {
                    cj += sa[kk] * *bt0.add(kk * jw + j)
                        + sa[kk + 1] * *bt0.add((kk + 1) * jw + j)
                        + sa[kk + 2] * *bt0.add((kk + 2) * jw + j)
                        + sa[kk + 3] * *bt0.add((kk + 3) * jw + j);
                    kk += 4;
                }
                while kk < kc {
                    cj += sa[kk] * *bt0.add(kk * jw + j);
                    kk += 1;
                }
                c[j] = cj;
                j += 1;
            }
            k0 += kc;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn sub2(row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        let n8 = row.len() & !(LANES - 1);
        let vm0 = _mm512_set1_pd(m0);
        let vm1 = _mm512_set1_pd(m1);
        let mut i = 0;
        while i < n8 {
            let t0 = _mm512_mul_pd(vm0, _mm512_loadu_pd(u0.as_ptr().add(i)));
            let t1 = _mm512_mul_pd(vm1, _mm512_loadu_pd(u1.as_ptr().add(i)));
            let s = _mm512_add_pd(t0, t1);
            let r = _mm512_loadu_pd(row.as_ptr().add(i));
            _mm512_storeu_pd(row.as_mut_ptr().add(i), _mm512_sub_pd(r, s));
            i += LANES;
        }
        scalar::sub2(&mut row[n8..], &u0[n8..], &u1[n8..], m0, m1);
    }

    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn stencil7(
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64],
    ) {
        let n8 = out.len() & !(LANES - 1);
        let six = _mm512_set1_pd(6.0);
        let mut i = 0;
        while i < n8 {
            let mut au = _mm512_mul_pd(six, _mm512_loadu_pd(uc.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uxm.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uxp.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uym.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uyp.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uzm.as_ptr().add(i)));
            au = _mm512_sub_pd(au, _mm512_loadu_pd(uzp.as_ptr().add(i)));
            let vv = _mm512_loadu_pd(v.as_ptr().add(i));
            _mm512_storeu_pd(out.as_mut_ptr().add(i), _mm512_sub_pd(vv, au));
            i += LANES;
        }
        scalar::stencil7(
            &mut out[n8..],
            &v[n8..],
            &uc[n8..],
            &uxm[n8..],
            &uxp[n8..],
            &uym[n8..],
            &uyp[n8..],
            &uzm[n8..],
            &uzp[n8..],
        );
    }
}

// ---------------------------------------------------------------------
// NEON path (bitwise tier, aarch64)
// ---------------------------------------------------------------------

/// Two-lane `f64` NEON implementations, bitwise equal to scalar by the
/// same rules as [`avx2`]: per-lane mul/add/sub/div in the scalar
/// association order, never `vfmaq`; tails defer to [`scalar`]. The
/// contract's four dot accumulators split across two 128-bit vectors
/// (`acc01` holds strides 4k/4k+1, `acc23` holds 4k+2/4k+3), so lane
/// contents match the scalar accumulators element for element. This
/// module compiles only on aarch64; CI's cross-`cargo check` gate
/// keeps it building without ARM hardware in the loop.
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        vaddq_f64, vdivq_f64, vdupq_laneq_f64, vdupq_n_f64, veorq_u64, vextq_f64, vgetq_lane_f64,
        vld1q_f64, vmulq_f64, vreinterpretq_f64_u64, vreinterpretq_u64_f64, vst1q_f64, vsubq_f64,
    };

    use super::scalar;
    use crate::fft::C64;

    /// `f64` lanes per vector.
    const LANES: usize = 2;

    #[target_feature(enable = "neon")]
    pub unsafe fn scale(dst: &mut [f64], src: &[f64], s: f64) {
        let n2 = dst.len() & !(LANES - 1);
        let vs = vdupq_n_f64(s);
        let mut i = 0;
        while i < n2 {
            let x = vld1q_f64(src.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vmulq_f64(vs, x));
            i += LANES;
        }
        scalar::scale(&mut dst[n2..], &src[n2..], s);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn scale_in_place(dst: &mut [f64], s: f64) {
        let n2 = dst.len() & !(LANES - 1);
        let vs = vdupq_n_f64(s);
        let mut i = 0;
        while i < n2 {
            let x = vld1q_f64(dst.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vmulq_f64(x, vs));
            i += LANES;
        }
        scalar::scale_in_place(&mut dst[n2..], s);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n2 = dst.len() & !(LANES - 1);
        let mut i = 0;
        while i < n2 {
            let x = vld1q_f64(a.as_ptr().add(i));
            let y = vld1q_f64(b.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(x, y));
            i += LANES;
        }
        scalar::add(&mut dst[n2..], &a[n2..], &b[n2..]);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn triad(dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        let n2 = dst.len() & !(LANES - 1);
        let vs = vdupq_n_f64(s);
        let mut i = 0;
        while i < n2 {
            let x = vld1q_f64(a.as_ptr().add(i));
            let y = vld1q_f64(b.as_ptr().add(i));
            let t = vmulq_f64(vs, y);
            vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(x, t));
            i += LANES;
        }
        scalar::triad(&mut dst[n2..], &a[n2..], &b[n2..], s);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(y: &mut [f64], x: &[f64], a: f64) {
        let n2 = y.len() & !(LANES - 1);
        let va = vdupq_n_f64(a);
        let mut i = 0;
        while i < n2 {
            let xv = vld1q_f64(x.as_ptr().add(i));
            let yv = vld1q_f64(y.as_ptr().add(i));
            let t = vmulq_f64(va, xv);
            vst1q_f64(y.as_mut_ptr().add(i), vaddq_f64(yv, t));
            i += LANES;
        }
        scalar::axpy(&mut y[n2..], &x[n2..], a);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn xpby(y: &mut [f64], x: &[f64], b: f64) {
        let n2 = y.len() & !(LANES - 1);
        let vb = vdupq_n_f64(b);
        let mut i = 0;
        while i < n2 {
            let xv = vld1q_f64(x.as_ptr().add(i));
            let yv = vld1q_f64(y.as_ptr().add(i));
            let t = vmulq_f64(vb, yv);
            vst1q_f64(y.as_mut_ptr().add(i), vaddq_f64(xv, t));
            i += LANES;
        }
        scalar::xpby(&mut y[n2..], &x[n2..], b);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn scale_div(dst: &mut [f64], src: &[f64], d: f64) {
        let n2 = dst.len() & !(LANES - 1);
        let vd = vdupq_n_f64(d);
        let mut i = 0;
        while i < n2 {
            let x = vld1q_f64(src.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vdivq_f64(x, vd));
            i += LANES;
        }
        scalar::scale_div(&mut dst[n2..], &src[n2..], d);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n4 = a.len() & !3;
        let mut acc01 = vdupq_n_f64(0.0);
        let mut acc23 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i < n4 {
            let x0 = vld1q_f64(a.as_ptr().add(i));
            let y0 = vld1q_f64(b.as_ptr().add(i));
            acc01 = vaddq_f64(acc01, vmulq_f64(x0, y0));
            let x1 = vld1q_f64(a.as_ptr().add(i + 2));
            let y1 = vld1q_f64(b.as_ptr().add(i + 2));
            acc23 = vaddq_f64(acc23, vmulq_f64(x1, y1));
            i += 4;
        }
        let mut acc = [
            vgetq_lane_f64::<0>(acc01),
            vgetq_lane_f64::<1>(acc01),
            vgetq_lane_f64::<0>(acc23),
            vgetq_lane_f64::<1>(acc23),
        ];
        scalar::dot_tail(&mut acc, &a[n4..], &b[n4..]);
        scalar::dot_combine(acc)
    }

    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn update4(
        c: &mut [f64],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
        a0: f64,
        a1: f64,
        a2: f64,
        a3: f64,
    ) {
        let n2 = c.len() & !(LANES - 1);
        let va0 = vdupq_n_f64(a0);
        let va1 = vdupq_n_f64(a1);
        let va2 = vdupq_n_f64(a2);
        let va3 = vdupq_n_f64(a3);
        let mut i = 0;
        while i < n2 {
            let t0 = vmulq_f64(va0, vld1q_f64(b0.as_ptr().add(i)));
            let t1 = vmulq_f64(va1, vld1q_f64(b1.as_ptr().add(i)));
            let t2 = vmulq_f64(va2, vld1q_f64(b2.as_ptr().add(i)));
            let t3 = vmulq_f64(va3, vld1q_f64(b3.as_ptr().add(i)));
            let s = vaddq_f64(vaddq_f64(vaddq_f64(t0, t1), t2), t3);
            let cv = vld1q_f64(c.as_ptr().add(i));
            vst1q_f64(c.as_mut_ptr().add(i), vaddq_f64(cv, s));
            i += LANES;
        }
        scalar::update4(&mut c[n2..], &b0[n2..], &b1[n2..], &b2[n2..], &b3[n2..], a0, a1, a2, a3);
    }

    /// The fused tile kernel as its scalar definition spells it: k-quad
    /// [`update4`] passes then [`axpy`] singles over full rows, with
    /// the vector bodies above. Register-tiling the C row buys little
    /// at 2 lanes, so the NEON kernel keeps the simple shape.
    #[target_feature(enable = "neon")]
    pub unsafe fn tile_row_update(c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        let jw = c.len();
        let kw = a.len();
        let mut kk = 0;
        while kk + 4 <= kw {
            let a0 = alpha * a[kk];
            let a1 = alpha * a[kk + 1];
            let a2 = alpha * a[kk + 2];
            let a3 = alpha * a[kk + 3];
            let (b0, rest) = bt[kk * jw..].split_at(jw);
            let (b1, rest) = rest.split_at(jw);
            let (b2, rest) = rest.split_at(jw);
            update4(c, b0, b1, b2, &rest[..jw], a0, a1, a2, a3);
            kk += 4;
        }
        while kk < kw {
            axpy(c, &bt[kk * jw..kk * jw + jw], alpha * a[kk]);
            kk += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn sub2(row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        let n2 = row.len() & !(LANES - 1);
        let vm0 = vdupq_n_f64(m0);
        let vm1 = vdupq_n_f64(m1);
        let mut i = 0;
        while i < n2 {
            let t0 = vmulq_f64(vm0, vld1q_f64(u0.as_ptr().add(i)));
            let t1 = vmulq_f64(vm1, vld1q_f64(u1.as_ptr().add(i)));
            let s = vaddq_f64(t0, t1);
            let r = vld1q_f64(row.as_ptr().add(i));
            vst1q_f64(row.as_mut_ptr().add(i), vsubq_f64(r, s));
            i += LANES;
        }
        scalar::sub2(&mut row[n2..], &u0[n2..], &u1[n2..], m0, m1);
    }

    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn stencil7(
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64],
    ) {
        let n2 = out.len() & !(LANES - 1);
        let six = vdupq_n_f64(6.0);
        let mut i = 0;
        while i < n2 {
            let mut au = vmulq_f64(six, vld1q_f64(uc.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uxm.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uxp.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uym.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uyp.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uzm.as_ptr().add(i)));
            au = vsubq_f64(au, vld1q_f64(uzp.as_ptr().add(i)));
            let vv = vld1q_f64(v.as_ptr().add(i));
            vst1q_f64(out.as_mut_ptr().add(i), vsubq_f64(vv, au));
            i += LANES;
        }
        scalar::stencil7(
            &mut out[n2..],
            &v[n2..],
            &uc[n2..],
            &uxm[n2..],
            &uxp[n2..],
            &uym[n2..],
            &uyp[n2..],
            &uzm[n2..],
            &uzp[n2..],
        );
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn butterfly(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
        // One complex ([re, im]) per 128-bit vector. C64 is #[repr(C)],
        // so a C64 pointer is a pair-of-f64 pointer.
        let half = lo.len();
        // Conjugation flips the sign bit of the imaginary lane; the
        // addsub shape negates the real lane of the cross term — both
        // are xor with a sign mask, and IEEE `a − b ≡ a + (−b)` bitwise.
        let conj_mask = if conj {
            vreinterpretq_u64_f64(vld1q_f64([0.0f64, -0.0].as_ptr()))
        } else {
            vreinterpretq_u64_f64(vdupq_n_f64(0.0))
        };
        let neg_re = vreinterpretq_u64_f64(vld1q_f64([-0.0f64, 0.0].as_ptr()));
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let tp = tw.as_ptr() as *const f64;
        for k in 0..half {
            let w = vreinterpretq_f64_u64(veorq_u64(
                vreinterpretq_u64_f64(vld1q_f64(tp.add(2 * k))),
                conj_mask,
            ));
            let h = vld1q_f64(hp.add(2 * k));
            let l = vld1q_f64(lp.add(2 * k));
            // v = h·w: [h.re·w.re − h.im·w.im, h.im·w.re + h.re·w.im],
            // lane order exactly as the scalar expressions.
            let wre = vdupq_laneq_f64::<0>(w);
            let wim = vdupq_laneq_f64::<1>(w);
            let hswap = vextq_f64::<1>(h, h);
            let cross = vreinterpretq_f64_u64(veorq_u64(
                vreinterpretq_u64_f64(vmulq_f64(hswap, wim)),
                neg_re,
            ));
            let v = vaddq_f64(vmulq_f64(h, wre), cross);
            vst1q_f64(lp.add(2 * k), vaddq_f64(l, v));
            vst1q_f64(hp.add(2 * k), vsubq_f64(l, v));
        }
    }
}

/// Stubs so the dispatch macro's module-path arms name-resolve on
/// architectures where the matching arm is `cfg`'d out before it can
/// be called.
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {}
#[cfg(not(target_arch = "x86_64"))]
mod fma {}
#[cfg(not(target_arch = "x86_64"))]
mod avx512 {}
#[cfg(not(target_arch = "aarch64"))]
mod neon {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::NpbRng;

    fn vecs(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = NpbRng::new(seed);
        let a = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let b = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let c = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        (a, b, c)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The bitwise modes compared against scalar in the equality tests
    /// below. On hardware missing an ISA the dispatch arm degrades to
    /// a lower bitwise tier, so each comparison is vacuous-but-true
    /// there and a real cross-ISA check where the silicon exists.
    const BITWISE_VECTOR_MODES: [SimdMode; 3] = [SimdMode::Avx2, SimdMode::Avx512, SimdMode::Neon];

    #[test]
    fn mode_resolves_to_a_runnable_path() {
        let m = mode();
        match m {
            SimdMode::Avx2 => assert!(avx2_available()),
            SimdMode::Fma => assert!(fma_available()),
            SimdMode::Avx512 => assert!(avx512_available()),
            SimdMode::Neon => assert!(neon_available()),
            SimdMode::Scalar => {}
        }
    }

    #[test]
    fn requested_tiers_degrade_down_the_ladder() {
        let expect_x86_fallback = if avx2_available() { SimdMode::Avx2 } else { SimdMode::Scalar };
        with_mode(SimdMode::Fma, || {
            let want = if fma_available() { SimdMode::Fma } else { expect_x86_fallback };
            assert_eq!(mode(), want);
        });
        with_mode(SimdMode::Avx512, || {
            let want = if avx512_available() { SimdMode::Avx512 } else { expect_x86_fallback };
            assert_eq!(mode(), want);
        });
        with_mode(SimdMode::Neon, || {
            let want = if neon_available() { SimdMode::Neon } else { SimdMode::Scalar };
            assert_eq!(mode(), want);
        });
    }

    #[test]
    fn tier_labels_and_bitwise_flags() {
        for (m, label, bitwise) in [
            (SimdMode::Scalar, "scalar", true),
            (SimdMode::Avx2, "avx2", true),
            (SimdMode::Fma, "fma", false),
            (SimdMode::Avx512, "avx512", true),
            (SimdMode::Neon, "neon", true),
        ] {
            assert_eq!(m.label(), label);
            assert_eq!(m.bitwise(), bitwise);
        }
    }

    #[test]
    fn with_mode_scopes_and_restores() {
        let outer = mode();
        with_mode(SimdMode::Scalar, || assert_eq!(mode(), SimdMode::Scalar));
        assert_eq!(mode(), outer);
        let caught = std::panic::catch_unwind(|| with_mode(SimdMode::Scalar, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(mode(), outer, "a panic inside with_mode must not leak the request");
    }

    #[test]
    fn elementwise_ops_bitwise_equal_across_paths() {
        // Odd length exercises every tail; the contract holds anyway.
        for len in [1, 3, 4, 7, 16, 61, 256] {
            let (a, b, c0) = vecs(len, 42 + len as u64);
            let pair = |f: &dyn Fn(SimdMode) -> Vec<f64>, v: SimdMode| (f(SimdMode::Scalar), f(v));
            let ops: Vec<Box<dyn Fn(SimdMode) -> Vec<f64>>> = vec![
                Box::new(|m| {
                    let mut d = c0.clone();
                    scale(m, &mut d, &a, 1.7);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    scale_in_place(m, &mut d, -0.3);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    add(m, &mut d, &a, &b);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    triad(m, &mut d, &a, &b, 3.0);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    axpy(m, &mut d, &a, -2.25);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    xpby(m, &mut d, &a, 0.9);
                    d
                }),
                Box::new(|m| {
                    let mut d = c0.clone();
                    scale_div(m, &mut d, &a, 1.3);
                    d
                }),
            ];
            for op in &ops {
                for vm in BITWISE_VECTOR_MODES {
                    let (s, v) = pair(&**op, vm);
                    assert_eq!(bits(&s), bits(&v), "len {len} mode {vm:?}");
                }
            }
        }
    }

    #[test]
    fn dot_bitwise_equal_across_paths() {
        for len in [0, 1, 2, 3, 4, 5, 8, 31, 4096, 4099] {
            let (a, b, _) = vecs(len, 7 + len as u64);
            let s = dot(SimdMode::Scalar, &a, &b);
            for vm in BITWISE_VECTOR_MODES {
                let v = dot(vm, &a, &b);
                assert_eq!(s.to_bits(), v.to_bits(), "len {len} mode {vm:?}");
            }
        }
    }

    #[test]
    fn update4_and_sub2_bitwise_equal_across_paths() {
        for len in [1, 4, 6, 48, 50] {
            let (b0, b1, mut c) = vecs(len, 100 + len as u64);
            let (b2, b3, _) = vecs(len, 200 + len as u64);
            let c0 = c.clone();
            update4(SimdMode::Scalar, &mut c, &b0, &b1, &b2, &b3, 1.1, -0.2, 0.7, 2.0);
            let s = c.clone();
            for vm in BITWISE_VECTOR_MODES {
                c = c0.clone();
                update4(vm, &mut c, &b0, &b1, &b2, &b3, 1.1, -0.2, 0.7, 2.0);
                assert_eq!(bits(&s), bits(&c), "update4 len {len} mode {vm:?}");
            }

            let mut r = c0.clone();
            sub2(SimdMode::Scalar, &mut r, &b0, &b1, 0.6, -1.4);
            let s = r.clone();
            for vm in BITWISE_VECTOR_MODES {
                r = c0.clone();
                sub2(vm, &mut r, &b0, &b1, 0.6, -1.4);
                assert_eq!(bits(&s), bits(&r), "sub2 len {len} mode {vm:?}");
            }
        }
    }

    /// The fused tile kernel must be bitwise the k-quad/axpy call
    /// sequence it documents, on both paths, at every jw/kw shape —
    /// including column tails (jw mod 8, jw mod 4), k singles
    /// (kw mod 4) and k blocks past the AVX2 stack-buffer size (kw 70).
    #[test]
    fn tile_row_update_bitwise_equals_quad_sequence_across_paths() {
        for &(kw, jw) in
            &[(1usize, 1usize), (3, 5), (4, 4), (4, 11), (5, 8), (7, 12), (48, 48), (70, 13)]
        {
            let mut rng = NpbRng::new((kw * 131 + jw) as u64);
            let bt: Vec<f64> = (0..kw * jw).map(|_| rng.next_f64() - 0.5).collect();
            let a: Vec<f64> = (0..kw).map(|_| rng.next_f64() - 0.5).collect();
            let c0: Vec<f64> = (0..jw).map(|_| rng.next_f64() - 0.5).collect();
            let alpha = 1.3;

            // Reference: the documented update4/axpy sequence.
            let mut want = c0.clone();
            let mut kk = 0;
            while kk + 4 <= kw {
                let rows: Vec<&[f64]> =
                    (0..4).map(|q| &bt[(kk + q) * jw..(kk + q + 1) * jw]).collect();
                update4(
                    SimdMode::Scalar,
                    &mut want,
                    rows[0],
                    rows[1],
                    rows[2],
                    rows[3],
                    alpha * a[kk],
                    alpha * a[kk + 1],
                    alpha * a[kk + 2],
                    alpha * a[kk + 3],
                );
                kk += 4;
            }
            while kk < kw {
                axpy(SimdMode::Scalar, &mut want, &bt[kk * jw..(kk + 1) * jw], alpha * a[kk]);
                kk += 1;
            }

            for m in [SimdMode::Scalar, SimdMode::Avx2, SimdMode::Avx512, SimdMode::Neon] {
                let mut c = c0.clone();
                tile_row_update(m, &mut c, &bt, &a, alpha);
                assert_eq!(bits(&want), bits(&c), "kw {kw} jw {jw} mode {:?}", m);
            }
        }
    }

    #[test]
    fn butterfly_bitwise_equal_across_paths_and_legacy_mul() {
        for half in [1usize, 2, 3, 8, 17] {
            let mut rng = NpbRng::new(half as u64 + 5);
            let mk = |rng: &mut NpbRng| {
                (0..half)
                    .map(|_| C64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                    .collect::<Vec<_>>()
            };
            let lo0 = mk(&mut rng);
            let hi0 = mk(&mut rng);
            let tw = mk(&mut rng);
            for conj in [false, true] {
                let run = |m: SimdMode| {
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    butterfly(m, &mut lo, &mut hi, &tw, conj);
                    (lo, hi)
                };
                let (slo, shi) = run(SimdMode::Scalar);
                for vm in BITWISE_VECTOR_MODES {
                    let (tlo, thi) = run(vm);
                    for k in 0..half {
                        assert_eq!(slo[k].re.to_bits(), tlo[k].re.to_bits(), "{vm:?} {half} {k}");
                        assert_eq!(slo[k].im.to_bits(), tlo[k].im.to_bits(), "{vm:?} {half} {k}");
                        assert_eq!(shi[k].re.to_bits(), thi[k].re.to_bits(), "{vm:?} {half} {k}");
                        assert_eq!(shi[k].im.to_bits(), thi[k].im.to_bits(), "{vm:?} {half} {k}");
                    }
                }
                let (vlo, vhi) = run(SimdMode::Avx2);
                for k in 0..half {
                    assert_eq!(slo[k].re.to_bits(), vlo[k].re.to_bits(), "half {half} k {k}");
                    assert_eq!(slo[k].im.to_bits(), vlo[k].im.to_bits(), "half {half} k {k}");
                    assert_eq!(shi[k].re.to_bits(), vhi[k].re.to_bits(), "half {half} k {k}");
                    assert_eq!(shi[k].im.to_bits(), vhi[k].im.to_bits(), "half {half} k {k}");
                    // And both match the legacy C64::mul butterfly bitwise
                    // (the im sum is commuted, which IEEE addition absorbs).
                    let w = if conj { C64::new(tw[k].re, -tw[k].im) } else { tw[k] };
                    let v = hi0[k].mul(w);
                    let l = lo0[k].add(v);
                    let h = lo0[k].sub(v);
                    assert_eq!(slo[k].re.to_bits(), l.re.to_bits());
                    assert_eq!(slo[k].im.to_bits(), l.im.to_bits());
                    assert_eq!(shi[k].re.to_bits(), h.re.to_bits());
                    assert_eq!(shi[k].im.to_bits(), h.im.to_bits());
                }
            }
        }
    }

    /// Smoke check of the fma tolerance contract (the property suite
    /// sweeps shapes): every fused op lands within the documented
    /// componentwise bound of scalar. On hardware without FMA the
    /// dispatch arm degrades to a bitwise tier and the diffs are zero.
    #[test]
    fn fma_tier_tracks_scalar_within_tolerance() {
        let eps = f64::EPSILON;
        for len in [1usize, 3, 7, 32, 61, 255] {
            let (a, b, c0) = vecs(len, 900 + len as u64);
            // axpy: 2 roundings per element on each path.
            let mut s = c0.clone();
            axpy(SimdMode::Scalar, &mut s, &a, 1.75);
            let mut f = c0.clone();
            axpy(SimdMode::Fma, &mut f, &a, 1.75);
            for i in 0..len {
                let scale = c0[i].abs() + (1.75 * a[i]).abs();
                assert!((f[i] - s[i]).abs() <= 2.0 * eps * scale, "axpy len {len} i {i}");
            }
            // dot: 2·len + 2 roundings against the magnitude sum.
            let sd = dot(SimdMode::Scalar, &a, &b);
            let fd = dot(SimdMode::Fma, &a, &b);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let bound = (2 * len + 2) as f64 * eps * mag;
            assert!((fd - sd).abs() <= bound, "dot len {len}: {fd} vs {sd}");
        }
        // tile_row_update: kw-deep accumulation per element.
        for &(kw, jw) in &[(5usize, 9usize), (48, 48), (70, 37)] {
            let mut rng = NpbRng::new((kw * 977 + jw) as u64);
            let bt: Vec<f64> = (0..kw * jw).map(|_| rng.next_f64() - 0.5).collect();
            let a: Vec<f64> = (0..kw).map(|_| rng.next_f64() - 0.5).collect();
            let c0: Vec<f64> = (0..jw).map(|_| rng.next_f64() - 0.5).collect();
            let mut s = c0.clone();
            tile_row_update(SimdMode::Scalar, &mut s, &bt, &a, 1.3);
            let mut f = c0.clone();
            tile_row_update(SimdMode::Fma, &mut f, &bt, &a, 1.3);
            for j in 0..jw {
                let scale: f64 =
                    c0[j].abs() + (0..kw).map(|k| (1.3 * a[k] * bt[k * jw + j]).abs()).sum::<f64>();
                let bound = (2 * kw + 2) as f64 * f64::EPSILON * scale;
                assert!((f[j] - s[j]).abs() <= bound, "tile kw {kw} jw {jw} j {j}");
            }
        }
    }

    #[test]
    fn strided_dot_tracks_serial_dot() {
        let (a, b, _) = vecs(1001, 9);
        let strided = dot(SimdMode::Scalar, &a, &b);
        let serial = dot_serial(&a, &b);
        let bound: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>()
            * f64::EPSILON
            * a.len() as f64;
        assert!((strided - serial).abs() <= bound, "{strided} vs {serial}");
    }
}
