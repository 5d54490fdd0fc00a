//! Benchmark kernel implementations for the HPC power evaluation method.
//!
//! The paper's measurements are driven by three benchmark suites, all of
//! which are implemented here from scratch in Rust:
//!
//! * [`hpl`] — High-Performance Linpack: blocked LU factorization with
//!   partial pivoting, parameterized by problem size `N`, block size `NB`
//!   and process grid `P × Q` exactly like the netlib HPL input file.
//! * [`npb`] — the eight NAS Parallel Benchmarks (EP, CG, MG, FT, IS, LU,
//!   BT, SP) with the published class A/B/C problem parameterizations.
//! * [`hpcc`] — the seven HPC Challenge programs (HPL, DGEMM, STREAM,
//!   PTRANS, RandomAccess, FFT, b_eff) used to train the power
//!   regression model.
//!
//! Each program plays two roles:
//!
//! 1. **A real algorithm** — runnable and *verified* (residual checks,
//!    round-trip identities, sortedness) at any problem size, parallelized
//!    with rayon/crossbeam. Tests exercise these at scaled-down sizes.
//! 2. **A resource signature** — closed-form operation counts, DRAM
//!    traffic, footprints and locality for the *published* class sizes,
//!    feeding the simulated servers in `hpceval-machine`/`hpceval-power`.
//!    This is the substitution for running the original Fortran MPI codes
//!    on the paper's hardware (DESIGN.md §2).

// Unsafe is denied everywhere except the SIMD micro-kernel layer
// (`simd`), which opts back in for `core::arch` intrinsics behind
// runtime feature detection and a bitwise scalar-equivalence contract.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops over matrix rows/columns are the idiom of numeric
// kernels (they mirror the published algorithms); iterator rewrites of
// back-substitution and pivot application obscure them.
#![allow(clippy::needless_range_loop)]

pub mod fft;
pub mod hpcc;
pub mod hpl;
pub mod npb;
pub mod perf;
pub mod rng;
pub mod simd;
pub mod streams;
pub mod suite;
pub mod tile;
pub mod transpose;

pub use suite::{Benchmark, ProcConstraint, VerifyOutcome};
