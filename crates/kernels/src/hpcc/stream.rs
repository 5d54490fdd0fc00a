//! HPCC STREAM — sustainable memory bandwidth.
//!
//! The four canonical vector operations over arrays far larger than any
//! cache: Copy `c = a`, Scale `b = α·c`, Add `c = a + b`, Triad
//! `a = b + α·c`. STREAM is the pure bandwidth-bound member of the
//! training set: two flops per 24 bytes at best, so its signature pins
//! the regression's memory-traffic coefficients.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::simd;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

/// Span length each parallel task hands to the SIMD micro-kernels.
/// Purely a dispatch granularity: the four STREAM ops are element-wise,
/// so any chunking yields identical bits at every width and SIMD path.
const SPAN: usize = 8192;

// Logical trace addresses of the three arrays. Fixed constants (not
// heap pointers) keep captured traces bitwise identical across runs,
// allocators and thread counts; the span index is the chunk id.
const TRACE_A: u64 = 0x1000_0000;
const TRACE_B: u64 = 0x2000_0000;
const TRACE_C: u64 = 0x3000_0000;

/// The STREAM benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Elements per array (three arrays total).
    pub n: u64,
    /// Repetitions of the four-kernel cycle.
    pub reps: u32,
}

impl Stream {
    /// Size the three arrays to occupy `bytes`.
    pub fn for_memory(bytes: f64) -> Self {
        Self { n: ((bytes / 24.0) as u64).max(1024), reps: 10 }
    }

    /// Bytes moved per full cycle (copy 16, scale 16, add 24, triad 24
    /// bytes per element).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.n as f64 * 80.0
    }
}

/// Outcome of a real STREAM pass: per-kernel checksum of the final
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOutcome {
    /// Final `a[0] + b[0] + c[0]` (validates the dataflow).
    pub head: f64,
    /// Expected value of `head` given the recurrence.
    pub expected: f64,
}

impl StreamOutcome {
    /// STREAM's own validation criterion (relative error on the known
    /// closed form).
    pub fn passes(&self) -> bool {
        (self.head - self.expected).abs() <= 1e-8 * self.expected.abs().max(1.0)
    }
}

/// Run `reps` cycles of copy/scale/add/triad over arrays of length `n`.
pub fn run(n: usize, reps: u32) -> StreamOutcome {
    let scalar = 3.0;
    let m = simd::mode();
    let tracer = hooks::current(Region::Stream);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    // Per-span trace burst: `srcs` read then `dst` written, all
    // unit-stride doubles. One branch per span when untraced.
    let trace = |i: usize, len: usize, srcs: &[u64], dst: u64| {
        if let Some(tr) = tracer.chunk(i as u64) {
            let off = (i * SPAN * 8) as u64;
            for &s in srcs {
                tr.record(AccessKind::Read, s + off, 8, len as u32);
            }
            tr.record(AccessKind::Write, dst + off, 8, len as u32);
        }
    };
    for _ in 0..reps {
        // Each op is its own trace epoch: the four kernels (and every
        // rep) revisit the same spans, so without the epoch boundary
        // their bursts would collapse into one ring per span.
        // Copy: c = a (pure data movement; memcpy per span).
        tracer.begin_epoch();
        c.par_chunks_mut(SPAN)
            .enumerate()
            .zip(a.par_chunks(SPAN))
            .for_each(|((i, cv), av)| {
                trace(i, cv.len(), &[TRACE_A], TRACE_C);
                cv.copy_from_slice(av)
            });
        // Scale: b = scalar * c.
        tracer.begin_epoch();
        b.par_chunks_mut(SPAN)
            .enumerate()
            .zip(c.par_chunks(SPAN))
            .for_each(|((i, bv), cv)| {
                trace(i, bv.len(), &[TRACE_C], TRACE_B);
                simd::scale(m, bv, cv, scalar)
            });
        // Add: c = a + b.
        tracer.begin_epoch();
        c.par_chunks_mut(SPAN)
            .enumerate()
            .zip(a.par_chunks(SPAN).zip(b.par_chunks(SPAN)))
            .for_each(|((i, cv), (av, bv))| {
                trace(i, cv.len(), &[TRACE_A, TRACE_B], TRACE_C);
                simd::add(m, cv, av, bv)
            });
        // Triad: a = b + scalar * c.
        tracer.begin_epoch();
        a.par_chunks_mut(SPAN)
            .enumerate()
            .zip(b.par_chunks(SPAN).zip(c.par_chunks(SPAN)))
            .for_each(|((i, av), (bv, cv))| {
                trace(i, av.len(), &[TRACE_B, TRACE_C], TRACE_A);
                simd::triad(m, av, bv, cv, scalar)
            });
    }
    // Closed form of one cycle: c1 = a0; b1 = s·a0; c2 = a0 + s·a0;
    // a1 = s·a0 + s·(a0 + s·a0) = a0·(2s + s²).
    let mut ea = 1.0f64;
    let mut eb;
    let mut ec;
    let s = scalar;
    let (mut fb, mut fc) = (2.0, 0.0);
    for _ in 0..reps {
        fc = ea;
        fb = s * fc;
        fc = ea + fb;
        ea = fb + s * fc;
    }
    eb = fb;
    ec = fc;
    // All elements identical by construction.
    let _ = &mut eb;
    let _ = &mut ec;
    StreamOutcome { head: a[0] + b[0] + c[0], expected: ea + eb + ec }
}

impl Benchmark for Stream {
    fn id(&self) -> &'static str {
        "stream"
    }

    fn display_name(&self) -> String {
        format!("stream.n{}", self.n)
    }

    fn signature(&self) -> WorkloadSignature {
        let bytes = self.bytes_per_cycle() * f64::from(self.reps);
        // 2 flops per element only in add/triad.
        let flops = self.n as f64 * 3.0 * f64::from(self.reps);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 2.0,
            dram_bytes: bytes,
            footprint_bytes: self.n as f64 * 24.0,
            footprint_per_proc_bytes: 4.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.0,
            cpu_intensity: 0.62,
            kind: ComputeKind::Vector,
            locality: LocalityProfile {
                instr_per_op: 2.5,
                accesses_per_instr: 0.5,
                l1_hit: 0.62,
                l2_hit: 0.04,
                l3_hit: 0.02,
                mem: 0.32,
                write_fraction: 0.42,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Any
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let out = run(1 << 16, 5);
        if out.passes() {
            VerifyOutcome::pass(
                format!("head {} matches closed form {}", out.head, out.expected),
                (1u64 << 16) as f64 * 3.0 * 5.0,
            )
        } else {
            VerifyOutcome::fail(format!("head {} != expected {}", out.head, out.expected))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_matches_hand_computation() {
        // a0=1, b0=2, c0=0, s=3: c=1, b=3, c=4, a=15.
        let out = run(64, 1);
        assert!((out.head - (15.0 + 3.0 + 4.0)).abs() < 1e-12, "head {}", out.head);
        assert!(out.passes());
    }

    #[test]
    fn multiple_cycles_stay_consistent() {
        for reps in [2, 3, 7] {
            let out = run(128, reps);
            assert!(out.passes(), "reps={reps}: {out:?}");
        }
    }

    #[test]
    fn verify_passes() {
        let out = Stream { n: 1 << 20, reps: 10 }.verify(4);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn signature_is_bandwidth_bound() {
        let sig = Stream::for_memory(1e9).signature();
        assert!(sig.arithmetic_intensity() < 0.2, "STREAM must be memory bound");
    }
}
