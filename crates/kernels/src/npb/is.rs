//! NPB IS — the Integer Sort kernel.
//!
//! IS ranks (bucket-sorts) a large array of small integer keys drawn from
//! a Gaussian-ish sum-of-uniforms distribution generated by the NPB LCG.
//! Each of 10 iterations perturbs two keys, recomputes all key ranks with
//! a counting sort, and partially verifies five probe ranks; a full
//! sortedness check runs at the end. Its scattered histogram increments
//! make it the suite's random-access integer workload.
//!
//! Class sizes: A = 2^23 keys / max key 2^19, B = 2^25 / 2^21,
//! C = 2^27 / 2^23; 10 ranking iterations each.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::Class;

// Logical trace addresses: the key array (streamed) and the histogram
// (scattered increments). The histogram scatter is subsampled 1-in-64
// to bound per-chunk event volume; the kept subset is position-based,
// so it is identical at every width.
const TRACE_KEYS: u64 = 0x1_0000_0000;
const TRACE_HIST: u64 = 0x2_0000_0000;
const TRACE_HIST_SUBSAMPLE: usize = 64;

/// Ranking iterations, fixed by the NPB specification.
pub const ITERATIONS: u32 = 10;

/// The IS benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Is {
    class: Class,
}

impl Is {
    /// IS at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// (log2 total keys, log2 max key) for the class.
    pub fn params(&self) -> (u32, u32) {
        match self.class {
            Class::W => (20, 16),
            Class::A => (23, 19),
            Class::B => (25, 21),
            Class::C => (27, 23),
        }
    }
}

/// Generate `n` keys in `[0, max_key)` with the NPB sum-of-four-uniforms
/// distribution.
pub fn generate_keys(n: usize, max_key: u32, seed: u64) -> Vec<u32> {
    let mut rng = NpbRng::new(seed);
    (0..n)
        .map(|_| {
            let s = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
            ((s / 4.0) * f64::from(max_key)) as u32 % max_key
        })
        .collect()
}

/// Chunk length of the parallel histogram pass. Fixed (never derived
/// from the pool width) so the decomposition — and with it the merge
/// order — is identical at any width; the counts are integer adds, so
/// the merged histogram is exact regardless.
const HIST_CHUNK: usize = 1 << 16;

/// Compute the rank of every key by parallel counting sort: `ranks[i]` is
/// the position key `i` would occupy in the sorted order.
///
/// The histogram is built in parallel over fixed-size key chunks with
/// per-chunk local histograms merged in chunk order, then prefix-summed.
pub fn rank_keys(keys: &[u32], max_key: u32) -> Vec<u32> {
    let buckets = max_key as usize;
    // One epoch per ranking pass so back-to-back calls stay distinct
    // in the trace.
    let tracer = hooks::current(Region::Is);
    tracer.begin_epoch();
    let histogram = keys
        .par_chunks(HIST_CHUNK)
        .enumerate()
        .map(|(i, part)| {
            let mut h = vec![0u32; buckets];
            for &k in part {
                h[k as usize] += 1;
            }
            // Trace the chunk's stream: the keys read sequentially,
            // then a 1-in-64 subsample of the histogram's scattered
            // read-modify-writes.
            if let Some(tr) = tracer.chunk(i as u64) {
                let at = TRACE_KEYS + (i * HIST_CHUNK * 4) as u64;
                tr.record(AccessKind::Read, at, 4, part.len() as u32);
                for &k in part.iter().step_by(TRACE_HIST_SUBSAMPLE) {
                    let at = TRACE_HIST + u64::from(k) * 4;
                    tr.record(AccessKind::Read, at, 0, 1);
                    tr.record(AccessKind::Write, at, 0, 1);
                }
            }
            h
        })
        .reduce(
            || vec![0u32; buckets],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    // Exclusive prefix sum gives the starting rank of each key value.
    let mut ranks = vec![0u32; buckets];
    let mut acc = 0u32;
    for (r, h) in ranks.iter_mut().zip(&histogram) {
        *r = acc;
        acc += h;
    }
    ranks
}

/// Materialize the sorted key array from ranks (the final "full
/// verification" step of NPB IS).
///
/// Two-pass parallel bucket sort: the rank prefix sums carve the output
/// into one contiguous segment per key value, and every segment is
/// filled in parallel — each is owned by exactly one task, so the
/// result is width-invariant (and identical to the serial stable
/// scatter, since all keys in a segment are equal).
pub fn sort_by_ranks(keys: &[u32], max_key: u32) -> Vec<u32> {
    let buckets = max_key as usize;
    let start = rank_keys(keys, max_key);
    let mut out = vec![0u32; keys.len()];
    let mut segs: Vec<(u32, &mut [u32])> = Vec::with_capacity(buckets);
    let mut rest = out.as_mut_slice();
    for k in 0..buckets {
        let end = if k + 1 < buckets { start[k + 1] as usize } else { keys.len() };
        let (seg, tail) = rest.split_at_mut(end - start[k] as usize);
        rest = tail;
        segs.push((k as u32, seg));
    }
    segs.into_par_iter().for_each(|(k, seg)| seg.fill(k));
    out
}

/// Full NPB IS structure at a given size; returns `(passed, detail)`.
pub fn run_scaled(log2_keys: u32, log2_max_key: u32) -> (bool, String) {
    let n = 1usize << log2_keys;
    let max_key = 1u32 << log2_max_key;
    let mut keys = generate_keys(n, max_key, 314_159_265);
    for it in 0..ITERATIONS {
        // NPB perturbs two keys per iteration before re-ranking.
        keys[it as usize] = it % max_key;
        keys[it as usize + ITERATIONS as usize] = max_key - 1 - it;
        let ranks = rank_keys(&keys, max_key);
        // Rank array must be monotone non-decreasing.
        if ranks.windows(2).any(|w| w[0] > w[1]) {
            return (false, format!("rank prefix not monotone at iteration {it}"));
        }
    }
    // Full verification: sorted output is sorted and a permutation.
    let sorted = sort_by_ranks(&keys, max_key);
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return (false, "output not sorted".to_string());
    }
    let mut h1 = vec![0u32; max_key as usize];
    let mut h2 = vec![0u32; max_key as usize];
    for &k in &keys {
        h1[k as usize] += 1;
    }
    for &k in &sorted {
        h2[k as usize] += 1;
    }
    if h1 != h2 {
        return (false, "output is not a permutation of the input".to_string());
    }
    (true, format!("{n} keys ranked {ITERATIONS}x and fully verified"))
}

impl Benchmark for Is {
    fn id(&self) -> &'static str {
        "is"
    }

    fn display_name(&self) -> String {
        format!("is.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let (lk, lmk) = self.params();
        let keys = (1u64 << lk) as f64;
        let ops = keys * f64::from(ITERATIONS);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: ops, // NPB counts one "op" per ranked key
            work_ops: ops * 30.0,
            dram_bytes: ops * 24.0, // key read + histogram rmw + rank write
            footprint_bytes: keys * 4.0 * 2.0 + (1u64 << lmk) as f64 * 8.0,
            footprint_per_proc_bytes: 48.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.20,
            cpu_intensity: 0.30,
            kind: ComputeKind::Scalar,
            locality: LocalityProfile::random_access(),
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::PowerOfTwo
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let (ok, detail) = run_scaled(16, 11);
        if ok {
            VerifyOutcome::pass(detail, f64::from(1u32 << 16) * f64::from(ITERATIONS))
        } else {
            VerifyOutcome::fail(detail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_respect_range() {
        let keys = generate_keys(10_000, 1 << 10, 7);
        assert!(keys.iter().all(|&k| k < (1 << 10)));
    }

    #[test]
    fn key_distribution_is_center_heavy() {
        // Sum of four uniforms concentrates near max_key/2.
        let max_key = 1u32 << 12;
        let keys = generate_keys(100_000, max_key, 3);
        let mid = keys.iter().filter(|&&k| k > max_key / 4 && k < 3 * max_key / 4).count();
        assert!(mid as f64 / 100_000.0 > 0.9, "central mass {mid}");
    }

    #[test]
    fn ranks_match_scalar_reference() {
        let keys = generate_keys(5_000, 256, 11);
        let ranks = rank_keys(&keys, 256);
        for probe in [0u32, 1, 100, 255] {
            let expected = keys.iter().filter(|&&k| k < probe).count() as u32;
            assert_eq!(ranks[probe as usize], expected, "probe {probe}");
        }
    }

    #[test]
    fn sorting_produces_sorted_permutation() {
        let keys = generate_keys(20_000, 512, 23);
        let sorted = sort_by_ranks(&keys, 512);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = keys.clone();
        let mut b = sorted.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn full_run_verifies() {
        let (ok, detail) = run_scaled(14, 9);
        assert!(ok, "{detail}");
    }

    #[test]
    fn verify_passes() {
        let out = Is::new(Class::C).verify(4);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn signature_reflects_integer_random_access() {
        let sig = Is::new(Class::C).signature();
        assert_eq!(sig.kind, ComputeKind::Scalar);
        assert!(sig.locality.mem > 0.2, "IS misses caches heavily");
    }
}
