//! HPCC RandomAccess — giga-updates per second (GUPS).
//!
//! XOR-updates of a huge table at pseudo-random locations generated by
//! the HPCC x^63-ish LCG (here: a 64-bit xorshift with the same
//! statistical role). Every update is a dependent read-modify-write to an
//! uncacheable location: the latency-bound extreme of the training set.
//!
//! Verification exploits the involution property of XOR: replaying the
//! same update stream twice restores the table exactly.

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

// Logical trace address of the update table. The serial update loop is
// cut into fixed blocks; the block index is the chunk id, and a traced
// block re-derives its addresses from a copy of the generator state, so
// the hot loop itself is untouched. Updates are subsampled 1-in-4 (a
// random stream loses nothing to subsampling).
const TRACE_TABLE: u64 = 0x1_0000_0000;
const TRACE_BLOCK_UPDATES: u64 = 4096;
const TRACE_UPDATE_SUBSAMPLE: u64 = 4;

/// The RandomAccess benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RandomAccess {
    /// log2 of the table size in 8-byte words.
    pub log2_table: u32,
}

impl RandomAccess {
    /// Largest power-of-two table fitting in `bytes`.
    pub fn for_memory(bytes: f64) -> Self {
        let words = (bytes / 8.0).max(1024.0);
        Self { log2_table: (words.log2().floor() as u32).max(10) }
    }

    /// Table size in words.
    pub fn table_words(&self) -> u64 {
        1u64 << self.log2_table
    }

    /// HPCC specifies 4 updates per table word.
    pub fn updates(&self) -> u64 {
        self.table_words() * 4
    }
}

/// The HPCC random stream: a 64-bit xorshift (full period over nonzero
/// states) standing in for the GF(2) polynomial generator.
#[derive(Debug, Clone, Copy)]
pub struct GupsRng(pub u64);

#[allow(clippy::should_implement_trait)] // a raw generator, not an Iterator
impl GupsRng {
    /// Next value.
    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Apply `updates` XOR updates to a fresh table of `2^log2_table` words;
/// returns the table.
pub fn run(log2_table: u32, updates: u64, seed: u64) -> Vec<u64> {
    let size = 1usize << log2_table;
    let mask = (size - 1) as u64;
    // One epoch per run so back-to-back runs stay distinct in the trace.
    let tracer = hooks::current(Region::RandomAccess);
    tracer.begin_epoch();
    let mut table: Vec<u64> = (0..size as u64).collect();
    let mut rng = GupsRng(seed | 1);
    let mut done = 0u64;
    let mut block = 0u64;
    while done < updates {
        let count = TRACE_BLOCK_UPDATES.min(updates - done);
        // Snapshot the generator before the block so a traced block can
        // replay its own address stream outside the hot loop.
        let snapshot = rng;
        for _ in 0..count {
            let r = rng.next();
            let idx = (r & mask) as usize;
            table[idx] ^= r;
        }
        if let Some(tr) = tracer.chunk(block) {
            let mut replay = snapshot;
            for j in 0..count {
                let r = replay.next();
                if j % TRACE_UPDATE_SUBSAMPLE == 0 {
                    let at = TRACE_TABLE + (r & mask) * 8;
                    tr.record(AccessKind::Read, at, 0, 1);
                    tr.record(AccessKind::Write, at, 0, 1);
                }
            }
        }
        done += count;
        block += 1;
    }
    table
}

impl Benchmark for RandomAccess {
    fn id(&self) -> &'static str {
        "randomaccess"
    }

    fn display_name(&self) -> String {
        format!("randomaccess.2^{}", self.log2_table)
    }

    fn signature(&self) -> WorkloadSignature {
        let updates = self.updates() as f64;
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: updates, // GUPS counts updates
            work_ops: updates * 10.0,
            dram_bytes: updates * 16.0, // rmw of one line, no reuse
            footprint_bytes: self.table_words() as f64 * 8.0,
            footprint_per_proc_bytes: 4.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.25,
            cpu_intensity: 0.45,
            kind: ComputeKind::Scalar,
            locality: LocalityProfile::random_access(),
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Any
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let log2 = 14;
        let updates = 4 << log2;
        let once = run(log2, updates, 9);
        // XOR involution: replaying the stream on the updated table
        // restores the identity table.
        let mut twice = once.clone();
        let mask = (1u64 << log2) - 1;
        let mut rng = GupsRng(9 | 1);
        for _ in 0..updates {
            let r = rng.next();
            twice[(r & mask) as usize] ^= r;
        }
        let identity: Vec<u64> = (0..1u64 << log2).collect();
        if twice == identity {
            // And the single pass must have actually changed the table.
            let changed = once.iter().zip(&identity).filter(|(a, b)| a != b).count();
            let frac = changed as f64 / identity.len() as f64;
            if frac > 0.9 {
                return VerifyOutcome::pass(
                    format!("2^{log2} table, {updates} updates, {frac:.3} words touched"),
                    updates as f64,
                );
            }
            return VerifyOutcome::fail(format!("suspiciously few updates landed: {frac}"));
        }
        VerifyOutcome::fail("replay did not restore the table".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_replay_restores_identity() {
        let out = RandomAccess { log2_table: 12 }.verify(1);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(10, 1 << 12, 1);
        let b = run(10, 1 << 12, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn rng_has_no_short_cycle() {
        let mut rng = GupsRng(1);
        let first = rng.next();
        for _ in 0..10_000 {
            assert_ne!(rng.next(), 0, "xorshift never yields zero");
        }
        let mut rng2 = GupsRng(1);
        assert_eq!(rng2.next(), first, "deterministic");
    }

    #[test]
    fn table_sizing() {
        let ra = RandomAccess::for_memory(1e9);
        assert!(ra.table_words() * 8 <= 1_000_000_000);
        assert!(ra.table_words() * 16 > 1_000_000_000, "largest fitting power of two");
    }

    #[test]
    fn signature_is_latency_bound() {
        let sig = RandomAccess { log2_table: 30 }.signature();
        assert!(sig.locality.mem >= 0.3);
        assert_eq!(sig.kind, ComputeKind::Scalar);
    }
}
