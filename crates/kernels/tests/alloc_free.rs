//! Pins the allocation behaviour of the warm hot paths: with
//! caller-owned workspaces, `fft3_with`, `dgemm_with` and the HPL
//! `trailing_update` must perform **zero** heap allocations per call at
//! logical width 1 (the executor's sequential fast path runs every
//! chunk inline; scratch buffers, packed tiles and twiddle tables are
//! caller-owned). At parallel widths the scheduler allocates O(pieces)
//! bookkeeping per parallel region, which must stay far below the size
//! of the operands — the whole-array clones and per-panel B packing
//! these replaced.
//!
//! This file holds a single test on purpose: the counting allocator is
//! process-global, and a concurrent test in the same binary would
//! pollute the counters. The phases run sequentially inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hpceval_kernels::fft::Direction;
use hpceval_kernels::hpcc::dgemm::{dgemm_with, DgemmWorkspace};
use hpceval_kernels::hpl::lu;
use hpceval_kernels::npb::ft::{fft3_with, Field3, FtWorkspace};
use hpceval_kernels::rng::NpbRng;

/// Forwards to the system allocator, counting calls and bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and bytes across `iters` runs of `f`, measured after
/// `f` has already run twice (pool spin-up, `OnceLock` env reads and
/// any other lazy initialization happen outside the window).
fn measure(iters: u64, mut f: impl FnMut()) -> (u64, u64) {
    f();
    f();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    (ALLOCS.load(Ordering::Relaxed) - a0, BYTES.load(Ordering::Relaxed) - b0)
}

/// One warm hot path: its name, allocations and bytes per call, and the
/// size of the operand its per-call bookkeeping is bounded by.
struct Usage {
    name: &'static str,
    allocs: u64,
    bytes_per_call: u64,
    operand_bytes: u64,
}

/// Measure the three hot paths at the installed width.
fn measure_hot_paths() -> Vec<Usage> {
    const ITERS: u64 = 10;
    let mut out = Vec::with_capacity(3);

    // FT: forward+inverse against a warm FtWorkspace (2·ITERS calls).
    let (nx, ny, nz) = (32, 32, 32);
    let mut ws = FtWorkspace::new(nx, ny, nz);
    let mut f = Field3::random(nx, ny, nz, 2_718_281);
    let (allocs, bytes) = measure(ITERS, || {
        fft3_with(&mut f, Direction::Forward, &mut ws);
        fft3_with(&mut f, Direction::Inverse, &mut ws);
    });
    // The transform still computes something sane.
    assert!(f.checksum().norm_sqr().is_finite());
    out.push(Usage {
        name: "fft3_with",
        allocs,
        bytes_per_call: bytes / (2 * ITERS),
        operand_bytes: (nx * ny * nz * std::mem::size_of::<f64>() * 2) as u64,
    });

    // DGEMM: warm DgemmWorkspace ⇒ B packs into caller-owned tiles.
    let n = 96;
    let mut rng = NpbRng::new(1_618_033);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let mut c: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let mut ws = DgemmWorkspace::new(n);
    let (allocs, bytes) = measure(ITERS, || {
        dgemm_with(n, 1.25, &a, &b, 0.5, &mut c, &mut ws);
    });
    assert!(c.iter().all(|v| v.is_finite()));
    out.push(Usage {
        name: "dgemm_with",
        allocs,
        bytes_per_call: bytes / ITERS,
        operand_bytes: (n * n * std::mem::size_of::<f64>()) as u64,
    });

    // HPL trailing update: pure in-place Schur-complement sweep.
    let (rows, cols, k, end) = (64usize, 96usize, 8usize, 24usize);
    let mut tail: Vec<f64> = (0..rows * cols).map(|_| (rng.next_f64() - 0.5) * 1e-3).collect();
    let u12: Vec<f64> = (0..(end - k) * cols).map(|_| (rng.next_f64() - 0.5) * 1e-3).collect();
    let (allocs, bytes) = measure(ITERS, || {
        lu::trailing_update(&mut tail, &u12, cols, k, end);
    });
    assert!(tail.iter().all(|v| v.is_finite()));
    out.push(Usage {
        name: "trailing_update",
        allocs,
        bytes_per_call: bytes / ITERS,
        operand_bytes: (rows * cols * std::mem::size_of::<f64>()) as u64,
    });
    out
}

#[test]
fn warm_hot_paths_are_allocation_free() {
    let with_width = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(measure_hot_paths)
    };
    // Width 1 is an explicit request, so it holds under any
    // HPCEVAL_THREADS default.
    for u in with_width(1) {
        assert_eq!(
            u.allocs, 0,
            "{} allocated {} times ({} B per call) on warm iterations at width 1",
            u.name, u.allocs, u.bytes_per_call
        );
    }
    // Per-call bookkeeping must be a small fraction of one operand (the
    // old code allocated whole fields and matrices per call).
    for u in with_width(4) {
        assert!(
            u.bytes_per_call < u.operand_bytes / 8,
            "{} allocates {} B per call at width 4 (operand is {} B)",
            u.name,
            u.bytes_per_call,
            u.operand_bytes
        );
    }
}
