//! Cross-width determinism of the parallel kernels.
//!
//! The executor reassembles pieces in order and element-wise kernels
//! never move arithmetic across piece boundaries, so DGEMM, the HPL LU
//! trailing update, STREAM and all eight NPB programs must produce
//! *bit-identical* results at every logical thread width: EP uses a
//! fixed block decomposition, CG a fixed-chunk dot product, IS a
//! fixed-chunk histogram and owned output segments, FT per-line
//! transforms with tiled elementwise transposes, MG elementwise grid
//! sweeps, BT/SP independent line solves, and NPB-LU a hyperplane
//! wavefront that reproduces the serial Gauss-Seidel order exactly. CI
//! runs this suite under `HPCEVAL_THREADS=1` and `HPCEVAL_THREADS=4`;
//! that variable only sets the default width, so every explicit width
//! below is really exercised in either leg.

use hpceval_kernels::hpcc::dgemm::{dgemm, dgemm_naive};
use hpceval_kernels::hpcc::stream;
use hpceval_kernels::hpl::lu;
use hpceval_kernels::npb::lu as npb_lu;
use hpceval_kernels::npb::{bt, cg, ep, ft, is, mg, sp};
use hpceval_kernels::rng::NpbRng;
use hpceval_kernels::simd::{self, SimdMode};
use hpceval_trace::{CaptureConfig, CaptureGuard, Region, Trace};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn with_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

#[test]
fn explicit_width_beats_the_env_default() {
    for width in WIDTHS {
        assert_eq!(with_width(width, rayon::current_num_threads), width);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn dgemm_bitwise_identical_across_widths() {
    // Not a BLOCK multiple, so edge tiles and the k-unroll remainder
    // path are exercised too.
    let n = 160;
    let mut rng = NpbRng::new(2024);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();

    let run = |width: usize| {
        with_width(width, || {
            let mut c = c0.clone();
            dgemm(n, 1.25, &a, &b, 0.5, &mut c);
            c
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "dgemm diverges at width {width}");
    }
    // Anchor the shared answer against the naive triple loop.
    let mut naive = c0.clone();
    dgemm_naive(n, 1.25, &a, &b, 0.5, &mut naive);
    let max_err = reference.iter().zip(&naive).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    assert!(max_err < 1e-10, "blocked result drifted from naive: {max_err:.3e}");
}

#[test]
fn lu_factorization_bitwise_identical_across_widths() {
    let a = lu::Matrix::random(192, 31);
    let reference = lu::factor(a.clone(), 24, 1).unwrap();
    for width in WIDTHS {
        let f = lu::factor(a.clone(), 24, width).unwrap();
        assert_eq!(f.pivots, reference.pivots, "pivot sequence diverges at width {width}");
        assert_eq!(
            bits(&f.lu.data),
            bits(&reference.lu.data),
            "LU factors diverge at width {width}"
        );
    }
}

#[test]
fn stream_cycle_bitwise_identical_across_widths() {
    let reference = with_width(1, || stream::run(1 << 14, 3));
    for width in WIDTHS {
        let out = with_width(width, || stream::run(1 << 14, 3));
        assert_eq!(
            out.head.to_bits(),
            reference.head.to_bits(),
            "STREAM checksum diverges at width {width}"
        );
        assert!(out.passes(), "STREAM validation fails at width {width}");
    }
}

#[test]
fn ep_sums_bitwise_identical_across_widths() {
    let reference = ep::run(14, 1);
    for width in WIDTHS {
        let out = ep::run(14, width);
        assert_eq!(out.q, reference.q, "EP annulus counts diverge at width {width}");
        assert_eq!(out.sx.to_bits(), reference.sx.to_bits(), "EP Σx diverges at width {width}");
        assert_eq!(out.sy.to_bits(), reference.sy.to_bits(), "EP Σy diverges at width {width}");
    }
}

#[test]
fn is_ranking_identical_across_widths() {
    let keys = is::generate_keys(1 << 15, 1 << 10, 99);
    let reference = with_width(1, || is::rank_keys(&keys, 1 << 10));
    for width in WIDTHS {
        let ranks = with_width(width, || is::rank_keys(&keys, 1 << 10));
        assert_eq!(ranks, reference, "IS ranks diverge at width {width}");
    }
}

#[test]
fn is_sort_identical_across_widths() {
    let keys = is::generate_keys(1 << 15, 1 << 9, 41);
    let reference = with_width(1, || is::sort_by_ranks(&keys, 1 << 9));
    for width in WIDTHS {
        let sorted = with_width(width, || is::sort_by_ranks(&keys, 1 << 9));
        assert_eq!(sorted, reference, "IS sorted output diverges at width {width}");
    }
}

#[test]
fn cg_outcome_bitwise_identical_across_widths() {
    let reference = with_width(1, || cg::run(800, 6, 3, 10.0));
    for width in WIDTHS {
        let out = with_width(width, || cg::run(800, 6, 3, 10.0));
        assert_eq!(out.zeta.to_bits(), reference.zeta.to_bits(), "CG ζ diverges at width {width}");
        assert_eq!(
            out.residual.to_bits(),
            reference.residual.to_bits(),
            "CG residual diverges at width {width}"
        );
    }
}

#[test]
fn mg_v_cycles_bitwise_identical_across_widths() {
    let n = 32;
    let v = mg::Grid::random_rhs(n, 7);
    let run = |width: usize| {
        with_width(width, || {
            let mut u = mg::Grid::zeros(n);
            let mut ws = mg::MgWorkspace::new(n);
            for _ in 0..2 {
                mg::v_cycle_with(&mut u, &v, &mut ws);
            }
            u.data
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "MG solution diverges at width {width}");
    }
}

#[test]
fn ft_checksums_bitwise_identical_across_widths() {
    let run = |width: usize| with_width(width, || ft::run_scaled(16, 8, 8, 3));
    let reference = run(1);
    for width in WIDTHS {
        let sums = run(width);
        for (i, (a, b)) in sums.iter().zip(&reference).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "FT checksum {i} re, width {width}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "FT checksum {i} im, width {width}");
        }
    }
}

fn vec5_bits(v: &[[f64; 5]]) -> Vec<u64> {
    v.iter().flatten().map(|x| x.to_bits()).collect()
}

#[test]
fn bt_adi_bitwise_identical_across_widths() {
    let n = 8;
    let prob = bt::AdiProblem::new(n, 555);
    let mut rng = NpbRng::new(6);
    let b: Vec<[f64; 5]> = (0..n * n * n)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![[0.0f64; 5]; n * n * n];
            for _ in 0..2 {
                prob.adi_step(&mut u, &b);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(
            vec5_bits(&run(width)),
            vec5_bits(&reference),
            "BT solution diverges at width {width}"
        );
    }
}

#[test]
fn sp_adi_bitwise_identical_across_widths() {
    let n = 8;
    let prob = sp::SpProblem::new(n, 444);
    let mut rng = NpbRng::new(8);
    let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![0.0f64; n * n * n * 5];
            for _ in 0..2 {
                prob.adi_step(&mut u, &b);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "SP solution diverges at width {width}");
    }
}

/// The SIMD determinism contract: every kernel that routes spans
/// through `hpceval_kernels::simd` produces *bit-identical* output on
/// the scalar and AVX2 paths, at every logical thread width. Each
/// kernel resolves its mode once at entry on the calling thread —
/// which is where `install` runs its closure — so `with_mode` here
/// governs the whole parallel call, whatever `HPCEVAL_SIMD` says. On a
/// host without AVX2 the request degrades to scalar.
#[test]
fn simd_scalar_and_avx2_bitwise_identical_across_widths() {
    fn pair(f: impl Fn() -> Vec<u64>) -> (Vec<u64>, Vec<u64>) {
        (simd::with_mode(SimdMode::Scalar, &f), simd::with_mode(SimdMode::Avx2, &f))
    }

    // DGEMM at a non-BLOCK-multiple order (edge tiles + k remainder).
    let n = 160;
    let mut rng = NpbRng::new(515);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let mut c = c0.clone();
                dgemm(n, 1.25, &a, &b, 0.5, &mut c);
                bits(&c)
            })
        });
        assert_eq!(s, v, "dgemm scalar vs avx2 diverges at width {width}");
    }

    // HPL LU (trailing update + U block-row solve).
    let m0 = lu::Matrix::random(96, 77);
    for width in WIDTHS {
        let (s, v) = pair(|| bits(&lu::factor(m0.clone(), 24, width).unwrap().lu.data));
        assert_eq!(s, v, "hpl lu scalar vs avx2 diverges at width {width}");
    }

    // STREAM copy/scale/add/triad.
    for width in WIDTHS {
        let (s, v) = pair(|| with_width(width, || vec![stream::run(1 << 12, 3).head.to_bits()]));
        assert_eq!(s, v, "stream scalar vs avx2 diverges at width {width}");
    }

    // CG (strided-4 dots + axpy/xpby/scale_div updates).
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let out = cg::run(500, 5, 2, 10.0);
                vec![out.zeta.to_bits(), out.residual.to_bits()]
            })
        });
        assert_eq!(s, v, "cg scalar vs avx2 diverges at width {width}");
    }

    // MG (stencil7 interior spans + axpy smoothing).
    let rhs = mg::Grid::random_rhs(16, 21);
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let mut u = mg::Grid::zeros(16);
                mg::v_cycle(&mut u, &rhs);
                bits(&u.data)
            })
        });
        assert_eq!(s, v, "mg scalar vs avx2 diverges at width {width}");
    }

    // FT (SIMD butterfly in the batched per-line transforms).
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                ft::run_scaled(16, 8, 8, 2)
                    .iter()
                    .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                    .collect()
            })
        });
        assert_eq!(s, v, "ft scalar vs avx2 diverges at width {width}");
    }
}

/// Run the instrumented kernel of `region` at a small size.
fn run_region(region: Region) {
    match region {
        Region::Dgemm => {
            let n = 96;
            let mut rng = NpbRng::new(31);
            let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
            let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
            let mut c = vec![0.0; n * n];
            dgemm(n, 1.0, &a, &b, 0.0, &mut c);
        }
        Region::Stream => {
            stream::run(1 << 12, 2);
        }
        Region::Cg => {
            cg::run(400, 4, 2, 10.0);
        }
        Region::Mg => {
            let v = mg::Grid::random_rhs(16, 7);
            let mut u = mg::Grid::zeros(16);
            mg::v_cycle(&mut u, &v);
        }
        Region::Is => {
            // 2^18 keys = four histogram chunks, enough for the
            // 1-in-4 sampler to keep at least one.
            let keys = is::generate_keys(1 << 18, 1 << 9, 99);
            is::rank_keys(&keys, 1 << 9);
        }
        Region::RandomAccess => {
            hpceval_kernels::hpcc::random_access::run(14, 4 << 14, 9);
        }
        Region::Ft => {
            ft::run_scaled(16, 16, 8, 1);
        }
        Region::Hpl => {
            // factor() builds its own pool; hand it the ambient
            // width so the banding actually varies under test.
            let a = lu::Matrix::random(96, 5);
            lu::factor(a, 16, rayon::current_num_threads()).unwrap();
        }
        Region::Ep => {
            ep::run(14, rayon::current_num_threads());
        }
        Region::Sp => {
            let n = 8;
            let prob = sp::SpProblem::new(n, 55);
            let mut rng = NpbRng::new(3);
            let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
            let mut u = vec![0.0; n * n * n * 5];
            prob.adi_step(&mut u, &b);
        }
        Region::Bt => {
            let n = 8;
            let prob = bt::AdiProblem::new(n, 55);
            let mut rng = NpbRng::new(3);
            let b: Vec<_> = (0..n * n * n)
                .map(|_| {
                    [
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                    ]
                })
                .collect();
            let mut u = vec![[0.0f64; 5]; n * n * n];
            prob.adi_step(&mut u, &b);
        }
        Region::Lu => {
            let n = 8;
            let prob = npb_lu::SsorProblem::new(n, 55);
            let mut rng = NpbRng::new(3);
            let b: Vec<_> = (0..n * n * n)
                .map(|_| {
                    [
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                        rng.next_f64() - 0.5,
                    ]
                })
                .collect();
            let mut u = vec![[0.0f64; 5]; n * n * n];
            prob.ssor_step(&mut u, &b, 1.2);
        }
    }
}

/// A sampled capture of `region` at `width`. The rate is mild (1-in-2)
/// because the sampler is a pure hash and several kernels only produce
/// a handful of chunks at these sizes — the subset must stay non-empty
/// for every kernel.
fn capture(region: Region, width: usize) -> Trace {
    let config = CaptureConfig {
        mode: hpceval_trace::TraceMode::Sampled,
        sample_one_in: 2,
        ..CaptureConfig::default()
    };
    let guard = CaptureGuard::start(region, config).expect("sampled capture starts");
    with_width(width, || run_region(region));
    guard.finish()
}

/// The trace recorder's determinism contract: the *captured address
/// trace* — not just the numeric output — is bitwise identical at every
/// width. Chunk ids are width-invariant decomposition indices, epochs
/// advance only at serial points, sampling is a pure hash of
/// (seed, region, id), and the merge sorts chunks by id, so the encoded
/// bytes cannot depend on the pool width. Replayed counters are a pure
/// function of the trace, so they inherit the guarantee.
#[test]
fn captured_traces_bitwise_identical_across_widths() {
    use hpceval_machine::presets;
    use hpceval_trace::{replay, ReplayOptions};

    for region in Region::ALL {
        let reference = capture(region, 1);
        assert!(reference.total_events() > 0, "{} captured nothing", region.name());
        let ref_bytes = reference.encode();
        let ref_counters = replay(&reference, &presets::xeon_4870(), ReplayOptions::default());
        for width in WIDTHS {
            let trace = capture(region, width);
            assert_eq!(
                trace.encode(),
                ref_bytes,
                "{} trace diverges at width {width}",
                region.name()
            );
            let counters = replay(&trace, &presets::xeon_4870(), ReplayOptions::default());
            assert_eq!(
                counters,
                ref_counters,
                "{} replayed counters diverge at width {width}",
                region.name()
            );
        }
    }
}

/// Capture isolation under contention: a capture records exactly the
/// call tree that started it. Uncaptured runs of the same kernels on
/// other threads, and a capture of another region running at the same
/// time on another thread, must leave every trace byte-equal to its
/// solo capture.
#[test]
fn captures_are_isolated_from_concurrent_kernels() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const ROUNDS: usize = 6;
    let regions = [Region::Cg, Region::Dgemm];
    let solo: Vec<Vec<u8>> = regions.iter().map(|&r| capture(r, 2).encode()).collect();

    // Captures on this thread while two others loop the same kernels
    // uncaptured; the barrier holds the captures back until both
    // loopers are mid-loop. Mismatches are collected, not asserted, so
    // the loopers are always stopped before the scope joins them.
    let stop = AtomicBool::new(false);
    let looping = Barrier::new(3);
    let mut diverged = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let pass = || regions.iter().for_each(|&r| with_width(2, || run_region(r)));
                pass();
                looping.wait();
                while !stop.load(Ordering::Relaxed) {
                    pass();
                }
            });
        }
        looping.wait();
        for round in 0..ROUNDS {
            for (&r, want) in regions.iter().zip(&solo) {
                if capture(r, 2).encode() != *want {
                    diverged.push(format!("{} (round {round})", r.name()));
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(diverged.is_empty(), "captures picked up uncaptured runs: {diverged:?}");

    // Two captures of different regions at once, one per thread, each
    // round started together.
    let round_start = Barrier::new(regions.len());
    std::thread::scope(|s| {
        let runs: Vec<_> = regions
            .iter()
            .map(|&r| {
                let round_start = &round_start;
                s.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| {
                            round_start.wait();
                            capture(r, 2).encode()
                        })
                        .collect()
                })
            })
            .collect();
        for ((run, want), r) in runs.into_iter().zip(&solo).zip(regions) {
            let traces: Vec<Vec<u8>> = run.join().expect("capture thread");
            for got in traces {
                assert!(got == *want, "concurrent {} capture diverges from its solo run", r.name());
            }
        }
    });
}

#[test]
fn npb_lu_ssor_bitwise_identical_across_widths() {
    let n = 8;
    let prob = npb_lu::SsorProblem::new(n, 333);
    let mut rng = NpbRng::new(9);
    let b: Vec<[f64; 5]> = (0..n * n * n)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![[0.0f64; 5]; n * n * n];
            for _ in 0..2 {
                prob.ssor_step(&mut u, &b, 1.2);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(
            vec5_bits(&run(width)),
            vec5_bits(&reference),
            "LU SSOR solution diverges at width {width}"
        );
    }
}
