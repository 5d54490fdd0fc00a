//! `kernels`: one op is one pass over the sixteen self-verifying
//! kernels `hpceval verify` runs, each through `Benchmark::verify` at
//! the executor's width from one caller thread. The SIMD tiers, the
//! DGEMM tile plan, the NPB/HPCC kernels and executor dispatch do
//! almost all the work here and none in the fleet workloads. Kernel
//! inputs are built into `verify`; the seed orders each pass.

use std::hint::black_box;
use std::time::Instant;

use hpceval_kernels::hpcc;
use hpceval_kernels::hpl::HplConfig;
use hpceval_kernels::npb::{Class, Program};
use hpceval_kernels::Benchmark;
use hpceval_machine::presets;
use hpceval_trace::splitmix64;
use rayon::prelude::*;

use super::{closed_loop, timed, Ctx, Ops, Workload};
use crate::report::Layers;
use crate::spans::Tracer;

/// The suite `hpceval verify` runs: NPB class C, tuned HPL, and the
/// HPCC suite sized for the Xeon-E5462.
fn build_suite() -> Vec<Box<dyn Benchmark>> {
    let mut suite: Vec<Box<dyn Benchmark>> =
        Program::ALL.iter().map(|p| p.benchmark(Class::C)).collect();
    suite.push(Box::new(HplConfig::tuned(30_000, 4)));
    suite.extend(hpcc::full_suite(&presets::xeon_e5462()));
    suite
}

/// Metric ids of the suite: `Benchmark::id`, with HPCC's HPL (the
/// second `hpl`) renamed `hpcc-hpl`.
fn ids_of(suite: &[Box<dyn Benchmark>]) -> Vec<String> {
    let mut seen_hpl = false;
    suite
        .iter()
        .map(|b| match b.id() {
            "hpl" if seen_hpl => "hpcc-hpl".to_string(),
            "hpl" => {
                seen_hpl = true;
                "hpl".to_string()
            }
            id => id.to_string(),
        })
        .collect()
}

/// The kernel ids in suite order.
pub fn kernel_ids() -> Vec<String> {
    ids_of(&build_suite())
}

pub struct Kernels {
    suite: Vec<Box<dyn Benchmark>>,
    ids: Vec<String>,
    /// Useful operations of each kernel's verify run, from the warm-up.
    useful: Vec<f64>,
    width: usize,
    order_seed: u64,
    passes: u64,
}

impl Kernels {
    /// The seeded kernel order of the next pass.
    fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.suite.len()).collect();
        let base = splitmix64(self.order_seed ^ self.passes);
        self.passes += 1;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(base ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    fn verify(&self, i: usize) -> Result<f64, String> {
        let out = self.suite[i].verify(self.width);
        if out.passed {
            Ok(out.useful_ops)
        } else {
            Err(format!("{} failed verification: {}", self.ids[i], out.detail))
        }
    }

    fn pass(&self, order: &[usize]) -> Result<(), String> {
        order.iter().try_for_each(|&i| self.verify(i).map(drop))
    }
}

/// Mean seconds per call of `f` over `n` calls.
fn per_call(n: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(n)
}

impl Workload for Kernels {
    const SETUPS: usize = 30;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let suite = build_suite();
        let ids = ids_of(&suite);
        let mut k = Kernels {
            suite,
            ids,
            useful: Vec::new(),
            width: rayon::current_num_threads(),
            order_seed: ctx.derive(1),
            passes: 0,
        };
        k.useful = (0..k.suite.len()).map(|i| k.verify(i)).collect::<Result<_, _>>()?;
        Ok(k)
    }

    fn drive(&mut self, deadline: Instant) -> Ops {
        closed_loop(deadline, |_| {
            let order = self.next_order();
            self.pass(&order)
        })
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Ops {
        let mut ops = Ops::default();
        let order = self.next_order();
        let (outcome, secs) = timed(|| self.pass(&order));
        layers.sample("untraced.kernels", secs);
        ops.record(secs, outcome);

        let order = self.next_order();
        let (outcome, secs) = tr.op("kernels.op", |tr| {
            let mut total = 0.0;
            for &i in &order {
                total += tr.span(format!("kernels.{}", self.ids[i]), |_| self.verify(i))?;
            }
            Ok(total)
        });
        let outcome = outcome.map(|total: f64| layers.exact("kernels.useful_gop", total * 1e-9));
        ops.record(secs, outcome);

        // Executor dispatch on its own: an empty join, and a trivial
        // parallel loop one piece per worker.
        let width = self.width;
        let join = per_call(2000, || {
            black_box(rayon::join(|| black_box(1u64), || black_box(2u64)));
        });
        let par = per_call(500, || {
            (0..width).into_par_iter().with_min_len(1).for_each(|i| {
                black_box(i);
            });
        });
        layers.sample("rayon.join_us", join * 1e6);
        layers.sample("rayon.par_iter_us", par * 1e6);
        ops
    }

    fn finish_layers(&self, tr: &Tracer, layers: &mut Layers) {
        for (id, useful) in self.ids.iter().zip(&self.useful) {
            if let Some(secs) = crate::stats::median(&tr.durations(&format!("kernels.{id}"))) {
                layers.sample(format!("kernels.{id}.ms"), secs * 1e3);
                layers.sample(format!("kernels.{id}.gops"), useful / secs * 1e-9);
            }
        }
    }
}
