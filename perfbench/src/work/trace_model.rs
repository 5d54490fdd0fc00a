//! `trace_model`: one op is the trace-driven §VI experiment exactly as
//! `hpceval trace stats` runs it — full capture of the twelve
//! instrumented kernels, cache replay on the Xeon-4870, then training
//! and NPB-B/C validation. Trace capture and cache replay dominate it;
//! the seed is the experiment's regression seed.

use std::time::Instant;

use hpceval_core::regression_experiment::{
    collect_training_with, train, validate_with, RegressionExperiment,
};
use hpceval_core::trace_experiment::{
    analytic_locality, capture_kernel, replay_options, run_trace_experiment, KernelCapture,
    MeasuredLocalities, TraceExperiment,
};
use hpceval_kernels::npb::Class;
use hpceval_machine::presets;
use hpceval_machine::spec::ServerSpec;
use hpceval_trace::{replay, CaptureConfig, Region, TraceMode};

use super::{closed_loop, timed, Ctx, Ops, Workload};
use crate::report::Layers;
use crate::spans::Tracer;

/// Training samples per HPCC run, as `run_trace_experiment` uses.
const SAMPLES_PER_RUN: usize = 25;

pub struct TraceModel {
    spec: ServerSpec,
    config: CaptureConfig,
    seed: u64,
    /// The set-up's experiment; every op must reproduce it exactly.
    reference: TraceExperiment,
}

/// The paper's ordering: training fits best, and NPB-B validates at
/// least as well as NPB-C.
fn check_ordering(e: &TraceExperiment) -> Result<(), String> {
    let train_r2 = e.experiment.model.summary().r_square;
    let (b, c) = (e.experiment.npb_b.r2, e.experiment.npb_c.r2);
    if train_r2 > b && b >= c {
        Ok(())
    } else {
        Err(format!("R² ordering broken: train {train_r2}, NPB-B {b}, NPB-C {c}"))
    }
}

impl TraceModel {
    fn check(&self, e: Option<TraceExperiment>) -> Result<(), String> {
        let e = e.ok_or("trace-driven training failed")?;
        if e != self.reference {
            return Err("experiment differs from the set-up reference".into());
        }
        check_ordering(&e)
    }

    /// `run_trace_experiment` rebuilt from the same public calls, with a
    /// span around each layer's share.
    fn traced_experiment(&self, tr: &mut Tracer, layers: &mut Layers) -> Option<TraceExperiment> {
        let mut captures = Vec::with_capacity(Region::ALL.len());
        let (mut events, mut accesses, mut dropped) = (0, 0, 0);
        for region in Region::ALL {
            let name = region.name();
            let trace =
                tr.span(format!("trace.capture.{name}"), |_| capture_kernel(region, self.config))?;
            let capture = tr.span(format!("trace.replay.{name}"), |_| {
                let counters = replay(&trace, &self.spec, replay_options(region));
                let (reads, writes) = trace.access_split();
                KernelCapture {
                    kernel: name.to_string(),
                    events: trace.total_events(),
                    accesses: trace.total_accesses(),
                    reads,
                    writes,
                    dropped: trace.dropped,
                    hit_ratio: counters.hit_ratio(),
                    l1_hit_ratio: counters.l1_hit_ratio(),
                    locality: counters.locality_profile(&analytic_locality(region)),
                }
            });
            events += capture.events;
            accesses += capture.accesses;
            dropped += capture.dropped;
            captures.push(capture);
        }
        layers.exact("trace.events", events as f64);
        layers.exact("trace.accesses", accesses as f64);
        layers.exact("trace.dropped", dropped as f64);

        let localities = MeasuredLocalities { captures };
        let lookup = |id: &str| localities.get(id);
        let (observations, model) = tr.span("regression.train", |_| {
            let samples = collect_training_with(&self.spec, SAMPLES_PER_RUN, self.seed, &lookup);
            (samples.len(), train(&samples))
        });
        let model = model?;
        let (npb_b, npb_c) = tr.span("regression.validate", |_| {
            (
                validate_with(&self.spec, Class::B, &model, self.seed ^ 0xb, &lookup),
                validate_with(&self.spec, Class::C, &model, self.seed ^ 0xc, &lookup),
            )
        });
        Some(TraceExperiment {
            localities,
            experiment: RegressionExperiment { observations, model, npb_b, npb_c },
        })
    }
}

impl Workload for TraceModel {
    const SETUPS: usize = 9;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = presets::xeon_4870();
        let config = CaptureConfig { mode: TraceMode::Full, ..CaptureConfig::default() };
        let seed = ctx.derive(2);
        let reference =
            run_trace_experiment(&spec, config, seed).ok_or("trace-driven training failed")?;
        check_ordering(&reference)?;
        Ok(TraceModel { spec, config, seed, reference })
    }

    fn drive(&mut self, deadline: Instant) -> Ops {
        closed_loop(deadline, |_| {
            self.check(run_trace_experiment(&self.spec, self.config, self.seed))
        })
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Ops {
        let mut ops = Ops::default();
        let (e, secs) = timed(|| run_trace_experiment(&self.spec, self.config, self.seed));
        layers.sample("untraced.trace_model", secs);
        ops.record(secs, self.check(e));
        let (e, secs) = tr.op("trace_model.op", |tr| self.traced_experiment(tr, layers));
        ops.record(secs, self.check(e));
        ops
    }

    fn finish_layers(&self, tr: &Tracer, layers: &mut Layers) {
        let ms = |name: &str| crate::stats::median(&tr.durations(name)).map(|s| s * 1e3);
        let mut replay_ms = 0.0;
        for region in Region::ALL {
            let name = region.name();
            for stage in ["capture", "replay"] {
                if let Some(v) = ms(&format!("trace.{stage}.{name}")) {
                    layers.sample(format!("trace.{stage}.{name}.ms"), v);
                    if stage == "replay" {
                        replay_ms += v;
                    }
                }
            }
        }
        let accesses = self.reference.localities.captures.iter().map(|c| c.accesses).sum::<u64>();
        if replay_ms > 0.0 {
            layers.sample("trace.replay.maccess_per_s", accesses as f64 / replay_ms * 1e-3);
        }
        for name in ["regression.train", "regression.validate"] {
            if let Some(v) = ms(name) {
                layers.sample(format!("{name}_ms"), v);
            }
        }
    }
}
