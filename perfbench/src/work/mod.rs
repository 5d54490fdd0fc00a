//! The four workloads and the closed loop that drives them.

pub mod fleet_status;
pub mod fleet_sweep;
pub mod kernels;
pub mod trace_model;

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::report::Layers;
use crate::spans::Tracer;

/// What a workload is given: the seed its inputs derive from, and the
/// scratch directory inside the checkout it may write to.
pub struct Ctx {
    pub seed: u64,
    pub work: PathBuf,
}

impl Ctx {
    /// Where WALs of the measured sweeps go. It must be empty before
    /// every op: `Fleet::open` replays whatever it finds there.
    pub fn wal_dir(&self) -> PathBuf {
        self.work.join("wal")
    }

    /// Derive an independent seed for one use of the run seed.
    pub fn derive(&self, salt: u64) -> u64 {
        hpceval_trace::splitmix64(self.seed ^ hpceval_trace::splitmix64(salt))
    }
}

/// Outcomes of the ops of one run or round.
#[derive(Debug, Default)]
pub struct Ops {
    /// Latency of every op, seconds.
    pub lat_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time the ops ran for, seconds.
    pub window_s: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, secs: f64, outcome: Result<(), String>) {
        self.lat_s.push(secs);
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.lat_s.extend(other.lat_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_s += other.window_s;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Names of the files in `dir`.
pub fn dir_entries(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    names.sort();
    Ok(names)
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One client issuing op `k` only after op `k - 1` completed, until
/// `deadline`; at least one op runs.
pub fn closed_loop(deadline: Instant, mut op: impl FnMut(u64) -> Result<(), String>) -> Ops {
    let start = Instant::now();
    let mut ops = Ops::default();
    let mut k = 0;
    loop {
        let (outcome, secs) = timed(|| op(k));
        ops.record(secs, outcome);
        k += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    ops.window_s = start.elapsed().as_secs_f64();
    ops
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Set-ups per untraced run, spread evenly over its timed window;
    /// `setup_s` is their median.
    const SETUPS: usize;

    /// Untimed preparation of inputs, once per run.
    fn prepare(_ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    /// The timed set-up: everything before the first timed op.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Untraced closed-loop ops until `deadline`.
    fn drive(&mut self, deadline: Instant) -> Ops;

    /// One round of the traced run: an untraced op (sampled as
    /// `untraced.<workload>`), a traced op (root span `<workload>.op`)
    /// and any direct layer probes.
    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Ops;

    /// Turn the spans of all rounds into this workload's layer metrics.
    fn finish_layers(&self, tr: &Tracer, layers: &mut Layers);

    /// Release what set-up started.
    fn close(self) -> Result<(), String> {
        Ok(())
    }
}
