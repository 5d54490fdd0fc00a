//! `fleet_sweep` (the fleet's write path): one op is the default
//! 522-cell DVFS sweep through `run_sweep` — two WAL-backed shard
//! daemons behind the router, every cell a `Tune` job whose Submit,
//! Claim and Done each append to a WAL. WAL appends, scheduler claims,
//! tune-cell execution and daemon start/stop dominate; the router sees
//! a single batch. The seed is the sweep's meter seed.
//!
//! It runs by hand and in every traced run, but it is not among the
//! workloads BENCHMARK.json gates: each op makes about 1566 `fdatasync`
//! calls, the WALs must stay inside the checkout, and on a shared ext4
//! disk the sync latency shifts by a fifth from one minute to the next,
//! so the op time does too.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hpceval_fleet::registry::Registry;
use hpceval_fleet::sweep::{cell_to_job, collect_results};
use hpceval_fleet::{run_sweep, Fleet, FleetClient, FleetConfig, FleetError, Router, SweepConfig};
use hpceval_tune::{plan_sweep, run_cell, CellMeasure, CellResult, SweepOptions, TuneCell};

use super::{closed_loop, dir_entries, timed, Ctx, Ops, Workload};
use crate::report::Layers;
use crate::spans::Tracer;

/// Shard daemons behind a router, wired the way `run_sweep` wires
/// them: each shard serves on its own loopback port, the router on one
/// more.
pub struct Stack {
    pub fleets: Vec<Arc<Fleet>>,
    pub shard_addrs: Vec<String>,
    pub router: Arc<Router>,
    pub router_addr: String,
    threads: Vec<JoinHandle<()>>,
}

impl Stack {
    /// One shard per WAL path, replaying what the WAL holds.
    pub fn open(wals: &[PathBuf], queue_cap: usize, schedule: bool) -> Result<Stack, FleetError> {
        let mut fleets = Vec::with_capacity(wals.len());
        let mut shard_addrs = Vec::with_capacity(wals.len());
        let mut threads = Vec::new();
        for path in wals {
            let config = FleetConfig { queue_cap, ..FleetConfig::default() };
            let fleet = Fleet::open(config, Registry::with_presets(), path)?;
            if schedule {
                threads.push(fleet.start_scheduler());
            }
            let listener = TcpListener::bind("127.0.0.1:0")?;
            shard_addrs.push(listener.local_addr()?.to_string());
            let f = Arc::clone(&fleet);
            threads.push(std::thread::spawn(move || {
                let _ = f.serve(listener);
            }));
            fleets.push(fleet);
        }
        let router = Arc::new(Router::connect(&shard_addrs)?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let router_addr = listener.local_addr()?.to_string();
        let r = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            let _ = r.serve(listener);
        }));
        Ok(Stack { fleets, shard_addrs, router, router_addr, threads })
    }

    /// Stop the router and every shard through `client` (a router
    /// connection), then join their threads.
    pub fn close(self, client: &mut FleetClient) -> Result<(), FleetError> {
        let stopped = client.shutdown();
        if stopped.is_err() {
            self.router.request_shutdown();
            for f in &self.fleets {
                f.request_shutdown();
            }
        }
        for t in self.threads {
            let _ = t.join();
        }
        stopped
    }
}

/// Shards per sweep, as `SweepConfig::default()` has it.
const SHARDS: usize = 2;

pub struct FleetSweep {
    cells: Vec<TuneCell>,
    /// In-process `run_cell` of every cell; sweeps must match it bit
    /// for bit.
    reference: Vec<CellMeasure>,
    wal_dir: PathBuf,
}

fn same_bits(a: &CellMeasure, b: &CellMeasure) -> bool {
    let bits = |m: &CellMeasure| {
        [m.gflops, m.time_s, m.power_w, m.energy_j, m.edp, m.ppw].map(f64::to_bits)
    };
    a.freq_mhz == b.freq_mhz && bits(a) == bits(b)
}

impl FleetSweep {
    fn check(&self, results: Result<Vec<CellResult>, FleetError>) -> Result<(), String> {
        let results = results.map_err(|e| format!("sweep failed: {e}"))?;
        if results.len() != self.cells.len() {
            return Err(format!("{} results for {} cells", results.len(), self.cells.len()));
        }
        for ((r, cell), want) in results.iter().zip(&self.cells).zip(&self.reference) {
            if r.cell != *cell || !same_bits(&r.measure, want) {
                return Err(format!("{cell:?} differs from in-process run_cell"));
            }
        }
        Ok(())
    }

    /// `Fleet::open` replays any WAL it finds, which would silently
    /// turn one sweep into two; every op starts from an empty directory.
    fn wal_dir_is_empty(&self) -> Result<(), String> {
        let left = dir_entries(&self.wal_dir)?;
        if left.is_empty() {
            Ok(())
        } else {
            Err(format!("WAL directory not empty before an op: {left:?}"))
        }
    }

    /// `run_sweep` rebuilt from the same public calls with a span per
    /// phase. The WALs are read for their counts and removed after the
    /// op ends.
    fn traced_sweep(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        self.wal_dir_is_empty()?;
        let wals: Vec<PathBuf> = (0..SHARDS)
            .map(|s| self.wal_dir.join(format!("traced-shard-{s}.wal")))
            .collect();
        let (outcome, _) = tr.op("fleet_sweep.op", |tr| {
            let (stack, mut client) = tr
                .span("fleet.open", |_| {
                    let stack = Stack::open(&wals, self.cells.len().max(16), true)?;
                    let client = FleetClient::connect(&stack.router_addr)?;
                    Ok::<_, FleetError>((stack, client))
                })
                .map_err(|e| format!("fleet start-up failed: {e}"))?;
            let results = (|| {
                let ids = tr.span("fleet.submit", |_| {
                    client.submit_with_backoff(self.cells.iter().map(cell_to_job).collect(), 8)
                })?;
                tr.span("fleet.drain", |_| {
                    for fleet in &stack.fleets {
                        fleet.drain();
                    }
                });
                tr.span("fleet.collect", |_| {
                    collect_results(&stack.fleets, &stack.router, &self.cells, &ids)
                })
            })();
            let closed = tr.span("fleet.teardown", |_| stack.close(&mut client));
            self.check(results)?;
            closed.map_err(|e| format!("fleet shutdown failed: {e}"))
        });
        outcome.and(self.count_and_remove(&wals, layers))
    }

    /// WAL entries and bytes per job, then delete the WALs.
    fn count_and_remove(&self, wals: &[PathBuf], layers: &mut Layers) -> Result<(), String> {
        let (mut lines, mut bytes) = (0usize, 0usize);
        for path in wals {
            let data = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            lines += data.iter().filter(|&&b| b == b'\n').count();
            bytes += data.len();
            std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let jobs = self.cells.len() as f64;
        layers.exact("wal.entries_per_job", lines as f64 / jobs);
        layers.exact("wal.bytes_per_job", bytes as f64 / jobs);
        Ok(())
    }
}

impl Workload for FleetSweep {
    const SETUPS: usize = 15;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let wal_dir = ctx.wal_dir();
        if std::env::temp_dir() != wal_dir {
            return Err("run_sweep's temporary WALs must land in the WAL directory".into());
        }
        let opts = SweepOptions { seed: ctx.derive(3), ..SweepOptions::default() };
        let cells = plan_sweep(&opts)?;
        let reference = cells.iter().map(run_cell).collect::<Result<_, _>>()?;
        Ok(FleetSweep { cells, reference, wal_dir })
    }

    fn drive(&mut self, deadline: Instant) -> Ops {
        closed_loop(deadline, |_| {
            self.wal_dir_is_empty()?;
            self.check(run_sweep(&self.cells, &SweepConfig::default()))
        })
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Ops {
        let mut ops = Ops::default();
        let (outcome, secs) = timed(|| {
            self.wal_dir_is_empty()?;
            self.check(run_sweep(&self.cells, &SweepConfig::default()))
        });
        layers.sample("untraced.fleet_sweep", secs);
        ops.record(secs, outcome);

        let (outcome, secs) = timed(|| self.traced_sweep(tr, layers));
        ops.record(secs, outcome);

        let (measures, secs) =
            tr.op("tune.cells", |_| self.cells.iter().map(run_cell).collect::<Result<Vec<_>, _>>());
        let outcome = match measures {
            Ok(m) if m.iter().zip(&self.reference).all(|(a, b)| same_bits(a, b)) => Ok(()),
            Ok(_) => Err("in-process run_cell is not reproducible".to_string()),
            Err(e) => Err(e),
        };
        ops.record(secs, outcome);
        layers.exact("tune.cells", self.cells.len() as f64);
        ops
    }

    fn finish_layers(&self, tr: &Tracer, layers: &mut Layers) {
        let median = |name: &str| crate::stats::median(&tr.durations(name));
        for phase in ["open", "submit", "drain", "collect", "teardown"] {
            if let Some(s) = median(&format!("fleet.{phase}")) {
                layers.sample(format!("fleet.{phase}_ms"), s * 1e3);
            }
        }
        if let Some(s) = median("tune.cells") {
            layers.sample("tune.cell_us", s / self.cells.len() as f64 * 1e6);
        }
    }
}
