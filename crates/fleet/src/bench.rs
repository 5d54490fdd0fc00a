//! The fleet sustained-load harness behind `hpceval bench fleet`: many
//! clients hammering a sharded fleet through the router, measuring
//! front-end round-trip latency and throughput.
//!
//! # What it exercises
//!
//! The full tentpole path: a bounded pool of client threads issues
//! submit/status round-trips against N in-process shard daemons behind
//! a router, every endpoint served by the single-threaded readiness
//! loop — zero handler threads per connection anywhere. The workload
//! is status-heavy (one submit per [`BenchOptions::submit_every`]
//! operations, mirroring a fleet where monitoring dwarfs admission);
//! submits are cheap single-shot Green500 scoring jobs so the worker
//! pool stays busy without drowning the host, and the queue drains
//! fully at the end so completions are verified, not assumed.
//!
//! # What it records
//!
//! Per-operation wall latency (client-side, connect excluded) merged
//! across clients into p50/p99, plus aggregate ops/s. `hpceval bench
//! fleet` prints these in the `BENCH_fleet.json` format; CI re-runs a
//! scaled-down load and gates it with the one baseline checker
//! (`hpceval::bench`), which declares `p50_us`/`p99_us` lower-is-better
//! and `ops_per_sec` higher-is-better.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use crate::client::FleetClient;
use crate::daemon::{Fleet, FleetConfig};
use crate::error::FleetError;
use crate::fault::FaultPlan;
use crate::job::JobKind;
use crate::pool::PoolConfig;
use crate::registry::Registry;
use crate::router::Router;

/// Sustained-load shape.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Shard daemons behind the router.
    pub shards: usize,
    /// Concurrent client threads (the bounded client pool).
    pub clients: usize,
    /// Total submit/status round-trips across all clients.
    pub ops: u64,
    /// One submit per this many operations; the rest are status probes.
    pub submit_every: u64,
    /// Max in-flight requests per router→shard socket.
    pub pipeline_depth: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        // The acceptance bar: ≥1 M round-trips against ≥2 shards.
        Self { shards: 2, clients: 8, ops: 1_000_000, submit_every: 128, pipeline_depth: 16 }
    }
}

/// One sustained-load measurement, JSON-shaped for `BENCH_fleet.json`.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub available_parallelism: usize,
    /// Effective executor width (HPCEVAL_THREADS pin included).
    pub threads: usize,
    pub shards: usize,
    pub clients: usize,
    pub ops: u64,
    pub submit_every: u64,
    pub pipeline_depth: usize,
    /// Jobs admitted during the run (≈ ops / submit_every).
    pub jobs_submitted: u64,
    /// Jobs verified terminal (Done/Degraded) after the final drain.
    pub jobs_completed: u64,
    /// Wall seconds for the measured operation window.
    pub elapsed_s: f64,
    pub note: String,
    /// The gated metrics: `p50_us`, `p99_us` (lower is better) and
    /// `ops_per_sec` (higher is better).
    pub metrics: BTreeMap<String, f64>,
}

/// Distinguishes concurrent harness runs inside one process (unit
/// tests) so their shard WALs cannot collide.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

const PRESET_SERVERS: [&str; 3] = ["xeon-e5462", "opteron-8347", "xeon-4870"];

/// Run the sustained load and report. Everything is in-process: shard
/// daemons and the router each serve on an ephemeral loopback port
/// from their own readiness loop, and the temp WALs are deleted on
/// success.
pub fn run_sustained_load(opts: &BenchOptions) -> Result<BenchReport, FleetError> {
    if opts.shards == 0 || opts.clients == 0 || opts.ops == 0 || opts.pipeline_depth == 0 {
        return Err(FleetError::Protocol(
            "bench needs shards, clients, ops, pipeline depth ≥ 1".to_string(),
        ));
    }
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let submit_every = opts.submit_every.max(1);

    // --- shard daemons --------------------------------------------
    let mut fleets = Vec::with_capacity(opts.shards);
    let mut wal_paths: Vec<PathBuf> = Vec::with_capacity(opts.shards);
    let mut shard_addrs = Vec::with_capacity(opts.shards);
    let mut threads = Vec::new();
    for s in 0..opts.shards {
        let path = std::env::temp_dir()
            .join(format!("hpceval-fleet-bench-{}-{run}-{s}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config =
            FleetConfig { queue_cap: 4096, faults: FaultPlan::none(), ..Default::default() };
        let fleet = Fleet::open(config, Registry::with_presets(), &path)?;
        threads.push(fleet.start_scheduler());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        shard_addrs.push(listener.local_addr()?.to_string());
        let f = Arc::clone(&fleet);
        threads.push(std::thread::spawn(move || {
            let _ = f.serve(listener);
        }));
        wal_paths.push(path);
        fleets.push(fleet);
    }

    // --- router ---------------------------------------------------
    let pool = PoolConfig { depth: opts.pipeline_depth, ..PoolConfig::default() };
    let router = Arc::new(Router::connect_with(&shard_addrs, pool)?);
    let router_listener = TcpListener::bind("127.0.0.1:0")?;
    let router_addr = router_listener.local_addr()?.to_string();
    {
        let r = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            let _ = r.serve(router_listener);
        }));
    }

    // --- the measured window --------------------------------------
    let started = Instant::now();
    let mut client_threads = Vec::with_capacity(opts.clients);
    for c in 0..opts.clients {
        let share =
            opts.ops / opts.clients as u64 + u64::from((c as u64) < opts.ops % opts.clients as u64);
        let addr = router_addr.clone();
        client_threads.push(std::thread::spawn(move || -> Result<(Vec<u64>, u64), FleetError> {
            let mut client = FleetClient::connect(&addr)?;
            let mut latencies = Vec::with_capacity(share as usize);
            let mut submits = 0u64;
            let mut last_id = 0u64;
            for i in 0..share {
                let t = Instant::now();
                if i % submit_every == 0 {
                    let server = PRESET_SERVERS[((c as u64 + submits) % 3) as usize].to_string();
                    let ids = client.submit_with_backoff(vec![JobKind::Green500 { server }], 8)?;
                    last_id = ids.first().copied().unwrap_or(0);
                    submits += 1;
                } else {
                    client.status(Some(last_id))?;
                }
                latencies.push(t.elapsed().as_nanos() as u64);
            }
            Ok((latencies, submits))
        }));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(opts.ops as usize);
    let mut jobs_submitted = 0u64;
    for handle in client_threads {
        let (lat, submits) = handle.join().expect("bench client panicked")?;
        latencies.extend(lat);
        jobs_submitted += submits;
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    // --- drain, verify, tear down ---------------------------------
    // The completion check reads the in-process daemons directly: a
    // full-size run admits thousands of jobs, and their merged wire
    // drain would exceed the (load-bearing, DoS-guarding) 1 MiB frame
    // cap in a single response. Wire-path drain stays covered by the
    // smoke test below and by tests/fleet_failover.rs.
    let mut jobs_completed = 0u64;
    for fleet in &fleets {
        jobs_completed += fleet
            .drain()
            .iter()
            .filter(|j| j.state == "Done" || j.state == "Degraded")
            .count() as u64;
    }
    let mut control = FleetClient::connect(&router_addr)?;
    control.shutdown()?;
    for handle in threads {
        let _ = handle.join();
    }
    drop(fleets);
    for path in &wal_paths {
        let _ = std::fs::remove_file(path);
    }
    if jobs_completed < jobs_submitted {
        return Err(FleetError::Protocol(format!(
            "drain left {} of {jobs_submitted} jobs unfinished",
            jobs_submitted - jobs_completed
        )));
    }

    latencies.sort_unstable();
    let mut metrics = BTreeMap::new();
    metrics.insert("p50_us".to_string(), percentile_ns(&latencies, 50) / 1e3);
    metrics.insert("p99_us".to_string(), percentile_ns(&latencies, 99) / 1e3);
    metrics.insert("ops_per_sec".to_string(), opts.ops as f64 / elapsed_s);
    Ok(BenchReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |v| v.get()),
        threads: rayon::current_num_threads(),
        shards: opts.shards,
        clients: opts.clients,
        ops: opts.ops,
        submit_every,
        pipeline_depth: opts.pipeline_depth,
        jobs_submitted,
        jobs_completed,
        elapsed_s,
        note: "submit/status round-trips through the router against sharded readiness-loop \
               daemons; latency is client-observed wall time per op, merged across the client \
               pool; the drift check treats *_us as lower-is-better and ops_per_sec as \
               higher-is-better"
            .to_string(),
        metrics,
    })
}

/// Nearest-rank percentile over sorted nanosecond samples, in ns.
fn percentile_ns(sorted: &[u64], pct: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as u64 * pct) / 100;
    sorted[idx as usize] as f64
}

/// A shard-sweep measurement set: one [`BenchReport`] per swept
/// configuration, keyed by [`config_key`]. This is the on-disk shape
/// of `BENCH_fleet.json`.
#[derive(Debug, Serialize)]
pub struct BenchSuite {
    /// Configuration key → its measurement.
    pub configs: BTreeMap<String, BenchReport>,
}

/// The suite key for one configuration: `s{shards}_c{clients}_d{depth}`.
pub fn config_key(opts: &BenchOptions) -> String {
    format!("s{}_c{}_d{}", opts.shards, opts.clients, opts.pipeline_depth)
}

/// The default shard sweep measured when no explicit list is given.
pub const DEFAULT_SHARD_SWEEP: [usize; 3] = [2, 4, 8];

/// The cartesian product of swept dimensions over a base shape, in
/// sweep order (shards outermost).
pub fn expand_configs(
    base: &BenchOptions,
    shards: &[usize],
    clients: &[usize],
    depths: &[usize],
) -> Vec<BenchOptions> {
    let mut out = Vec::new();
    for &s in shards {
        for &c in clients {
            for &d in depths {
                out.push(BenchOptions { shards: s, clients: c, pipeline_depth: d, ..base.clone() });
            }
        }
    }
    out
}

/// Run every configuration in order and collect the suite. Duplicate
/// configurations collapse onto one key (last run wins).
pub fn run_suite(configs: &[BenchOptions]) -> Result<BenchSuite, FleetError> {
    if configs.is_empty() {
        return Err(FleetError::Protocol("bench suite needs at least one configuration".into()));
    }
    let mut suite = BTreeMap::new();
    for opts in configs {
        suite.insert(config_key(opts), run_sustained_load(opts)?);
    }
    Ok(BenchSuite { configs: suite })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 50), 50.0);
        assert_eq!(percentile_ns(&sorted, 99), 99.0);
        assert_eq!(percentile_ns(&sorted, 0), 1.0);
        assert_eq!(percentile_ns(&sorted, 100), 100.0);
        assert_eq!(percentile_ns(&[], 50), 0.0);
    }

    #[test]
    fn sustained_load_smoke_over_two_shards() {
        // A miniature end-to-end run of the full tentpole: sharded
        // readiness-loop daemons, pipelined router fan-out, drain
        // verification.
        let opts =
            BenchOptions { shards: 2, clients: 2, ops: 300, submit_every: 50, pipeline_depth: 8 };
        let report = run_sustained_load(&opts).unwrap();
        assert_eq!(report.ops, 300);
        assert_eq!(report.pipeline_depth, 8);
        assert_eq!(report.jobs_submitted, report.jobs_completed);
        assert!(report.jobs_submitted >= 6, "each client submits on op 0, 50, ...");
        assert!(report.metrics["ops_per_sec"] > 0.0);
        assert!(report.metrics["p99_us"] >= report.metrics["p50_us"]);
    }
}
