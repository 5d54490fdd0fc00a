//! `fleet_status` (the fleet's read path): two shard daemons replay a
//! WAL fixture of 2088 terminal `Tune` jobs behind the router, and two
//! client threads — one `FleetClient` connection each, matching a
//! two-thread host — send seeded by-id status probes plus one
//! whole-table status per 256 probes. The router, pool, server loop and
//! codec carry the work; the WAL, scheduler and kernels carry none.
//! By-id probes expose per-hop overhead, whole-table reads codec and
//! merge cost.

use std::hint::black_box;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

use hpceval_fleet::job::JobId;
use hpceval_fleet::wal::{self, WalEntry};
use hpceval_fleet::wire::{self, Request};
use hpceval_fleet::{codec, run_sweep, FleetClient, PoolConfig, RemoteJob, ShardPool};
use hpceval_fleet::{FleetConfig, FleetError, SweepConfig};
use hpceval_trace::splitmix64;
use hpceval_tune::{plan_sweep, SweepOptions};
use serde::Value;

use super::fleet_sweep::Stack;
use super::{closed_loop, dir_entries, timed, Ctx, Ops, Workload};
use crate::report::Layers;
use crate::spans::Tracer;

/// Default sweeps written into the fixture WALs.
const FIXTURE_SWEEPS: u64 = 4;
/// Terminal jobs the fixture holds: four default 522-cell sweeps.
const FIXTURE_ROWS: usize = 2088;
/// Shards the fixture sweeps run on.
const SHARDS: usize = 2;
/// Client threads of the untraced run.
const CLIENTS: usize = 2;
/// One whole-table read after every 256 by-id probes.
const TABLE_EVERY: u64 = 257;
/// By-id probes per hop in one traced round.
const PROBES_PER_ROUND: usize = 64;
/// Calls per sample for in-process operations too short to time singly.
const BATCH: u32 = 1000;

fn fixture_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("fixture")
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "Done" | "Degraded" | "Failed")
}

/// A by-id reply must be exactly one terminal row carrying `id`.
fn check_one(jobs: Result<Vec<RemoteJob>, FleetError>, id: JobId) -> Result<(), String> {
    match jobs.map_err(|e| format!("status {id}: {e}"))?.as_slice() {
        [job] if job.id == id && is_terminal(&job.state) => Ok(()),
        other => Err(format!("status {id}: expected one terminal row, got {other:?}")),
    }
}

/// A raw by-id reply, as a shard pool returns it, must carry one row
/// with `id`.
fn check_raw_one(reply: Result<Value, FleetError>, id: JobId) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("pool status {id}: {e}"))?;
    match reply.get("jobs").and_then(Value::as_seq) {
        Some([job]) if job.get("id").and_then(Value::as_u64) == Some(id) => Ok(()),
        _ => Err(format!("pool status {id}: expected one row, got {reply:?}")),
    }
}

/// A whole-table reply must hold `rows` terminal rows.
fn check_table(jobs: Result<Vec<RemoteJob>, FleetError>, rows: usize) -> Result<(), String> {
    let jobs = jobs.map_err(|e| format!("status table: {e}"))?;
    if jobs.len() == rows && jobs.iter().all(|j| is_terminal(&j.state)) {
        Ok(())
    } else {
        Err(format!("status table: {} rows, expected {rows} terminal", jobs.len()))
    }
}

/// The direct connections a traced round times hop by hop.
struct Hops {
    /// One lock-step client per shard, bypassing the router.
    shards: Vec<FleetClient>,
    /// One pipelined pool per shard, as the router holds them.
    pools: Vec<ShardPool>,
    /// A whole-table reply as it came off the wire.
    table_frame: String,
}

pub struct FleetStatus {
    stack: Stack,
    clients: Vec<FleetClient>,
    wals: Vec<PathBuf>,
    /// Global ids of every fixture job.
    ids: Vec<JobId>,
    probe_seed: u64,
    probes: u64,
    hops: Option<Hops>,
}

/// Send one raw request frame and return the reply frame.
fn raw_roundtrip(addr: &str, req: &Request) -> Result<String, FleetError> {
    let mut stream = TcpStream::connect(addr)?;
    wire::write_frame(&mut stream, &wire::encode_envelope(0, req)?)?;
    wire::read_frame(&mut stream)?.ok_or_else(|| FleetError::Protocol("connection closed".into()))
}

/// The `k`-th seeded probe target.
fn pick(ids: &[JobId], seed: u64, k: u64) -> JobId {
    ids[(splitmix64(seed ^ k) % ids.len() as u64) as usize]
}

impl FleetStatus {
    fn connect_hops(&self, layers: &mut Layers) -> Result<Hops, FleetError> {
        let mut shards = Vec::new();
        let mut pools = Vec::new();
        for addr in &self.stack.shard_addrs {
            shards.push(FleetClient::connect(addr)?);
            pools.push(ShardPool::connect(addr, PoolConfig::default())?);
        }
        let one = Request::Status { job: Some(self.ids[0]) };
        let by_id = raw_roundtrip(&self.stack.router_addr, &one)?;
        let table = raw_roundtrip(&self.stack.router_addr, &Request::Status { job: None })?;
        // Frame sizes include the 4-byte length prefix.
        layers.exact("fleet.frame_bytes.by_id", (by_id.len() + 4) as f64);
        layers.exact("fleet.frame_bytes.table", (table.len() + 4) as f64);
        Ok(Hops { shards, pools, table_frame: table })
    }
}

impl Workload for FleetStatus {
    const SETUPS: usize = 60;

    /// Write the fixture through the program's own `run_sweep`.
    fn prepare(ctx: &Ctx) -> Result<(), String> {
        let dir = fixture_dir(ctx);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut planned = 0;
        for k in 0..FIXTURE_SWEEPS {
            let opts = SweepOptions { seed: ctx.derive(10 + k), ..SweepOptions::default() };
            let cells = plan_sweep(&opts)?;
            planned += cells.len();
            let config = SweepConfig { wal_dir: Some(dir.clone()), ..SweepConfig::default() };
            run_sweep(&cells, &config).map_err(|e| format!("fixture sweep failed: {e}"))?;
        }
        if planned != FIXTURE_ROWS {
            return Err(format!("fixture plans {planned} jobs, expected {FIXTURE_ROWS}"));
        }
        Ok(())
    }

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = fixture_dir(ctx);
        let wals: Vec<PathBuf> = dir_entries(&dir)?.iter().map(|n| dir.join(n)).collect();
        if wals.len() != SHARDS {
            return Err(format!("fixture holds {} WALs, expected {SHARDS}", wals.len()));
        }
        let cap = FleetConfig::default().queue_cap;
        let stack = Stack::open(&wals, cap, false).map_err(|e| e.to_string())?;
        let clients = (0..CLIENTS)
            .map(|_| FleetClient::connect(&stack.router_addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut ids = Vec::with_capacity(FIXTURE_ROWS);
        for (shard, fleet) in stack.fleets.iter().enumerate() {
            ids.extend(fleet.status(None).iter().map(|j| j.id * SHARDS as u64 + shard as u64));
        }
        if ids.len() != FIXTURE_ROWS {
            return Err(format!("shards replayed {} jobs, expected {FIXTURE_ROWS}", ids.len()));
        }
        Ok(FleetStatus {
            stack,
            clients,
            wals,
            ids,
            probe_seed: ctx.derive(4),
            probes: 0,
            hops: None,
        })
    }

    fn drive(&mut self, deadline: Instant) -> Ops {
        let clients = std::mem::take(&mut self.clients);
        let ids = &self.ids;
        let done: Vec<(FleetClient, Ops)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let seed = splitmix64(self.probe_seed ^ c as u64);
                    s.spawn(move || {
                        let ops = closed_loop(deadline, |k| {
                            if k % TABLE_EVERY == TABLE_EVERY - 1 {
                                check_table(client.status(None), FIXTURE_ROWS)
                            } else {
                                let id = pick(ids, seed, k);
                                check_one(client.status(Some(id)), id)
                            }
                        });
                        (client, ops)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut all = Ops::default();
        let mut window: f64 = 0.0;
        for (client, ops) in done {
            window = window.max(ops.window_s);
            all.merge(ops);
            self.clients.push(client);
        }
        all.window_s = window;
        all
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Ops {
        let mut ops = Ops::default();
        if self.hops.is_none() {
            match self.connect_hops(layers) {
                Ok(h) => self.hops = Some(h),
                Err(e) => {
                    ops.record(0.0, Err(format!("direct connections failed: {e}")));
                    return ops;
                }
            }
        }
        let hops = self.hops.as_mut().expect("connected above");
        let client = &mut self.clients[0];
        let mut last = (0, 0);
        for _ in 0..PROBES_PER_ROUND {
            self.probes += 1;
            let id = pick(&self.ids, self.probe_seed, self.probes);
            let (shard, local) = self.stack.router.split_global(id);
            last = (shard, local);

            let (jobs, secs) = timed(|| client.status(Some(id)));
            layers.sample("untraced.fleet_status", secs);
            ops.record(secs, check_one(jobs, id));

            let (jobs, secs) = tr.op("fleet_status.op", |tr| {
                tr.span("fleet.router_rtt", |_| client.status(Some(id)))
            });
            ops.record(secs, check_one(jobs, id));

            let (jobs, secs) = tr.op("fleet.shard_rtt", |_| hops.shards[shard].status(Some(local)));
            ops.record(secs, check_one(jobs, local));

            let req = Request::Status { job: Some(local) };
            let (reply, secs) = tr.op("fleet.pool.call", |_| hops.pools[shard].call(&req));
            ops.record(secs, check_raw_one(reply, local));
        }

        let (shard, local) = last;
        let fleet = &self.stack.fleets[shard];
        tr.op("fleet.daemon.status", |_| {
            for _ in 0..BATCH {
                black_box(fleet.status(Some(local)));
            }
        });
        let req = Request::Status { job: Some(local) };
        tr.op("fleet.codec.encode_request", |_| {
            for k in 0..u64::from(BATCH) {
                black_box(wire::encode_envelope(k, &req).expect("status requests encode"));
            }
        });

        let (jobs, secs) = tr.op("fleet.table.router", |_| client.status(None));
        ops.record(secs, check_table(jobs, FIXTURE_ROWS));
        let shard0_rows = self.stack.fleets[0].status(None).len();
        let (jobs, secs) = tr.op("fleet.table.shard", |_| hops.shards[0].status(None));
        ops.record(secs, check_table(jobs, shard0_rows));
        let (parsed, secs) = tr.op("fleet.codec.parse_table", |_| codec::parse(&hops.table_frame));
        ops.record(secs, parsed.map(drop).map_err(|e| e.to_string()));

        let (replayed, secs) = tr.op("wal.replay", |_| {
            self.wals.iter().map(|w| wal::replay(w)).collect::<Result<Vec<_>, _>>()
        });
        let submits = replayed.map(|logs| {
            logs.iter().flatten().filter(|e| matches!(e, WalEntry::Submit { .. })).count()
        });
        ops.record(
            secs,
            match submits {
                Ok(FIXTURE_ROWS) => Ok(()),
                Ok(n) => Err(format!("WAL replay found {n} submits, expected {FIXTURE_ROWS}")),
                Err(e) => Err(e.to_string()),
            },
        );
        ops
    }

    fn finish_layers(&self, tr: &Tracer, layers: &mut Layers) {
        let median = |name: &str| crate::stats::median(&tr.durations(name));
        let us = |name: &str| median(name).map(|s| s * 1e6);
        let ms = |name: &str| median(name).map(|s| s * 1e3);
        let per_call_us = |name: &str| us(name).map(|v| v / f64::from(BATCH));
        let values = [
            ("fleet.router_rtt_us", us("fleet.router_rtt")),
            ("fleet.shard_rtt_us", us("fleet.shard_rtt")),
            ("fleet.pool.call_us", us("fleet.pool.call")),
            ("fleet.daemon.status_us", per_call_us("fleet.daemon.status")),
            ("fleet.codec.encode_request_us", per_call_us("fleet.codec.encode_request")),
            ("fleet.codec.parse_table_us", us("fleet.codec.parse_table")),
            ("fleet.table.router_ms", ms("fleet.table.router")),
            ("fleet.table.shard_ms", ms("fleet.table.shard")),
            ("wal.replay_ms", ms("wal.replay")),
        ];
        for (name, v) in values {
            if let Some(v) = v {
                layers.sample(name, v);
            }
        }
        if let (Some(router), Some(shard)) = (us("fleet.router_rtt"), us("fleet.shard_rtt")) {
            layers.sample("fleet.router.self_us", router - shard);
        }
    }

    fn close(mut self) -> Result<(), String> {
        self.hops = None;
        let mut client = self.clients.remove(0);
        self.stack.close(&mut client).map_err(|e| e.to_string())
    }
}
