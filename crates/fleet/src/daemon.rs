//! The fleet daemon: durable queue, scheduler, and TCP front-end.
//!
//! [`Fleet`] owns the whole orchestration state: the job table (rebuilt
//! from the WAL on open), the node registry, the fault injector, and
//! the rayon worker pool the scheduler dispatches onto. The state
//! machine is WAL-first — every transition is logged *before* the
//! in-memory table reflects it — so `kill -9` at any instant loses no
//! accepted job and at most the state rows that were in flight.
//!
//! Scheduling policy:
//! - A queued job runs once its backoff deadline has passed and its
//!   pinned node is healthy (crash hold-offs park the node briefly).
//! - Crashes count against [`FleetConfig::max_attempts`] and retry
//!   with exponential backoff; straggler preemptions requeue for free
//!   (the runner guarantees each preempted attempt made progress).
//! - A job whose attempts are exhausted degrades gracefully: it
//!   finishes `Degraded` carrying whatever rows were checkpointed,
//!   scored over the clean rows only — partial results are flagged,
//!   never silently averaged into fleet rankings.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::{Serialize, Value};

use hpceval_core::jobs::{evaluation_plan, STATE_SLOT_S};
use hpceval_telemetry::TelemetryEvent;

use crate::error::FleetError;
use crate::events::{EventKind, FleetEvent};
use crate::fault::{FaultInjector, FaultPlan};
use crate::job::{JobId, JobKind, JobRecord, JobResult, JobState, JobStatus};
use crate::registry::Registry;
use crate::runner::{run_attempt, AttemptOutcome};
use crate::server;
use crate::wal::{self, WalEntry, WalWriter};
use crate::wire::{self, Request};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-pool width (0: the rayon default, i.e. the
    /// `HPCEVAL_THREADS` default or the machine's parallelism).
    pub workers: usize,
    /// Maximum live (non-terminal) jobs; submits beyond it are pushed
    /// back with a retry hint.
    pub queue_cap: usize,
    /// Crashed attempts allowed before a job degrades.
    pub max_attempts: u32,
    /// First retry backoff.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// How long a crashed node stays down.
    pub crash_holdoff_ms: u64,
    /// Fault-injection plan.
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_cap: 256,
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 160,
            crash_holdoff_ms: 20,
            faults: FaultPlan::none(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    jobs: BTreeMap<JobId, JobRecord>,
    next_id: JobId,
    accepting: bool,
}

/// The orchestration daemon.
pub struct Fleet {
    config: FleetConfig,
    inner: Mutex<Inner>,
    cond: Condvar,
    wal: Mutex<WalWriter>,
    registry: Mutex<Registry>,
    injector: FaultInjector,
    events: Mutex<Vec<FleetEvent>>,
    telemetry: Mutex<Vec<TelemetryEvent>>,
    pool: ThreadPool,
    shutdown: AtomicBool,
}

impl Fleet {
    /// Open (or re-open) a fleet over `registry`, replaying the WAL at
    /// `wal_path` to restore any earlier daemon's accepted jobs.
    pub fn open(
        config: FleetConfig,
        registry: Registry,
        wal_path: &Path,
    ) -> Result<Arc<Fleet>, FleetError> {
        let entries = wal::replay(wal_path)?;
        let wal = WalWriter::open(wal_path)?;
        let pool = ThreadPoolBuilder::new()
            .num_threads(config.workers)
            .build()
            .expect("pool construction cannot fail");
        let injector = FaultInjector::new(config.faults);
        let fleet = Fleet {
            config,
            inner: Mutex::new(Inner { accepting: true, ..Inner::default() }),
            cond: Condvar::new(),
            wal: Mutex::new(wal),
            registry: Mutex::new(registry),
            injector,
            events: Mutex::new(Vec::new()),
            telemetry: Mutex::new(Vec::new()),
            pool,
            shutdown: AtomicBool::new(false),
        };
        fleet.restore(entries);
        Ok(Arc::new(fleet))
    }

    fn restore(&self, entries: Vec<WalEntry>) {
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        for entry in entries {
            match entry {
                WalEntry::Submit { job, kind } => {
                    let Some(node) = registry.find_for(kind.server()).map(|n| n.id) else {
                        continue; // server no longer registered: drop
                    };
                    let total_steps = match &kind {
                        JobKind::Evaluate { .. } => {
                            evaluation_plan(&registry.node(node).expect("exists").spec).len()
                        }
                        _ => 1,
                    };
                    inner.next_id = inner.next_id.max(job + 1);
                    inner.jobs.insert(
                        job,
                        JobRecord {
                            id: job,
                            kind,
                            state: JobState::Queued,
                            attempts: 0,
                            checkpoint: Vec::new(),
                            suspect_rows: Vec::new(),
                            total_steps,
                            result: None,
                            node,
                            next_due: Instant::now(),
                        },
                    );
                }
                WalEntry::Claim { .. } => {
                    // A claim without a matching done means the attempt
                    // was in flight at the kill; the job stays Queued
                    // and resumes from its checkpointed rows.
                }
                WalEntry::Checkpoint { job, row, suspect, data } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        if rec.checkpoint.len() == row {
                            rec.checkpoint.push(data);
                            if suspect {
                                rec.suspect_rows.push(row);
                            }
                        }
                    }
                }
                WalEntry::Retry { job, attempt, .. } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        rec.attempts = attempt.saturating_sub(1);
                    }
                }
                WalEntry::Done { job, state, result } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        rec.state = state;
                        rec.result = result;
                    }
                }
            }
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Submit a batch of jobs atomically; returns their ids.
    ///
    /// The whole batch is rejected on the first invalid job, and pushed
    /// back with [`FleetError::Backlog`] when it would overflow
    /// [`FleetConfig::queue_cap`].
    pub fn submit(&self, kinds: Vec<JobKind>) -> Result<Vec<JobId>, FleetError> {
        if kinds.is_empty() {
            return Ok(Vec::new());
        }
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        if !inner.accepting {
            return Err(FleetError::Remote("fleet is draining; submits rejected".to_string()));
        }
        let live = inner.jobs.values().filter(|j| !j.state.is_terminal()).count();
        if live + kinds.len() > self.config.queue_cap {
            return Err(FleetError::Backlog { retry_after_ms: self.config.backoff_cap_ms });
        }
        let mut placed = Vec::with_capacity(kinds.len());
        for kind in &kinds {
            let node = registry
                .find_for(kind.server())
                .map(|n| n.id)
                .ok_or_else(|| FleetError::UnknownServer(kind.server().to_string()))?;
            let total_steps = match kind {
                JobKind::Evaluate { .. } => {
                    evaluation_plan(&registry.node(node).expect("exists").spec).len()
                }
                _ => 1,
            };
            placed.push((node, total_steps));
        }
        // Batch is valid: log first, then admit.
        let mut ids = Vec::with_capacity(kinds.len());
        let mut wal = self.wal.lock();
        for (kind, (node, total_steps)) in kinds.into_iter().zip(placed) {
            let id = inner.next_id;
            inner.next_id += 1;
            wal.append(&WalEntry::Submit { job: id, kind: kind.clone() })?;
            inner.jobs.insert(
                id,
                JobRecord {
                    id,
                    kind,
                    state: JobState::Queued,
                    attempts: 0,
                    checkpoint: Vec::new(),
                    suspect_rows: Vec::new(),
                    total_steps,
                    result: None,
                    node,
                    next_due: Instant::now(),
                },
            );
            self.push_event(FleetEvent { t_s: 0.0, job: id, node, kind: EventKind::Submitted });
            ids.push(id);
        }
        drop(wal);
        drop(inner);
        self.cond.notify_all();
        Ok(ids)
    }

    /// Status snapshots, optionally filtered to one job.
    pub fn status(&self, job: Option<JobId>) -> Vec<JobStatus> {
        let inner = self.inner.lock();
        match job {
            Some(id) => inner.jobs.get(&id).map(JobRecord::status).into_iter().collect(),
            None => inner.jobs.values().map(JobRecord::status).collect(),
        }
    }

    /// The full result of a terminal job — including the kind-specific
    /// `output` payload, which status snapshots deliberately omit (a
    /// merged wire drain of a big sweep would blow the frame cap).
    /// In-process collectors (the tune sweep driver) read it directly.
    pub fn result_of(&self, job: JobId) -> Option<JobResult> {
        self.inner.lock().jobs.get(&job).and_then(|rec| rec.result.clone())
    }

    /// Stop accepting submits and block until every job is terminal.
    /// Requires a running scheduler (see [`Fleet::start_scheduler`]).
    pub fn drain(&self) -> Vec<JobStatus> {
        let mut inner = self.inner.lock();
        inner.accepting = false;
        while inner.jobs.values().any(|j| !j.state.is_terminal()) {
            if self.is_shutting_down() {
                break; // report what finished rather than hang forever
            }
            self.cond.wait_for(&mut inner, Duration::from_millis(10));
        }
        inner.jobs.values().map(JobRecord::status).collect()
    }

    /// All events so far.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.events.lock().clone()
    }

    /// The telemetry-bridged view of the event stream.
    pub fn telemetry_events(&self) -> Vec<TelemetryEvent> {
        self.telemetry.lock().clone()
    }

    /// Rank the servers the fleet could finish evaluating, best mean
    /// clean PPW first. Degraded results keep their flag; unfinished or
    /// unscorable jobs are excluded — a degraded fleet still ranks what
    /// it completed rather than reporting nothing.
    pub fn ranking(&self) -> Vec<(String, f64, bool)> {
        let inner = self.inner.lock();
        let mut rows: Vec<(String, f64, bool)> = inner
            .jobs
            .values()
            .filter(|j| matches!(j.kind, JobKind::Evaluate { .. }))
            .filter(|j| matches!(j.state, JobState::Done | JobState::Degraded))
            .filter_map(|j| {
                let r = j.result.as_ref()?;
                Some((j.kind.server().to_string(), r.score?, r.degraded))
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Ask the daemon loops to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cond.notify_all();
    }

    /// True once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Spawn the scheduler thread. It claims due jobs, dispatches the
    /// batch onto the worker pool, and parks briefly when idle.
    pub fn start_scheduler(self: &Arc<Self>) -> JoinHandle<()> {
        let fleet = Arc::clone(self);
        std::thread::spawn(move || {
            while !fleet.is_shutting_down() {
                let batch = fleet.claim_due();
                if batch.is_empty() {
                    let mut inner = fleet.inner.lock();
                    fleet.cond.wait_for(&mut inner, Duration::from_millis(5));
                    continue;
                }
                fleet.pool.install(|| {
                    batch.par_iter().for_each(|&id| fleet.execute(id));
                });
                fleet.cond.notify_all();
            }
        })
    }

    /// Claim every queued job whose backoff has elapsed and whose node
    /// is healthy; marks them Running and WAL-logs the claims.
    fn claim_due(&self) -> Vec<JobId> {
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        let now = Instant::now();
        let due: Vec<JobId> = inner
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .filter(|j| j.next_due <= now)
            .filter(|j| registry.is_healthy(j.node))
            .map(|j| j.id)
            .collect();
        let mut wal = self.wal.lock();
        let mut claimed = Vec::with_capacity(due.len());
        for id in due {
            let rec = inner.jobs.get_mut(&id).expect("listed above");
            let attempt = rec.attempts + 1;
            if wal.append(&WalEntry::Claim { job: id, attempt, node: rec.node }).is_err() {
                continue; // unloggable claims don't run
            }
            rec.state = JobState::Running;
            let (node, done) = (rec.node, rec.checkpoint.len());
            self.push_event(FleetEvent {
                t_s: done as f64 * STATE_SLOT_S,
                job: id,
                node,
                kind: EventKind::Started { attempt },
            });
            claimed.push(id);
        }
        claimed
    }

    /// Run one claimed job attempt to its outcome.
    fn execute(&self, id: JobId) {
        let (kind, checkpoint, suspect, attempt, node, total_steps) = {
            let inner = self.inner.lock();
            let rec = &inner.jobs[&id];
            (
                rec.kind.clone(),
                rec.checkpoint.clone(),
                rec.suspect_rows.clone(),
                rec.attempts + 1,
                rec.node,
                rec.total_steps,
            )
        };
        let spec = {
            let registry = self.registry.lock();
            registry.node(node).expect("pinned at submit").spec.clone()
        };
        let faults = self.injector.attempt_faults(id, attempt, total_steps);
        let outcome = run_attempt(&kind, &spec, &checkpoint, &suspect, faults, |row, data, sus| {
            // Lock order is inner → wal fleet-wide; the append still
            // happens before the in-memory row (WAL before memory).
            let mut inner = self.inner.lock();
            let logged = self
                .wal
                .lock()
                .append(&WalEntry::Checkpoint { job: id, row, suspect: sus, data: data.clone() })
                .is_ok();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                if logged && rec.checkpoint.len() == row {
                    rec.checkpoint.push(data.clone());
                    if sus {
                        rec.suspect_rows.push(row);
                    }
                }
            }
            drop(inner);
            let t_s = (row + 1) as f64 * STATE_SLOT_S;
            self.push_event(FleetEvent {
                t_s,
                job: id,
                node,
                kind: EventKind::Checkpointed { row },
            });
            if sus {
                self.push_event(FleetEvent {
                    t_s,
                    job: id,
                    node,
                    kind: EventKind::MeterDropout { row },
                });
            }
        });
        match outcome {
            AttemptOutcome::Completed { result } => self.finish(id, node, result),
            AttemptOutcome::Preempted => {
                let done = {
                    let mut inner = self.inner.lock();
                    let rec = inner.jobs.get_mut(&id).expect("running");
                    rec.state = JobState::Queued;
                    rec.next_due = Instant::now();
                    rec.checkpoint.len()
                };
                self.push_event(FleetEvent {
                    t_s: done as f64 * STATE_SLOT_S,
                    job: id,
                    node,
                    kind: EventKind::Preempted { row: done.saturating_sub(1) },
                });
                self.cond.notify_all();
            }
            AttemptOutcome::Crashed { at_step } => self.handle_crash(id, node, at_step),
            AttemptOutcome::BadCheckpoint { reason } => {
                let _ = self.wal.lock().append(&WalEntry::Done {
                    job: id,
                    state: JobState::Failed,
                    result: None,
                });
                let mut inner = self.inner.lock();
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.state = JobState::Failed;
                }
                drop(inner);
                self.push_event(FleetEvent {
                    t_s: 0.0,
                    job: id,
                    node,
                    kind: EventKind::Failed { reason },
                });
                self.cond.notify_all();
            }
        }
    }

    fn finish(&self, id: JobId, node: usize, result: JobResult) {
        let state = if result.degraded { JobState::Degraded } else { JobState::Done };
        let logged = self.wal.lock().append(&WalEntry::Done {
            job: id,
            state,
            result: Some(result.clone()),
        });
        if logged.is_err() {
            // Could not make the completion durable; leave the job
            // queued so a later attempt re-finishes it.
            let mut inner = self.inner.lock();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.state = JobState::Queued;
                rec.next_due = Instant::now() + Duration::from_millis(self.config.backoff_cap_ms);
            }
            return;
        }
        let t_s = result.rows.len() as f64 * STATE_SLOT_S;
        let note = result.notes.first().cloned().unwrap_or_default();
        {
            let mut inner = self.inner.lock();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.state = state;
                rec.result = Some(result);
            }
        }
        self.registry.lock().mark_finished(node);
        self.push_event(FleetEvent {
            t_s,
            job: id,
            node,
            kind: if state == JobState::Done {
                EventKind::Done
            } else {
                EventKind::Degraded { reason: note }
            },
        });
        self.cond.notify_all();
    }

    fn handle_crash(&self, id: JobId, node: usize, at_step: usize) {
        self.registry
            .lock()
            .mark_crashed(node, Duration::from_millis(self.config.crash_holdoff_ms));
        self.push_event(FleetEvent {
            t_s: at_step as f64 * STATE_SLOT_S,
            job: id,
            node,
            kind: EventKind::NodeCrashed,
        });
        let attempts = {
            let mut inner = self.inner.lock();
            let rec = inner.jobs.get_mut(&id).expect("running");
            rec.attempts += 1;
            rec.attempts
        };
        if attempts >= self.config.max_attempts {
            // Graceful degradation: finish with what was checkpointed.
            let (rows, suspect) = {
                let inner = self.inner.lock();
                let rec = &inner.jobs[&id];
                (rec.checkpoint.clone(), rec.suspect_rows.clone())
            };
            let score = JobResult::clean_score(&rows, &suspect);
            let result = JobResult {
                score,
                degraded: true,
                notes: vec![format!(
                    "exhausted {attempts} attempts; {} of {} rows completed",
                    rows.len(),
                    self.inner.lock().jobs[&id].total_steps
                )],
                rows,
                suspect_rows: suspect,
                output: None,
            };
            self.finish(id, node, result);
            return;
        }
        let backoff = self
            .config
            .backoff_base_ms
            .saturating_mul(1 << (attempts.saturating_sub(1)).min(16))
            .min(self.config.backoff_cap_ms);
        let reason = format!("node crashed before state {at_step}");
        let logged = self.wal.lock().append(&WalEntry::Retry {
            job: id,
            attempt: attempts + 1,
            reason: reason.clone(),
        });
        {
            let mut inner = self.inner.lock();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.state = JobState::Queued;
                rec.next_due = Instant::now() + Duration::from_millis(backoff);
            }
        }
        if logged.is_ok() {
            self.push_event(FleetEvent {
                t_s: at_step as f64 * STATE_SLOT_S,
                job: id,
                node,
                kind: EventKind::Retried { attempt: attempts + 1, backoff_ms: backoff, reason },
            });
        }
        self.cond.notify_all();
    }

    fn push_event(&self, event: FleetEvent) {
        if let Some(t) = event.to_telemetry() {
            self.telemetry.lock().push(t);
        }
        self.events.lock().push(event);
    }

    /// Serve the wire protocol on `listener` until shutdown, on the
    /// single-threaded readiness loop (see the [`crate::server`]
    /// module): no handler thread per connection, and a shutdown
    /// request is honored within one poll tick.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> Result<(), FleetError> {
        server::serve_readiness(&**self, listener)
    }

    /// Stop accepting submits without waiting for the queue to dry —
    /// the non-blocking half of [`Fleet::drain`], paired with
    /// [`Fleet::drained_statuses`] for completion polling.
    pub fn begin_drain(&self) {
        self.inner.lock().accepting = false;
        self.cond.notify_all();
    }

    /// Non-blocking drain-completion check: the full status report once
    /// a requested drain has run every job to a terminal state.
    pub fn drained_statuses(&self) -> Option<Vec<JobStatus>> {
        let inner = self.inner.lock();
        if !inner.accepting && inner.jobs.values().all(|j| j.state.is_terminal()) {
            Some(inner.jobs.values().map(JobRecord::status).collect())
        } else {
            None
        }
    }

    pub(crate) fn respond(&self, req: Request) -> String {
        match req {
            Request::Ping => wire::ok_response(vec![(
                "pong".to_string(),
                Value::Str("hpceval-fleet".to_string()),
            )])
            .expect("static response encodes"),
            Request::Submit { jobs } => match self.submit(jobs) {
                Ok(ids) => wire::ok_response(vec![
                    ("accepted".to_string(), Value::UInt(ids.len() as u64)),
                    ("ids".to_string(), Value::Seq(ids.into_iter().map(Value::UInt).collect())),
                ])
                .expect("ids encode"),
                Err(FleetError::Backlog { retry_after_ms }) => {
                    wire::error_response("queue full", Some(retry_after_ms))
                }
                Err(e) => wire::error_response(&e.to_string(), None),
            },
            Request::Status { job } => status_response(self.status(job)),
            Request::Drain => status_response(self.drain()),
            Request::Ranking => ranking_response(self.ranking()),
            Request::Shutdown => {
                wire::ok_response(vec![("stopping".to_string(), Value::Bool(true))])
                    .expect("static response encodes")
            }
        }
    }
}

impl server::Service for Fleet {
    fn handle(&self, req: Request) -> server::Action {
        match req {
            // Drain completes only when the queue is dry; answering
            // inline would stall the event loop, so defer it. Drain
            // completion is a global condition (the queue is dry for
            // everyone at once), so every drain shares ticket 0.
            Request::Drain => {
                self.begin_drain();
                server::Action::Defer(0)
            }
            Request::Shutdown => server::Action::ReplyThenShutdown(self.respond(Request::Shutdown)),
            other => server::Action::Reply(self.respond(other)),
        }
    }

    fn poll_ticket(&self, _ticket: u64) -> Option<String> {
        self.drained_statuses().map(status_response)
    }

    fn begin_shutdown(&self) {
        self.request_shutdown();
    }

    fn shutting_down(&self) -> bool {
        self.is_shutting_down()
    }
}

pub(crate) fn status_response(statuses: Vec<JobStatus>) -> String {
    let jobs = Value::Seq(statuses.iter().map(Serialize::to_value).collect());
    match wire::ok_response(vec![("jobs".to_string(), jobs)]) {
        Ok(s) => s,
        // A non-finite score would poison the frame; report it instead.
        Err(e) => wire::error_response(&e.to_string(), None),
    }
}

/// Encode `(server, ppw, degraded)` ranking rows as a wire response.
pub(crate) fn ranking_response(rows: Vec<(String, f64, bool)>) -> String {
    let seq = Value::Seq(
        rows.into_iter()
            .map(|(server, ppw, degraded)| {
                Value::Map(vec![
                    ("server".to_string(), Value::Str(server)),
                    ("ppw".to_string(), Value::Float(ppw)),
                    ("degraded".to_string(), Value::Bool(degraded)),
                ])
            })
            .collect(),
    );
    match wire::ok_response(vec![("ranking".to_string(), seq)]) {
        Ok(s) => s,
        Err(e) => wire::error_response(&e.to_string(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn wal_path(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("hpceval-fleet-{}-{name}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn eval(server: &str, seed: u64) -> JobKind {
        JobKind::Evaluate { server: server.to_string(), seed }
    }

    #[test]
    fn fault_free_queue_drains_done() {
        let path = wal_path("clean");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let sched = fleet.start_scheduler();
        fleet
            .submit(vec![
                eval("xeon-e5462", 1),
                JobKind::Green500 { server: "xeon-4870".into() },
                JobKind::Specpower { server: "opteron-8347".into() },
            ])
            .unwrap();
        let statuses = fleet.drain();
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|s| s.state == "Done"), "{statuses:?}");
        assert!(statuses.iter().all(|s| !s.degraded));
        fleet.request_shutdown();
        sched.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_server_rejects_the_batch_atomically() {
        let path = wal_path("unknown");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let err = fleet.submit(vec![eval("xeon-e5462", 1), eval("cray-1", 2)]).unwrap_err();
        assert!(matches!(err, FleetError::UnknownServer(_)));
        assert!(fleet.status(None).is_empty(), "nothing admitted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn queue_cap_pushes_back_with_a_retry_hint() {
        let path = wal_path("cap");
        let config = FleetConfig { queue_cap: 2, ..FleetConfig::default() };
        let fleet = Fleet::open(config, Registry::with_presets(), &path).unwrap();
        fleet.submit(vec![eval("xeon-e5462", 1), eval("xeon-e5462", 2)]).unwrap();
        match fleet.submit(vec![eval("xeon-e5462", 3)]) {
            Err(FleetError::Backlog { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected backlog, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ranking_orders_finished_servers_and_keeps_flags() {
        let path = wal_path("ranking");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let sched = fleet.start_scheduler();
        fleet
            .submit(vec![eval("xeon-e5462", 1), eval("xeon-4870", 1), eval("opteron-8347", 1)])
            .unwrap();
        fleet.drain();
        let ranking = fleet.ranking();
        assert_eq!(ranking.len(), 3);
        assert!(ranking.windows(2).all(|w| w[0].1 >= w[1].1), "sorted best-first");
        assert!(ranking.iter().all(|(_, _, degraded)| !degraded));
        fleet.request_shutdown();
        sched.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
