//! `quest-serve`: a long-running, multi-tenant job server over the
//! [`quest_runtime`] engine.
//!
//! The paper's thesis is that hardware-managed error correction turns
//! QEC from a bandwidth-bound batch problem into a sustained service.
//! This crate is that service's control plane: instead of one
//! [`WorkloadSpec`] per process, a [`Server`] accepts many concurrent
//! jobs from many tenants and runs them on a fixed pool of workers:
//!
//! ```text
//! submit ──► admission (validate + per-tenant quotas)
//!              │ reject: typed ServeError, nothing reserved
//!              ▼
//!          bounded MPMC job queue  ──►  worker pool (N threads)
//!                                          │ each job: one
//!                                          │ Runtime::run_controlled
//!                                          ▼
//!          JobHandle event stream  ◄──  queued → admitted →
//!                                       running(pct) → done/cancelled/failed
//! ```
//!
//! * **Admission control** — [`TenantQuota`] caps queued jobs, in-flight
//!   shard-cycles and lifetime shots per tenant; the queue bound is the
//!   global backpressure behind those. Rejection is all-or-nothing and
//!   typed ([`ServeError`]).
//! * **Streaming** — every job hands back a [`JobHandle`] whose channel
//!   streams [`JobEvent`]s as the job moves through the state machine,
//!   ending with the full [`RuntimeReport`](quest_runtime::RuntimeReport)
//!   on completion.
//! * **Cancellation** — [`JobHandle::cancel`] trips the job's
//!   [`CancelToken`](quest_runtime::CancelToken): queued jobs are dropped
//!   at pickup, running jobs stop at the runtime's next cooperative
//!   checkpoint. The worker pool survives either way.
//! * **Supervision** — [`Server::submit_with_policy`] attaches a
//!   [`RetryPolicy`]: environmental failures (crashed shard, dead decode
//!   pool, exhausted link) are retried with deterministic pop-counted
//!   backoff, resuming from the job's latest
//!   [`RunSnapshot`](quest_runtime::RunSnapshot) checkpoint; a
//!   QECC-cycle deadline terminates runaway jobs with
//!   [`JobOutcome::DeadlineExceeded`]; and
//!   [`ServerConfig::max_backlog_cycles`] sheds load with a typed
//!   [`RetryAfter`] hint before the backlog grows unbounded. Recovery
//!   footprints (retransmissions, respawns, resumed cycles) surface in
//!   the [`ServeReport`] ledger.
//! * **Drain** — [`Server::shutdown`] stops intake, lets the pool finish
//!   every admitted job, joins all threads and returns the final
//!   [`ServeReport`] ledger (per-tenant p50/p99 queue and run latency,
//!   jobs/s, shots/s).
//!
//! # Determinism
//!
//! Each job is executed by exactly one [`Runtime::run_controlled`] call,
//! whose result depends only on the job's own spec (seed included) —
//! never on which worker ran it, how many other jobs interleaved, or the
//! pool size. Same spec ⇒ bit-identical
//! [`RunReport`](quest_core::RunReport), solo or under heavy multi-tenant
//! traffic; the serve test suite enforces this at worker counts 1/2/4.
//! Wall-clock only ever flows *out* (ledger latencies, via the runtime's
//! `Stopwatch` boundary), never into scheduling decisions that could
//! reach a report.
//!
//! # Example
//!
//! ```
//! use quest_serve::{Server, ServerConfig, JobOutcome};
//! use quest_runtime::WorkloadSpec;
//! use quest_core::TenantId;
//!
//! let server = Server::start(ServerConfig::default().with_workers(2));
//! let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 10);
//! let job = server.submit(TenantId(0), spec)?;
//! match job.wait() {
//!     JobOutcome::Done(report) => assert_eq!(report.report.outcomes.len(), 4),
//!     other => panic!("{other:?}"),
//! }
//! let ledger = server.shutdown();
//! assert_eq!(ledger.jobs_done(), 1);
//! # Ok::<(), quest_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
// The panic-free contract extends to the serving layer: admission,
// scheduling, cancellation and ledger paths return typed errors.
// Enforced by quest-lint QL01 plus this clippy deny; test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod error;
pub mod job;
pub mod ledger;
pub mod queue;
pub mod quota;
pub mod supervisor;

pub use error::{RetryAfter, ServeError};
pub use job::{JobEvent, JobHandle, JobOutcome, JobState};
pub use quest_core::{JobId, LatencySummary, ServeReport, TenantId, TenantServeStats};
pub use quota::{JobCost, TenantQuota};
pub use supervisor::RetryPolicy;

use job::Job;
use ledger::ServerLedger;
use quest_runtime::stats::Stopwatch;
use quest_runtime::{RunControl, RunProgress, Runtime, RuntimeError, WorkloadSpec};
use queue::{JobQueue, PushRefused};
use quota::QuotaBook;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use supervisor::retryable;

/// Construction-time knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs (clamped ≥ 1).
    pub workers: usize,
    /// Bound of the shared job queue (clamped ≥ 1).
    pub queue_depth: usize,
    /// Quota applied to tenants without a per-tenant override.
    pub default_quota: TenantQuota,
    /// Load-shedding bound: shard-cycles of admitted-but-unfinished
    /// backlog beyond which new submissions are rejected with
    /// [`ServeError::Overloaded`] instead of queued. `u64::MAX`
    /// (default) never sheds.
    pub max_backlog_cycles: u64,
    /// The runtime configuration every job runs under.
    pub runtime: Runtime,
}

impl Default for ServerConfig {
    /// Workers sized to the machine (capped at 4), a 64-deep queue,
    /// unlimited default quota, no load shedding.
    fn default() -> ServerConfig {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(2)
            .clamp(1, 4);
        ServerConfig {
            workers,
            queue_depth: 64,
            default_quota: TenantQuota::UNLIMITED,
            max_backlog_cycles: u64::MAX,
            runtime: Runtime::new(),
        }
    }
}

impl ServerConfig {
    /// Overrides the worker-pool size (clamped ≥ 1 at start).
    pub fn with_workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers;
        self
    }

    /// Overrides the job-queue bound (clamped ≥ 1 at start).
    pub fn with_queue_depth(mut self, depth: usize) -> ServerConfig {
        self.queue_depth = depth;
        self
    }

    /// Overrides the default tenant quota.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> ServerConfig {
        self.default_quota = quota;
        self
    }

    /// Overrides the runtime configuration jobs run under.
    pub fn with_runtime(mut self, runtime: Runtime) -> ServerConfig {
        self.runtime = runtime;
        self
    }

    /// Overrides the load-shedding bound (shard-cycles of backlog).
    pub fn with_max_backlog_cycles(mut self, cycles: u64) -> ServerConfig {
        self.max_backlog_cycles = cycles;
        self
    }
}

/// State shared between the server front end and its workers.
struct ServerShared {
    runtime: Runtime,
    quotas: Mutex<QuotaBook>,
    ledger: ServerLedger,
    next_job: AtomicU64,
    draining: AtomicBool,
    workers: usize,
    /// Shard-cycles of admitted-but-not-yet-picked-up work (retries
    /// included): the load-shedding signal. Credited before a job enters
    /// the queue, debited at worker pickup, so it can only overstate the
    /// backlog transiently — shedding errs conservative.
    backlog_cycles: AtomicU64,
    /// The shedding bound from [`ServerConfig::max_backlog_cycles`].
    max_backlog_cycles: u64,
}

impl ServerShared {
    fn quotas(&self) -> MutexGuard<'_, QuotaBook> {
        self.quotas.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The multi-tenant job server. See the crate docs for the pipeline.
///
/// Dropping a server without calling [`Server::shutdown`] still drains
/// gracefully (intake closes, queued jobs run, workers join) — it just
/// discards the final ledger.
pub struct Server {
    shared: Arc<ServerShared>,
    queue: JobQueue<Job>,
    workers: Vec<JoinHandle<()>>,
    started: Stopwatch,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.shared.workers)
            .field("queue_depth", &self.queue.capacity())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl Server {
    /// Starts the worker pool and begins accepting jobs.
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(ServerShared {
            runtime: config.runtime,
            quotas: Mutex::new(QuotaBook::new(config.default_quota)),
            ledger: ServerLedger::default(),
            next_job: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            workers,
            backlog_cycles: AtomicU64::new(0),
            max_backlog_cycles: config.max_backlog_cycles,
        });
        let queue: JobQueue<Job> = JobQueue::bounded(config.queue_depth);
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("quest-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &queue))
            })
            .filter_map(Result::ok)
            .collect();
        Server {
            shared,
            queue,
            workers: handles,
            started: Stopwatch::start(),
        }
    }

    /// Installs a per-tenant quota override (future admissions only).
    pub fn set_quota(&self, tenant: TenantId, quota: TenantQuota) {
        self.shared.quotas().set_quota(tenant, quota);
    }

    /// The quota currently governing `tenant`.
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        self.shared.quotas().quota(tenant)
    }

    /// Submits a job for `tenant`: validates the spec, charges the
    /// tenant's quota, enqueues, and returns the streaming
    /// [`JobHandle`]. The handle's channel already carries the
    /// [`JobEvent::Queued`] event when this returns.
    ///
    /// **Blocks** while the shared queue is at capacity — backpressure
    /// stalls the submitting thread instead of failing it. Use
    /// [`Server::try_submit`] for the non-blocking variant that returns
    /// [`ServeError::QueueFull`] with a typed [`RetryAfter`] hint.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] for an invalid workload,
    /// [`ServeError::ShuttingDown`] once [`Server::shutdown`] has begun,
    /// the [`ServeError`] quota variants when the tenant is over a
    /// limit, and [`ServeError::Overloaded`] when the server is shedding
    /// load. A rejected job reserves nothing (and ticks the tenant's
    /// `jobs_rejected` ledger counter).
    pub fn submit(&self, tenant: TenantId, spec: WorkloadSpec) -> Result<JobHandle, ServeError> {
        self.enqueue(tenant, spec, RetryPolicy::default(), true)
    }

    /// Non-blocking [`Server::submit`]: a full queue returns
    /// [`ServeError::QueueFull`] (with a deterministic [`RetryAfter`]
    /// hint) instead of waiting.
    pub fn try_submit(
        &self,
        tenant: TenantId,
        spec: WorkloadSpec,
    ) -> Result<JobHandle, ServeError> {
        self.enqueue(tenant, spec, RetryPolicy::default(), false)
    }

    /// [`Server::submit`] with per-job supervision: retries with
    /// deterministic backoff on environmental failures (resuming from
    /// the latest checkpoint), an optional QECC-cycle deadline, and a
    /// checkpoint cadence. See [`RetryPolicy`].
    pub fn submit_with_policy(
        &self,
        tenant: TenantId,
        spec: WorkloadSpec,
        policy: RetryPolicy,
    ) -> Result<JobHandle, ServeError> {
        self.enqueue(tenant, spec, policy, true)
    }

    /// The one admission path behind every submit variant.
    fn enqueue(
        &self,
        tenant: TenantId,
        spec: WorkloadSpec,
        policy: RetryPolicy,
        blocking: bool,
    ) -> Result<JobHandle, ServeError> {
        if self.shared.draining.load(Ordering::Acquire) {
            self.shared.ledger.rejected(tenant);
            return Err(ServeError::ShuttingDown);
        }
        if let Err(e) = spec.validate() {
            self.shared.ledger.rejected(tenant);
            return Err(ServeError::Spec(e));
        }
        let cost = JobCost::of(&spec);
        // Load shedding comes before quota so an overloaded server does
        // the cheapest possible work per rejected submission.
        let backlog = self.shared.backlog_cycles.load(Ordering::Acquire);
        if backlog.saturating_add(cost.shard_cycles) > self.shared.max_backlog_cycles {
            self.shared.ledger.shed(tenant);
            self.shared.ledger.rejected(tenant);
            return Err(ServeError::Overloaded {
                backlog_cycles: backlog,
                limit: self.shared.max_backlog_cycles,
                retry_after: RetryAfter {
                    slots: (self.queue.len() as u64).max(1),
                },
            });
        }
        if let Err(e) = self.shared.quotas().admit(tenant, cost) {
            self.shared.ledger.rejected(tenant);
            return Err(e);
        }
        let id = JobId(self.shared.next_job.fetch_add(1, Ordering::Relaxed));
        let (job, handle) = Job::channel(id, tenant, spec, cost, policy);
        job.emit(JobEvent::Queued { id });
        // Credit the backlog before the push so a racing pickup's debit
        // can never precede it.
        self.shared
            .backlog_cycles
            .fetch_add(cost.shard_cycles, Ordering::AcqRel);
        let pushed = if blocking {
            self.queue.push_wait(job)
        } else {
            self.queue.push(job)
        };
        match pushed {
            Ok(()) => {
                self.shared.ledger.admitted(tenant);
                Ok(handle)
            }
            Err(refused) => {
                self.shared
                    .backlog_cycles
                    .fetch_sub(cost.shard_cycles, Ordering::AcqRel);
                self.shared.quotas().rollback(tenant, cost);
                self.shared.ledger.rejected(tenant);
                Err(match refused {
                    PushRefused::Full(_) => ServeError::QueueFull {
                        capacity: self.queue.capacity(),
                        retry_after: RetryAfter { slots: 1 },
                    },
                    PushRefused::Closed(_) => ServeError::ShuttingDown,
                })
            }
        }
    }

    /// Jobs currently waiting in the queue (parked retries included).
    pub fn queued_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Live reservations summed over every tenant: `(queued jobs,
    /// in-flight shard-cycles)`. Reads `(0, 0)` exactly when every
    /// admitted job has reached a terminal state — the conservation law
    /// the chaos harness asserts.
    pub fn outstanding(&self) -> (u64, u64) {
        self.shared.quotas().outstanding()
    }

    /// Shard-cycles of admitted-but-not-yet-picked-up backlog (the
    /// load-shedding signal).
    pub fn backlog_cycles(&self) -> u64 {
        self.shared.backlog_cycles.load(Ordering::Acquire)
    }

    /// A live snapshot of the server ledger.
    pub fn report(&self) -> ServeReport {
        self.shared
            .ledger
            .report(self.shared.workers, self.started.elapsed())
    }

    /// Graceful drain: stops accepting new jobs, lets the worker pool
    /// finish everything already admitted (cancelled jobs included —
    /// they terminate at pickup or at their next checkpoint), joins all
    /// workers and returns the final ledger.
    pub fn shutdown(mut self) -> ServeReport {
        self.drain();
        self.shared
            .ledger
            .report(self.shared.workers, self.started.elapsed())
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One worker's life: pop, run (resuming from a checkpoint when the job
/// carries one), supervise, record, repeat — until the queue closes and
/// drains. A job's terminal bookkeeping always runs (quota release,
/// ledger, state cell, event stream), whatever the runtime returned; the
/// quota release and ledger entry land *before* the terminal event, so a
/// client that has observed a terminal event observes conserved quotas —
/// the ordering the chaos harness leans on. A retryable failure with
/// attempts left is the one non-terminal exit: the job goes back into the
/// queue (with deterministic pop-counted backoff) and its reservations
/// stay live.
fn worker_loop(shared: &ServerShared, queue: &JobQueue<Job>) {
    while let Some(mut job) = queue.pop() {
        shared
            .backlog_cycles
            .fetch_sub(job.cost.shard_cycles, Ordering::AcqRel);
        let queue_latency = job.queued_at.elapsed();
        shared.quotas().start(job.tenant);
        if job.cancel.is_cancelled() {
            // Cancelled while queued: never runs, no run-latency sample.
            shared.ledger.cancelled(job.tenant, None);
            shared.quotas().finish(job.tenant, job.cost);
            if job.cell.advance(JobState::Cancelled) {
                job.emit(JobEvent::Cancelled { id: job.id });
            }
            continue;
        }
        // The attempt resumes from the latest surviving checkpoint; keep
        // it around as the fallback resume point should this attempt die
        // before depositing a fresher one.
        let resumed_from = job.snapshot.take();
        if let Some(snap) = resumed_from.as_ref() {
            shared.ledger.resumed(job.tenant, snap.cycles_done());
        }
        shared.ledger.started(job.tenant, queue_latency);
        if job.cell.advance(JobState::Admitted) {
            job.emit(JobEvent::Admitted { id: job.id });
        }
        if job.cell.advance(JobState::Running { fraction: 0.0 }) {
            job.emit(JobEvent::Running {
                id: job.id,
                fraction: 0.0,
            });
        }
        let run_clock = Stopwatch::start();
        // Stream progress on whole-percent steps (at most 100 events per
        // job however many cycles it runs). The same hook polices the
        // policy's cycle deadline: the budget trips the job's own cancel
        // token, and `deadline_hit` disambiguates the resulting
        // `Cancelled` from a user cancellation (deadline wins when both
        // race — the budget was spent either way).
        let last_percent = AtomicU64::new(0);
        let deadline_hit = AtomicBool::new(false);
        // The hook must be `Sync` and `Job` is not (a carried snapshot
        // owns a decoder backend), so the closure borrows exactly the
        // Sync pieces it needs.
        let deadline = job.policy.deadline_cycles;
        let deadline_cancel = job.cancel.clone();
        let cell = Arc::clone(&job.cell);
        let events = job.events.clone();
        let id = job.id;
        let progress = |p: RunProgress| {
            if let Some(limit) = deadline {
                if p.cycles_done >= limit && !deadline_hit.swap(true, Ordering::AcqRel) {
                    deadline_cancel.cancel();
                }
            }
            let fraction = p.fraction();
            let percent = (fraction * 100.0) as u64;
            if last_percent.swap(percent, Ordering::Relaxed) != percent
                && cell.advance(JobState::Running { fraction })
            {
                let _ = events.send(JobEvent::Running { id, fraction });
            }
        };
        let control = RunControl::new()
            .with_cancel(&job.cancel)
            .with_progress(&progress)
            .with_checkpoints(&job.sink);
        let result = match resumed_from.as_ref() {
            Some(snapshot) => shared.runtime.resume(snapshot, &control),
            None => shared.runtime.run_controlled(&job.spec, &control),
        };
        let run_latency = run_clock.elapsed();
        match result {
            Ok(report) => {
                let shots = report.report.outcomes.len() as u64;
                shared.ledger.done(
                    job.tenant,
                    run_latency,
                    shots,
                    job.spec.decoder.name(),
                    &report.report.recovery,
                );
                shared.quotas().finish(job.tenant, job.cost);
                if job.cell.advance(JobState::Done) {
                    job.emit(JobEvent::Done {
                        id: job.id,
                        report: Box::new(report),
                    });
                }
            }
            Err(RuntimeError::Cancelled { cycles_done })
                if deadline_hit.load(Ordering::Acquire) =>
            {
                shared.ledger.deadline_exceeded(job.tenant, run_latency);
                shared.quotas().finish(job.tenant, job.cost);
                if job.cell.advance(JobState::DeadlineExceeded) {
                    job.emit(JobEvent::DeadlineExceeded {
                        id: job.id,
                        cycles_done,
                    });
                }
            }
            Err(RuntimeError::Cancelled { .. }) => {
                shared.ledger.cancelled(job.tenant, Some(run_latency));
                shared.quotas().finish(job.tenant, job.cost);
                if job.cell.advance(JobState::Cancelled) {
                    job.emit(JobEvent::Cancelled { id: job.id });
                }
            }
            Err(error) if retryable(&error) && job.attempt < job.policy.max_attempts => {
                // Retry: prefer the freshest checkpoint this attempt
                // deposited, fall back to the one it resumed from, strip
                // the causing fault class from spec and snapshot, and
                // re-enqueue with pop-counted backoff. The job's quota
                // reservations never lapsed — only its queue slot is
                // re-taken — and its backlog credit returns with it.
                let mut snapshot = job.sink.take().or(resumed_from);
                supervisor::disarm(&error, &mut job.spec, snapshot.as_mut());
                job.snapshot = snapshot;
                job.attempt = job.attempt.saturating_add(1);
                let attempt = job.attempt;
                if job.cell.advance(JobState::Retrying { attempt }) {
                    job.emit(JobEvent::Retrying {
                        id: job.id,
                        attempt,
                        error,
                    });
                }
                shared.ledger.retried(job.tenant);
                shared.quotas().requeue(job.tenant);
                shared
                    .backlog_cycles
                    .fetch_add(job.cost.shard_cycles, Ordering::AcqRel);
                job.queued_at = Stopwatch::start();
                let delay = job
                    .policy
                    .backoff_slots
                    .saturating_mul(u64::from(attempt - 1));
                queue.push_delayed(job, delay);
            }
            Err(error) => {
                shared.ledger.failed(job.tenant, run_latency);
                shared.quotas().finish(job.tenant, job.cost);
                if job.cell.advance(JobState::Failed) {
                    job.emit(JobEvent::Failed { id: job.id, error });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_round_trip() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let spec = WorkloadSpec::memory(3, 2, 1, 0.0, 5, 3);
        let handle = server.submit(TenantId(0), spec).unwrap();
        match handle.wait() {
            JobOutcome::Done(report) => {
                assert!(report.report.logical_ok());
                assert_eq!(report.report.qecc_cycles, 3);
            }
            other => panic!("{other:?}"),
        }
        let ledger = server.shutdown();
        assert_eq!(ledger.jobs_done(), 1);
        assert_eq!(ledger.shots_done(), 2);
        let t = ledger.tenant(TenantId(0)).unwrap();
        assert_eq!(t.queue_latency.samples, 1);
        assert_eq!(t.run_latency.samples, 1);
    }

    #[test]
    fn invalid_spec_is_rejected_and_ticked() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let bad = WorkloadSpec::memory(4, 2, 1, 0.0, 1, 1);
        let err = server.submit(TenantId(7), bad).unwrap_err();
        assert!(matches!(err, ServeError::Spec(_)), "{err:?}");
        let ledger = server.shutdown();
        assert_eq!(ledger.jobs_rejected(), 1);
        assert_eq!(ledger.jobs_done(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        // One worker, several queued jobs: all must complete.
        let server = Server::start(ServerConfig::default().with_workers(1));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let spec = WorkloadSpec::memory(3, 2, 1, 1e-3, 10 + i, 5);
                server.submit(TenantId(i as u32 % 2), spec).unwrap()
            })
            .collect();
        let ledger = server.shutdown();
        assert_eq!(ledger.jobs_done(), 4);
        for handle in handles {
            assert!(matches!(handle.wait(), JobOutcome::Done(_)));
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let shared = Arc::clone(&server.shared);
        drop(server);
        assert!(shared.draining.load(Ordering::Acquire));
    }

    #[test]
    fn queue_backpressure_is_typed() {
        // Stall the single worker with a long job, then overfill the
        // 1-deep queue through the non-blocking path (the blocking
        // `submit` would simply wait here).
        let server = Server::start(ServerConfig::default().with_workers(1).with_queue_depth(1));
        let long = WorkloadSpec::memory(3, 2, 1, 1e-3, 1, 2000);
        let running = server.try_submit(TenantId(0), long.clone()).unwrap();
        // The worker may not have picked the first job up yet; keep one
        // sacrificial submission in flight until the queue is the
        // bottleneck.
        let mut full_seen = false;
        for seed in 0..50 {
            let spec = WorkloadSpec {
                seed,
                ..long.clone()
            };
            match server.try_submit(TenantId(0), spec) {
                Ok(handle) => handle.cancel(),
                Err(ServeError::QueueFull {
                    capacity: 1,
                    retry_after,
                }) => {
                    assert_eq!(retry_after, RetryAfter { slots: 1 });
                    full_seen = true;
                    break;
                }
                Err(other) => panic!("{other:?}"),
            }
        }
        assert!(
            full_seen,
            "a 1-deep queue behind a stalled worker must fill"
        );
        running.cancel();
        let _ = server.shutdown();
    }
}
