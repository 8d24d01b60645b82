//! Integration tests for the multi-tenant job server: interleaving
//! determinism, quota enforcement, mid-run cancellation, and the retry
//! supervisor (checkpointed resume, deadlines, load shedding).

use quest_runtime::{
    DecoderChoice, Runtime, RuntimeError, RuntimeReport, ShardPanicPlan, WorkloadSpec,
};
use quest_serve::{
    JobEvent, JobOutcome, JobState, RetryPolicy, ServeError, Server, ServerConfig, TenantId,
    TenantQuota,
};
use std::time::Duration;

/// One tenant's job list: distinct seeds, mixed shapes, real noise.
fn tenant_specs(tenant: u32, jobs: u64) -> Vec<WorkloadSpec> {
    (0..jobs)
        .map(|j| {
            WorkloadSpec::memory(
                3,
                2 + (j as usize % 3),
                1 + (j as usize % 2),
                1e-3,
                u64::from(tenant) * 1000 + j,
                20 + 5 * j,
            )
        })
        .collect()
}

fn wait_done(outcome: JobOutcome) -> Box<RuntimeReport> {
    match outcome {
        JobOutcome::Done(report) => report,
        other => panic!("expected Done, got {other:?}"),
    }
}

/// The tentpole guarantee: a job's `RunReport` depends only on its own
/// spec (seed included) — never on the worker that ran it, the pool
/// size, or what other tenants' jobs interleaved with it. Three tenants
/// submit four jobs each, concurrently, at pool sizes 1, 2 and 4; every
/// report must be bit-identical to a solo `Runtime::run` of the same
/// spec.
#[test]
fn interleaved_jobs_match_solo_runs_bit_for_bit() {
    const TENANTS: u32 = 3;
    const JOBS: u64 = 4;
    let runtime = Runtime::new();
    let solo: Vec<Vec<_>> = (0..TENANTS)
        .map(|t| {
            tenant_specs(t, JOBS)
                .iter()
                .map(|spec| runtime.run(spec).expect("solo run").report)
                .collect()
        })
        .collect();
    for workers in [1, 2, 4] {
        let server = Server::start(ServerConfig::default().with_workers(workers));
        // Each tenant submits from its own thread so submissions race.
        let reports: Vec<Vec<_>> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let server = &server;
                    scope.spawn(move || {
                        let handles: Vec<_> = tenant_specs(t, JOBS)
                            .into_iter()
                            .map(|spec| server.submit(TenantId(t), spec).expect("admit"))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| wait_done(h.wait()).report.clone())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|s| s.join().expect("submitter thread"))
                .collect()
        });
        let ledger = server.shutdown();
        assert_eq!(ledger.jobs_done(), u64::from(TENANTS) * JOBS);
        for (t, tenant_reports) in reports.iter().enumerate() {
            for (j, report) in tenant_reports.iter().enumerate() {
                assert_eq!(
                    *report, solo[t][j],
                    "tenant {t} job {j} diverged from its solo run at {workers} workers"
                );
            }
        }
    }
}

/// Quotas bite per tenant and rejections are typed, panic-free, and
/// ledger-visible; other tenants are unaffected.
#[test]
fn quotas_reject_typed_and_per_tenant() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let limited = TenantId(0);
    let free = TenantId(1);
    server.set_quota(
        limited,
        TenantQuota {
            max_total_shots: 5,
            ..TenantQuota::UNLIMITED
        },
    );
    // 4 tiles = 4 shots per job: the first fits the budget of 5, the
    // second does not.
    let spec = WorkloadSpec::memory(3, 4, 1, 1e-3, 1, 10);
    let first = server.submit(limited, spec.clone()).expect("within quota");
    let err = server
        .submit(limited, spec.clone())
        .expect_err("over quota");
    assert!(
        matches!(
            err,
            ServeError::QuotaShots {
                limit: 5,
                used: 4,
                requested: 4,
                ..
            }
        ),
        "{err:?}"
    );
    // The other tenant is untouched by tenant 0's budget.
    let other = server.submit(free, spec).expect("other tenant unaffected");
    assert!(matches!(first.wait(), JobOutcome::Done(_)));
    assert!(matches!(other.wait(), JobOutcome::Done(_)));
    let ledger = server.shutdown();
    let section = ledger.tenant(limited).expect("limited tenant section");
    assert_eq!(section.jobs_rejected, 1);
    assert_eq!(section.jobs_done, 1);
    assert_eq!(section.shots_done, 4);
    assert_eq!(ledger.tenant(free).expect("free tenant").jobs_rejected, 0);
}

/// A queued-job quota frees its slot when a worker picks the job up.
#[test]
fn queued_job_quota_tracks_the_queue_not_the_run() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let tenant = TenantId(3);
    server.set_quota(
        tenant,
        TenantQuota {
            max_queued_jobs: 1,
            ..TenantQuota::UNLIMITED
        },
    );
    let spec = WorkloadSpec::memory(3, 2, 1, 1e-3, 9, 200);
    let first = server.submit(tenant, spec.clone()).expect("first job");
    // Either the second submission is refused (first still queued) or it
    // is admitted because the worker already picked the first job up;
    // both are legal — what is not legal is a panic or a wedged pool.
    let second = server.submit(tenant, spec.clone());
    if let Err(e) = &second {
        assert!(
            matches!(e, ServeError::QuotaQueuedJobs { limit: 1, .. }),
            "{e:?}"
        );
    }
    assert!(matches!(first.wait(), JobOutcome::Done(_)));
    if let Ok(handle) = second {
        assert!(matches!(handle.wait(), JobOutcome::Done(_)));
    }
    let _ = server.shutdown();
}

/// Mid-run cancellation: the job stops at a cooperative checkpoint, the
/// worker pool survives to run later jobs, and the ledger records the
/// cancellation with a run-latency sample.
#[test]
fn mid_run_cancellation_leaves_the_pool_healthy() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let tenant = TenantId(0);
    // Long enough that cancellation lands mid-run.
    let long = WorkloadSpec::memory(3, 2, 1, 1e-3, 42, 5_000_000);
    let victim = server.submit(tenant, long).expect("admit victim");
    // Cancel once the job is demonstrably running.
    let mut saw_running = false;
    while let Some(event) = victim.next_event() {
        match event {
            JobEvent::Running { .. } => {
                saw_running = true;
                victim.cancel();
                break;
            }
            JobEvent::Queued { .. } | JobEvent::Admitted { .. } => {}
            other => panic!("unexpected event before running: {other:?}"),
        }
    }
    assert!(saw_running, "victim never reported running");
    assert!(matches!(victim.wait(), JobOutcome::Cancelled));
    // The pool survives: a fresh job on the same worker completes.
    let after = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 43, 20))
        .expect("admit follow-up");
    let report = wait_done(after.wait());
    assert_eq!(report.report.qecc_cycles, 20);
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_cancelled, 1);
    assert_eq!(section.jobs_done, 1);
    assert_eq!(
        section.run_latency.samples, 2,
        "a mid-run cancellation contributes a run-latency sample"
    );
}

/// Cancelling a job that is still queued drops it at pickup without
/// running a cycle, and the event stream ends with `Cancelled`.
#[test]
fn queued_cancellation_never_runs() {
    // Single worker pinned on a long job; the second job waits.
    let server = Server::start(ServerConfig::default().with_workers(1));
    let tenant = TenantId(5);
    let blocker = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 1, 20_000))
        .expect("admit blocker");
    let queued = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 2, 20))
        .expect("admit queued");
    queued.cancel();
    blocker.cancel();
    assert!(matches!(queued.wait(), JobOutcome::Cancelled));
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_cancelled, 2);
    assert_eq!(section.jobs_done, 0);
}

/// The progress stream is ordered and complete: queued, admitted, a
/// monotone ramp of running fractions reaching 1, then done.
#[test]
fn event_stream_is_ordered_and_monotone() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let handle = server
        .submit(TenantId(0), WorkloadSpec::memory(3, 2, 1, 1e-3, 11, 400))
        .expect("admit");
    let mut events = Vec::new();
    while let Some(event) = handle.next_event() {
        let terminal = matches!(
            event,
            JobEvent::Done { .. } | JobEvent::Cancelled { .. } | JobEvent::Failed { .. }
        );
        events.push(event);
        if terminal {
            break;
        }
    }
    assert!(matches!(events.first(), Some(JobEvent::Queued { .. })));
    assert!(matches!(events.get(1), Some(JobEvent::Admitted { .. })));
    let fractions: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Running { fraction, .. } => Some(*fraction),
            _ => None,
        })
        .collect();
    assert!(!fractions.is_empty(), "no running progress seen");
    assert!(
        fractions.windows(2).all(|w| w[0] <= w[1]),
        "progress must be monotone: {fractions:?}"
    );
    assert_eq!(*fractions.last().expect("nonempty"), 1.0);
    assert!(matches!(events.last(), Some(JobEvent::Done { .. })));
    assert_eq!(handle.state(), JobState::Done);
    let _ = server.shutdown();
}

/// Drain-on-shutdown finishes every admitted job and the final ledger's
/// throughput figures are populated.
#[test]
fn shutdown_reports_throughput_over_uptime() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    for i in 0..6u64 {
        server
            .submit(
                TenantId(i as u32 % 2),
                WorkloadSpec::memory(3, 2, 1, 1e-3, 100 + i, 20),
            )
            .expect("admit");
    }
    let ledger = server.shutdown();
    assert_eq!(ledger.jobs_done(), 6);
    assert_eq!(ledger.shots_done(), 12);
    assert!(ledger.uptime > Duration::ZERO);
    assert!(ledger.jobs_per_sec() > 0.0);
    assert!(ledger.shots_per_sec() > 0.0);
    assert_eq!(ledger.workers, 2);
}

/// The ledger attributes completed jobs to the decoder backend each job
/// selected, per tenant and sorted by backend name.
#[test]
fn ledger_reports_jobs_by_decoder_backend() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let tenant = TenantId(0);
    for (i, decoder) in [
        DecoderChoice::UnionFind,
        DecoderChoice::PipelinedUf,
        DecoderChoice::PipelinedUf,
    ]
    .into_iter()
    .enumerate()
    {
        let mut spec = WorkloadSpec::memory(3, 2, 1, 1e-3, 300 + i as u64, 15);
        spec.decoder = decoder;
        server.submit(tenant, spec).expect("admit");
    }
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(
        section.jobs_by_decoder,
        vec![
            ("pipelined-uf".to_string(), 2),
            ("union-find".to_string(), 1),
        ]
    );
    let text = ledger.to_string();
    assert!(text.contains("pipelined-uf=2"), "{text}");
}

/// The supervision round trip: a job whose shard worker is scheduled to
/// crash mid-run is retried from its latest checkpoint and completes
/// with a report bit-identical to a solo run of the disarmed spec. The
/// event stream carries the `Retrying` hop and the ledger records the
/// retry and the resumed cycles.
#[test]
fn retry_resumes_to_a_bit_identical_report() {
    let tenant = TenantId(0);
    let mut spec = WorkloadSpec::memory(3, 2, 2, 1e-3, 77, 30);
    spec.faults.shard_panic = Some(ShardPanicPlan {
        shard: 1,
        after_cycles: 10,
    });
    let mut disarmed = spec.clone();
    disarmed.faults.shard_panic = None;
    let solo = Runtime::new().run(&disarmed).expect("solo baseline");

    let server = Server::start(ServerConfig::default().with_workers(1));
    let policy = RetryPolicy::default()
        .with_max_attempts(2)
        .with_checkpoint_every(4);
    let handle = server
        .submit_with_policy(tenant, spec, policy)
        .expect("admit");
    let mut retrying = Vec::new();
    let report = loop {
        match handle.next_event().expect("stream stays open") {
            JobEvent::Retrying { attempt, error, .. } => {
                assert!(
                    matches!(error, RuntimeError::ShardFailed { shard: 1, .. }),
                    "{error:?}"
                );
                retrying.push(attempt);
            }
            JobEvent::Done { report, .. } => break report,
            JobEvent::Cancelled { .. }
            | JobEvent::Failed { .. }
            | JobEvent::DeadlineExceeded { .. } => panic!("job must retry to Done"),
            _ => {}
        }
    };
    assert_eq!(retrying, vec![2], "exactly one retry, announcing attempt 2");
    assert_eq!(
        report.report, solo.report,
        "resumed retry must match the disarmed solo run bit for bit"
    );
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_done, 1);
    assert_eq!(section.jobs_retried, 1);
    assert_eq!(section.jobs_failed, 0);
    assert_eq!(
        section.cycles_resumed, 8,
        "cadence 4, crash at cycle 10: the retry resumes from the cycle-8 checkpoint"
    );
    assert_eq!(
        section.queue_latency.samples, 2,
        "the retry re-queues and contributes a second queue sample"
    );
}

/// Without a retry budget the same scheduled crash is terminal: the
/// stream ends in `Failed` with the typed runtime error.
#[test]
fn unsupervised_crash_lands_in_failed() {
    let tenant = TenantId(1);
    let mut spec = WorkloadSpec::memory(3, 2, 2, 1e-3, 78, 30);
    spec.faults.shard_panic = Some(ShardPanicPlan {
        shard: 0,
        after_cycles: 5,
    });
    let server = Server::start(ServerConfig::default().with_workers(1));
    let handle = server.submit(tenant, spec).expect("admit");
    match handle.wait() {
        JobOutcome::Failed(RuntimeError::ShardFailed { shard: 0, .. }) => {}
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_failed, 1);
    assert_eq!(section.jobs_retried, 0);
}

/// A QECC-cycle deadline terminates a runaway job with the typed
/// `DeadlineExceeded` outcome and its own ledger counter.
#[test]
fn deadline_exceeded_is_typed_and_ledgered() {
    let tenant = TenantId(2);
    let server = Server::start(ServerConfig::default().with_workers(1));
    let spec = WorkloadSpec::memory(3, 2, 1, 1e-3, 79, 50_000);
    let policy = RetryPolicy::default().with_deadline_cycles(10);
    let handle = server
        .submit_with_policy(tenant, spec, policy)
        .expect("admit");
    match handle.wait() {
        JobOutcome::DeadlineExceeded { cycles_done } => {
            assert!(cycles_done >= 10, "budget was 10, did {cycles_done}");
            assert!(cycles_done < 50_000, "must stop well short of completion");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_deadline_exceeded, 1);
    assert_eq!(
        section.jobs_cancelled, 0,
        "a deadline is not a cancellation"
    );
}

/// A zero backlog budget sheds every submission with the typed
/// `Overloaded` error and its `RetryAfter` hint, and the ledger counts
/// the shed.
#[test]
fn overload_sheds_with_a_typed_retry_hint() {
    let tenant = TenantId(3);
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_max_backlog_cycles(0),
    );
    let err = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 80, 20))
        .expect_err("zero budget sheds everything");
    match err {
        ServeError::Overloaded {
            backlog_cycles,
            limit,
            retry_after,
        } => {
            assert_eq!(backlog_cycles, 0);
            assert_eq!(limit, 0);
            assert!(retry_after.slots >= 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_shed, 1);
    assert_eq!(section.jobs_rejected, 1);
}

/// The blocking `submit` rides out a full queue instead of failing: a
/// submitter thread parks until the stalled worker frees a slot, and
/// every job still completes exactly once.
#[test]
fn blocking_submit_waits_out_backpressure() {
    let tenant = TenantId(4);
    let server = Server::start(ServerConfig::default().with_workers(1).with_queue_depth(1));
    // Worker busy on the blocker; one job fills the 1-deep queue.
    let blocker = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 81, 5_000_000))
        .expect("admit blocker");
    while !matches!(blocker.state(), JobState::Running { .. }) {
        std::thread::yield_now();
    }
    let queued = server
        .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 82, 10))
        .expect("admit queued");
    let outcome = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            // Blocks until the blocker's cancellation frees the slot.
            server
                .submit(tenant, WorkloadSpec::memory(3, 2, 1, 1e-3, 83, 10))
                .expect("blocking submit succeeds once a slot frees")
                .wait()
        });
        std::thread::sleep(Duration::from_millis(50));
        blocker.cancel();
        submitter.join().expect("submitter thread")
    });
    assert!(matches!(outcome, JobOutcome::Done(_)), "{outcome:?}");
    assert!(matches!(queued.wait(), JobOutcome::Done(_)));
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_done, 2);
    assert_eq!(section.jobs_cancelled, 1);
    assert_eq!(section.jobs_rejected, 0, "nothing was refused");
}

/// In-band fault recovery (a killed decode worker, respawned by the
/// pool) surfaces in the tenant's ledger section without any retry.
#[test]
fn recovery_footprint_reaches_the_ledger() {
    let tenant = TenantId(5);
    let mut spec = WorkloadSpec::memory(5, 4, 2, 2e-2, 20260808, 30);
    spec.faults.kill_decode_worker_after_jobs = Some(1);
    let server = Server::start(ServerConfig::default().with_workers(1));
    let handle = server.submit(tenant, spec).expect("admit");
    assert!(matches!(handle.wait(), JobOutcome::Done(_)));
    let ledger = server.shutdown();
    let section = ledger.tenant(tenant).expect("tenant section");
    assert_eq!(section.jobs_done, 1);
    assert_eq!(section.jobs_retried, 0, "respawn is in-band, not a retry");
    assert!(
        section.recovery.decode_worker_deaths >= 1,
        "the kill drill must fire: {:?}",
        section.recovery
    );
    assert_eq!(
        section.recovery.decode_worker_respawns,
        section.recovery.decode_worker_deaths
    );
}
