//! Retry supervision policy: which failures are worth retrying, how
//! often, and with what deterministic backoff.
//!
//! The serving layer treats a [`RuntimeError`] the way the paper's
//! hardware treats a fault: infrastructure failures (a crashed shard
//! worker, a dead decode pool, an exhausted link) are *environmental* —
//! the job's physics is fine, the machinery under it hiccuped — so the
//! supervisor retries them, resuming from the job's latest
//! [`RunSnapshot`] when one exists. Logical
//! failures (a spec that cannot build, a protocol violation) would fail
//! identically forever and are terminal on the first occurrence.
//!
//! Determinism is preserved through the retry: before the next attempt
//! the supervisor strips **only the fault class that caused the
//! failure** from the job's plan (see `disarm`). Pre-failure cycles
//! are unaffected by an armed-but-unfired fault, so resuming the
//! disarmed snapshot is bit-identical to a clean run of the disarmed
//! spec — the invariant `checkpoint_resume.rs` pins on the runtime side
//! and the chaos harness re-asserts end to end. A `Link` failure is
//! retryable but *not* disarmed: the exhausted-retransmission budget is
//! part of the modelled channel, so a deterministic link failure re-fails
//! identically, exhausts its attempts, and lands in `Failed` — exactly
//! what a real control stack would report.
//!
//! Backoff is measured in queue pops (the server's logical clock), never
//! wall time, so a chaos seed replays the identical retry schedule.

use quest_runtime::{RunSnapshot, RuntimeError, WorkloadSpec};

/// Per-job supervision knobs, attached at submission via
/// [`Server::submit_with_policy`](crate::Server::submit_with_policy).
///
/// The default policy is unsupervised: one attempt, no checkpointing, no
/// deadline — byte-for-byte the pre-supervision serving behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts the job may consume (≥ 1; the first run counts).
    pub max_attempts: u32,
    /// Backoff between attempts, in queue pops: attempt `n`'s retry
    /// parks for `(n - 1) × backoff_slots` pops before becoming ready.
    pub backoff_slots: u64,
    /// Checkpoint cadence in QECC cycles (0 = forced-only). Retries
    /// resume from the latest checkpoint; with no checkpoint the next
    /// attempt restarts from the spec.
    pub checkpoint_every: u64,
    /// Cycle budget: the job is terminated with
    /// [`JobOutcome::DeadlineExceeded`](crate::JobOutcome) once its
    /// executed QECC-cycle count reaches this bound. Checked at cycle
    /// checkpoints; absolute across resumed attempts (a resumed run
    /// continues the cycle clock, a from-scratch retry restarts it).
    pub deadline_cycles: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_slots: 1,
            checkpoint_every: 0,
            deadline_cycles: None,
        }
    }
}

impl RetryPolicy {
    /// Sets the total attempt budget (clamped ≥ 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the per-retry backoff in queue pops.
    pub fn with_backoff_slots(mut self, slots: u64) -> RetryPolicy {
        self.backoff_slots = slots;
        self
    }

    /// Sets the checkpoint cadence in QECC cycles (0 = forced-only).
    pub fn with_checkpoint_every(mut self, cycles: u64) -> RetryPolicy {
        self.checkpoint_every = cycles;
        self
    }

    /// Sets the QECC-cycle deadline.
    pub fn with_deadline_cycles(mut self, cycles: u64) -> RetryPolicy {
        self.deadline_cycles = Some(cycles);
        self
    }
}

/// Whether a runtime failure is environmental (worth retrying) rather
/// than logical (would fail identically forever).
pub(crate) fn retryable(error: &RuntimeError) -> bool {
    matches!(
        error,
        RuntimeError::ShardFailed { .. }
            | RuntimeError::DecodePoolFailed { .. }
            | RuntimeError::Link(_)
    )
}

/// Strips exactly the fault class that caused `error` from the job's
/// spec (and its carried snapshot, when resuming): the machinery that
/// failed has been "replaced", everything else in the plan stays armed.
/// Link failures strip nothing — see the module docs.
pub(crate) fn disarm(
    error: &RuntimeError,
    spec: &mut WorkloadSpec,
    snapshot: Option<&mut RunSnapshot>,
) {
    match error {
        RuntimeError::ShardFailed { .. } => {
            spec.faults.shard_panic = None;
            if let Some(snap) = snapshot {
                snap.disarm_shard_panic();
            }
        }
        RuntimeError::DecodePoolFailed { .. } => {
            spec.faults.kill_decode_worker_after_jobs = None;
            if let Some(snap) = snapshot {
                snap.disarm_decode_kill();
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_core::LinkFailure;

    #[test]
    fn classification_splits_environmental_from_logical() {
        assert!(retryable(&RuntimeError::ShardFailed {
            shard: 1,
            detail: "drill".into(),
        }));
        assert!(retryable(&RuntimeError::DecodePoolFailed {
            detail: "all workers dead".into(),
        }));
        assert!(retryable(&RuntimeError::Link(LinkFailure {
            tile: 0,
            attempts: 9,
        })));
        assert!(!retryable(&RuntimeError::Cancelled { cycles_done: 3 }));
        assert!(!retryable(&RuntimeError::ReferenceFaults));
        assert!(!retryable(&RuntimeError::Protocol {
            context: "cycle barrier",
            payload: String::new(),
        }));
    }

    #[test]
    fn default_policy_is_unsupervised() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.checkpoint_every, 0);
        assert_eq!(p.deadline_cycles, None);
    }

    #[test]
    fn builders_clamp_and_compose() {
        let p = RetryPolicy::default()
            .with_max_attempts(0)
            .with_backoff_slots(3)
            .with_checkpoint_every(2)
            .with_deadline_cycles(50);
        assert_eq!(p.max_attempts, 1, "attempt budget clamps to ≥ 1");
        assert_eq!(p.backoff_slots, 3);
        assert_eq!(p.checkpoint_every, 2);
        assert_eq!(p.deadline_cycles, Some(50));
    }

    #[test]
    fn disarm_strips_only_the_causing_class() {
        use quest_runtime::{FaultPlan, ShardPanicPlan, WorkloadSpec};
        let mut spec = WorkloadSpec::memory(3, 2, 2, 1e-3, 7, 10);
        spec.faults = FaultPlan {
            drop_rate: 0.1,
            kill_decode_worker_after_jobs: Some(2),
            shard_panic: Some(ShardPanicPlan {
                shard: 0,
                after_cycles: 3,
            }),
            ..FaultPlan::none()
        };
        let shard_err = RuntimeError::ShardFailed {
            shard: 0,
            detail: "drill".into(),
        };
        disarm(&shard_err, &mut spec, None);
        assert_eq!(spec.faults.shard_panic, None);
        assert_eq!(
            spec.faults.kill_decode_worker_after_jobs,
            Some(2),
            "other fault classes stay armed"
        );
        let pool_err = RuntimeError::DecodePoolFailed {
            detail: "dead".into(),
        };
        disarm(&pool_err, &mut spec, None);
        assert_eq!(spec.faults.kill_decode_worker_after_jobs, None);
        assert!(spec.faults.drop_rate > 0.0, "link noise is never stripped");
    }
}
