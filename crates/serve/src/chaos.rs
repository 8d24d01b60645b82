//! The chaos-soak harness: seeded fault storms against a live [`Server`],
//! with the crash-safety invariants checked end to end.
//!
//! Each seed drives one complete soak: a fresh server, a batch of jobs
//! whose fault plans (scheduled shard panics, decode-worker kills, lossy
//! links), supervision policies, random cancellations and forced
//! checkpoints are all drawn from one deterministic `SplitMix64`
//! stream. The harness then asserts the properties the rest of this PR
//! exists to provide:
//!
//! 1. **Bounded drain** — every soak finishes inside its watchdog
//!    timeout; no interleaving of failures, retries and cancels may hang
//!    the server.
//! 2. **Exactly one terminal event per job** — each handle's stream
//!    carries precisely one `Done`/`Cancelled`/`Failed`/
//!    `DeadlineExceeded`, however many retries preceded it.
//! 3. **Quota conservation** — once every handle is terminal,
//!    [`Server::outstanding`] reads `(0, 0)` and the backlog gauge reads
//!    zero: nothing leaked through any failure path.
//! 4. **Ledger conservation** — terminal ledger counters sum to the
//!    admitted job count.
//! 5. **Determinism through recovery** — every job that ends `Done`
//!    produced a [`RunReport`](quest_core::RunReport) bit-identical to a
//!    solo, uncontended run of its *disarmed* spec (shard panic
//!    stripped, exactly what the retry supervisor leaves armed; decode
//!    kills and link noise stay, because the runtime recovers from those
//!    in-band).
//!
//! Violations are collected, not panicked, so one bad seed reports every
//! broken invariant at once ([`ChaosReport::violations`]). The harness
//! uses no wall-clock randomness: same [`ChaosConfig`] ⇒ same storm
//! (QL02). Callers are the root `chaos_soak` integration test and the
//! `quest-cli chaos` subcommand.

use crate::{JobEvent, JobHandle, JobOutcome, RetryPolicy, Server, ServerConfig};
use quest_core::TenantId;
use quest_runtime::{Runtime, ShardPanicPlan, WorkloadSpec};
use std::time::Duration;

/// Knobs for one chaos campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seeds to soak (each is an independent storm).
    pub seeds: u64,
    /// First seed value; seed `i` of the campaign is `first_seed + i`.
    pub first_seed: u64,
    /// Jobs submitted per seed.
    pub jobs_per_seed: usize,
    /// Worker threads in each soak's server.
    pub workers: usize,
    /// Watchdog bound per seed: a soak that has not drained by then is
    /// reported as a hang (invariant 1).
    pub timeout: Duration,
    /// Probability (in percent) that the harness cancels a job mid-storm.
    /// Cancellation outcomes race with completion by design, so set this
    /// to 0 when pinning outcome *counts* across identical campaigns.
    pub cancel_percent: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seeds: 3,
            first_seed: 0x5EED_C4A0,
            jobs_per_seed: 8,
            workers: 2,
            timeout: Duration::from_secs(60),
            cancel_percent: 25,
        }
    }
}

impl ChaosConfig {
    /// Overrides the seed count.
    pub fn with_seeds(mut self, seeds: u64) -> ChaosConfig {
        self.seeds = seeds;
        self
    }

    /// Overrides the first seed.
    pub fn with_first_seed(mut self, seed: u64) -> ChaosConfig {
        self.first_seed = seed;
        self
    }

    /// Overrides the per-seed job count.
    pub fn with_jobs_per_seed(mut self, jobs: usize) -> ChaosConfig {
        self.jobs_per_seed = jobs;
        self
    }

    /// Overrides the per-seed worker count.
    pub fn with_workers(mut self, workers: usize) -> ChaosConfig {
        self.workers = workers;
        self
    }

    /// Overrides the per-seed watchdog timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> ChaosConfig {
        self.timeout = timeout;
        self
    }

    /// Overrides the random-cancellation probability (percent).
    pub fn with_cancel_percent(mut self, percent: u64) -> ChaosConfig {
        self.cancel_percent = percent;
        self
    }
}

/// What a chaos campaign did and whether the invariants held.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Seeds soaked to completion (a hung seed still counts as run).
    pub seeds_run: u64,
    /// Jobs admitted across all seeds.
    pub jobs_submitted: u64,
    /// Jobs that completed with a report.
    pub jobs_done: u64,
    /// Jobs cancelled (at pickup or mid-run).
    pub jobs_cancelled: u64,
    /// Jobs that failed terminally (budget exhausted or logical error).
    pub jobs_failed: u64,
    /// Jobs whose cycle deadline tripped.
    pub jobs_deadline_exceeded: u64,
    /// Retry attempts the supervisors performed.
    pub jobs_retried: u64,
    /// Every invariant violation observed, tagged with its seed. Empty
    /// means the campaign passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held over the whole campaign.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos: {} seed(s), {} job(s): {} done, {} cancelled, {} failed, \
             {} deadline-exceeded, {} retries",
            self.seeds_run,
            self.jobs_submitted,
            self.jobs_done,
            self.jobs_cancelled,
            self.jobs_failed,
            self.jobs_deadline_exceeded,
            self.jobs_retried,
        )?;
        if self.violations.is_empty() {
            write!(f, "all invariants held")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// SplitMix64: the harness's one randomness source. Deterministic,
/// seedable, and independent of the workload PRNGs (which hash their own
/// spec seeds), so the storm shape never couples to the physics.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..bound` (`bound` ≥ 1).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One submitted job's book-keeping inside a soak.
struct SoakEntry {
    handle: JobHandle,
    /// The spec the retry supervisor converges to (shard panic
    /// stripped): the solo baseline for a `Done` report.
    baseline: WorkloadSpec,
    /// Whether the harness randomly cancelled this job (outcome then
    /// races between `Cancelled` and whatever it would have been).
    cancelled: bool,
    /// Whether the job carries a deadline that must trip.
    deadlined: bool,
}

/// Runs a full chaos campaign and reports. Never panics; every broken
/// invariant lands in [`ChaosReport::violations`].
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport::default();
    for i in 0..config.seeds {
        let seed = config.first_seed.wrapping_add(i);
        report.seeds_run += 1;
        // Watchdog (invariant 1): the soak runs on its own thread and
        // must deliver its result within the timeout. A hung soak leaks
        // its thread — acceptable in a test harness, and the only option
        // without killable threads.
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = *config;
        let soak = std::thread::Builder::new()
            .name(format!("chaos-seed-{seed}"))
            .spawn(move || {
                let _ = tx.send(run_seed(seed, &cfg));
            });
        if soak.is_err() {
            report
                .violations
                .push(format!("seed {seed}: could not spawn soak thread"));
            continue;
        }
        match rx.recv_timeout(config.timeout) {
            Ok(seed_report) => report.absorb(seed_report),
            Err(_) => report.violations.push(format!(
                "seed {seed}: soak did not drain within {:?} (hang)",
                config.timeout
            )),
        }
    }
    report
}

impl ChaosReport {
    fn absorb(&mut self, other: ChaosReport) {
        self.jobs_submitted += other.jobs_submitted;
        self.jobs_done = self.jobs_done.saturating_add(other.jobs_done);
        self.jobs_cancelled = self.jobs_cancelled.saturating_add(other.jobs_cancelled);
        self.jobs_failed = self.jobs_failed.saturating_add(other.jobs_failed);
        self.jobs_deadline_exceeded = self
            .jobs_deadline_exceeded
            .saturating_add(other.jobs_deadline_exceeded);
        self.jobs_retried = self.jobs_retried.saturating_add(other.jobs_retried);
        self.violations.extend(other.violations);
    }
}

/// One seed's storm: submit, harass, drain, assert.
fn run_seed(seed: u64, config: &ChaosConfig) -> ChaosReport {
    let mut rng = SplitMix64::new(seed);
    let mut out = ChaosReport::default();
    let jobs = config.jobs_per_seed.max(1);
    let server = Server::start(
        ServerConfig::default()
            .with_workers(config.workers.max(1))
            .with_queue_depth(jobs),
    );
    let mut entries = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let shards = 1 + rng.below(2) as usize;
        let cycles = 6 + rng.below(10);
        let mut spec = WorkloadSpec::memory(3, 2, shards, 2e-2, rng.next(), cycles);
        let mut policy = RetryPolicy::default()
            .with_checkpoint_every(1 + rng.below(3))
            .with_backoff_slots(rng.below(3));
        let mut deadlined = false;
        match rng.below(10) {
            // A scheduled shard crash with retry budget: the supervisor
            // must resume it to Done.
            0..=3 => {
                spec.faults.shard_panic = Some(ShardPanicPlan {
                    shard: rng.below(shards as u64) as usize,
                    after_cycles: 1 + rng.below(cycles - 2),
                });
                policy = policy.with_max_attempts(3);
            }
            // The same crash with no budget: must land in Failed.
            4 => {
                spec.faults.shard_panic = Some(ShardPanicPlan {
                    shard: rng.below(shards as u64) as usize,
                    after_cycles: 1 + rng.below(cycles - 2),
                });
            }
            // A decode-worker kill: the pool respawns in-band, the job
            // succeeds with a recovery footprint, no retry involved.
            5 => {
                spec.faults.kill_decode_worker_after_jobs = Some(1 + rng.below(3));
                policy = policy.with_max_attempts(2);
            }
            // A lossy control link: retransmissions recover in-band.
            6 => {
                spec.faults.drop_rate = 0.2;
                policy = policy.with_max_attempts(2);
            }
            // An undersized cycle budget: the deadline must trip.
            7 => {
                policy = policy.with_deadline_cycles(1 + rng.below(cycles - 2));
                deadlined = true;
            }
            // A clean job riding through the storm.
            _ => {}
        }
        let mut baseline = spec.clone();
        baseline.faults.shard_panic = None;
        match server.submit_with_policy(TenantId(j as u32 % 3), spec, policy) {
            Ok(handle) => {
                out.jobs_submitted += 1;
                entries.push(SoakEntry {
                    handle,
                    baseline,
                    cancelled: false,
                    deadlined,
                });
            }
            Err(e) => out
                .violations
                .push(format!("seed {seed}: admission refused a valid job: {e}")),
        }
    }
    // Harass the fleet: random cancels (not on deadline jobs, whose
    // outcome is pinned) and forced checkpoints.
    for entry in &mut entries {
        if !entry.deadlined && rng.chance(config.cancel_percent) {
            entry.handle.cancel();
            entry.cancelled = true;
        }
        if rng.chance(50) {
            entry.handle.force_checkpoint();
        }
    }
    // Drain every stream to the end, counting terminal events
    // (invariant 2) and checking Done reports against solo baselines
    // (invariant 5).
    let solo = Runtime::new();
    for (j, entry) in entries.into_iter().enumerate() {
        let mut terminals = 0u32;
        let mut outcome = None;
        while let Some(event) = entry.handle.next_event() {
            match event {
                JobEvent::Done { report, .. } => {
                    terminals += 1;
                    outcome = Some(JobOutcome::Done(report));
                }
                JobEvent::Cancelled { .. } => {
                    terminals += 1;
                    outcome = Some(JobOutcome::Cancelled);
                }
                JobEvent::Failed { error, .. } => {
                    terminals += 1;
                    outcome = Some(JobOutcome::Failed(error));
                }
                JobEvent::DeadlineExceeded { cycles_done, .. } => {
                    terminals += 1;
                    outcome = Some(JobOutcome::DeadlineExceeded { cycles_done });
                }
                JobEvent::Queued { .. }
                | JobEvent::Admitted { .. }
                | JobEvent::Running { .. }
                | JobEvent::Retrying { .. } => {}
            }
        }
        if terminals != 1 {
            out.violations.push(format!(
                "seed {seed} job {j}: {terminals} terminal events (want exactly 1)"
            ));
        }
        match outcome {
            Some(JobOutcome::Done(report)) => {
                out.jobs_done = out.jobs_done.saturating_add(1);
                if entry.deadlined {
                    out.violations.push(format!(
                        "seed {seed} job {j}: deadlined job completed instead of tripping"
                    ));
                }
                match solo.run(&entry.baseline) {
                    Ok(expected) if expected.report == report.report => {}
                    Ok(_) => out.violations.push(format!(
                        "seed {seed} job {j}: served report diverges from solo baseline"
                    )),
                    Err(e) => out
                        .violations
                        .push(format!("seed {seed} job {j}: solo baseline failed: {e}")),
                }
            }
            Some(JobOutcome::Cancelled) => {
                out.jobs_cancelled = out.jobs_cancelled.saturating_add(1);
                if !entry.cancelled {
                    out.violations.push(format!(
                        "seed {seed} job {j}: spurious cancellation (harness never cancelled it)"
                    ));
                }
            }
            Some(JobOutcome::Failed(_)) => {
                out.jobs_failed = out.jobs_failed.saturating_add(1);
            }
            Some(JobOutcome::DeadlineExceeded { .. }) => {
                out.jobs_deadline_exceeded = out.jobs_deadline_exceeded.saturating_add(1);
                if !entry.deadlined {
                    out.violations.push(format!(
                        "seed {seed} job {j}: deadline tripped on a job without one"
                    ));
                }
            }
            Some(JobOutcome::Lost) | None => out.violations.push(format!(
                "seed {seed} job {j}: stream ended without a terminal event"
            )),
        }
    }
    // Conservation (invariants 3 and 4): every reservation returned,
    // every admitted job accounted for exactly once.
    let outstanding = server.outstanding();
    if outstanding != (0, 0) {
        out.violations.push(format!(
            "seed {seed}: outstanding quota {outstanding:?} after full drain (want (0, 0))"
        ));
    }
    let backlog = server.backlog_cycles();
    if backlog != 0 {
        out.violations.push(format!(
            "seed {seed}: backlog gauge reads {backlog} after full drain (want 0)"
        ));
    }
    let ledger = server.shutdown();
    out.jobs_retried = out.jobs_retried.saturating_add(ledger.jobs_retried());
    let terminal_total = ledger.jobs_done()
        + ledger.jobs_cancelled()
        + ledger.jobs_failed()
        + ledger.jobs_deadline_exceeded();
    if terminal_total != out.jobs_submitted {
        out.violations.push(format!(
            "seed {seed}: ledger terminal total {terminal_total} != {} admitted jobs",
            out.jobs_submitted
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(c.next(), xs[0], "different seed diverges");
        assert!(SplitMix64::new(7).below(1) == 0, "below(1) is always 0");
    }

    #[test]
    fn one_seed_soak_passes_all_invariants() {
        let report = run_chaos(
            &ChaosConfig::default()
                .with_seeds(1)
                .with_jobs_per_seed(6)
                .with_workers(2),
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.jobs_submitted, 6);
        assert_eq!(
            report.jobs_done
                + report.jobs_cancelled
                + report.jobs_failed
                + report.jobs_deadline_exceeded,
            6
        );
    }

    #[test]
    fn identical_campaigns_produce_identical_reports() {
        // Cancellation outcomes race with completion by design, so pin
        // the campaign with cancels off: everything left is
        // deterministic (only latencies, which the report does not
        // carry, vary run to run).
        let config = ChaosConfig::default()
            .with_seeds(1)
            .with_first_seed(11)
            .with_jobs_per_seed(4)
            .with_workers(2)
            .with_cancel_percent(0);
        let a = run_chaos(&config);
        let b = run_chaos(&config);
        assert!(a.ok(), "{a}");
        assert_eq!(a, b);
    }

    #[test]
    fn report_display_summarizes_violations() {
        let mut report = ChaosReport {
            seeds_run: 2,
            jobs_submitted: 5,
            jobs_done: 4,
            ..ChaosReport::default()
        };
        assert!(format!("{report}").contains("all invariants held"));
        report.violations.push("seed 1: something leaked".into());
        let shown = format!("{report}");
        assert!(shown.contains("1 violation(s)"));
        assert!(shown.contains("something leaked"));
        assert!(!report.ok());
    }
}
