//! Serving-layer vocabulary: job/tenant identities and the server
//! ledger report.
//!
//! The paper's bandwidth argument turns QEC control from a batch problem
//! into a sustained service; `quest-serve` (the `crates/serve` crate) is
//! that service. This module holds the *data* half of it — the types
//! that cross the boundary between the server and its clients — so the
//! report a server hands back lives alongside [`RunReport`](crate::RunReport)
//! and is usable without depending on the server crate itself.
//!
//! Everything here is deterministic plain data: identities are ordered
//! integers, per-tenant sections are kept in sorted order, and latency
//! summaries are computed from explicit sample vectors (wall-clock
//! *measurement* happens behind the runtime's `Stopwatch` boundary, never
//! here).

use crate::fault::RecoveryStats;
use std::fmt;
use std::time::Duration;

/// Identity of one tenant of the serving layer. Tenants are the unit of
/// admission control: quotas, ledger sections and fairness accounting
/// all key on this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Identity of one submitted job, unique for the lifetime of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Order-statistics summary of a latency sample set.
///
/// Percentiles use the nearest-rank method on the sorted samples: the
/// p-th percentile is the smallest sample at or above p% of the set, so
/// every reported value is an actually-observed latency. An empty set
/// summarizes to all-zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples observed.
    pub samples: u64,
    /// Median (50th percentile, nearest rank).
    pub p50: Duration,
    /// 99th percentile (nearest rank).
    pub p99: Duration,
    /// Largest observed sample.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes a sample set. The slice is sorted in place (summaries
    /// are taken at report time, when sample order no longer matters).
    pub fn from_samples(samples: &mut [Duration]) -> LatencySummary {
        samples.sort_unstable();
        let Some(&max) = samples.last() else {
            return LatencySummary::default();
        };
        let rank = |pct: u64| -> Duration {
            // Nearest rank: ceil(pct/100 * n), 1-based, clamped into the
            // slice. n is nonzero here.
            let n = samples.len() as u64;
            let r = (pct * n).div_ceil(100).clamp(1, n);
            samples[(r - 1) as usize]
        };
        LatencySummary {
            samples: samples.len() as u64,
            p50: rank(50),
            p99: rank(99),
            max,
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:?} / p99 {:?} / max {:?} ({} samples)",
            self.p50, self.p99, self.max, self.samples
        )
    }
}

/// One tenant's section of the server ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantServeStats {
    /// Jobs admitted into the queue (whatever their eventual fate).
    pub jobs_admitted: u64,
    /// Jobs rejected at admission (quota or validation).
    pub jobs_rejected: u64,
    /// Jobs that ran to completion.
    pub jobs_done: u64,
    /// Jobs cancelled (before or during execution).
    pub jobs_cancelled: u64,
    /// Jobs that failed with a runtime error.
    pub jobs_failed: u64,
    /// Jobs that exhausted their cycle-budget deadline (terminal, counted
    /// separately from failures: the runtime was healthy, the budget ran
    /// out).
    pub jobs_deadline_exceeded: u64,
    /// Retry attempts started across the tenant's jobs (a job retried
    /// twice counts 2 here and once in whatever terminal bucket it
    /// reached).
    pub jobs_retried: u64,
    /// Jobs shed at admission because the server's cycle backlog exceeded
    /// its bound (a subset of `jobs_rejected`).
    pub jobs_shed: u64,
    /// QECC cycles inherited from checkpoints instead of re-executed,
    /// summed over every resumed attempt.
    pub cycles_resumed: u64,
    /// Logical readouts ("shots") completed across the tenant's done
    /// jobs.
    pub shots_done: u64,
    /// Fault-recovery counters (retransmissions, watchdog quarantines,
    /// decode-pool respawns, ...) folded in from every completed job's
    /// `RunReport::recovery`, so fault pressure is visible per tenant.
    pub recovery: RecoveryStats,
    /// Queue latency (submit → worker pickup) of started jobs.
    pub queue_latency: LatencySummary,
    /// Run latency (worker pickup → terminal state) of finished jobs.
    pub run_latency: LatencySummary,
    /// Completed jobs by decoder-backend name, sorted by name. Empty
    /// until a job completes.
    pub jobs_by_decoder: Vec<(String, u64)>,
}

/// The server ledger: what a `quest-serve` server observed over its
/// lifetime, reported per tenant and in aggregate.
///
/// The companion of [`RunReport`](crate::RunReport) one level up: a
/// `RunReport` describes one job's physics and bus accounting (and is
/// bit-deterministic per job), a `ServeReport` describes how the *service*
/// treated many jobs (and is timing-dependent by nature — wall-clock
/// latencies and throughput are observability, never physics).
#[must_use]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Per-tenant sections, sorted by tenant id.
    pub tenants: Vec<(TenantId, TenantServeStats)>,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Wall-clock from server start to the report snapshot.
    pub uptime: Duration,
}

impl ServeReport {
    /// One tenant's section, if the tenant ever touched the server.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantServeStats> {
        self.tenants
            .binary_search_by_key(&id, |&(t, _)| t)
            .ok()
            .map(|i| &self.tenants[i].1)
    }

    /// Jobs completed across all tenants.
    pub fn jobs_done(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_done).sum()
    }

    /// Jobs cancelled across all tenants.
    pub fn jobs_cancelled(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_cancelled).sum()
    }

    /// Jobs failed across all tenants.
    pub fn jobs_failed(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_failed).sum()
    }

    /// Jobs rejected at admission across all tenants.
    pub fn jobs_rejected(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_rejected).sum()
    }

    /// Jobs that exhausted their deadline across all tenants.
    pub fn jobs_deadline_exceeded(&self) -> u64 {
        self.tenants
            .iter()
            .map(|(_, t)| t.jobs_deadline_exceeded)
            .sum()
    }

    /// Retry attempts started across all tenants.
    pub fn jobs_retried(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_retried).sum()
    }

    /// Jobs shed at admission for backlog pressure across all tenants.
    pub fn jobs_shed(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.jobs_shed).sum()
    }

    /// Logical readouts completed across all tenants.
    pub fn shots_done(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.shots_done).sum()
    }

    /// Completed jobs per second of uptime (0 for a zero-length window).
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.jobs_done() as f64 / secs
        } else {
            0.0
        }
    }

    /// Completed shots per second of uptime (0 for a zero-length window).
    pub fn shots_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.shots_done() as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve ledger: {} workers, uptime {:?}, {} done / {} cancelled / {} failed / {} deadline-exceeded / {} rejected",
            self.workers,
            self.uptime,
            self.jobs_done(),
            self.jobs_cancelled(),
            self.jobs_failed(),
            self.jobs_deadline_exceeded(),
            self.jobs_rejected(),
        )?;
        if self.jobs_retried() > 0 || self.jobs_shed() > 0 {
            writeln!(
                f,
                "supervision: {} retries, {} shed",
                self.jobs_retried(),
                self.jobs_shed(),
            )?;
        }
        writeln!(
            f,
            "throughput: {:.2} jobs/s, {:.2} shots/s ({} shots)",
            self.jobs_per_sec(),
            self.shots_per_sec(),
            self.shots_done(),
        )?;
        for (id, t) in &self.tenants {
            writeln!(
                f,
                "  {id}: {} done / {} cancelled / {} failed / {} deadline-exceeded / {} rejected, {} shots",
                t.jobs_done,
                t.jobs_cancelled,
                t.jobs_failed,
                t.jobs_deadline_exceeded,
                t.jobs_rejected,
                t.shots_done,
            )?;
            if t.jobs_retried > 0 || t.jobs_shed > 0 || t.cycles_resumed > 0 {
                writeln!(
                    f,
                    "    supervision  : {} retries, {} shed, {} cycles resumed",
                    t.jobs_retried, t.jobs_shed, t.cycles_resumed,
                )?;
            }
            writeln!(f, "    queue latency: {}", t.queue_latency)?;
            writeln!(f, "    run latency  : {}", t.run_latency)?;
            if !t.recovery.is_quiet() {
                writeln!(
                    f,
                    "    recovery     : {} retransmissions, {} watchdog timeouts, {} pool respawns",
                    t.recovery.retransmissions,
                    t.recovery.watchdog_timeouts,
                    t.recovery.decode_worker_respawns,
                )?;
            }
            if !t.jobs_by_decoder.is_empty() {
                write!(f, "    decoders     :")?;
                for (name, n) in &t.jobs_by_decoder {
                    write!(f, " {name}={n}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn latency_summary_nearest_rank() {
        let mut samples: Vec<Duration> = (1..=100).map(ms).collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.max, ms(100));
    }

    #[test]
    fn latency_summary_small_and_empty_sets() {
        assert_eq!(
            LatencySummary::from_samples(&mut []),
            LatencySummary::default()
        );
        let mut one = vec![ms(7)];
        let s = LatencySummary::from_samples(&mut one);
        assert_eq!((s.p50, s.p99, s.max, s.samples), (ms(7), ms(7), ms(7), 1));
        let mut two = vec![ms(9), ms(3)];
        let s = LatencySummary::from_samples(&mut two);
        assert_eq!(
            s.p50,
            ms(3),
            "nearest rank of p50 over 2 samples is the 1st"
        );
        assert_eq!(s.p99, ms(9));
    }

    #[test]
    fn report_totals_and_lookup() {
        let a = TenantServeStats {
            jobs_done: 3,
            shots_done: 12,
            jobs_by_decoder: vec![("union-find".to_string(), 3)],
            ..TenantServeStats::default()
        };
        let b = TenantServeStats {
            jobs_done: 1,
            jobs_cancelled: 2,
            jobs_rejected: 4,
            ..TenantServeStats::default()
        };
        let report = ServeReport {
            tenants: vec![(TenantId(1), a), (TenantId(5), b)],
            workers: 2,
            uptime: Duration::from_secs(2),
        };
        assert_eq!(report.jobs_done(), 4);
        assert_eq!(report.jobs_cancelled(), 2);
        assert_eq!(report.jobs_rejected(), 4);
        assert_eq!(report.shots_done(), 12);
        assert!((report.jobs_per_sec() - 2.0).abs() < 1e-12);
        assert!((report.shots_per_sec() - 6.0).abs() < 1e-12);
        assert_eq!(
            report.tenant(TenantId(5)).map(|t| t.jobs_cancelled),
            Some(2)
        );
        assert!(report.tenant(TenantId(2)).is_none());
        let text = report.to_string();
        assert!(text.contains("tenant-1"));
        assert!(text.contains("jobs/s"));
        assert!(text.contains("union-find=3"));
    }

    #[test]
    fn zero_uptime_throughput_is_zero() {
        let report = ServeReport::default();
        assert_eq!(report.jobs_per_sec(), 0.0);
        assert_eq!(report.shots_per_sec(), 0.0);
    }

    #[test]
    fn ids_display_and_order() {
        assert_eq!(TenantId(3).to_string(), "tenant-3");
        assert_eq!(JobId(12).to_string(), "job-12");
        assert!(TenantId(1) < TenantId(2));
        assert!(JobId(1) < JobId(2));
    }
}
