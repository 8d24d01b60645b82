//! Deterministic classical-fault injection for the QuEST control plane.
//!
//! The paper's control substrate — MCEs on a shared bus behind a master
//! controller (§4.2) — is modelled elsewhere as perfect: every packet
//! arrives, every MCE responds. Real control planes budget for classical
//! faults. This module defines the dialable fault model the concurrent
//! runtime injects and survives:
//!
//! * **Bus faults** — packets on the master ↔ MCE bus are corrupted
//!   (detected by the CRC-16 field every [`Packet`] carries) or dropped
//!   (detected by acknowledgement timeout), and repaired by bounded
//!   retransmission with exponential backoff. Retransmitted bytes are
//!   accounted in their own [`Traffic::Retransmit`](crate::Traffic)
//!   ledger class, so the bandwidth cost of an unreliable link is
//!   measured, not assumed.
//! * **MCE stalls** — an MCE's instruction buffer stalls and the master's
//!   watchdog times out; the tile degrades gracefully to software-managed
//!   delivery (the QECC stream crosses the bus again) for a quarantine
//!   window. The degradation cost shows up directly in the ledger as
//!   baseline-class traffic — a number the paper never quantifies.
//! * **Decode-lane death / shard panics** — scheduled deaths the
//!   runtime must contain (rebuild or clean typed shutdown) instead of
//!   poisoning mutexes and aborting.
//!
//! Every decision is a pure function of `(fault seed, stream, counter)`
//! — no shared RNG stream exists — so a faulty run is bit-reproducible
//! for any shard count or thread schedule, exactly like a fault-free
//! one.

use crate::network::{Packet, PacketKind};
use crate::tile::tile_seed;
use std::fmt;

/// Stream index (far outside any real tile id) from which the fault
/// seed is derived, keeping fault decisions statistically independent of
/// every tile's physics stream.
const FAULT_STREAM: u64 = 0xFA17_0000_0000_0001;

/// Salt separating packet-fault rolls from watchdog rolls.
const SALT_TRANSFER: u64 = 0x01;
/// Salt for watchdog (stall) rolls.
const SALT_WATCHDOG: u64 = 0x02;

/// Largest exponent used for exponential backoff (2^6 = 64 slots).
const MAX_BACKOFF_EXP: u32 = 6;

/// A scheduled shard-thread panic: fault drill for the runtime's
/// containment path (`catch_unwind` → typed `ShardFailed` shutdown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPanicPlan {
    /// Shard whose worker thread panics.
    pub shard: usize,
    /// QECC cycles the shard completes before panicking.
    pub after_cycles: u64,
}

/// A complete, seedable fault-injection plan.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and is a
/// strict no-op: runs with it are bit-identical to runs of a build
/// without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a bus packet is dropped in transit (per attempt).
    pub drop_rate: f64,
    /// Probability a bus packet arrives with flipped bits (per attempt),
    /// caught by its CRC-16.
    pub corrupt_rate: f64,
    /// Probability per tile per QECC cycle that the tile's MCE
    /// instruction buffer stalls and the watchdog times out.
    pub stall_rate: f64,
    /// QECC cycles a tile stays degraded to software-managed delivery
    /// after a watchdog timeout (the timeout cycle itself is always
    /// degraded; this extends the quarantine beyond it).
    pub quarantine_cycles: u64,
    /// Retransmission budget per transfer. When the original attempt and
    /// all `max_retries` retransmissions fault, the link is declared
    /// failed and the run shuts down with a typed error.
    pub max_retries: u32,
    /// Kill the runtime's decode lane once this many decode jobs have
    /// been dispatched (it must be rebuilt and lose no corrections).
    pub kill_decode_worker_after_jobs: Option<u64>,
    /// Scheduled shard-thread panic (containment drill).
    pub shard_panic: Option<ShardPanicPlan>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults of any class.
    pub fn none() -> FaultPlan {
        FaultPlan {
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            quarantine_cycles: 0,
            max_retries: 8,
            kill_decode_worker_after_jobs: None,
            shard_panic: None,
        }
    }

    /// `true` when the plan injects nothing (runs are guaranteed
    /// bit-identical to the fault-free path).
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.stall_rate == 0.0
            && self.kill_decode_worker_after_jobs.is_none()
            && self.shard_panic.is_none()
    }

    /// Checks the plan's parameters, returning the first invalid rate as
    /// `(name, value)`.
    pub fn check_rates(&self) -> Result<(), (&'static str, f64)> {
        for (name, rate) in [
            ("drop", self.drop_rate),
            ("corrupt", self.corrupt_rate),
            ("stall", self.stall_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err((name, rate));
            }
        }
        Ok(())
    }
}

/// Counters for every fault injected and every recovery performed.
///
/// Part of [`RunReport`](crate::RunReport), and covered by the same
/// determinism guarantee: for a fixed master seed and fault plan these
/// are bit-identical across shard counts.
#[must_use]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Packets that arrived with a CRC mismatch and were retransmitted.
    pub crc_corruptions: u64,
    /// Packets lost in transit (acknowledgement timeout) and
    /// retransmitted.
    pub dropped_packets: u64,
    /// Retransmission attempts performed across all transfers.
    pub retransmissions: u64,
    /// Bytes resent over the bus (mirrors the
    /// [`Traffic::Retransmit`](crate::Traffic) ledger class).
    pub retransmitted_bytes: u64,
    /// Cumulative exponential-backoff slots waited before retransmitting.
    pub backoff_slots: u64,
    /// MCE instruction-buffer stalls that tripped the master's watchdog.
    pub watchdog_timeouts: u64,
    /// Tile-cycles spent degraded to software-managed delivery.
    pub degraded_tile_cycles: u64,
    /// Decode-pool worker threads that died mid-run.
    pub decode_worker_deaths: u64,
    /// Decode-pool workers respawned by the pool supervisor.
    pub decode_worker_respawns: u64,
}

impl RecoveryStats {
    /// `true` when no fault was injected and no recovery ran.
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryStats::default()
    }

    /// Accumulates another run's counters into this one. Plain sums, so
    /// aggregation is order-invariant — the serving layer uses this to
    /// fold every completed job's recovery counters into its tenant's
    /// ledger section.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.crc_corruptions += other.crc_corruptions;
        self.dropped_packets += other.dropped_packets;
        self.retransmissions += other.retransmissions;
        self.retransmitted_bytes += other.retransmitted_bytes;
        self.backoff_slots += other.backoff_slots;
        self.watchdog_timeouts += other.watchdog_timeouts;
        self.degraded_tile_cycles += other.degraded_tile_cycles;
        self.decode_worker_deaths += other.decode_worker_deaths;
        self.decode_worker_respawns += other.decode_worker_respawns;
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bus: {} corrupted (CRC), {} dropped, {} retransmissions \
             ({} B, {} backoff slots)",
            self.crc_corruptions,
            self.dropped_packets,
            self.retransmissions,
            self.retransmitted_bytes,
            self.backoff_slots,
        )?;
        writeln!(
            f,
            "mce: {} watchdog timeouts, {} degraded tile-cycles",
            self.watchdog_timeouts, self.degraded_tile_cycles,
        )?;
        write!(
            f,
            "decode pool: {} worker deaths, {} respawned",
            self.decode_worker_deaths, self.decode_worker_respawns,
        )
    }
}

/// A transfer exhausted its retransmission budget: the original attempt
/// and every retry faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFailure {
    /// The MCE whose link failed.
    pub tile: usize,
    /// Attempts made (original + retransmissions).
    pub attempts: u32,
}

impl fmt::Display for LinkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bus link to MCE {} failed: {} attempts all dropped or corrupted \
             (raise the retry budget or lower the fault rates)",
            self.tile, self.attempts
        )
    }
}

impl std::error::Error for LinkFailure {}

/// Outcome of one reliable transfer: how many extra attempts the fault
/// layer needed and what they cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Retransmissions performed (0 for a clean first attempt).
    pub retransmissions: u32,
    /// Bytes resent (retransmissions × transfer size).
    pub retransmitted_bytes: u64,
}

/// Per-tile fault-lane state.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Transfer attempts rolled on this lane so far (the roll counter).
    attempts: u64,
    /// The tile is degraded for cycles `< quarantined_until`.
    quarantined_until: u64,
}

/// Live fault-injection state for one run, owned by the master thread.
///
/// All mutation happens on the master, and every roll is keyed by a
/// per-tile counter over a deterministic per-tile event sequence, so the
/// session's decisions — and therefore the whole faulty run — do not
/// depend on sharding or thread scheduling.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    seed: u64,
    lanes: Vec<Lane>,
    cycle: u64,
    stats: RecoveryStats,
    decode_kill_armed: bool,
}

impl FaultSession {
    /// Builds the session for `tiles` MCEs, deriving the fault seed from
    /// the run's master seed.
    pub fn new(plan: FaultPlan, master_seed: u64, tiles: usize) -> FaultSession {
        FaultSession {
            seed: tile_seed(master_seed, FAULT_STREAM),
            lanes: vec![Lane::default(); tiles],
            cycle: 0,
            stats: RecoveryStats::default(),
            decode_kill_armed: plan.kill_decode_worker_after_jobs.is_some(),
            plan,
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// A uniform roll in `[0, 1)` from `(seed, salt, stream, counter)`.
    fn roll(&self, salt: u64, stream: u64, counter: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(counter.wrapping_mul(0x94d0_49bb_1331_11eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Performs one reliable transfer of `bytes` to or from `tile`:
    /// builds the CRC-sealed packet, injects drop/corruption faults, and
    /// retransmits with exponential backoff until the packet arrives
    /// intact or the retry budget runs out.
    ///
    /// Corruption is detected the way real hardware detects it — bits of
    /// the received packet are flipped and its CRC-16 no longer matches —
    /// not by an oracle flag.
    ///
    /// # Errors
    ///
    /// Returns [`LinkFailure`] when the original attempt and all
    /// `max_retries` retransmissions fault.
    pub fn transfer(
        &mut self,
        tile: usize,
        bytes: u64,
        kind: PacketKind,
    ) -> Result<Delivery, LinkFailure> {
        if self.plan.drop_rate == 0.0 && self.plan.corrupt_rate == 0.0 {
            return Ok(Delivery::default());
        }
        let mut delivery = Delivery::default();
        for attempt in 0..=self.plan.max_retries {
            let counter = {
                let lane = &mut self.lanes[tile];
                lane.attempts += 1;
                lane.attempts
            };
            if attempt > 0 {
                delivery.retransmissions += 1;
                delivery.retransmitted_bytes += bytes;
                self.stats.retransmissions += 1;
                self.stats.retransmitted_bytes += bytes;
                self.stats.backoff_slots += 1 << (attempt - 1).min(MAX_BACKOFF_EXP);
            }
            let r = self.roll(SALT_TRANSFER, tile as u64, counter);
            if r < self.plan.drop_rate {
                // Lost in transit: no packet to check; the sender's
                // acknowledgement timer expires.
                self.stats.dropped_packets += 1;
                continue;
            }
            let mut packet = Packet::sealed(tile, bytes, kind);
            if r < self.plan.drop_rate + self.plan.corrupt_rate {
                // Arrived with flipped bits; pick the bit from the same
                // roll so the decision stays a pure function of the lane
                // counter.
                let bit = ((r * 4096.0) as u32) % 64;
                packet = packet.with_bit_error(bit);
            }
            if packet.verify() {
                return Ok(delivery);
            }
            self.stats.crc_corruptions += 1;
        }
        Err(LinkFailure {
            tile,
            attempts: self.plan.max_retries + 1,
        })
    }

    /// Enters QECC cycle `cycle` (the master calls this once per barrier
    /// round before asking for tile modes).
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Rolls the watchdog for one tile in the current cycle and reports
    /// whether the tile runs degraded (software-managed delivery).
    /// A fresh stall quarantines the tile for the current cycle plus
    /// [`FaultPlan::quarantine_cycles`] more.
    pub fn tile_degraded(&mut self, tile: usize) -> bool {
        let quarantined = self.cycle < self.lanes[tile].quarantined_until;
        if !quarantined && self.plan.stall_rate > 0.0 {
            let r = self.roll(SALT_WATCHDOG, tile as u64, self.cycle);
            if r < self.plan.stall_rate {
                self.stats.watchdog_timeouts += 1;
                self.lanes[tile].quarantined_until = self.cycle + 1 + self.plan.quarantine_cycles;
            }
        }
        let degraded = self.cycle < self.lanes[tile].quarantined_until;
        if degraded {
            self.stats.degraded_tile_cycles += 1;
        }
        degraded
    }

    /// `true` exactly once: when `jobs_dispatched` first reaches the
    /// plan's decode-worker kill threshold. The pool uses this to mark a
    /// chunk as the one whose worker dies.
    pub fn take_decode_kill(&mut self, jobs_dispatched: u64) -> bool {
        match self.plan.kill_decode_worker_after_jobs {
            Some(threshold) if self.decode_kill_armed && jobs_dispatched >= threshold => {
                self.decode_kill_armed = false;
                true
            }
            _ => false,
        }
    }

    /// Folds pool-supervisor counters into the recovery statistics at
    /// the end of a run.
    pub fn note_pool_recoveries(&mut self, deaths: u64, respawns: u64) {
        self.stats.decode_worker_deaths += deaths;
        self.stats.decode_worker_respawns += respawns;
    }

    /// Permanently disarms the plan's scheduled decode-worker kill
    /// without touching any other state. A retry supervisor calls this
    /// on a resumed session so the fault that already killed the run
    /// once cannot fire again on the next attempt.
    pub fn disarm_decode_kill(&mut self) {
        self.decode_kill_armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_strict_noop() {
        let mut s = FaultSession::new(FaultPlan::none(), 7, 4);
        for tile in 0..4 {
            for _ in 0..100 {
                assert_eq!(
                    s.transfer(tile, 64, PacketKind::Downstream),
                    Ok(Delivery::default())
                );
            }
            s.begin_cycle(0);
            assert!(!s.tile_degraded(tile));
        }
        assert!(s.stats().is_quiet());
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
    }

    #[test]
    fn faulty_transfers_are_deterministic_and_accounted() {
        let plan = FaultPlan {
            drop_rate: 0.2,
            corrupt_rate: 0.2,
            ..FaultPlan::none()
        };
        let run = |tiles: usize| {
            let mut s = FaultSession::new(plan, 42, tiles);
            let mut deliveries = Vec::new();
            for tile in 0..tiles.min(4) {
                for _ in 0..200 {
                    deliveries.push(s.transfer(tile, 32, PacketKind::Upstream).unwrap());
                }
            }
            (deliveries, s.stats())
        };
        let (d1, s1) = run(4);
        let (d2, s2) = run(4);
        assert_eq!(d1, d2, "per-lane rolls must be pure");
        assert_eq!(s1, s2);
        assert!(s1.retransmissions > 0, "40% fault rate must retransmit");
        assert!(s1.crc_corruptions > 0, "corruption must be CRC-detected");
        assert!(s1.dropped_packets > 0);
        assert_eq!(
            s1.retransmitted_bytes,
            s1.retransmissions * 32,
            "every retransmission resends the full transfer"
        );
        assert!(s1.backoff_slots >= s1.retransmissions);
    }

    #[test]
    fn lanes_are_independent() {
        // The same sequence of transfers on tile 0 rolls identically
        // whether or not other tiles transferred in between.
        let plan = FaultPlan {
            drop_rate: 0.3,
            ..FaultPlan::none()
        };
        let mut alone = FaultSession::new(plan, 9, 8);
        let solo: Vec<_> = (0..50)
            .map(|_| alone.transfer(0, 16, PacketKind::Downstream).unwrap())
            .collect();
        let mut mixed = FaultSession::new(plan, 9, 8);
        let interleaved: Vec<_> = (0..50)
            .map(|_| {
                for other in 1..8 {
                    mixed.transfer(other, 16, PacketKind::Downstream).unwrap();
                }
                mixed.transfer(0, 16, PacketKind::Downstream).unwrap()
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn hopeless_link_fails_with_bounded_attempts() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            max_retries: 3,
            ..FaultPlan::none()
        };
        let mut s = FaultSession::new(plan, 1, 2);
        let err = s.transfer(1, 8, PacketKind::Downstream).unwrap_err();
        assert_eq!(
            err,
            LinkFailure {
                tile: 1,
                attempts: 4
            }
        );
        assert!(err.to_string().contains("MCE 1"));
        assert_eq!(s.stats().dropped_packets, 4);
        assert_eq!(s.stats().retransmissions, 3);
    }

    #[test]
    fn watchdog_quarantines_for_the_window() {
        let plan = FaultPlan {
            stall_rate: 1.0,
            quarantine_cycles: 3,
            ..FaultPlan::none()
        };
        let mut s = FaultSession::new(plan, 5, 1);
        s.begin_cycle(0);
        assert!(s.tile_degraded(0), "certain stall must degrade");
        assert_eq!(s.stats().watchdog_timeouts, 1);
        // Already quarantined: no second timeout inside the window.
        for cycle in 1..4 {
            s.begin_cycle(cycle);
            assert!(s.tile_degraded(0), "cycle {cycle} inside quarantine");
        }
        assert_eq!(s.stats().watchdog_timeouts, 1);
        assert_eq!(s.stats().degraded_tile_cycles, 4);
        // The window expires; the next roll stalls afresh.
        s.begin_cycle(4);
        assert!(s.tile_degraded(0));
        assert_eq!(s.stats().watchdog_timeouts, 2);
    }

    #[test]
    fn decode_kill_fires_exactly_once() {
        let plan = FaultPlan {
            kill_decode_worker_after_jobs: Some(10),
            ..FaultPlan::none()
        };
        let mut s = FaultSession::new(plan, 3, 1);
        assert!(!s.take_decode_kill(9));
        assert!(s.take_decode_kill(10));
        assert!(!s.take_decode_kill(11), "the kill is one-shot");
        s.note_pool_recoveries(1, 1);
        assert_eq!(s.stats().decode_worker_deaths, 1);
        assert_eq!(s.stats().decode_worker_respawns, 1);
    }

    #[test]
    fn rate_checks_catch_bad_plans() {
        assert!(FaultPlan::none().check_rates().is_ok());
        let bad = FaultPlan {
            corrupt_rate: 1.5,
            ..FaultPlan::none()
        };
        assert_eq!(bad.check_rates(), Err(("corrupt", 1.5)));
        let nan = FaultPlan {
            drop_rate: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(nan.check_rates().is_err());
    }

    #[test]
    fn display_summarizes_all_classes() {
        let stats = RecoveryStats {
            crc_corruptions: 2,
            dropped_packets: 1,
            retransmissions: 3,
            retransmitted_bytes: 96,
            backoff_slots: 4,
            watchdog_timeouts: 1,
            degraded_tile_cycles: 5,
            decode_worker_deaths: 1,
            decode_worker_respawns: 1,
        };
        let s = stats.to_string();
        assert!(s.contains("CRC"));
        assert!(s.contains("watchdog"));
        assert!(s.contains("respawned"));
        assert!(!stats.is_quiet());
    }
}
