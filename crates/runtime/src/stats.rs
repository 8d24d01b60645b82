//! Runtime observability: per-shard counters, pool statistics, phase
//! wall-clock, and the run report.

use crate::pool::PoolStats;
use quest_core::MasterStats;
use std::fmt;
use std::time::Duration;
// This module is the workspace's only sanctioned home for wall-clock
// reads (lint.toml `[ql02] clock_allow`): timings measured here are
// *reported*, never fed back into the simulation, so they cannot break
// run-for-run determinism.
use std::time::Instant;

/// A phase timer: the only way runtime code reads the wall clock.
///
/// Observability-only by construction — a [`Stopwatch`] can do nothing
/// but measure the time since [`Stopwatch::start`], and the result lands
/// in [`PhaseTimings`], which no simulation path reads.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall-clock elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Counters for one shard worker, collected by the master.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// First tile (global id) owned by the shard.
    pub first_tile: usize,
    /// Number of tiles owned.
    pub tiles: usize,
    /// QECC cycles executed per tile on this shard.
    pub cycles: u64,
    /// Escalations this shard sent to the global decoder.
    pub escalations: u64,
    /// Upstream envelopes the shard sent (syndromes, barriers, outcomes).
    pub upstream_messages: u64,
    /// Downstream envelopes the master sent the shard: operations, cycle
    /// grants, corrections, shutdown. A per-cycle term in it means the
    /// shard was lock-stepped (shard 0, or a checkpoint sink attached).
    pub downstream_messages: u64,
    /// High-water occupancy of the shard → master channel: batches of a
    /// threaded shard's envelopes, or the envelopes the inline shard 0
    /// has queued (up to a window's).
    pub max_upstream_depth: usize,
    /// High-water occupancy of the master → shard channel.
    pub max_downstream_depth: usize,
    /// Tile-cycles the shard's tiles were served by a compiled kernel,
    /// from a locked tape or a warm-up trail, never touching a reference
    /// tableau
    /// ([`Substrate::replayed_cycles`](quest_core::Substrate::replayed_cycles)),
    /// since the run started or resumed. On a `Runtime` that has run the
    /// distance before, every cycle of a tile that only does QECC is.
    pub replayed_tile_cycles: u64,
    /// Tile readouts served from the recorded exit of the trail the tile
    /// followed to its lock, never touching a reference tableau
    /// ([`Substrate::served_readouts`](quest_core::Substrate::served_readouts)),
    /// since the run started or resumed. Once a distance's exit is
    /// recorded, every tile of a memory run that only does QECC is.
    pub served_readouts: u64,
}

impl ShardStats {
    /// Escalations per tile-cycle on this shard.
    pub fn escalation_rate(&self) -> f64 {
        let tile_cycles = self.cycles * self.tiles as u64;
        if tile_cycles == 0 {
            0.0
        } else {
            self.escalations as f64 / tile_cycles as f64
        }
    }
}

/// Wall-clock spent in each master-side phase. A `Cycles` op is timed
/// once, not cycle by cycle, and a cycle's decode only when it escalated:
/// a quiet cycle reads no clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// QECC cycles: the `Cycles` ops less their decode phase and any
    /// snapshot — granting cycles, shard 0's compute (it runs on the
    /// master's thread), consuming every shard's syndromes, which
    /// includes waiting for a shard that has not got there yet, and the
    /// progress callback.
    pub cycles: Duration,
    /// Global decoding of the cycles that escalated: the batch decode
    /// and correction delivery.
    pub decode: Duration,
    /// Logical operations (preparations, CNOTs).
    pub logical: Duration,
    /// Destructive readout.
    pub readout: Duration,
}

impl PhaseTimings {
    /// Total accounted wall-clock.
    pub fn total(&self) -> Duration {
        self.cycles + self.decode + self.logical + self.readout
    }
}

/// Everything the runtime observed during one run.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-shard counters.
    pub shards: Vec<ShardStats>,
    /// Global-decode counters.
    pub decode: PoolStats,
    /// Master-controller counters (dispatches, global decodes, syncs).
    pub master: MasterStats,
    /// Packets minted on the modelled interconnect.
    pub packets_sent: u64,
    /// Wire bytes (payload + headers) on the modelled interconnect.
    pub wire_bytes: u64,
    /// Warm-up trails laid on a scratch tile before this run was
    /// dispatched, one per preparation its fresh tiles start from that
    /// the [`Runtime`](crate::Runtime) had not laid before: its tiles
    /// then follow them from their first cycle. Zero on a runtime that
    /// has run such a start at the distance, and on a resume.
    pub trails_laid: u64,
    /// Wall-clock per phase.
    pub phases: PhaseTimings,
}

impl RuntimeStats {
    /// Escalations per tile-cycle across all shards.
    pub fn escalation_rate(&self) -> f64 {
        let tile_cycles: u64 = self.shards.iter().map(|s| s.cycles * s.tiles as u64).sum();
        if tile_cycles == 0 {
            0.0
        } else {
            let escalations: u64 = self.shards.iter().map(|s| s.escalations).sum();
            escalations as f64 / tile_cycles as f64
        }
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "shards: {}", self.shards.len())?;
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: tiles {}..{}, {} cycles, {} escalations \
                 ({:.4}/tile-cycle), {} tile-cycles replayed, \
                 {} readouts served, messages up {} / down {}, \
                 depth up {} / down {}",
                s.shard,
                s.first_tile,
                s.first_tile + s.tiles,
                s.cycles,
                s.escalations,
                s.escalation_rate(),
                s.replayed_tile_cycles,
                s.served_readouts,
                s.upstream_messages,
                s.downstream_messages,
                s.max_upstream_depth,
                s.max_downstream_depth,
            )?;
        }
        let replayed: u64 = self.shards.iter().map(|s| s.replayed_tile_cycles).sum();
        let served: u64 = self.shards.iter().map(|s| s.served_readouts).sum();
        writeln!(
            f,
            "trails: {replayed} tile-cycles replayed, {served} readouts served, \
             {} laid before dispatch",
            self.trails_laid,
        )?;
        writeln!(
            f,
            "decode pool: {} batches, {} jobs (max {}, mean {:.2}), {} memo hits",
            self.decode.batches,
            self.decode.jobs,
            self.decode.max_batch_jobs,
            self.decode.mean_batch_jobs(),
            self.decode.memo_hits,
        )?;
        if self.decode.deaths > 0 {
            writeln!(
                f,
                "  pool supervision: {} worker deaths, {} respawned",
                self.decode.deaths, self.decode.respawns,
            )?;
        }
        writeln!(
            f,
            "master: {} global decodes, {} sync tokens; network: {} packets, {} wire bytes",
            self.master.global_decodes, self.master.sync_tokens, self.packets_sent, self.wire_bytes,
        )?;
        write!(
            f,
            "phases: cycles {:?}, decode {:?}, logical {:?}, readout {:?}",
            self.phases.cycles, self.phases.decode, self.phases.logical, self.phases.readout,
        )
    }
}

/// Result of [`Runtime::run`](crate::Runtime::run): the unified
/// [`RunReport`](quest_core::RunReport) every execution path produces —
/// bit-identical to the single-threaded reference for any shard count —
/// plus the concurrent runtime's own observability counters.
///
/// Dereferences to the inner report, so `report.bus_bytes()`,
/// `report.outcomes`, `report.logical_ok()` etc. work directly.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The unified physics/accounting report (what determinism
    /// guarantees cover).
    pub report: quest_core::RunReport,
    /// Concurrency observability (thread/channel/pool counters; varies
    /// with sharding and machine, excluded from determinism guarantees).
    pub stats: RuntimeStats,
}

impl std::ops::Deref for RuntimeReport {
    type Target = quest_core::RunReport;

    fn deref(&self) -> &quest_core::RunReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_rate_handles_zero_cycles() {
        let stats = RuntimeStats::default();
        assert_eq!(stats.escalation_rate(), 0.0);
        let shard = ShardStats::default();
        assert_eq!(shard.escalation_rate(), 0.0);
    }

    #[test]
    fn display_is_total_and_readable() {
        let stats = RuntimeStats {
            shards: vec![ShardStats {
                shard: 0,
                first_tile: 0,
                tiles: 4,
                cycles: 10,
                escalations: 2,
                upstream_messages: 12,
                downstream_messages: 7,
                max_upstream_depth: 3,
                max_downstream_depth: 1,
                replayed_tile_cycles: 36,
                served_readouts: 4,
            }],
            decode: PoolStats {
                memo_hits: 5,
                ..PoolStats::default()
            },
            trails_laid: 1,
            ..RuntimeStats::default()
        };
        let s = stats.to_string();
        assert!(s.contains("shard 0"));
        assert!(s.contains("messages up 12 / down 7"));
        assert!(s.contains("36 tile-cycles replayed, 4 readouts served, messages"));
        assert!(s.contains("decode pool"));
        assert!(s.contains("5 memo hits"));
        assert!(s.contains(
            "trails: 36 tile-cycles replayed, 4 readouts served, 1 laid before dispatch"
        ));
    }
}
