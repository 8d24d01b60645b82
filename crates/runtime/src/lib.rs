//! `quest-runtime`: a concurrent, sharded simulation runtime for
//! multi-tile QuEST systems.
//!
//! The single-threaded [`MultiTileSystem`](quest_core::MultiTileSystem)
//! drives every tile from one loop. This crate executes the same
//! physics, over the same [`Substrate`](quest_core::Substrate) type, as
//! a concurrent engine shaped like the paper's control processor (§4.2):
//!
//! * **Shard workers** — each owning a contiguous group of tiles, their
//!   MCEs, the substrate under them (one tableau per entangled group of
//!   tiles), and one RNG stream per tile derived from the master seed.
//!   Shard 0 is driven on the master's thread; every further shard gets
//!   a thread.
//! * **Master** — the caller's thread: it runs the workload, shard 0
//!   and the global decoder in one, so it computes where it would
//!   otherwise wait. It dispatches
//!   workload operations downstream and collects syndromes upstream as
//!   messages that are [`Packet`](quest_core::network::Packet)-shaped,
//!   so bus and packet accounting fall out of real message flow. They
//!   cross bounded MPSC channels to a shard thread and a plain queue to
//!   the inline shard.
//! * **Global decoding** — the master answers each cycle's escalations
//!   as one batch on its own thread, with one engine over the
//!   distance's single-round graphs ([`quest_surface::decoder::batch`]).
//! * **Granted cycles, not clocked ones** — for a `Cycles(n)` operation
//!   the master grants each threaded shard the whole operation at once,
//!   and the inline shard 0 its first cycle, then a window of
//!   [`SHARD0_WINDOW`] cycles each time it has consumed the last. A
//!   shard runs its cycles back to back and waits for nothing: the
//!   master hears from a tile only when a syndrome escalates (§4.4), and
//!   the correction it sends back only updates a Pauli frame no QECC
//!   cycle reads, so the shard applies it whenever it arrives. The
//!   master consumes what the shards report cycle by cycle, shard by
//!   shard, in the one order a per-cycle barrier would give (dispatch →
//!   shard compute → syndrome flush → batch decode → correction
//!   delivery). With a
//!   [`CheckpointSink`] attached the grant is one cycle, because a
//!   checkpoint needs every shard stopped at the same barrier.
//! * **What runs share** — a [`Runtime`] keeps, per code distance, the
//!   template MCE its tiles are cloned from, the warm-up trails its
//!   fresh tiles follow instead of running their first cycles on a
//!   tableau, and the global decodes answered so far, which the master
//!   answers a repeated escalation from. The first run at a distance
//!   builds the template, and lays the trail of each preparation its
//!   tiles start from once, on a scratch tile, before it dispatches
//!   anything, so its own tiles follow it from their first cycle.
//!
//! Instruction delivery goes through the shared
//! [`quest_core::DeliveryEngine`]: the master thread
//! performs the bus-accounting half and the owning shard the
//! pipeline-execution half, so all three Figure-14
//! [`DeliveryMode`]s run sharded with the exact ledger of the
//! single-threaded systems.
//!
//! # Determinism
//!
//! For a fixed master seed, a run's [`RunReport`] — logical outcomes,
//! per-class bus ledger, decode counters — is bit-identical for every
//! shard count, and identical to the single-threaded reference
//! ([`run_reference`]): each tile consumes only its own RNG stream in a
//! fixed order, every correction of an op lands before the next envelope
//! that reads a decoder frame, and bus tallies are order-invariant sums.
//!
//! # Fault injection and recovery
//!
//! A spec may carry a [`FaultPlan`]: dropped/corrupted bus packets
//! (CRC-checked, repaired by bounded retransmission accounted under
//! [`Traffic::Retransmit`](quest_core::Traffic)), MCE stalls that
//! degrade a tile to software-managed delivery for a quarantine window,
//! and scheduled decode-worker/shard-thread deaths the runtime contains
//! (supervisor respawn, or a clean typed [`RuntimeError`]). Fault
//! decisions are pure functions of the master seed and per-tile
//! counters, so the determinism guarantee extends to faulty runs: same
//! seed + same plan ⇒ bit-identical [`RunReport`] (including its
//! [`RecoveryStats`]) at every shard count. An empty plan is a strict
//! no-op.
//!
//! # Example
//!
//! ```
//! use quest_runtime::{Runtime, WorkloadSpec};
//!
//! let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 10);
//! let report = Runtime::new().run(&spec)?;
//! assert_eq!(report.outcomes.len(), 4);
//! // Same seed, different sharding: identical physics and accounting.
//! let spec1 = WorkloadSpec { shards: 1, ..spec };
//! assert_eq!(Runtime::new().run(&spec1)?.report, report.report);
//! # Ok::<(), quest_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
// The panic-free contract (PR 2/3), enforced three ways: quest-lint's
// QL01 rule, this clippy deny, and the runtime's catch_unwind
// containment as a last resort. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod control;
pub mod error;
mod memo;
mod message;
mod pool;
pub mod reference;
pub mod snapshot;
pub mod spec;
pub mod stats;

mod shard;

pub use control::{CancelToken, RunControl, RunProgress};
pub use error::RuntimeError;
pub use pool::PoolStats;
pub use quest_core::tile::LogicalBasis;
pub use quest_core::{
    CostReport, DecoderChoice, DeliveryMode, FaultPlan, LinkFailure, RecoveryStats, RunReport,
    ShardPanicPlan,
};
pub use reference::run_reference;
pub use snapshot::{CheckpointSink, RunSnapshot, SNAPSHOT_VERSION};
pub use spec::{SpecError, WorkloadOp, WorkloadSpec, TABLE_DECODER_MAX_DISTANCE};
pub use stats::{PhaseTimings, RuntimeReport, RuntimeStats, ShardStats};

use memo::Memo;
use message::{Envelope, Payload};
use pool::{Corrections, DecodePool};
use quest_core::network::{Network, PacketKind};
use quest_core::{DeliveryEngine, FaultSession, MasterController};
use quest_isa::LogicalInstr;
use quest_surface::decoder::batch::DecodeJob;
use quest_surface::StabKind;
use shard::{ShardLink, ShardWorker};
use snapshot::ShardSnapshot;
use stats::Stopwatch;
use std::sync::Arc;
use std::time::Duration;

/// The concurrent runtime. Construction is cheap: a `Runtime` holds a
/// memo of what every run of a code distance shares — one template MCE
/// whose clones share its tables, the warm-up *trails* fresh tiles
/// follow instead of running their first cycles on a tableau (built, and
/// laid once per preparation before dispatch, by the first run at that
/// distance), and the answers of the global decodes run so far, bounded
/// per distance. Clones of a `Runtime` share the memo, and nothing in it
/// shows in a report: a run on a `Runtime` that has served a thousand
/// others returns the [`RunReport`] a new one would. Threads live only
/// for the duration of [`Runtime::run`]: one per shard beyond shard 0,
/// which rides the caller's thread with the global decoder.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    memo: Arc<Memo>,
}

/// Fan-out of the modelled interconnect tree between master and MCEs.
const NETWORK_FANOUT: usize = 4;

/// Cycles the inline shard 0 of a free-running run is granted at a time,
/// past the first cycle of a `Cycles` op: it computes them on the
/// master's thread in one go, and the master then consumes them cycle by
/// cycle. A threaded shard hands its answers up in the same windows. On
/// the 8-tile d = 5 two-shard memory run, windows of 16 and 256 read
/// within noise of 64.
pub const SHARD0_WINDOW: u64 = 64;

impl Runtime {
    /// A runtime with an empty memo.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// Returns the runtime unchanged, ignoring `workers`: global decoding
    /// runs on one lane, the master's own, and there is nothing to size.
    /// Kept only because the benchmark package still calls it (always
    /// with 1); the benchmark change of ROADMAP item 1 drops those calls,
    /// and then this method.
    #[doc(hidden)]
    pub fn with_decode_workers(self, _workers: usize) -> Runtime {
        self
    }

    /// Executes a workload and returns the unified [`RunReport`] plus
    /// runtime statistics.
    ///
    /// Equivalent to [`Runtime::run_controlled`] with an empty
    /// [`RunControl`] — no cancellation, no progress reporting.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if the spec fails
    /// [`WorkloadSpec::validate`], or when the spec's [`FaultPlan`]
    /// injects an unrecoverable failure mid-run — a bus link out of
    /// retries ([`RuntimeError::Link`]), a shard worker panicking
    /// ([`RuntimeError::ShardFailed`]) or the decode pool dying
    /// ([`RuntimeError::DecodePoolFailed`]). A validated spec never
    /// panics the engine; every failure is a typed error and all threads
    /// are joined before this returns.
    pub fn run(&self, spec: &WorkloadSpec) -> Result<RuntimeReport, RuntimeError> {
        self.run_controlled(spec, &RunControl::new())
    }

    /// Executes a workload under a [`RunControl`]: an optional
    /// [`CancelToken`] polled at every operation and QECC-cycle
    /// checkpoint, and an optional progress callback invoked after every
    /// cycle.
    ///
    /// `run_controlled` is re-entrant: one value (or clones of it) can
    /// run many workloads concurrently from different threads — each run
    /// spawns, owns and joins its own shard threads. What runs
    /// share is the memo, read when a run starts and added to before it
    /// dispatches (trails laid ahead) and when it reports, under a lock
    /// held for nothing else; a run never sees another's trails change
    /// under it. The serving layer
    /// (`quest-serve`) leans on exactly this to execute many tenants'
    /// jobs on one fixed worker pool, whose workers share one memo.
    ///
    /// The hooks are observers only: a run that completes returns a
    /// [`RunReport`] bit-identical to [`Runtime::run`]'s, regardless of
    /// how often the callback fires or how late an un-tripped token is
    /// checked.
    ///
    /// # Errors
    ///
    /// Everything [`Runtime::run`] returns, plus
    /// [`RuntimeError::Cancelled`] when the token trips mid-run: the
    /// run winds down at the next checkpoint with every thread joined
    /// and reports how many cycles had completed.
    pub fn run_controlled(
        &self,
        spec: &WorkloadSpec,
        control: &RunControl<'_>,
    ) -> Result<RuntimeReport, RuntimeError> {
        self.run_inner(spec, control, None)
    }

    /// Resumes a checkpointed run from a [`RunSnapshot`] (taken by a
    /// [`CheckpointSink`] attached to an earlier attempt) and drives it
    /// to completion under `control`.
    ///
    /// The resumed run is bit-identical to the uninterrupted run of the
    /// snapshot's spec: every shard's MCEs, tableau and RNG streams, the
    /// master's bus/interconnect/fault accounting and the decode-cost
    /// ledger continue exactly where the snapshot froze them. Snapshots
    /// taken mid-resume (via another sink) compose — a run can be killed
    /// and resumed any number of times.
    ///
    /// # Errors
    ///
    /// Everything [`Runtime::run_controlled`] returns, plus
    /// [`RuntimeError::Protocol`] when the snapshot's version does not
    /// match this runtime's [`SNAPSHOT_VERSION`]. An armed fault that
    /// was not [disarmed](RunSnapshot::disarm_shard_panic) re-fires
    /// deterministically, exactly as it would have in the original run.
    pub fn resume(
        &self,
        snapshot: &RunSnapshot,
        control: &RunControl<'_>,
    ) -> Result<RuntimeReport, RuntimeError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(RuntimeError::Protocol {
                context: "snapshot resume",
                payload: format!(
                    "snapshot version {} but this runtime speaks {}",
                    snapshot.version, SNAPSHOT_VERSION
                ),
            });
        }
        if snapshot.shards.len() != snapshot.spec.shards {
            return Err(RuntimeError::Protocol {
                context: "snapshot resume",
                payload: format!(
                    "snapshot holds {} shard images for a {}-shard spec",
                    snapshot.shards.len(),
                    snapshot.spec.shards
                ),
            });
        }
        self.run_inner(&snapshot.spec, control, Some(snapshot))
    }

    fn run_inner(
        &self,
        spec: &WorkloadSpec,
        control: &RunControl<'_>,
        resume: Option<&RunSnapshot>,
    ) -> Result<RuntimeReport, RuntimeError> {
        spec.validate()?;
        // The distance's template MCE: every tile of a fresh run is a
        // clone of it, and its microcode cycle length prices the
        // software baseline's per-cycle bus accounting. Fresh tiles may
        // follow the distance's trails; a fresh run first lays those its
        // tiles start on that the memo has not tried yet.
        let mut shared = self.memo.shared(spec.distance);
        let mut trails_laid = 0;
        if resume.is_none() {
            let starts = spec.fresh_starts(|basis| shared.tried(basis));
            if !starts.is_empty() {
                (shared, trails_laid) = self.memo.lay_ahead(spec.distance, &starts);
            }
        }
        let lattice = shared.template.lattice();
        let cycle_len = shared.template.microcode().cycle_len();

        let shared = &shared;
        std::thread::scope(|scope| {
            // Shard 0 is driven on this thread, which would otherwise
            // sleep while the shards compute; every further shard gets a
            // thread and a bounded channel pair. The threaded shards are
            // linked first and build their workers on their own threads,
            // so their set-up overlaps shard 0's.
            let mut links: Vec<ShardLink> = (0..spec.shards)
                .rev()
                .map(|s| {
                    let panic_after = spec
                        .faults
                        .shard_panic
                        .and_then(|p| (p.shard == s).then_some(p.after_cycles));
                    let tiles = spec.tile_range(s);
                    let build = move |up| match resume {
                        Some(snap) => ShardWorker::from_snapshot(
                            s,
                            tiles,
                            spec.error_rate,
                            spec.delivery,
                            snap.shards[s].clone(),
                            up,
                            panic_after,
                        ),
                        None => ShardWorker::new(
                            s,
                            tiles,
                            shared,
                            spec.error_rate,
                            spec.delivery,
                            spec.seed,
                            up,
                            panic_after,
                        ),
                    };
                    ShardLink::new(scope, s == 0, spec.tile_range(s).len(), build)
                })
                .collect();
            links.reverse();
            let pool = DecodePool::new(Arc::clone(&shared.decodes), spec.decoder);

            // Accounting state either starts fresh or continues exactly
            // where the snapshot froze it; everything else (threads,
            // channels, pool) is rebuilt the same way for both paths.
            let mut master = Master {
                spec,
                control,
                memo: &self.memo,
                cycles_total: spec.total_cycles(),
                engine: resume.map_or_else(|| DeliveryEngine::new(spec.delivery), |r| r.engine),
                // Degraded tiles fall back to software-managed delivery:
                // their QECC stream crosses the bus like the baseline's.
                degraded_engine: resume.map_or_else(
                    || DeliveryEngine::new(DeliveryMode::SoftwareBaseline),
                    |r| r.degraded_engine,
                ),
                faults: resume.map_or_else(
                    || FaultSession::new(spec.faults, spec.seed, spec.tiles),
                    |r| r.faults.clone(),
                ),
                kernel: spec.kernel.clone().into(),
                filled: resume.map_or_else(|| vec![false; spec.tiles], |r| r.filled.clone()),
                num_qubits: lattice.num_qubits(),
                cycle_len,
                controller: resume.map_or_else(
                    || MasterController::with_decoder(spec.decoder),
                    |r| r.controller.clone(),
                ),
                network: resume.map_or_else(
                    || Network::new(spec.tiles, NETWORK_FANOUT),
                    |r| r.network.clone(),
                ),
                pool,
                batch: Vec::new(),
                corrections: Vec::new(),
                links,
                shard0_ahead: 0,
                shard_stats: resume.map_or_else(
                    || {
                        (0..spec.shards)
                            .map(|s| {
                                let range = spec.tile_range(s);
                                ShardStats {
                                    shard: s,
                                    first_tile: range.start,
                                    tiles: range.len(),
                                    ..ShardStats::default()
                                }
                            })
                            .collect()
                    },
                    |r| r.shard_stats.clone(),
                ),
                outcomes: resume.map_or_else(Vec::new, |r| r.outcomes.clone()),
                qecc_cycles: resume.map_or(0, |r| r.qecc_cycles),
                local_decodes: 0,
                phases: PhaseTimings::default(),
                snapshotting: Duration::ZERO,
                resume_op: resume.map_or(0, |r| r.op_index),
                resume_cycles: resume.map_or(0, |r| r.cycles_into_op),
                pool_stats_base: resume.map_or_else(PoolStats::default, |r| r.pool_stats),
                pool_cost_base: resume.map_or_else(CostReport::default, |r| r.pool_cost),
                trails_laid,
            };
            // On error, dropping the master closes every channel: shard
            // workers see the disconnect and exit cleanly (they never
            // unwind), and the scope joins them — a typed error, never a
            // hang or abort.
            master.execute()?;
            Ok(master.report())
        })
    }
}

/// Master-thread state for one run.
struct Master<'a, 'scope> {
    spec: &'a WorkloadSpec,
    /// Cooperative cancellation and progress hooks for this run.
    control: &'a RunControl<'a>,
    /// Where the trails the run's fresh tiles laid in the run go when it
    /// reports.
    memo: &'a Memo,
    /// Total QECC cycles the spec runs (progress denominator).
    cycles_total: u64,
    engine: DeliveryEngine,
    /// Software-baseline engine accounting quarantined tiles' cycles.
    degraded_engine: DeliveryEngine,
    /// Fault injection and recovery state (master-owned, so fault
    /// decisions are independent of sharding and thread scheduling).
    faults: FaultSession,
    /// The shared distillation kernel, shipped to shards by reference.
    kernel: Arc<[LogicalInstr]>,
    /// Per-tile "kernel block resident in the tile's cache" flags.
    filled: Vec<bool>,
    num_qubits: usize,
    cycle_len: usize,
    controller: MasterController,
    network: Network,
    pool: DecodePool,
    /// The cycle's escalations and their corrections, kept from one
    /// cycle to the next.
    batch: Vec<(usize, DecodeJob)>,
    corrections: Corrections,
    /// One link per shard: shard 0 inline, the others threaded.
    links: Vec<ShardLink<'scope>>,
    /// Cycles the inline shard 0 has run that the master has yet to
    /// consume, past the one it is consuming.
    shard0_ahead: u64,
    shard_stats: Vec<ShardStats>,
    outcomes: Vec<(usize, bool)>,
    qecc_cycles: u64,
    local_decodes: u64,
    phases: PhaseTimings,
    /// Wall-clock spent taking snapshots, which no phase counts.
    snapshotting: Duration,
    /// Resume position: index of the op (always a `Cycles` op, or 0 on a
    /// fresh run) execution starts at, and how many of its cycles the
    /// snapshot already completed.
    resume_op: usize,
    resume_cycles: u64,
    /// Decode counters inherited from the run(s) before the snapshot;
    /// the live pool only sees post-resume work, so reported
    /// totals and the fault layer's kill threshold add these baselines.
    pool_stats_base: PoolStats,
    pool_cost_base: CostReport,
    /// Trails laid before dispatch for this run's fresh tiles.
    trails_laid: u64,
}

impl Master<'_, '_> {
    /// One reliable transfer of `bytes` to or from `tile`: mints the
    /// interconnect packets, rolls the fault layer, and accounts any
    /// retransmissions on both the interconnect and the bus ledger
    /// ([`Traffic::Retransmit`](quest_core::Traffic)).
    ///
    /// With an empty fault plan this is exactly the pre-fault-layer
    /// `network.send` — a strict no-op on every counter.
    fn deliver(&mut self, tile: usize, bytes: u64, kind: PacketKind) -> Result<(), RuntimeError> {
        if bytes == 0 {
            return Ok(());
        }
        self.network.send(tile, bytes, kind);
        let delivery = self.faults.transfer(tile, bytes, kind)?;
        if delivery.retransmissions > 0 {
            self.controller
                .note_retransmission(delivery.retransmitted_bytes);
            for _ in 0..delivery.retransmissions {
                self.network.send(tile, bytes, kind);
            }
        }
        Ok(())
    }

    /// The typed error for a dead shard worker, harvesting the worker's
    /// dying `Failed` report for a precise detail when one is in flight.
    fn shard_failed(&mut self, shard: usize) -> RuntimeError {
        loop {
            match self.links[shard].recv() {
                Ok(env) => {
                    if let Payload::Failed { shard: s, detail } = env.payload {
                        return RuntimeError::ShardFailed { shard: s, detail };
                    }
                    // Drain whatever else was in flight ahead of it.
                }
                Err(_) => {
                    return RuntimeError::ShardFailed {
                        shard,
                        detail: "worker exited without a failure report".into(),
                    }
                }
            }
        }
    }

    /// Receives one upstream envelope, converting a worker death — a
    /// `Failed` report or a bare disconnect — into the typed error.
    fn recv_up(&mut self, shard: usize) -> Result<Envelope, RuntimeError> {
        match self.links[shard].recv() {
            Ok(env) => {
                self.shard_stats[shard].upstream_messages += 1;
                if let Payload::Failed { shard: s, detail } = env.payload {
                    return Err(RuntimeError::ShardFailed { shard: s, detail });
                }
                Ok(env)
            }
            Err(_) => Err(RuntimeError::ShardFailed {
                shard,
                detail: "worker exited without a failure report".into(),
            }),
        }
    }

    /// Hands one envelope to a shard's worker, counting it.
    fn send(&mut self, shard: usize, env: Envelope) -> Result<(), RuntimeError> {
        self.shard_stats[shard].downstream_messages += 1;
        self.links[shard]
            .send(env)
            .map_err(|_| self.shard_failed(shard))
    }

    /// Sends one downstream envelope, minting interconnect packets for
    /// its wire bytes against the destination tile and rolling the fault
    /// layer for the transfer.
    fn send_down(&mut self, shard: usize, tile: usize, env: Envelope) -> Result<(), RuntimeError> {
        self.deliver(tile, env.wire_bytes, env.kind)?;
        self.send(shard, env)
    }

    /// Grants the shards their cycles before the master consumes the next
    /// cycle of a `Cycles` op with `left` to go (`first`: the first it
    /// consumes of that op in this run) — the one place that decides how
    /// far a shard runs on its own. A threaded shard gets the rest of the
    /// op at once. The inline shard computes inside `send`, after the
    /// threaded ones have their grant: it gets the op's first cycle alone
    /// (a run reports its first cycle as soon as it has run), then a
    /// window of [`SHARD0_WINDOW`] cycles each time the master has
    /// consumed the last. Every correction of a window is sent before the
    /// next grant, so the shard is owed none when it comes. With a
    /// [`CheckpointSink`] attached every shard gets one cycle at a time,
    /// because a checkpoint (by cadence, or forced from another thread at
    /// any cycle) needs all shards stopped at the same barrier.
    fn grant(&mut self, left: u64, first: bool) -> Result<(), RuntimeError> {
        let lock_step = self.control.checkpoints().is_some();
        for shard in (0..self.spec.shards).rev() {
            let inline = matches!(self.links[shard], ShardLink::Inline { .. });
            let cycles = if lock_step {
                1
            } else if inline {
                if self.shard0_ahead > 0 {
                    self.shard0_ahead -= 1;
                    continue;
                }
                let window = if first { 1 } else { SHARD0_WINDOW.min(left) };
                self.shard0_ahead = window - 1;
                window
            } else if first {
                left
            } else {
                continue;
            };
            self.send(
                shard,
                Envelope::control(PacketKind::Downstream, Payload::Cycles(cycles)),
            )?;
        }
        Ok(())
    }

    /// The typed error for a cooperative cancellation observed at a
    /// checkpoint. Dropping the master afterwards closes every channel,
    /// so shards wind down exactly as on any other error.
    fn cancelled(&self) -> RuntimeError {
        RuntimeError::Cancelled {
            cycles_done: self.qecc_cycles,
        }
    }

    fn execute(&mut self) -> Result<(), RuntimeError> {
        for (op_index, op) in self.spec.ops.iter().enumerate() {
            // On a resumed run, everything before the snapshot position
            // already happened — its effects live in the restored state.
            if op_index < self.resume_op {
                continue;
            }
            // Operation-boundary checkpoint: a tripped token strands at
            // most one op (cycles have their own per-cycle checkpoint).
            if self.control.cancelled() {
                return Err(self.cancelled());
            }
            match *op {
                WorkloadOp::Prep { tile, basis } => {
                    let start = Stopwatch::start();
                    let shard = self.spec.shard_of(tile);
                    self.send_down(
                        shard,
                        tile,
                        Envelope::control(PacketKind::Downstream, Payload::Prep { tile, basis }),
                    )?;
                    self.phases.logical += start.elapsed();
                }
                WorkloadOp::Cnot { control, target } => {
                    let start = Stopwatch::start();
                    let shard = self.spec.shard_of(control);
                    // Two sync tokens coordinate the gate — the only bus
                    // cost of a transversal CNOT, exactly as in the
                    // single-threaded master.
                    self.controller.sync_remote(0);
                    self.controller.sync_remote(0);
                    self.deliver(
                        control,
                        quest_core::master::SYNC_TOKEN_BYTES,
                        PacketKind::Downstream,
                    )?;
                    self.deliver(
                        target,
                        quest_core::master::SYNC_TOKEN_BYTES,
                        PacketKind::Downstream,
                    )?;
                    self.send(
                        shard,
                        Envelope::control(
                            PacketKind::Downstream,
                            Payload::Cnot { control, target },
                        ),
                    )?;
                    self.phases.logical += start.elapsed();
                }
                WorkloadOp::Logical { tile, instr, class } => {
                    let start = Stopwatch::start();
                    let shard = self.spec.shard_of(tile);
                    // Master half: bus accounting; shard half: delivery.
                    self.engine.dispatch_remote(&mut self.controller, class);
                    self.send_down(
                        shard,
                        tile,
                        Envelope::instructions(
                            self.engine.instr_bytes(),
                            Payload::Logical { tile, instr },
                        ),
                    )?;
                    self.phases.logical += start.elapsed();
                }
                WorkloadOp::KernelReplay { tile, replays } => {
                    let start = Stopwatch::start();
                    let shard = self.spec.shard_of(tile);
                    // Master half: fill-once / per-replay accounting. The
                    // envelope's wire bytes are exactly the bytes this op
                    // put on the bus ledger.
                    let before = self.controller.bus().total();
                    let newly_filled = self.engine.kernel_remote(
                        &mut self.controller,
                        self.kernel.len(),
                        replays,
                        self.filled[tile],
                    );
                    self.filled[tile] |= newly_filled;
                    let wire_bytes = self.controller.bus().total() - before;
                    self.send_down(
                        shard,
                        tile,
                        Envelope::instructions(
                            wire_bytes,
                            Payload::Kernel {
                                tile,
                                kernel: Arc::clone(&self.kernel),
                                replays,
                            },
                        ),
                    )?;
                    self.phases.logical += start.elapsed();
                }
                WorkloadOp::Sync { tile } => {
                    let start = Stopwatch::start();
                    // A sync token has no shard-side effect; it is pure
                    // master-side bus traffic.
                    self.controller.sync_remote(0);
                    self.deliver(
                        tile,
                        quest_core::master::SYNC_TOKEN_BYTES,
                        PacketKind::Downstream,
                    )?;
                    self.phases.logical += start.elapsed();
                }
                WorkloadOp::Cycles(n) => {
                    // A snapshot mid-op resumes inside the op: the first
                    // `resume_cycles` iterations already completed.
                    let done = if op_index == self.resume_op {
                        self.resume_cycles.min(n)
                    } else {
                        0
                    };
                    // One clock for the op: the cycle phase is what of it
                    // the decode phase and the snapshots did not take.
                    let start = Stopwatch::start();
                    let before = self.phases.decode + self.snapshotting;
                    for k in done..n {
                        if self.control.cancelled() {
                            return Err(self.cancelled());
                        }
                        self.run_cycle(n - k, k == done)?;
                        self.checkpoint(op_index, k + 1)?;
                        self.control.report(self.qecc_cycles, self.cycles_total);
                    }
                    let elsewhere = self.phases.decode + self.snapshotting - before;
                    self.phases.cycles += start.elapsed().saturating_sub(elsewhere);
                }
                WorkloadOp::MeasureZ { tile } => {
                    let start = Stopwatch::start();
                    let shard = self.spec.shard_of(tile);
                    self.send_down(
                        shard,
                        tile,
                        Envelope::control(PacketKind::Downstream, Payload::MeasureZ { tile }),
                    )?;
                    // Every cycle the shard was granted has been consumed
                    // to its `CycleDone`, so the next message is the
                    // outcome.
                    let env = self.recv_up(shard)?;
                    match env.payload {
                        Payload::Outcome {
                            tile,
                            value,
                            final_events,
                        } => {
                            // Residual final-round events cross the bus
                            // upstream, like any other syndrome traffic.
                            self.deliver(tile, env.wire_bytes, env.kind)?;
                            self.controller.note_readout_syndrome(final_events);
                            self.outcomes.push((tile, value));
                        }
                        other => {
                            return Err(RuntimeError::Protocol {
                                context: "readout (awaiting outcome)",
                                payload: format!("{other:?}"),
                            })
                        }
                    }
                    self.phases.readout += start.elapsed();
                }
            }
        }
        for shard in 0..self.spec.shards {
            self.send(
                shard,
                Envelope::control(PacketKind::Downstream, Payload::Shutdown),
            )?;
        }
        // Collect each worker's sign-off: the local-decode counters only
        // the shard workers could observe.
        for shard in 0..self.spec.shards {
            let env = self.recv_up(shard)?;
            match env.payload {
                Payload::Closing {
                    shard: s,
                    local_decodes,
                } => {
                    debug_assert_eq!(s, shard);
                    self.local_decodes += local_decodes;
                }
                other => {
                    return Err(RuntimeError::Protocol {
                        context: "shutdown (awaiting sign-off)",
                        payload: format!("{other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Pool counters as the full run sees them: the pre-snapshot
    /// baseline plus whatever the live pool has done since.
    fn merged_pool_stats(&self) -> PoolStats {
        let live = self.pool.stats();
        PoolStats {
            batches: self.pool_stats_base.batches + live.batches,
            jobs: self.pool_stats_base.jobs + live.jobs,
            max_batch_jobs: self.pool_stats_base.max_batch_jobs.max(live.max_batch_jobs),
            memo_hits: self.pool_stats_base.memo_hits + live.memo_hits,
            deaths: self.pool_stats_base.deaths + live.deaths,
            respawns: self.pool_stats_base.respawns + live.respawns,
        }
    }

    /// The run's decode-cost ledger: baseline merged with the live pool
    /// (merge is order-invariant sums and maxes, so splitting a run at
    /// any cycle leaves the final ledger bit-identical).
    fn merged_pool_cost(&self) -> CostReport {
        let mut cost = self.pool_cost_base;
        cost.merge(&self.pool.cost());
        cost
    }

    /// Deposits a [`RunSnapshot`] into the attached sink when the
    /// barrier after this cycle matches its cadence (or was forced).
    ///
    /// The shard-state collection rides the regular channels as
    /// zero-byte control envelopes *after* the cycle's corrections, so
    /// FIFO order guarantees the snapshot sees settled frames; nothing
    /// here touches the network, fault or bus ledgers — checkpointing is
    /// a pure observer.
    fn checkpoint(&mut self, op_index: usize, cycles_into_op: u64) -> Result<(), RuntimeError> {
        let Some(sink) = self.control.checkpoints() else {
            return Ok(());
        };
        if !sink.wants(self.qecc_cycles) {
            return Ok(());
        }
        let start = Stopwatch::start();
        for shard in 0..self.spec.shards {
            // Sent directly (not `send`): observer traffic must not
            // perturb the downstream-message statistics either.
            self.links[shard]
                .send(Envelope::control(PacketKind::Downstream, Payload::Snapshot))
                .map_err(|_| self.shard_failed(shard))?;
        }
        let mut shards: Vec<ShardSnapshot> = Vec::with_capacity(self.spec.shards);
        for shard in 0..self.spec.shards {
            // Receive directly (not recv_up): observer traffic must not
            // perturb even the upstream-message statistics.
            let env = match self.links[shard].recv() {
                Ok(env) => env,
                Err(_) => {
                    return Err(RuntimeError::ShardFailed {
                        shard,
                        detail: "worker exited without a failure report".into(),
                    })
                }
            };
            match env.payload {
                Payload::ShardState { shard: s, state } => {
                    debug_assert_eq!(s, shard);
                    shards.push(*state);
                }
                Payload::Failed { shard: s, detail } => {
                    return Err(RuntimeError::ShardFailed { shard: s, detail })
                }
                other => {
                    return Err(RuntimeError::Protocol {
                        context: "checkpoint (awaiting shard state)",
                        payload: format!("{other:?}"),
                    })
                }
            }
        }
        sink.store(RunSnapshot {
            version: SNAPSHOT_VERSION,
            spec: self.spec.clone(),
            op_index,
            cycles_into_op,
            qecc_cycles: self.qecc_cycles,
            engine: self.engine,
            degraded_engine: self.degraded_engine,
            faults: self.faults.clone(),
            filled: self.filled.clone(),
            controller: self.controller.clone(),
            network: self.network.clone(),
            outcomes: self.outcomes.clone(),
            shard_stats: self.shard_stats.clone(),
            pool_stats: self.merged_pool_stats(),
            pool_cost: self.merged_pool_cost(),
            shards,
        });
        self.snapshotting += start.elapsed();
        Ok(())
    }

    /// One QECC cycle as the master sees it: top up the grants (see
    /// [`Master::grant`] for `left` and `first`), consume every shard's
    /// envelopes of this cycle up to its `CycleDone` — shard by shard, so
    /// the ledgers, fault rolls and the decode batch see one fixed order
    /// however far ahead the shards are — decode the batch, push the
    /// corrections back down. Only a cycle that escalates reads the
    /// clock, to time its decode.
    fn run_cycle(&mut self, left: u64, first: bool) -> Result<(), RuntimeError> {
        self.faults.begin_cycle(self.qecc_cycles);
        self.grant(left, first)?;

        let mut batch = std::mem::take(&mut self.batch);
        for shard in 0..self.spec.shards {
            loop {
                let env = self.recv_up(shard)?;
                match env.payload {
                    Payload::Syndrome {
                        tile,
                        kind,
                        escalation,
                    } => {
                        // Real message flow drives the ledgers: upstream
                        // packets on the interconnect, syndrome bytes and
                        // a global decode on the master's bus counters.
                        self.deliver(tile, env.wire_bytes, env.kind)?;
                        self.controller
                            .note_escalation(escalation.events.len() as u64);
                        self.shard_stats[shard].escalations += 1;
                        batch.push((
                            tile,
                            DecodeJob {
                                kind,
                                events: escalation.events,
                            },
                        ));
                    }
                    Payload::CycleDone { shard: s } => {
                        debug_assert_eq!(s, shard);
                        self.shard_stats[shard].cycles += 1;
                        break;
                    }
                    other => {
                        return Err(RuntimeError::Protocol {
                            context: "cycle barrier",
                            payload: format!("{other:?}"),
                        })
                    }
                }
            }
        }
        // Under the software baseline every tile's cycle crosses the
        // bus; a quarantined tile is accounted the same way — the
        // watchdog degraded it to software-managed delivery, so its
        // QECC stream is back on the bus for the quarantine window.
        for tile in 0..self.spec.tiles {
            let engine = if self.faults.tile_degraded(tile) {
                &self.degraded_engine
            } else {
                &self.engine
            };
            engine.account_cycle(&mut self.controller, self.num_qubits, self.cycle_len);
        }
        self.qecc_cycles += 1;

        if !batch.is_empty() {
            let start = Stopwatch::start();
            self.decode(&mut batch)?;
            self.phases.decode += start.elapsed();
        }
        self.batch = batch;
        Ok(())
    }

    /// Decodes one cycle's escalations and sends each correction down.
    fn decode(&mut self, batch: &mut Vec<(usize, DecodeJob)>) -> Result<(), RuntimeError> {
        // The scheduled decode-worker kill fires on the batch that
        // crosses the job threshold — a pure function of the (shard-count
        // invariant) escalation totals, so faulty runs stay reproducible.
        let kill = self.faults.take_decode_kill(
            self.pool_stats_base.jobs + self.pool.stats().jobs + batch.len() as u64,
        );
        let mut corrections = std::mem::take(&mut self.corrections);
        self.pool.decode(batch, kill, &mut corrections)?;
        // Fix a canonical (tile, kind) order so the fault layer's
        // per-lane rolls — and with them the whole faulty run — depend on
        // the batch's contents alone, not on the order shards report.
        corrections.sort_by_key(|&(tile, kind, _)| {
            (
                tile,
                match kind {
                    StabKind::Z => 0u8,
                    StabKind::X => 1u8,
                },
            )
        });
        for (tile, kind, flips) in corrections.drain(..) {
            let shard = self.spec.shard_of(tile);
            self.send_down(shard, tile, Envelope::correction(tile, kind, flips))?;
        }
        self.corrections = corrections;
        Ok(())
    }

    fn report(mut self) -> RuntimeReport {
        // Every worker has signed off; each hands back what only it saw.
        let mut laid = Vec::new();
        for (stats, link) in self.shard_stats.iter_mut().zip(self.links.drain(..)) {
            (stats.max_downstream_depth, stats.max_upstream_depth) = link.high_water();
            let harvest = link.finish();
            stats.replayed_tile_cycles = harvest.replayed;
            stats.served_readouts = harvest.served_readouts;
            laid.extend(harvest.trails);
        }
        self.memo.publish(self.spec.distance, laid);
        let escalations = self.shard_stats.iter().map(|s| s.escalations).sum();
        // The master controller's own backend never ran a decode
        // (escalations all go through the pool), so the pool's ledger —
        // merged onto any pre-resume baseline — IS the run's global
        // decode cost.
        let decode_cost = self.merged_pool_cost();
        let pool_stats = self.merged_pool_stats();
        self.faults
            .note_pool_recoveries(pool_stats.deaths, pool_stats.respawns);
        RuntimeReport {
            report: RunReport {
                delivery: self.spec.delivery,
                outcomes: self.outcomes,
                bus: *self.controller.bus(),
                qecc_cycles: self.qecc_cycles,
                local_decodes: self.local_decodes,
                escalations,
                master: self.controller.stats(),
                decode_cost,
                recovery: self.faults.stats(),
            },
            stats: RuntimeStats {
                shards: self.shard_stats,
                decode: pool_stats,
                master: self.controller.stats(),
                packets_sent: self.network.packets_sent(),
                wire_bytes: self.network.total_bytes(),
                trails_laid: self.trails_laid,
                phases: self.phases,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_memory_reads_all_zero() {
        let spec = WorkloadSpec::memory(3, 4, 2, 0.0, 11, 5);
        let report = Runtime::new().run(&spec).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.logical_ok());
        assert_eq!(report.bus_bytes(), 0, "noiseless memory moves no bus bytes");
        assert_eq!(report.qecc_cycles, 5);
        assert_eq!(report.local_decodes, 0);
        assert_eq!(report.escalations, 0);
        assert_eq!(report.stats.shards.len(), 2);
        assert!(report.stats.shards.iter().all(|s| s.cycles == 5));
    }

    #[test]
    fn bell_pairs_correlate_within_pairs() {
        let spec = WorkloadSpec::bell_pairs(3, 4, 2, 0.0, 3, 2).unwrap();
        let report = Runtime::new().run(&spec).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        for pair in 0..2 {
            let a = report.outcome(2 * pair).unwrap();
            let b = report.outcome(2 * pair + 1).unwrap();
            assert_eq!(a, b, "Bell pair {pair} decorrelated");
        }
        // Each CNOT costs exactly two 2-byte sync tokens on the bus; the
        // only other traffic is the readout itself (the |+_L⟩ tiles'
        // frozen projection syndrome ships upstream with the outcome).
        use quest_core::Traffic;
        assert_eq!(report.bus_bytes_of(Traffic::Sync), 2 * 4);
        assert_eq!(
            report.bus_bytes(),
            2 * 4 + report.bus_bytes_of(Traffic::Syndrome)
        );
    }

    #[test]
    fn cross_shard_cnot_is_a_typed_error() {
        let mut spec = WorkloadSpec::memory(3, 4, 4, 0.0, 1, 1);
        spec.ops.insert(
            1,
            WorkloadOp::Cnot {
                control: 0,
                target: 3,
            },
        );
        let err = Runtime::new().run(&spec).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Spec(SpecError::CnotCrossShard { .. })),
            "{err:?}"
        );
        assert!(err.to_string().contains("co-sharded"), "{err}");
    }

    #[test]
    fn noisy_run_reports_consistent_stats() {
        let spec = WorkloadSpec::memory(3, 6, 3, 5e-3, 23, 30);
        let report = Runtime::new().run(&spec).unwrap();
        let escalations: u64 = report.stats.shards.iter().map(|s| s.escalations).sum();
        assert_eq!(report.escalations, escalations);
        assert_eq!(report.stats.decode.jobs, escalations);
        assert_eq!(report.master.global_decodes, escalations);
        if escalations > 0 {
            assert!(report.bus_bytes() > 0);
            assert!(report.stats.packets_sent > 0);
            assert!(report.stats.escalation_rate() > 0.0);
        }
        assert!(report.stats.phases.total().as_nanos() > 0);
    }

    #[test]
    fn progress_reports_every_cycle_and_results_are_unchanged() {
        let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 10);
        let seen = std::sync::Mutex::new(Vec::new());
        let callback = |p: RunProgress| {
            if let Ok(mut v) = seen.lock() {
                v.push((p.cycles_done, p.cycles_total));
            }
        };
        let control = RunControl::new().with_progress(&callback);
        let observed = Runtime::new().run_controlled(&spec, &control).unwrap();
        let plain = Runtime::new().run(&spec).unwrap();
        assert_eq!(
            observed.report, plain.report,
            "progress observation must not perturb the run"
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (1..=10).map(|c| (c, 10)).collect::<Vec<_>>());
    }

    #[test]
    fn pre_tripped_token_cancels_before_any_cycle() {
        let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 10);
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::new().with_cancel(&token);
        let err = Runtime::new().run_controlled(&spec, &control).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled { cycles_done: 0 });
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn mid_run_cancellation_stops_at_a_cycle_checkpoint() {
        let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 50);
        let token = CancelToken::new();
        let trip = token.clone();
        // Trip the token from inside the progress callback: cycle 5's
        // report fires it, so the checkpoint before cycle 6 observes it.
        let callback = move |p: RunProgress| {
            if p.cycles_done == 5 {
                trip.cancel();
            }
        };
        let control = RunControl::new()
            .with_cancel(&token)
            .with_progress(&callback);
        let err = Runtime::new().run_controlled(&spec, &control).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled { cycles_done: 5 });
    }

    /// A progress callback slow enough that a free-running shard gets
    /// well ahead of the master (up to its channel bound).
    fn dawdle(_: RunProgress) {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }

    #[test]
    fn cancellation_joins_a_shard_that_ran_ahead() {
        // d = 3 never escalates, so nothing but the channel bound holds
        // shard 1 back; returning at all means its thread was joined.
        let spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 5000);
        let token = CancelToken::new();
        let trip = token.clone();
        let callback = move |p: RunProgress| {
            dawdle(p);
            if p.cycles_done == 5 {
                trip.cancel();
            }
        };
        let control = RunControl::new()
            .with_cancel(&token)
            .with_progress(&callback);
        let err = Runtime::new().run_controlled(&spec, &control).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled { cycles_done: 5 });
    }

    #[test]
    fn a_panic_ahead_of_the_master_surfaces_at_its_own_cycle() {
        let mut spec = WorkloadSpec::memory(3, 4, 2, 1e-3, 7, 5000);
        spec.faults.shard_panic = Some(ShardPanicPlan {
            shard: 1,
            after_cycles: 7,
        });
        let seen = std::sync::atomic::AtomicU64::new(0);
        let callback = |p: RunProgress| {
            dawdle(p);
            seen.store(p.cycles_done, std::sync::atomic::Ordering::Relaxed);
        };
        let control = RunControl::new().with_progress(&callback);
        match Runtime::new().run_controlled(&spec, &control) {
            Err(RuntimeError::ShardFailed { shard: 1, detail }) => {
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected shard 1 to fail, got {other:?}"),
        }
        // The shard died during its eighth cycle, long before the master
        // got there; the master still consumed the seven it completed.
        assert_eq!(seen.into_inner(), 7);
    }

    #[test]
    fn a_free_running_shard_is_sent_one_grant_per_cycle_op() {
        let spec = WorkloadSpec::memory(5, 8, 2, 2e-2, 31, 600);
        let free = Runtime::new().run(&spec).unwrap();
        let sink = CheckpointSink::every(0);
        let control = RunControl::new().with_checkpoints(&sink);
        let lock_step = Runtime::new().run_controlled(&spec, &control).unwrap();
        assert_eq!(free.report, lock_step.report);
        // Preps, grants, one correction per escalation, readouts, the
        // shutdown. The master drives shard 0 itself, one cycle and then
        // a window at a time; shard 1 runs on one grant unless a sink may
        // want a checkpoint.
        let sent = |report: &RuntimeReport, shard: usize, grants: u64| {
            let s = &report.stats.shards[shard];
            assert!(s.escalations > 0, "corrections must flow");
            assert_eq!(
                s.downstream_messages,
                s.tiles as u64 + grants + s.escalations + s.tiles as u64 + 1,
                "shard {shard}"
            );
        };
        sent(&free, 0, 1 + (600 - 1u64).div_ceil(SHARD0_WINDOW));
        sent(&free, 1, 1);
        sent(&lock_step, 0, 600);
        sent(&lock_step, 1, 600);
    }

    #[test]
    fn snapshot_version_mismatch_is_a_typed_error() {
        let spec = WorkloadSpec::memory(3, 2, 1, 1e-3, 5, 4);
        let sink = CheckpointSink::every(1);
        let control = RunControl::new().with_checkpoints(&sink);
        Runtime::new().run_controlled(&spec, &control).unwrap();
        let mut snap = sink.take().unwrap();
        // A later format, and the one before the substrate was split
        // into per-group tableaus.
        for version in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1] {
            snap.version = version;
            let err = Runtime::new()
                .resume(&snap, &RunControl::new())
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::Protocol {
                        context: "snapshot resume",
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(err.to_string().contains("snapshot"), "{err}");
        }
        snap.version = SNAPSHOT_VERSION;
        assert!(Runtime::new().resume(&snap, &RunControl::new()).is_ok());
    }

    #[test]
    fn invalid_runtime_knobs_are_clamped() {
        // The shim ignores its argument, whatever it is.
        let spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        let plain = Runtime::new().run(&spec).unwrap();
        for workers in [0, 1, 2, usize::MAX] {
            let report = Runtime::new()
                .with_decode_workers(workers)
                .run(&spec)
                .unwrap();
            assert_eq!(report.report, plain.report, "workers={workers}");
        }
    }
}
