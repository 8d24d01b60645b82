//! Deterministic checkpoint/resume: run snapshots and the sink that
//! collects them.
//!
//! At the end of a QECC cycle the runtime sits at a natural barrier:
//! every shard has flushed its syndromes, the decode pool has returned
//! the cycle's corrections, and the master has delivered them. A
//! [`RunSnapshot`] taken there captures *everything* a bit-identical
//! resume needs — the master's accounting (bus ledger, interconnect,
//! fault-lane counters), each shard's MCE tile state, substrate blocks
//! (reference tableau and Pauli frame; the tapes a block replays its
//! cycles from are caches, and a resumed block records them again) and
//! per-tile RNG streams, and the decode pool's cost ledger
//! folded down to a baseline. [`Runtime::resume`](crate::Runtime::resume)
//! rebuilds the whole machine from one and continues as if the
//! interruption never happened: the resumed run's
//! [`RunReport`](quest_core::RunReport) is bit-identical to the
//! uninterrupted run's, fault injection included.
//!
//! Snapshots are in-memory values, never serialized: they are the unit
//! of crash-safety *within* a process (a serve worker retrying a job),
//! not a persistence format. `SNAPSHOT_VERSION` still guards the
//! boundary so a snapshot can never silently resume on a runtime whose
//! cycle protocol changed underneath it.
//!
//! Everything here is deterministic plain state — no clocks, no hashed
//! containers (QL02): a snapshot of a run is as reproducible as the run
//! itself.

use crate::pool::PoolStats;
use crate::spec::WorkloadSpec;
use crate::stats::ShardStats;
use quest_core::network::Network;
use quest_core::{CostReport, DeliveryEngine, FaultSession, MasterController, Mce, Substrate};
use quest_stabilizer::StdRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Version tag stamped into every snapshot. Bump when the cycle
/// protocol or any captured field changes meaning; `resume` rejects a
/// mismatched snapshot with a typed error instead of producing a
/// silently-divergent run.
///
/// Version 2: a shard's substrate is one tableau per entangled group of
/// its tiles (and each MCE's substrate offset is relative to its group's
/// tableau), no longer one tableau spanning the shard.
///
/// Version 3: a block of the substrate is a reference tableau under a
/// Pauli frame; its tapes are caches and are not captured.
pub const SNAPSHOT_VERSION: u32 = 3;

/// One shard worker's owned state at a cycle barrier: its MCEs (local
/// decoders, microcode counters, caches), the substrate under its tiles
/// (which tiles have been joined included), and the per-tile RNG streams
/// with their word positions.
#[derive(Debug, Clone)]
pub(crate) struct ShardSnapshot {
    pub(crate) mces: Vec<Mce>,
    pub(crate) substrate: Substrate,
    pub(crate) rngs: Vec<StdRng>,
    pub(crate) cycles_done: u64,
}

/// A complete, resumable image of a run at a QECC-cycle barrier.
///
/// Opaque by design: consumers inspect position via accessors and hand
/// the value back to [`Runtime::resume`](crate::Runtime::resume). The
/// only mutations offered are the `disarm_*` methods a retry supervisor
/// uses to strip the one-shot fault that killed the previous attempt.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    pub(crate) version: u32,
    /// The workload, owned — a snapshot outlives the borrowed spec of
    /// the run that produced it.
    pub(crate) spec: WorkloadSpec,
    /// Resume position: the op being executed and how many of its
    /// cycles already completed (non-`Cycles` ops never checkpoint, so
    /// the position always points into a `Cycles` op or one past it).
    pub(crate) op_index: usize,
    pub(crate) cycles_into_op: u64,
    pub(crate) qecc_cycles: u64,
    pub(crate) engine: DeliveryEngine,
    pub(crate) degraded_engine: DeliveryEngine,
    /// Fault layer mid-run: per-lane attempt counters, quarantines,
    /// recovery stats, and the armed state of one-shot drills.
    pub(crate) faults: FaultSession,
    pub(crate) filled: Vec<bool>,
    pub(crate) controller: MasterController,
    pub(crate) network: Network,
    pub(crate) outcomes: Vec<(usize, bool)>,
    pub(crate) shard_stats: Vec<ShardStats>,
    /// Decode-pool counters accumulated up to the barrier (the live
    /// pool dies with the run; a resumed run builds a fresh pool and
    /// merges onto this baseline).
    pub(crate) pool_stats: PoolStats,
    pub(crate) pool_cost: CostReport,
    pub(crate) shards: Vec<ShardSnapshot>,
}

impl RunSnapshot {
    /// The snapshot format version this value was taken with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// QECC cycles completed when the snapshot was taken — the cycles a
    /// resume inherits instead of re-executing.
    pub fn cycles_done(&self) -> u64 {
        self.qecc_cycles
    }

    /// The workload this snapshot belongs to (faults included, as
    /// currently armed).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Strips the scheduled shard-thread panic so a resumed attempt
    /// does not die the same death. Pre-panic cycles are unaffected by
    /// an armed-but-unfired plan, so resuming a disarmed snapshot is
    /// bit-identical to a clean run of the disarmed spec.
    pub fn disarm_shard_panic(&mut self) {
        self.spec.faults.shard_panic = None;
    }

    /// Strips the scheduled decode-worker kill (both the plan and the
    /// session's armed state) so a resumed attempt cannot re-fire it.
    pub fn disarm_decode_kill(&mut self) {
        self.spec.faults.kill_decode_worker_after_jobs = None;
        self.faults.disarm_decode_kill();
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    slot: Mutex<Option<RunSnapshot>>,
    forced: AtomicBool,
}

/// Receives checkpoints from a controlled run.
///
/// Attach one with
/// [`RunControl::with_checkpoints`](crate::RunControl::with_checkpoints):
/// at every QECC-cycle barrier matching the cadence (or after
/// [`force`](CheckpointSink::force)), the master deposits a fresh
/// [`RunSnapshot`] into the sink's single slot, replacing the previous
/// one. Clones share the slot, so a supervisor on another thread can
/// [`take`](CheckpointSink::take) the latest snapshot after the run
/// died.
///
/// The sink is an observer: a run that completes produces a
/// bit-identical report whether or not one is attached.
#[derive(Debug, Clone)]
pub struct CheckpointSink {
    inner: Arc<SinkInner>,
    /// Checkpoint cadence in QECC cycles; 0 = only forced checkpoints.
    cadence: u64,
}

impl Default for CheckpointSink {
    /// A sink that checkpoints every cycle.
    fn default() -> CheckpointSink {
        CheckpointSink::every(1)
    }
}

impl CheckpointSink {
    /// A sink that checkpoints every `cadence` QECC cycles. A cadence
    /// of 0 disables periodic checkpoints — only
    /// [`force`](CheckpointSink::force) triggers one.
    pub fn every(cadence: u64) -> CheckpointSink {
        CheckpointSink {
            inner: Arc::new(SinkInner::default()),
            cadence,
        }
    }

    /// Requests one checkpoint at the next cycle barrier, regardless of
    /// cadence. Callable from any thread holding a clone.
    pub fn force(&self) {
        self.inner.forced.store(true, Ordering::Release);
    }

    /// Removes and returns the latest snapshot, if any was deposited.
    pub fn take(&self) -> Option<RunSnapshot> {
        self.slot().take()
    }

    /// Clones out the latest snapshot without consuming it.
    pub fn latest(&self) -> Option<RunSnapshot> {
        self.slot().clone()
    }

    /// Whether the barrier after `cycle` completed cycles should
    /// checkpoint. Consumes a pending force request.
    pub(crate) fn wants(&self, cycle: u64) -> bool {
        let forced = self.inner.forced.swap(false, Ordering::AcqRel);
        forced || (self.cadence > 0 && cycle.is_multiple_of(self.cadence))
    }

    /// Deposits a snapshot, replacing any previous one.
    pub(crate) fn store(&self, snapshot: RunSnapshot) {
        *self.slot() = Some(snapshot);
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, Option<RunSnapshot>> {
        // A panic while holding this lock leaves plain data behind;
        // recovering the guard is always safe.
        self.inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_and_force_drive_wants() {
        let sink = CheckpointSink::every(5);
        assert!(sink.wants(5));
        assert!(sink.wants(10));
        assert!(!sink.wants(7));
        sink.force();
        assert!(sink.wants(7), "force overrides cadence");
        assert!(!sink.wants(7), "force is one-shot");
    }

    #[test]
    fn zero_cadence_means_forced_only() {
        let sink = CheckpointSink::every(0);
        assert!(!sink.wants(0));
        assert!(!sink.wants(1));
        sink.force();
        assert!(sink.wants(1));
    }

    #[test]
    fn clones_share_the_slot() {
        let sink = CheckpointSink::default();
        let observer = sink.clone();
        assert!(observer.take().is_none());
        observer.force();
        assert!(sink.wants(3), "force travels through the clone");
    }
}
