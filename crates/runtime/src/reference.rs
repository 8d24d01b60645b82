//! Single-threaded reference execution of a [`WorkloadSpec`].
//!
//! Runs the same workload on
//! [`quest_core::MultiTileSystem`] — the same
//! [`quest_core::Substrate`] the shard workers hold, here under every
//! tile at once, escalations serviced inline by the master
//! controller, instruction delivery through the shared
//! [`quest_core::DeliveryEngine`] — using the same
//! per-tile RNG streams as the concurrent runtime. The determinism tests
//! and the scaling benchmark compare
//! [`Runtime::run`](crate::Runtime::run) against this.

use crate::error::RuntimeError;
use crate::spec::{WorkloadOp, WorkloadSpec};
use quest_core::fault::RecoveryStats;
use quest_core::tile::tile_seed;
use quest_core::{decode_totals, MultiTileSystem, RunReport};
use quest_stabilizer::{SeedableRng, StdRng};

/// Executes the spec single-threaded, producing the same unified
/// [`RunReport`] as the concurrent runtime — bit-identical for any shard
/// count.
///
/// # Errors
///
/// Returns [`RuntimeError`] if the spec fails [`WorkloadSpec::validate`]
/// (the shard count is irrelevant here but is still checked, so a spec
/// accepted by the runtime and the reference is the same set) or system
/// construction rejects its parameters, and
/// [`RuntimeError::ReferenceFaults`] when the spec carries a non-empty
/// fault plan — only the concurrent runtime injects and recovers from
/// classical faults.
pub fn run_reference(spec: &WorkloadSpec) -> Result<RunReport, RuntimeError> {
    spec.validate()?;
    if !spec.faults.is_none() {
        return Err(RuntimeError::ReferenceFaults);
    }
    let mut sys = MultiTileSystem::with_delivery_decoder(
        spec.distance,
        spec.tiles,
        spec.error_rate,
        spec.delivery,
        spec.decoder,
    )?;
    let mut rngs: Vec<StdRng> = (0..spec.tiles)
        .map(|t| StdRng::seed_from_u64(tile_seed(spec.seed, t as u64)))
        .collect();
    let mut outcomes = Vec::new();
    let mut qecc_cycles = 0;
    for op in &spec.ops {
        match *op {
            WorkloadOp::Prep { tile, basis } => {
                sys.prep_logical(tile, basis, &mut rngs[tile]);
            }
            WorkloadOp::Cycles(n) => {
                for _ in 0..n {
                    sys.run_noisy_cycle_streams(&mut rngs);
                }
                qecc_cycles += n;
            }
            WorkloadOp::Cnot { control, target } => {
                // The transversal CNOT consumes no randomness; any
                // stream works.
                sys.transversal_cnot(control, target, &mut rngs[control])?;
            }
            WorkloadOp::Logical { tile, instr, class } => {
                sys.dispatch_logical(tile, instr, class);
            }
            WorkloadOp::KernelReplay { tile, replays } => {
                sys.run_kernel(tile, &spec.kernel, replays);
            }
            WorkloadOp::Sync { tile } => {
                sys.sync_tile(tile);
            }
            WorkloadOp::MeasureZ { tile } => {
                let value = sys.measure_logical_z(tile, &mut rngs[tile]);
                outcomes.push((tile, value));
            }
        }
    }
    let (local_decodes, escalations) = decode_totals(sys.mces());
    Ok(RunReport {
        delivery: spec.delivery,
        outcomes,
        bus: *sys.master().bus(),
        qecc_cycles,
        local_decodes,
        escalations,
        master: sys.master().stats(),
        decode_cost: sys.master().decoder_cost(),
        recovery: RecoveryStats::default(),
    })
}
