//! Shared tile-level operations.
//!
//! [`MultiTileSystem`](crate::MultiTileSystem) (the reference MCE array)
//! and the `quest-runtime` shard workers both drive tiles through the
//! same sequence — noise layer, microcode QECC cycle, escalation service,
//! transversal logical gates, destructive readout — over the same
//! [`Substrate`]. This module is that single code path, so the
//! concurrent runtime and the single-threaded reference system cannot
//! drift apart. The per-tile helpers take the register holding the tile
//! — the [`Substrate::block_mut`] of the two executors, or any other
//! [`StabilizerSim`], which is how a test drives the same path on a bare
//! [`Tableau`](quest_stabilizer::Tableau). Only the transversal CNOT,
//! which may have to join two blocks, takes the substrate.
//!
//! Every helper that consumes randomness takes the caller's `&mut R` and
//! draws in a fixed order (noise sweep over data qubits, then the
//! microcode cycle's measurements). Combined with [`tile_seed`], which
//! derives one independent stream per tile from a master seed, a
//! simulation's outcome depends only on the master seed and the per-tile
//! operation sequence — not on how tiles are grouped onto threads.

use crate::error::CnotError;
use crate::master::MasterController;
use crate::mce::Mce;
use crate::substrate::Substrate;
use quest_isa::{LogicalInstr, LogicalQubit};
use quest_stabilizer::{NoiseChannel, Pauli, PauliChannel, StabilizerSim};
use quest_surface::StabKind;
use rand::Rng;

/// Logical basis for tile preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalBasis {
    /// `|0_L⟩` (all data qubits `|0⟩`).
    Zero,
    /// `|+_L⟩` (all data qubits `|+⟩`).
    Plus,
}

/// Derives the RNG seed of tile `tile` from a run's master seed.
///
/// The derivation is a SplitMix64-style avalanche of the pair, giving
/// each tile a statistically independent stream. Because the seed
/// depends only on `(master_seed, tile)`, outcomes are invariant under
/// any assignment of tiles to shards or threads.
pub fn tile_seed(master_seed: u64, tile: u64) -> u64 {
    let mut z = master_seed ^ tile.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Applies one round of data-qubit noise to an MCE's tile: one channel
/// sample per data qubit, in tile-local qubit order (one draw each, an
/// integer comparison or three: [`PauliChannel`]'s `sample`). Only an
/// error reaches the substrate: at the paper's rates nearly every sample
/// is `I`, which would change nothing.
pub fn noise_layer<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
    mce: &Mce,
    noise: &PauliChannel,
    substrate: &mut S,
    rng: &mut R,
) {
    for q in 0..mce.lattice().num_data() {
        let e = noise.sample(rng);
        if e != Pauli::I {
            substrate.pauli(mce.substrate_index(q), e);
        }
    }
}

/// Prepares a tile's logical qubit (bootstrap: direct transverse reset of
/// the data qubits, then QECC projection on the next cycle).
pub fn prep_logical<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
    mce: &mut Mce,
    basis: LogicalBasis,
    substrate: &mut S,
    rng: &mut R,
) {
    let off = mce.substrate_index(0);
    for q in 0..mce.lattice().num_data() {
        substrate.reset(off + q, rng);
        if basis == LogicalBasis::Plus {
            substrate.h(off + q);
        }
    }
    mce.notify_prepared(match basis {
        LogicalBasis::Zero => StabKind::Z,
        LogicalBasis::Plus => StabKind::X,
    });
}

/// Runs one full microcode QECC cycle on a tile and services any
/// escalations through the master controller (the single-threaded
/// escalation path; the runtime ships escalations over channels instead
/// and resolves them in its decode pool).
pub fn qecc_cycle_serviced<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
    mce: &mut Mce,
    master: &mut MasterController,
    substrate: &mut S,
    rng: &mut R,
) {
    mce.run_qecc_cycle(substrate, rng);
    master.service_escalations(mce);
}

/// The physics and frame bookkeeping of a transversal logical CNOT
/// between two same-distance tiles: physical CNOTs between corresponding
/// data qubits, syndrome-reference propagation, error-decoder Pauli-frame
/// propagation, and logical-frame propagation.
///
/// Tiles that have never interacted live in separate blocks; the gate
/// first joins the two tiles' blocks for good ([`Substrate::join`]).
///
/// Master-controller coordination (the two sync tokens) is *not* included
/// — callers account it on their own bus path. Consumes no randomness.
///
/// # Errors
///
/// [`CnotError`] if the tile indices coincide or are out of range, or if
/// either tile has not yet run a QECC cycle (no syndrome reference
/// exists). Every precondition is checked before the substrate or any
/// frame is touched, so a rejected CNOT leaves the system unchanged,
/// its blocks un-joined.
pub fn transversal_cnot_physics(
    mces: &mut [Mce],
    substrate: &mut Substrate,
    control: usize,
    target: usize,
) -> Result<(), CnotError> {
    let tiles = mces.len();
    for tile in [control, target] {
        if tile >= tiles {
            return Err(CnotError::TileOutOfRange { tile, tiles });
        }
    }
    if control == target {
        return Err(CnotError::SameTile { tile: control });
    }
    let ref_width = |tile: usize, kind: StabKind| {
        mces[tile]
            .decoder(kind)
            .reference_bits()
            .map(|bits| bits.len())
            .ok_or(CnotError::ReferenceNotSettled { tile })
    };
    for kind in [StabKind::Z, StabKind::X] {
        let expected = ref_width(target, kind)?;
        let got = ref_width(control, kind)?;
        if expected != got {
            return Err(CnotError::ReferenceWidthMismatch { expected, got });
        }
    }

    let block = substrate.join(mces, control, target)?;
    let c_off = mces[control].substrate_index(0);
    let t_off = mces[target].substrate_index(0);
    for q in 0..mces[control].lattice().num_data() {
        block.cnot(c_off + q, t_off + q);
    }

    // Propagate the syndrome references: the CNOT conjugates the
    // target's Z checks into (control Z check) x (target Z check) and
    // the control's X checks into the product of both X checks, so the
    // expected syndromes shift by the partner's current values. The
    // preconditions above guarantee these updates cannot fail.
    let settled = |tile: usize| CnotError::ReferenceNotSettled { tile };
    let c_z_ref = mces[control]
        .decoder(StabKind::Z)
        .reference_bits()
        .ok_or(settled(control))?;
    mces[target]
        .decoder_mut(StabKind::Z)
        .xor_reference(&c_z_ref)
        .map_err(|_| settled(target))?;
    let t_x_ref = mces[target]
        .decoder(StabKind::X)
        .reference_bits()
        .ok_or(settled(target))?;
    mces[control]
        .decoder_mut(StabKind::X)
        .xor_reference(&t_x_ref)
        .map_err(|_| settled(control))?;

    // Propagate the error-decoder Pauli frames: CNOT maps X_c -> X_c X_t
    // and Z_t -> Z_c Z_t. The Z-decoder frame holds pending X
    // corrections; the X-decoder frame holds pending Z corrections.
    // Distinct and in range, as checked above.
    let [c, t] = mces
        .get_disjoint_mut([control, target])
        .map_err(|_| CnotError::SameTile { tile: control })?;
    t.decoder_mut(StabKind::Z)
        .xor_frame(c.decoder(StabKind::Z).frame_words());
    c.decoder_mut(StabKind::X)
        .xor_frame(t.decoder(StabKind::X).frame_words());

    // Propagate logical frames the same way.
    let (cx, _cz) = mces[control].logical_frame();
    let (_tx, tz) = mces[target].logical_frame();
    if cx {
        mces[target].execute_logical(LogicalInstr::X(LogicalQubit(0)));
    }
    if tz {
        mces[control].execute_logical(LogicalInstr::Z(LogicalQubit(0)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_seeds_are_distinct_and_stable() {
        let a = tile_seed(42, 0);
        let b = tile_seed(42, 1);
        let c = tile_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, tile_seed(42, 0), "derivation must be pure");
    }

    #[test]
    fn tile_seed_spreads_low_entropy_inputs() {
        // Consecutive master seeds and tiles must not produce clustered
        // seeds (the point of the avalanche mix).
        let mut seen = std::collections::BTreeSet::new();
        for master in 0..16u64 {
            for tile in 0..16u64 {
                seen.insert(tile_seed(master, tile));
            }
        }
        assert_eq!(seen.len(), 256, "collision in 256 derived seeds");
    }
}
