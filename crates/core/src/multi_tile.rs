//! Multi-tile QuEST system: an array of MCEs over one [`Substrate`].
//!
//! §4.2 organizes the control processor as an array of MCEs, each owning
//! a tiled subsection of the substrate, with the master controller
//! orchestrating logical operations across tiles. The paper does not
//! evaluate cross-MCE logical instructions (footnote 9); this module
//! implements them as an *extension*: a transversal logical CNOT between
//! two same-distance tiles (physically exact for CSS codes — the rotated
//! surface code's logical CNOT is transversal qubit-by-qubit), with the
//! master coordinating via sync tokens and the MCEs' Pauli frames
//! propagating through the gate as they must (`X` frames copy
//! control→target, `Z` frames copy target→control).
//!
//! Instruction delivery and bus accounting go through the shared
//! [`DeliveryEngine`], so a multi-tile system can
//! be driven in any [`DeliveryMode`] — per-tile logical dispatch, cached
//! distillation-kernel replay, and (in the software baseline) per-cycle
//! QECC instruction traffic for every tile.

use crate::delivery::{DeliveryEngine, DeliveryMode};
use crate::error::{check_distance, check_probability, BuildError, CnotError};
use crate::master::MasterController;
use crate::mce::{Mce, MCE_IBUF_BYTES};
use crate::substrate::Substrate;
use crate::tile;
use quest_isa::{InstrClass, LogicalInstr};
use quest_stabilizer::PauliChannel;
use quest_surface::{DecoderChoice, RotatedLattice};
use rand::Rng;

pub use crate::tile::LogicalBasis;

/// An array of MCE-driven tiles over one simulated substrate (one block
/// per entangled group of tiles, see [`Substrate`]).
///
/// # Example
///
/// ```
/// use quest_core::multi_tile::{LogicalBasis, MultiTileSystem};
/// use quest_stabilizer::{SeedableRng, StdRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let mut sys = MultiTileSystem::new(3, 2, 0.0)?;
/// sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
/// sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
/// sys.run_noisy_cycle(&mut rng);
/// sys.transversal_cnot(0, 1, &mut rng)?;
/// assert!(!sys.measure_logical_z(0, &mut rng));
/// assert!(!sys.measure_logical_z(1, &mut rng));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiTileSystem {
    lattice: RotatedLattice,
    mces: Vec<Mce>,
    master: MasterController,
    substrate: Substrate,
    noise: PauliChannel,
    engine: DeliveryEngine,
}

impl MultiTileSystem {
    /// Builds `tiles` distance-`d` tiles with per-round depolarizing data
    /// noise of total probability `p`, delivering instructions in
    /// [`DeliveryMode::QuestMce`] (hardware-managed QECC, uncached
    /// logical instructions).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `tiles` is zero, `d` is not an odd
    /// number ≥ 3, or `p` is outside `[0, 1]`.
    pub fn new(d: usize, tiles: usize, p: f64) -> Result<MultiTileSystem, BuildError> {
        MultiTileSystem::with_delivery(d, tiles, p, DeliveryMode::QuestMce)
    }

    /// Like [`MultiTileSystem::new`] with an explicit delivery mode.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on the same invalid parameters as
    /// [`MultiTileSystem::new`].
    pub fn with_delivery(
        d: usize,
        tiles: usize,
        p: f64,
        mode: DeliveryMode,
    ) -> Result<MultiTileSystem, BuildError> {
        MultiTileSystem::with_delivery_decoder(d, tiles, p, mode, DecoderChoice::default())
    }

    /// Like [`MultiTileSystem::with_delivery`] with an explicit global
    /// decoder backend for the master controller.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on the same invalid parameters as
    /// [`MultiTileSystem::new`].
    pub fn with_delivery_decoder(
        d: usize,
        tiles: usize,
        p: f64,
        mode: DeliveryMode,
        decoder: DecoderChoice,
    ) -> Result<MultiTileSystem, BuildError> {
        check_distance(d)?;
        check_probability("error rate", p)?;
        if tiles == 0 {
            return Err(BuildError::NoTiles);
        }
        let lattice = RotatedLattice::new(d);
        Ok(MultiTileSystem {
            substrate: Substrate::new(tiles, lattice.num_qubits()),
            mces: vec![Mce::new(&lattice, MCE_IBUF_BYTES); tiles],
            lattice,
            master: MasterController::with_decoder(decoder),
            noise: PauliChannel::depolarizing(p),
            engine: DeliveryEngine::new(mode),
        })
    }

    /// The delivery mode this system accounts under.
    pub fn delivery(&self) -> DeliveryMode {
        self.engine.mode()
    }

    /// The shared tile lattice.
    pub fn lattice(&self) -> &RotatedLattice {
        &self.lattice
    }

    /// The MCE of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mce(&self, i: usize) -> &Mce {
        &self.mces[i]
    }

    /// The MCEs of all tiles, in tile order.
    pub fn mces(&self) -> &[Mce] {
        &self.mces
    }

    /// The master controller (bus counters live here).
    pub fn master(&self) -> &MasterController {
        &self.master
    }

    /// QECC cycles of tile `i` served from its block's tape
    /// ([`Substrate::replayed_cycles`]).
    pub fn replayed_cycles(&self, i: usize) -> u64 {
        self.substrate.replayed_cycles(i)
    }

    /// Prepares tile `i`'s logical qubit (bootstrap: direct transverse
    /// reset of the data qubits, then QECC projection on the next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn prep_logical<R: Rng + ?Sized>(&mut self, i: usize, basis: LogicalBasis, rng: &mut R) {
        tile::prep_logical(&mut self.mces[i], basis, self.substrate.block_mut(i), rng);
    }

    /// Delivers one logical instruction to tile `i` through the engine
    /// (bus-accounted under this system's delivery mode).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dispatch_logical(&mut self, i: usize, instr: LogicalInstr, class: InstrClass) {
        self.engine
            .dispatch(&mut self.master, &mut self.mces[i], instr, class);
    }

    /// Runs a distillation kernel `replays` times on tile `i` through the
    /// engine: per-replay dispatch in the uncached modes, fill-once +
    /// replay commands under [`DeliveryMode::QuestMceCache`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn run_kernel(&mut self, i: usize, kernel: &[LogicalInstr], replays: u64) {
        self.engine
            .kernel(&mut self.master, &mut self.mces[i], kernel, replays);
    }

    /// Issues a master→MCE sync token to tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sync_tile(&mut self, i: usize) {
        assert!(i < self.mces.len(), "tile {i} out of range");
        self.master.sync_remote(0);
    }

    /// Runs one noisy QECC cycle on every tile and services escalations.
    /// Under [`DeliveryMode::SoftwareBaseline`] the cycle's physical
    /// instruction stream is bus-accounted for every tile.
    pub fn run_noisy_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for (i, mce) in self.mces.iter().enumerate() {
            tile::noise_layer(mce, &self.noise, self.substrate.block_mut(i), rng);
        }
        for (i, mce) in self.mces.iter_mut().enumerate() {
            tile::qecc_cycle_serviced(mce, &mut self.master, self.substrate.block_mut(i), rng);
        }
        self.account_cycle_all_tiles();
    }

    /// Like [`MultiTileSystem::run_noisy_cycle`], but with one independent
    /// RNG stream per tile (`rngs[i]` drives tile `i`'s noise layer and
    /// QECC cycle). This is the reference semantics for the concurrent
    /// runtime: because each tile consumes only its own stream, the
    /// outcome is invariant under any grouping of tiles onto threads.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len()` differs from the tile count.
    pub fn run_noisy_cycle_streams<R: Rng>(&mut self, rngs: &mut [R]) {
        assert_eq!(rngs.len(), self.mces.len(), "one RNG stream per tile");
        for (i, (mce, rng)) in self.mces.iter().zip(rngs.iter_mut()).enumerate() {
            tile::noise_layer(mce, &self.noise, self.substrate.block_mut(i), rng);
        }
        for (i, (mce, rng)) in self.mces.iter_mut().zip(rngs.iter_mut()).enumerate() {
            tile::qecc_cycle_serviced(mce, &mut self.master, self.substrate.block_mut(i), rng);
        }
        self.account_cycle_all_tiles();
    }

    fn account_cycle_all_tiles(&mut self) {
        let cycle_len = self.mces[0].microcode().cycle_len();
        for _ in 0..self.mces.len() {
            self.engine
                .account_cycle(&mut self.master, self.lattice.num_qubits(), cycle_len);
        }
    }

    /// Transversal logical CNOT from tile `control` to tile `target`:
    /// a physical CNOT between every pair of corresponding data qubits.
    /// Pauli frames propagate through the gate (pending X corrections on
    /// the control copy onto the target; pending Z corrections on the
    /// target copy onto the control), and the master issues a sync token
    /// to both MCEs.
    ///
    /// # Errors
    ///
    /// [`CnotError`] if the tile indices coincide or are out of range, or
    /// if either tile has not yet run a QECC cycle. A rejected CNOT
    /// leaves the system (including bus accounting) unchanged.
    pub fn transversal_cnot<R: Rng + ?Sized>(
        &mut self,
        control: usize,
        target: usize,
        _rng: &mut R,
    ) -> Result<(), CnotError> {
        tile::transversal_cnot_physics(&mut self.mces, &mut self.substrate, control, target)?;

        // Master-controller coordination: one sync token per involved MCE.
        self.master.sync_remote(0);
        self.master.sync_remote(0);
        Ok(())
    }

    /// Applies a logical X to tile `i` through its MCE's instruction path.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn logical_x(&mut self, i: usize) {
        self.mces[i].execute_logical(quest_isa::LogicalInstr::X(quest_isa::LogicalQubit(0)));
    }

    /// Reads out tile `i`'s logical qubit in the Z basis (destructive).
    /// The final decoding round's residual detection events cross the bus
    /// upstream and are accounted as syndrome traffic.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn measure_logical_z<R: Rng + ?Sized>(&mut self, i: usize, rng: &mut R) -> bool {
        let readout = self.mces[i].measure_logical_z_details(self.substrate.block_mut(i), rng);
        self.master.note_readout_syndrome(readout.final_events);
        readout.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Traffic;
    use quest_stabilizer::{SeedableRng, StabilizerSim, StdRng};
    use quest_surface::StabKind;

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert_eq!(
            MultiTileSystem::new(3, 0, 0.0).unwrap_err(),
            BuildError::NoTiles
        );
        assert_eq!(
            MultiTileSystem::new(6, 2, 0.0).unwrap_err(),
            BuildError::InvalidDistance(6)
        );
        assert!(matches!(
            MultiTileSystem::new(3, 2, f64::NAN).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(MultiTileSystem::new(3, 2, 0.5).is_ok());
    }

    #[test]
    fn zero_zero_cnot_stays_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        sys.transversal_cnot(0, 1, &mut rng).unwrap();
        sys.run_noisy_cycle(&mut rng);
        assert!(!sys.measure_logical_z(0, &mut rng));
        assert!(!sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn physical_logical_one_propagates() {
        // Flip the control's logical value *physically* (X along the
        // logical-X column); the CNOT must flip the target.
        let mut rng = StdRng::seed_from_u64(2);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        // Physical logical X on tile 0.
        let lat = sys.lattice().clone();
        let off = sys.mce(0).substrate_index(0);
        for row in 0..lat.distance() {
            sys.substrate.block_mut(0).x(off + lat.data_index(row, 0));
        }
        sys.transversal_cnot(0, 1, &mut rng).unwrap();
        sys.run_noisy_cycle(&mut rng);
        assert!(sys.measure_logical_z(0, &mut rng));
        assert!(sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn frame_only_logical_one_propagates() {
        // Flip the control's logical value in the *Pauli frame* only; the
        // frame must ride through the CNOT.
        let mut rng = StdRng::seed_from_u64(3);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        sys.logical_x(0);
        sys.transversal_cnot(0, 1, &mut rng).unwrap();
        assert!(sys.measure_logical_z(0, &mut rng));
        assert!(sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn logical_bell_pair_is_correlated() {
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1, &mut rng).unwrap();
            sys.run_noisy_cycle(&mut rng);
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            assert_eq!(a, b, "seed {seed}: Bell pair decorrelated");
        }
    }

    #[test]
    fn bell_pair_survives_noise_and_error_correction() {
        let mut mismatches = 0;
        let shots = 20;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut sys = MultiTileSystem::new(3, 2, 1e-3).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1, &mut rng).unwrap();
            for _ in 0..5 {
                sys.run_noisy_cycle(&mut rng);
            }
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            mismatches += (a != b) as u32;
        }
        assert!(
            mismatches <= 2,
            "{mismatches}/{shots} Bell mismatches at p=1e-3"
        );
    }

    #[test]
    fn tiles_error_correct_independently() {
        // An error injected in one tile must not produce decoder activity
        // in the other.
        let mut rng = StdRng::seed_from_u64(5);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        let victim = sys.mce(0).substrate_index(sys.lattice().data_index(1, 1));
        sys.substrate.block_mut(0).x(victim);
        sys.run_noisy_cycle(&mut rng);
        let s0 = sys.mce(0).decode_stats(StabKind::Z);
        let s1 = sys.mce(1).decode_stats(StabKind::Z);
        assert_eq!(s0.local_hits, 1);
        assert_eq!(s1.local_hits + s1.escalations, 0);
    }

    #[test]
    fn cnot_costs_only_sync_tokens() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        let before = sys.master().bus().total();
        sys.transversal_cnot(0, 1, &mut rng).unwrap();
        let after = sys.master().bus().total();
        assert_eq!(after - before, 4, "two 2-byte sync tokens");
    }

    #[test]
    fn baseline_delivery_pays_per_cycle_per_tile() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut sys =
            MultiTileSystem::with_delivery(3, 3, 0.0, DeliveryMode::SoftwareBaseline).unwrap();
        let per_tile =
            (sys.lattice().num_qubits() as u64) * (sys.mce(0).microcode().cycle_len() as u64);
        sys.run_noisy_cycle(&mut rng);
        sys.run_noisy_cycle(&mut rng);
        assert_eq!(
            sys.master().bus().bytes(Traffic::QeccInstructions),
            2 * 3 * per_tile,
            "2 cycles x 3 tiles of streamed QECC instructions"
        );
        // The hardware-managed modes pay nothing for the same cycles.
        let mut hw = MultiTileSystem::new(3, 3, 0.0).unwrap();
        hw.run_noisy_cycle(&mut rng);
        assert_eq!(hw.master().bus().bytes(Traffic::QeccInstructions), 0);
    }

    #[test]
    fn per_tile_dispatch_and_kernel_account_like_single_tile() {
        use quest_isa::LogicalQubit;
        let kernel = vec![
            quest_isa::LogicalInstr::H(LogicalQubit(0)),
            quest_isa::LogicalInstr::T(LogicalQubit(0)),
        ];
        for mode in DeliveryMode::ALL {
            let mut sys = MultiTileSystem::with_delivery(3, 2, 0.0, mode).unwrap();
            sys.dispatch_logical(
                1,
                quest_isa::LogicalInstr::X(LogicalQubit(0)),
                InstrClass::Algorithmic,
            );
            sys.run_kernel(0, &kernel, 5);
            sys.sync_tile(1);

            let mut single = MultiTileSystem::with_delivery(3, 1, 0.0, mode).unwrap();
            single.dispatch_logical(
                0,
                quest_isa::LogicalInstr::X(LogicalQubit(0)),
                InstrClass::Algorithmic,
            );
            single.run_kernel(0, &kernel, 5);
            single.sync_tile(0);
            assert_eq!(
                sys.master().bus(),
                single.master().bus(),
                "{mode:?}: multi-tile delivery diverged from single-tile"
            );
        }
    }

    #[test]
    fn three_tile_ghz_is_fully_correlated() {
        // |+>_L ⊗ |0>_L ⊗ |0>_L with CNOT(0→1), CNOT(1→2) yields a
        // logical GHZ state: all three Z readouts agree, and both values
        // occur across seeds.
        let mut ones = 0;
        let shots = 16;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(600 + seed);
            let mut sys = MultiTileSystem::new(3, 3, 0.0).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.prep_logical(2, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1, &mut rng).unwrap();
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(1, 2, &mut rng).unwrap();
            sys.run_noisy_cycle(&mut rng);
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            let c = sys.measure_logical_z(2, &mut rng);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(b, c, "seed {seed}");
            ones += a as u32;
        }
        assert!(ones > 0 && ones < shots as u32, "GHZ outcomes not random");
    }

    #[test]
    fn same_tile_cnot_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        assert_eq!(
            sys.transversal_cnot(1, 1, &mut rng),
            Err(CnotError::SameTile { tile: 1 })
        );
    }

    #[test]
    fn out_of_range_cnot_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        assert_eq!(
            sys.transversal_cnot(0, 2, &mut rng),
            Err(CnotError::TileOutOfRange { tile: 2, tiles: 2 })
        );
    }

    #[test]
    fn cnot_before_any_cycle_is_rejected_and_mutates_nothing() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        // X references are FirstRound: unsettled until a cycle runs.
        let before_sync = sys.master().bus().bytes(crate::bus::Traffic::Sync);
        assert_eq!(
            sys.transversal_cnot(0, 1, &mut rng),
            Err(CnotError::ReferenceNotSettled { tile: 1 })
        );
        assert_eq!(
            sys.master().bus().bytes(crate::bus::Traffic::Sync),
            before_sync,
            "a rejected CNOT must not account sync traffic"
        );
    }
}
