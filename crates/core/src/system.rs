//! End-to-end QuEST system simulation (single tile).
//!
//! [`QuestSystem`] wires a master controller, one MCE, and a noisy
//! stabilizer-simulated surface-code tile into the full loop of the paper:
//! the MCE's microcode replays QECC cycles autonomously, its local lookup
//! decoder fixes isolated errors, complex syndromes escalate to the
//! master's global decoder, and logical instructions arrive over the
//! global bus (optionally through the software-managed instruction cache).
//!
//! Since the engine unification, `QuestSystem` is a thin `tiles = 1`
//! convenience wrapper: instruction delivery and bus accounting live in
//! [`DeliveryEngine`], shared with
//! [`MultiTileSystem`](crate::MultiTileSystem) and the concurrent
//! `quest-runtime`. The same workload can be accounted in three delivery
//! modes, reproducing the architecture comparison of Figure 14 *from
//! simulation* rather than from the analytical model:
//!
//! * [`DeliveryMode::SoftwareBaseline`] — every physical µop of every QECC
//!   cycle crosses the global bus.
//! * [`DeliveryMode::QuestMce`] — QECC is hardware-managed; logical and
//!   distillation instructions cross the bus individually.
//! * [`DeliveryMode::QuestMceCache`] — distillation kernels additionally
//!   replay from the MCE instruction cache.

use crate::delivery::DeliveryEngine;
use crate::error::{check_distance, check_probability, BuildError};
use crate::master::MasterController;
use crate::mce::Mce;
use crate::report::{decode_totals, RunReport};
use crate::substrate::Substrate;
use quest_isa::{InstrClass, LogicalInstr, LogicalProgram};
use quest_stabilizer::PauliChannel;
use quest_surface::RotatedLattice;
use rand::Rng;

pub use crate::delivery::DeliveryMode;

/// Instruction-buffer bytes per MCE (the §5.3 cache capacity used by
/// every system in this crate and by the runtime's shard workers).
pub const MCE_IBUF_BYTES: usize = 65_536;

/// A complete single-tile QuEST control processor with its quantum
/// substrate.
///
/// # Example
///
/// ```
/// use quest_core::{DeliveryMode, QuestSystem};
/// use quest_isa::LogicalProgram;
/// use quest_stabilizer::{SeedableRng, StdRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut system = QuestSystem::new(3, 1e-3)?;
/// let run = system.run_memory_workload(
///     20,
///     &LogicalProgram::new(),
///     0,
///     DeliveryMode::QuestMce,
///     &mut rng,
/// );
/// assert_eq!(run.qecc_cycles, 20);
/// # Ok::<(), quest_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuestSystem {
    lattice: RotatedLattice,
    master: MasterController,
    mce: Mce,
    substrate: Substrate,
    noise: PauliChannel,
}

impl QuestSystem {
    /// Builds a system over a distance-`d` tile with per-round
    /// depolarizing noise of total probability `p` on data qubits.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `d` is not an odd number ≥ 3 or `p` is
    /// outside `[0, 1]`.
    pub fn new(d: usize, p: f64) -> Result<QuestSystem, BuildError> {
        check_distance(d)?;
        check_probability("error rate", p)?;
        let lattice = RotatedLattice::new(d);
        Ok(QuestSystem {
            mce: Mce::new(&lattice, MCE_IBUF_BYTES),
            substrate: Substrate::new(1, lattice.num_qubits()),
            lattice,
            master: MasterController::new(),
            noise: PauliChannel::depolarizing(p),
        })
    }

    /// Like [`QuestSystem::new`], additionally corrupting syndrome
    /// measurements with probability `q` in the MCE readout chain.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `d` is invalid or either probability is
    /// out of range.
    pub fn with_measurement_noise(d: usize, p: f64, q: f64) -> Result<QuestSystem, BuildError> {
        check_probability("measurement flip probability", q)?;
        let mut sys = QuestSystem::new(d, p)?;
        sys.mce.set_measurement_flip(q);
        Ok(sys)
    }

    /// The tile lattice.
    pub fn lattice(&self) -> &RotatedLattice {
        &self.lattice
    }

    /// The master controller (bus counters live here).
    pub fn master(&self) -> &MasterController {
        &self.master
    }

    /// The MCE.
    pub fn mce(&self) -> &Mce {
        &self.mce
    }

    /// Runs one noisy QECC cycle: a data-noise layer, then the full
    /// microcode cycle, then escalation service.
    pub fn run_noisy_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let tableau = self.substrate.block_mut(0);
        crate::tile::noise_layer(&self.mce, &self.noise, tableau, rng);
        crate::tile::qecc_cycle_serviced(&mut self.mce, &mut self.master, tableau, rng);
    }

    /// Runs a logical-Z memory workload of `cycles` QECC cycles under the
    /// given delivery mode. The program's non-distillation instructions
    /// are dispatched once; its distillation-class instructions form one
    /// T-factory kernel that executes `distillation_replays` times over
    /// the workload (§5.2: distillation runs continuously). Under
    /// [`DeliveryMode::QuestMceCache`] the kernel crosses the bus once and
    /// replays from the MCE instruction cache thereafter.
    ///
    /// This is the `tiles = 1` convenience form of the unified engine:
    /// delivery accounting goes through [`DeliveryEngine`] and the result
    /// is the same [`RunReport`] the multi-tile reference and the
    /// concurrent runtime produce.
    pub fn run_memory_workload<R: Rng + ?Sized>(
        &mut self,
        cycles: u64,
        program: &LogicalProgram,
        distillation_replays: u64,
        mode: DeliveryMode,
        rng: &mut R,
    ) -> RunReport {
        let engine = DeliveryEngine::new(mode);
        let kernel: Vec<LogicalInstr> = program
            .iter()
            .filter(|(_, c)| *c == InstrClass::Distillation)
            .map(|(i, _)| *i)
            .collect();
        // Dispatch the logical program through the shared engine.
        for &(i, class) in program {
            if class != InstrClass::Distillation {
                engine.dispatch(&mut self.master, &mut self.mce, i, class);
            }
        }
        engine.kernel(
            &mut self.master,
            &mut self.mce,
            &kernel,
            distillation_replays,
        );

        // Error-corrected idle (memory) for `cycles` rounds; only the
        // software baseline pays per-cycle QECC bus traffic.
        let cycle_len = self.mce.microcode().cycle_len();
        for _ in 0..cycles {
            self.run_noisy_cycle(rng);
            engine.account_cycle(&mut self.master, self.lattice.num_qubits(), cycle_len);
        }
        // Periodic sync token (cache management + logical movement, §7).
        self.master.sync(&mut self.mce, 0);

        // Final readout: measure data in Z, apply the accumulated Pauli
        // frames (local + global corrections) plus one final perfect
        // decoding round; its residual events cross the bus upstream.
        let readout = self
            .mce
            .measure_logical_z_details(self.substrate.block_mut(0), rng);
        self.master.note_readout_syndrome(readout.final_events);

        let (local_decodes, escalations) = decode_totals([&self.mce]);
        RunReport {
            delivery: mode,
            outcomes: vec![(0, readout.value)],
            bus: *self.master.bus(),
            qecc_cycles: self.mce.microcode().completed_cycles(),
            local_decodes,
            escalations,
            master: self.master.stats(),
            decode_cost: self.master.decoder_cost(),
            recovery: crate::fault::RecoveryStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Traffic;
    use quest_isa::LogicalQubit;
    use quest_stabilizer::{SeedableRng, StdRng};

    fn program() -> LogicalProgram {
        let mut p = LogicalProgram::new();
        for i in 0..10u8 {
            p.push(
                LogicalInstr::H(LogicalQubit(i % 4)),
                InstrClass::Algorithmic,
            );
        }
        for _ in 0..50 {
            p.push(
                LogicalInstr::Cnot {
                    control: LogicalQubit(0),
                    target: LogicalQubit(1),
                },
                InstrClass::Distillation,
            );
        }
        p
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert_eq!(
            QuestSystem::new(4, 0.0).unwrap_err(),
            BuildError::InvalidDistance(4)
        );
        assert_eq!(
            QuestSystem::new(2, 0.0).unwrap_err(),
            BuildError::InvalidDistance(2)
        );
        assert!(matches!(
            QuestSystem::new(3, 1.5).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(matches!(
            QuestSystem::with_measurement_noise(3, 0.0, -0.1).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(QuestSystem::new(3, 0.0).is_ok());
    }

    #[test]
    fn baseline_moves_orders_of_magnitude_more_bytes() {
        // Per-cycle QECC traffic dwarfs the one-shot logical program. Use
        // a modest replay count so the distillation stream stays below the
        // per-tile QECC stream (on a 17-qubit tile; at scale the gap is
        // five orders — see the analytical model).
        let mut rng = StdRng::seed_from_u64(3);
        let cycles = 200;
        let mut base = QuestSystem::new(3, 1e-3).unwrap();
        let b = base.run_memory_workload(
            cycles,
            &program(),
            1,
            DeliveryMode::SoftwareBaseline,
            &mut rng,
        );
        let mut quest = QuestSystem::new(3, 1e-3).unwrap();
        let q = quest.run_memory_workload(cycles, &program(), 1, DeliveryMode::QuestMce, &mut rng);
        assert!(
            b.bus_bytes() > 50 * q.bus_bytes(),
            "baseline {} vs QuEST {}",
            b.bus_bytes(),
            q.bus_bytes()
        );
    }

    #[test]
    fn cached_distillation_traffic_is_replay_count_independent() {
        // The cache decouples bus traffic from how often the kernel runs.
        let mut few = QuestSystem::new(3, 0.0).unwrap();
        let f = few.run_memory_workload(
            5,
            &program(),
            10,
            DeliveryMode::QuestMceCache,
            &mut StdRng::seed_from_u64(4),
        );
        let mut many = QuestSystem::new(3, 0.0).unwrap();
        let m = many.run_memory_workload(
            5,
            &program(),
            1000,
            DeliveryMode::QuestMceCache,
            &mut StdRng::seed_from_u64(4),
        );
        // 990 extra replays cost only 2 bytes each (the replay command).
        assert_eq!(m.bus_bytes() - f.bus_bytes(), 990 * 2);
        // While the uncached mode pays the full kernel every time.
        let mut plain = QuestSystem::new(3, 0.0).unwrap();
        let p = plain.run_memory_workload(
            5,
            &program(),
            1000,
            DeliveryMode::QuestMce,
            &mut StdRng::seed_from_u64(4),
        );
        assert!(
            p.bus_bytes() > 40 * m.bus_bytes(),
            "{} vs {}",
            p.bus_bytes(),
            m.bus_bytes()
        );
    }

    #[test]
    fn cache_mode_cuts_distillation_traffic() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut plain = QuestSystem::new(3, 0.0).unwrap();
        let p = plain.run_memory_workload(10, &program(), 10, DeliveryMode::QuestMce, &mut rng);
        let mut cached = QuestSystem::new(3, 0.0).unwrap();
        let c =
            cached.run_memory_workload(10, &program(), 10, DeliveryMode::QuestMceCache, &mut rng);
        // With one kernel occurrence, fill ≈ dispatch; the win shows in
        // the distillation class being replaced by one-time cache fill.
        assert_eq!(
            c.bus_bytes_of(Traffic::Distillation),
            0,
            "cached mode sends no per-instance distillation instructions"
        );
        assert!(c.bus_bytes() <= p.bus_bytes() + 4);
    }

    #[test]
    fn noiseless_run_is_logically_clean_and_quiet() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sys = QuestSystem::new(3, 0.0).unwrap();
        let r = sys.run_memory_workload(
            50,
            &LogicalProgram::new(),
            0,
            DeliveryMode::QuestMce,
            &mut rng,
        );
        assert!(r.logical_ok());
        assert_eq!(r.local_decodes, 0);
        assert_eq!(r.escalations, 0);
        assert_eq!(r.qecc_cycles, 50);
        assert_eq!(r.outcomes, vec![(0, false)]);
    }

    #[test]
    fn noisy_run_mostly_survives_at_low_error_rate() {
        let mut failures = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = QuestSystem::new(3, 2e-3).unwrap();
            let r = sys.run_memory_workload(
                20,
                &LogicalProgram::new(),
                0,
                DeliveryMode::QuestMce,
                &mut rng,
            );
            if !r.logical_ok() {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 logical failures at p=2e-3");
    }

    #[test]
    fn measurement_readout_noise_self_heals() {
        // An isolated measurement flip produces one event in round k and
        // one in round k+1 at the same check; the single-round LUT applies
        // the same (spurious) data correction twice, which XOR-cancels in
        // the Pauli frame. Logical information must survive pure readout
        // noise with high probability. Coincident flips can still fool the
        // single-round decoder: the measured base failure rate at these
        // parameters is ~10% over 400 seeds, so the bound leaves ~3 sigma
        // of headroom above the binomial mean of 2.5/25.
        let mut failures = 0;
        let shots = 25;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let mut sys = QuestSystem::with_measurement_noise(3, 0.0, 0.02).unwrap();
            let r = sys.run_memory_workload(
                40,
                &LogicalProgram::new(),
                0,
                DeliveryMode::QuestMce,
                &mut rng,
            );
            failures += (!r.logical_ok()) as u32;
        }
        assert!(
            failures <= 7,
            "{failures}/{shots} failures under readout noise"
        );
    }

    #[test]
    fn two_level_decoding_is_actually_used() {
        // At a moderate error rate over many cycles, the local decoder
        // must resolve most rounds and escalations must be rare.
        let mut rng = StdRng::seed_from_u64(6);
        let mut sys = QuestSystem::new(5, 3e-3).unwrap();
        let r = sys.run_memory_workload(
            300,
            &LogicalProgram::new(),
            0,
            DeliveryMode::QuestMce,
            &mut rng,
        );
        assert!(r.local_decodes > 0, "local decoder never fired");
        assert!(
            r.local_decodes > r.escalations,
            "local {} vs escalated {}",
            r.local_decodes,
            r.escalations
        );
    }
}
