//! Logical-memory experiments: the end-to-end QECC loop.
//!
//! A memory experiment prepares a logical basis state, runs `T` noisy
//! syndrome-extraction rounds (the continuous loop of Figure 5 in the
//! paper), decodes the space-time syndrome record, applies the correction
//! and checks whether the logical observable survived. Sweeping the physical
//! error rate and code distance demonstrates the error suppression that the
//! whole QuEST architecture exists to sustain.

use crate::decoder::Decoder;
use crate::graph::{DecodingGraph, NodeId};
use crate::lattice::{RotatedLattice, StabKind};
use crate::schedule::SyndromeCircuit;
use quest_stabilizer::{NoiseChannel, Pauli, PauliChannel, Tableau};
use rand::Rng;

/// Which logical basis state the experiment protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryBasis {
    /// Protect logical `|0⟩` (decode X errors via Z-type checks).
    Z,
    /// Protect logical `|+⟩` (decode Z errors via X-type checks).
    X,
}

impl MemoryBasis {
    /// The stabilizer type whose syndrome record is decoded.
    pub fn check_kind(self) -> StabKind {
        match self {
            MemoryBasis::Z => StabKind::Z,
            MemoryBasis::X => StabKind::X,
        }
    }
}

/// Noise model for one experiment: data-qubit channel applied before every
/// round plus a classical syndrome-measurement flip probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryNoise {
    /// Per-round, per-data-qubit Pauli channel.
    pub data: PauliChannel,
    /// Probability that a syndrome measurement bit is reported flipped.
    pub measurement_flip: f64,
}

impl MemoryNoise {
    /// Standard phenomenological noise: depolarizing data errors with total
    /// probability `p` and measurement flips with the same probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn phenomenological(p: f64) -> MemoryNoise {
        MemoryNoise {
            data: PauliChannel::depolarizing(p),
            measurement_flip: p,
        }
    }

    /// Code-capacity noise: data errors only, perfect measurements.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn code_capacity(p: f64) -> MemoryNoise {
        MemoryNoise {
            data: PauliChannel::depolarizing(p),
            measurement_flip: 0.0,
        }
    }

    /// No noise at all.
    pub fn noiseless() -> MemoryNoise {
        MemoryNoise {
            data: PauliChannel::noiseless(),
            measurement_flip: 0.0,
        }
    }
}

/// Result of one memory-experiment shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryOutcome {
    /// `true` when the decoded logical observable was flipped (failure).
    pub logical_error: bool,
    /// Total detection events observed.
    pub detection_events: usize,
    /// Data-qubit flips applied by the decoder.
    pub correction_weight: usize,
}

/// A configured logical-memory experiment.
///
/// # Example
///
/// ```
/// use quest_surface::{MemoryBasis, MemoryExperiment, MemoryNoise, UnionFindDecoder};
/// use quest_stabilizer::{SeedableRng, StdRng};
///
/// let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
/// let mut rng = StdRng::seed_from_u64(1);
/// let out = exp.run(&MemoryNoise::noiseless(), &UnionFindDecoder::new(), &mut rng);
/// assert!(!out.logical_error);
/// assert_eq!(out.detection_events, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryExperiment {
    lattice: RotatedLattice,
    circuit: SyndromeCircuit,
    rounds: usize,
    basis: MemoryBasis,
}

impl MemoryExperiment {
    /// Builds an experiment at distance `d` with `rounds` noisy QECC rounds.
    ///
    /// # Panics
    ///
    /// Panics if `d` is invalid (see [`RotatedLattice::new`]) or `rounds`
    /// is zero.
    pub fn new(d: usize, rounds: usize, basis: MemoryBasis) -> MemoryExperiment {
        assert!(rounds > 0, "need at least one round");
        let lattice = RotatedLattice::new(d);
        let circuit = SyndromeCircuit::new(&lattice);
        MemoryExperiment {
            lattice,
            circuit,
            rounds,
            basis,
        }
    }

    /// The lattice under test.
    pub fn lattice(&self) -> &RotatedLattice {
        &self.lattice
    }

    /// Number of noisy rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The protected logical basis.
    pub fn basis(&self) -> MemoryBasis {
        self.basis
    }

    /// The compiled per-round syndrome-extraction circuit.
    pub fn syndrome_circuit(&self) -> &SyndromeCircuit {
        &self.circuit
    }

    /// The decoding graph this experiment decodes over (`rounds + 1`
    /// detection rounds: the noisy rounds plus the final perfect readout).
    pub fn decoding_graph(&self) -> DecodingGraph {
        DecodingGraph::new(&self.lattice, self.basis.check_kind(), self.rounds + 1)
    }

    /// Runs one shot.
    pub fn run<D: Decoder, R: Rng + ?Sized>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        rng: &mut R,
    ) -> MemoryOutcome {
        self.run_with_injection(noise, None, decoder, rng)
    }

    /// Runs one shot with a deterministic Pauli error injected before the
    /// first round, in addition to (usually instead of) stochastic noise.
    /// Used for failure-injection tests: a distance-`d` code must correct
    /// every error of weight ≤ ⌊(d−1)/2⌋.
    ///
    /// # Panics
    ///
    /// Panics if the injected string's length differs from the total qubit
    /// count of the lattice.
    pub fn run_with_injection<D: Decoder, R: Rng + ?Sized>(
        &self,
        noise: &MemoryNoise,
        inject: Option<&quest_stabilizer::PauliString>,
        decoder: &D,
        rng: &mut R,
    ) -> MemoryOutcome {
        let mut t = Tableau::new(self.lattice.num_qubits());
        let mut records = Vec::new();
        self.run_core(
            &mut t,
            &mut records,
            noise,
            inject,
            decoder,
            &self.decoding_graph(),
            rng,
        )
    }

    /// One shot against caller-provided scratch: `t` must hold `|0…0⟩`
    /// (fresh or [`Tableau::reset_all`]), `records` is reused round
    /// storage, `graph` the experiment's decoding graph. This is the body
    /// of [`MemoryExperiment::run_with_injection`], split out so the
    /// multi-shot loops reuse one tableau, one graph and one record buffer
    /// across shots instead of reallocating them per shot.
    #[allow(clippy::too_many_arguments)]
    fn run_core<D: Decoder, R: Rng + ?Sized>(
        &self,
        t: &mut Tableau,
        records: &mut Vec<Vec<bool>>,
        noise: &MemoryNoise,
        inject: Option<&quest_stabilizer::PauliString>,
        decoder: &D,
        graph: &DecodingGraph,
        rng: &mut R,
    ) -> MemoryOutcome {
        let kind = self.basis.check_kind();
        let num_data = self.lattice.num_data();
        let (events, data_bits) = self.tableau_shot(t, records, graph, rng, |r, t, rng, rec| {
            if let (0, Some(p)) = (r, inject) {
                t.pauli_string(p);
            }
            // Data noise layer.
            for q in 0..num_data {
                let e = noise.data.sample(rng);
                t.pauli(q, e);
            }
            rec.extend_from_slice(self.circuit.run_round(t, rng).of(kind));
            // Classical measurement flips.
            for b in rec.iter_mut() {
                if noise.measurement_flip > 0.0 && rng.gen::<f64>() < noise.measurement_flip {
                    *b = !*b;
                }
            }
        });
        self.decode_and_judge(&events, data_bits, decoder, graph)
    }

    /// The tableau shot every per-shot entry point shares: prepare the
    /// basis state on `t` (which must hold `|0…0⟩`), let `round` run each
    /// QECC round `r` and append the monitored checks' record to the
    /// cleared buffer it is handed, read every data qubit out
    /// transversally and derive the final perfect check round from that
    /// readout. Returns the detection events over `graph` and the raw
    /// data-qubit readout.
    fn tableau_shot<R: Rng + ?Sized>(
        &self,
        t: &mut Tableau,
        records: &mut Vec<Vec<bool>>,
        graph: &DecodingGraph,
        rng: &mut R,
        mut round: impl FnMut(usize, &mut Tableau, &mut R, &mut Vec<bool>),
    ) -> (Vec<NodeId>, Vec<bool>) {
        let lat = &self.lattice;
        let num_data = lat.num_data();

        // Logical state preparation. |0…0⟩ is logical |0⟩; transversal H
        // does not map the rotated code onto itself, so prepare |+…+⟩ for
        // the X basis instead (a +1 eigenstate of every X stabilizer and of
        // logical X).
        if self.basis == MemoryBasis::X {
            for q in 0..num_data {
                t.h(q);
            }
        }

        // The outer record buffer (and each round's inner vector) is
        // reused across shots.
        records.resize(self.rounds, Vec::new());
        for (r, rec) in records.iter_mut().enumerate() {
            rec.clear();
            round(r, t, rng, rec);
        }

        // Final perfect readout of all data qubits in the memory basis.
        let data_bits: Vec<bool> = (0..num_data)
            .map(|q| match self.basis {
                MemoryBasis::Z => t.measure(q, rng).value,
                MemoryBasis::X => t.measure_x(q, rng).value,
            })
            .collect();
        // Derive the final round of check values classically.
        let final_checks: Vec<bool> = lat
            .plaquettes_of(self.basis.check_kind())
            .map(|p| p.data.iter().fold(false, |acc, &q| acc ^ data_bits[q]))
            .collect();

        let events = self.events_from_records(records, &final_checks, graph);
        (events, data_bits)
    }

    /// Differences syndrome records against the all-zero reference into
    /// detection-event nodes, in ascending `(round, check)` order — the
    /// same order the frame sampler emits.
    fn events_from_records(
        &self,
        records: &[Vec<bool>],
        final_checks: &[bool],
        graph: &DecodingGraph,
    ) -> Vec<NodeId> {
        let num_checks = graph.num_checks();
        debug_assert_eq!(num_checks, records[0].len());
        let mut events = Vec::new();
        for (t_idx, rec) in records.iter().enumerate() {
            for c in 0..num_checks {
                let prev = if t_idx == 0 {
                    false
                } else {
                    records[t_idx - 1][c]
                };
                if rec[c] != prev {
                    events.push(graph.node(t_idx, c));
                }
            }
        }
        for c in 0..num_checks {
            if final_checks[c] != records[self.rounds - 1][c] {
                events.push(graph.node(self.rounds, c));
            }
        }
        events
    }

    /// Parity of the logical observable over a transversal readout.
    fn logical_parity(&self, data_bits: &[bool]) -> bool {
        let lat = &self.lattice;
        (0..lat.distance())
            .map(|i| match self.basis {
                MemoryBasis::Z => data_bits[lat.data_index(0, i)],
                MemoryBasis::X => data_bits[lat.data_index(i, 0)],
            })
            .fold(false, |acc, b| acc ^ b)
    }

    /// Shared back half of every decoded shot: decode the detection
    /// events over `graph`, apply the correction to the transversal
    /// readout, and judge the logical observable.
    fn decode_and_judge<D: Decoder>(
        &self,
        events: &[NodeId],
        data_bits: Vec<bool>,
        decoder: &D,
        graph: &DecodingGraph,
    ) -> MemoryOutcome {
        let correction = decoder.decode(graph, events);
        let mut corrected = data_bits;
        for &q in &correction.data_flips {
            corrected[q] = !corrected[q];
        }
        MemoryOutcome {
            logical_error: self.logical_parity(&corrected),
            detection_events: events.len(),
            correction_weight: correction.weight(),
        }
    }

    /// Runs one shot under **circuit-level** noise (every gate location of
    /// the syndrome circuit can fail; see
    /// [`crate::schedule::CircuitNoise`]). Only meaningful for the Z
    /// basis, where the final transversal readout remains noiseless by
    /// convention (the standard memory-experiment protocol).
    pub fn run_circuit_level<D: Decoder, R: Rng + ?Sized>(
        &self,
        noise: &crate::schedule::CircuitNoise,
        decoder: &D,
        rng: &mut R,
    ) -> MemoryOutcome {
        let kind = self.basis.check_kind();
        let graph = DecodingGraph::with_diagonals(&self.lattice, kind, self.rounds + 1);
        let mut t = Tableau::new(self.lattice.num_qubits());
        let (events, data_bits) =
            self.tableau_shot(&mut t, &mut Vec::new(), &graph, rng, |_, t, rng, rec| {
                let syn = self.circuit.run_round_with_circuit_noise(t, noise, rng);
                rec.extend_from_slice(syn.of(kind));
            });
        self.decode_and_judge(&events, data_bits, decoder, &graph)
    }

    /// Logical error rate over `shots` runs.
    ///
    /// One tableau, one decoding graph and one record buffer are shared
    /// across all shots ([`Tableau::reset_all`] between shots) — the
    /// per-shot cost is simulation and decoding, not allocation.
    pub fn logical_error_rate<D: Decoder, R: Rng + ?Sized>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        let graph = self.decoding_graph();
        let mut t = Tableau::new(self.lattice.num_qubits());
        let mut records: Vec<Vec<bool>> = Vec::new();
        let mut failures = 0usize;
        for shot in 0..shots {
            if shot > 0 {
                t.reset_all();
            }
            let out = self.run_core(&mut t, &mut records, noise, None, decoder, &graph, rng);
            if out.logical_error {
                failures += 1;
            }
        }
        failures as f64 / shots as f64
    }

    /// Runs one shot on the tableau path with an **explicit** fault
    /// pattern — `errors_per_round[t][q]` is XORed onto data qubit `q`
    /// before round `t`, and `meas_flips_per_round[t][c]` flips monitored
    /// check `c`'s record in round `t` — and returns the raw detection
    /// events plus the uncorrected logical readout parity. This is the
    /// ground-truth side of the frame-equivalence tests: for the same
    /// fault pattern,
    /// [`FrameSampler::faulted_shot_events`](crate::FrameSampler::faulted_shot_events)
    /// must return bit-for-bit identical output.
    ///
    /// # Panics
    ///
    /// Panics if the fault pattern's shape does not match
    /// (`rounds` × `num_data` errors, `rounds` × `num_checks` flips).
    pub fn faulted_shot_events<R: Rng + ?Sized>(
        &self,
        errors_per_round: &[Vec<Pauli>],
        meas_flips_per_round: &[Vec<bool>],
        rng: &mut R,
    ) -> (Vec<NodeId>, bool) {
        let kind = self.basis.check_kind();
        let num_data = self.lattice.num_data();
        assert_eq!(
            errors_per_round.len(),
            self.rounds,
            "one error layer per round"
        );
        assert_eq!(
            meas_flips_per_round.len(),
            self.rounds,
            "one flip layer per round"
        );

        let graph = self.decoding_graph();
        let mut t = Tableau::new(self.lattice.num_qubits());
        let (events, data_bits) =
            self.tableau_shot(&mut t, &mut Vec::new(), &graph, rng, |r, t, rng, rec| {
                let (errors, flips) = (&errors_per_round[r], &meas_flips_per_round[r]);
                assert_eq!(errors.len(), num_data, "one Pauli per data qubit");
                for (q, &e) in errors.iter().enumerate() {
                    t.pauli(q, e);
                }
                rec.extend_from_slice(self.circuit.run_round(t, rng).of(kind));
                assert_eq!(flips.len(), rec.len(), "one flip bit per check");
                for (b, &f) in rec.iter_mut().zip(flips) {
                    *b ^= f;
                }
            });
        (events, self.logical_parity(&data_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{ExactMatchingDecoder, UnionFindDecoder};
    use quest_stabilizer::{SeedableRng, StdRng};

    #[test]
    fn noiseless_memory_never_fails() {
        let mut rng = StdRng::seed_from_u64(7);
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(3, 3, basis);
            for _ in 0..10 {
                let out = exp.run(
                    &MemoryNoise::noiseless(),
                    &UnionFindDecoder::new(),
                    &mut rng,
                );
                assert!(!out.logical_error, "{basis:?}");
                assert_eq!(out.detection_events, 0);
                assert_eq!(out.correction_weight, 0);
            }
        }
    }

    #[test]
    fn every_single_error_is_corrected_exhaustively() {
        // A distance-3 code must correct *every* weight-1 Pauli error on
        // any data qubit, with either decoder, in both bases.
        use quest_stabilizer::{Pauli, PauliString};
        let mut rng = StdRng::seed_from_u64(21);
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(3, 2, basis);
            let n = exp.lattice().num_qubits();
            for q in 0..exp.lattice().num_data() {
                for p in Pauli::ERRORS {
                    let inject = PauliString::from_sparse(n, &[(q, p)]);
                    for run in 0..2 {
                        let out = if run == 0 {
                            exp.run_with_injection(
                                &MemoryNoise::noiseless(),
                                Some(&inject),
                                &ExactMatchingDecoder::new(),
                                &mut rng,
                            )
                        } else {
                            exp.run_with_injection(
                                &MemoryNoise::noiseless(),
                                Some(&inject),
                                &UnionFindDecoder::new(),
                                &mut rng,
                            )
                        };
                        assert!(
                            !out.logical_error,
                            "{basis:?}: single {p} on data {q} beat decoder {run}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn low_rate_bit_flips_are_strongly_suppressed() {
        // Statistical check: with p = 0.02 on d=3, failures come only from
        // ≥2-error events: P ≈ C(9,2)·p²·P(fail|2) ≲ 2%. Assert a bound
        // well above the expectation but far below "no suppression".
        let mut rng = StdRng::seed_from_u64(21);
        let exp = MemoryExperiment::new(3, 1, MemoryBasis::Z);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::bit_flip(0.02),
            measurement_flip: 0.0,
        };
        let rate = exp.logical_error_rate(&noise, &ExactMatchingDecoder::new(), 1000, &mut rng);
        assert!(rate < 0.035, "logical rate {rate} not suppressed");
    }

    #[test]
    fn higher_distance_suppresses_more() {
        let mut rng = StdRng::seed_from_u64(33);
        let noise = MemoryNoise::code_capacity(0.04);
        let uf = UnionFindDecoder::new();
        let rate3 = MemoryExperiment::new(3, 2, MemoryBasis::Z)
            .logical_error_rate(&noise, &uf, 400, &mut rng);
        let rate5 = MemoryExperiment::new(5, 2, MemoryBasis::Z)
            .logical_error_rate(&noise, &uf, 400, &mut rng);
        assert!(
            rate5 <= rate3 + 0.02,
            "d=5 rate {rate5} should not exceed d=3 rate {rate3}"
        );
    }

    #[test]
    fn x_basis_memory_detects_z_noise() {
        let mut rng = StdRng::seed_from_u64(55);
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::X);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::phase_flip(0.05),
            measurement_flip: 0.0,
        };
        // Z noise produces detection events in the X-check graph.
        let mut total_events = 0;
        for _ in 0..20 {
            total_events += exp
                .run(&noise, &UnionFindDecoder::new(), &mut rng)
                .detection_events;
        }
        assert!(total_events > 0, "Z errors must trigger X checks");
    }

    #[test]
    fn circuit_level_noiseless_is_clean() {
        use crate::schedule::CircuitNoise;
        let mut rng = StdRng::seed_from_u64(91);
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        for _ in 0..5 {
            let out = exp.run_circuit_level(
                &CircuitNoise::noiseless(),
                &UnionFindDecoder::new(),
                &mut rng,
            );
            assert!(!out.logical_error);
            assert_eq!(out.detection_events, 0);
        }
    }

    #[test]
    fn circuit_level_noise_is_suppressed_at_low_p() {
        use crate::schedule::CircuitNoise;
        // Circuit-level thresholds are ~10x lower than code capacity;
        // at p = 5e-4 a d=3 code must still strongly suppress errors.
        let mut rng = StdRng::seed_from_u64(92);
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let noise = CircuitNoise::uniform(5e-4);
        let failures = (0..200)
            .filter(|_| {
                exp.run_circuit_level(&noise, &UnionFindDecoder::new(), &mut rng)
                    .logical_error
            })
            .count();
        assert!(failures <= 6, "{failures}/200 circuit-level failures");
    }

    #[test]
    fn circuit_level_distance_ordering_below_threshold() {
        use crate::schedule::CircuitNoise;
        let mut rng = StdRng::seed_from_u64(93);
        let noise = CircuitNoise::uniform(2e-3);
        let mut rate = |d: usize| {
            let exp = MemoryExperiment::new(d, d, MemoryBasis::Z);
            (0..150)
                .filter(|_| {
                    exp.run_circuit_level(&noise, &UnionFindDecoder::new(), &mut rng)
                        .logical_error
                })
                .count()
        };
        let r3 = rate(3);
        let r5 = rate(5);
        assert!(
            r5 <= r3 + 5,
            "d=5 ({r5}) should not lose badly to d=3 ({r3}) at p=2e-3"
        );
    }

    #[test]
    fn measurement_noise_alone_causes_no_logical_error() {
        // Pure measurement noise never corrupts data; the decoder must not
        // introduce logical errors from it (temporal pairs decode to no-op).
        let mut rng = StdRng::seed_from_u64(77);
        let exp = MemoryExperiment::new(3, 4, MemoryBasis::Z);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::noiseless(),
            measurement_flip: 0.05,
        };
        let rate = exp.logical_error_rate(&noise, &UnionFindDecoder::new(), 200, &mut rng);
        assert!(
            rate < 0.03,
            "measurement noise alone produced logical rate {rate}"
        );
    }
}
