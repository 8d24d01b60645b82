//! Frame-based batched sampling of memory experiments.
//!
//! [`FrameSampler`] is the fast path for a [`MemoryExperiment`]: instead
//! of re-running the O(n²) tableau once per shot, it compiles the
//! syndrome circuit once, derives the noiseless reference record from a
//! single tableau run, then propagates bit-packed Pauli frames through
//! the circuit — 64 or 512 shots per plane word depending on the
//! configured [`LaneWidth`] (see [`quest_stabilizer::frame`]). Per shot,
//! only the decoder runs, and even that is batched: detection events are
//! handed to the decoder as whole bit-planes ([`EventPlanes`]) when dense
//! enough, falling back to per-shot sparse sets below
//! [`PLANE_DECODE_DENSITY`].
//!
//! # Why this is exact
//!
//! Both memory bases prepare a state whose *monitored* check record is
//! deterministically zero in the noiseless reference (`|0…0⟩` satisfies
//! every Z check; `|+…+⟩` every X check), and the final readout enters
//! the decoder only through check/logical *parities*, which are likewise
//! deterministic. Pauli frames predict flips of deterministic-in-reference
//! observables exactly, so the frame path's detection events and logical
//! flip are bit-for-bit those of a tableau run with the same physical
//! fault pattern — the property the `frame_equivalence` integration tests
//! pin down. (Random *unmonitored* measurements — the other-kind checks
//! of round 1 — perturb the effective frame only by operators of the
//! prepared state's stabilizer group, which carry no monitored-flip
//! component.) The constructor re-derives the reference from one tableau
//! run and asserts it is all-zero rather than assuming it.
//!
//! # Determinism
//!
//! All randomness comes from one `StdRng` per 64-shot block, seeded from
//! `(seed, global block index)` via [`quest_stabilizer::frame::block_seed`].
//! Each block consumes a fixed draw schedule (per round: data-channel draws
//! in qubit order, then measurement-flip draws in check order), and block
//! `b` always lands in lane `b % LANES` of word `b / LANES` — so results
//! are invariant under the internal chunk size, under any distribution of
//! chunks over threads, *and under the lane width*: `run_batch` is a pure
//! function of `(experiment, noise, decoder, shots, seed)`.
//!
//! Early exit (see [`EarlyExit`]) preserves this: the stop decision is a
//! pure function of the integer `(failures, shots)` tally, evaluated only
//! at fixed 512-shot-aligned milestones — never at chunk boundaries that
//! depend on the chunk size or lane width. Two runs with the same
//! `(shots, seed, early)` therefore stop at the same milestone and report
//! identical outcomes, whatever their chunking, threading or width.

use crate::decoder::{CorrectionBatch, Decoder, EventPlanes};
use crate::graph::{DecodingGraph, NodeId};
use crate::memory::{MemoryBasis, MemoryExperiment, MemoryNoise};
use quest_stabilizer::frame::{BlockRngs, FrameSimulator, FrameWord, LaneWidth, W512};
use quest_stabilizer::{Gate, Pauli, SeedableRng, StdRng, Tableau};

/// Default shots per internal chunk: bounds plane memory while keeping
/// word-level parallelism saturated at every lane width.
const DEFAULT_CHUNK_SHOTS: usize = 4096;

/// Mean detection events per (node, shot) below which the sampler
/// scatters events to per-shot sparse sets instead of handing whole
/// planes to [`Decoder::decode_planes`]. At such densities almost every
/// plane word is zero and the sparse path's per-shot overhead is
/// negligible; both paths produce bit-identical corrections (see the
/// `frame_equivalence` tests), so the per-chunk choice never affects
/// results.
pub const PLANE_DECODE_DENSITY: f64 = 1.0 / 256.0;

/// Early-exit shot milestones are aligned to this many shots — a
/// multiple of every lane width's word size, so a milestone is a word
/// boundary at any width and the decision point never depends on the
/// width or chunk size.
pub const EARLY_EXIT_ALIGN: usize = 512;

/// `ln(1e9)`: the Hoeffding confidence level of the early-exit rate
/// bound (failure probability ≤ 1e-9 per decision point).
const EARLY_EXIT_CONFIDENCE_LN: f64 = 20.723_265_836_946_41;

/// Deterministic early-exit rule for batched sampling: stop a `(d, p)`
/// sweep point once its logical error rate is statistically decided.
///
/// Two stop conditions, checked only at [`EARLY_EXIT_ALIGN`]-aligned shot
/// milestones and only after `min_shots`:
///
/// 1. **Enough failures.** `failures >= target_failures`: the relative
///    error of `failures / shots` scales as `1/sqrt(failures)`, so past
///    the target the estimate no longer sharpens meaningfully — this is
///    what cuts decode-bound above-threshold points short.
/// 2. **Provably below.** When `decide_below > 0`, stop once the
///    one-sided Hoeffding upper bound
///    `failures/shots + sqrt(ln(1e9) / (2·shots))` falls below
///    `decide_below` — the point is decided to sit below the bracket.
///
/// The decision is a pure function of the integer `(failures, shots)`
/// tally, so it is invariant under chunk size, worker count and lane
/// width (the tallies themselves are, and milestones are fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyExit {
    /// Never stop before this many shots.
    pub min_shots: usize,
    /// Milestone spacing in shots; must be a positive multiple of
    /// [`EARLY_EXIT_ALIGN`].
    pub check_every: usize,
    /// Stop once this many failures have been observed.
    pub target_failures: usize,
    /// Stop once the rate is provably below this bound (`0.0` disables
    /// the rate rule).
    pub decide_below: f64,
}

impl Default for EarlyExit {
    fn default() -> EarlyExit {
        EarlyExit {
            min_shots: EARLY_EXIT_ALIGN,
            check_every: EARLY_EXIT_ALIGN,
            target_failures: 100,
            decide_below: 0.0,
        }
    }
}

impl EarlyExit {
    /// The default rule with the rate bound enabled at `decide_below`.
    #[must_use]
    pub fn decide_below(decide_below: f64) -> EarlyExit {
        EarlyExit {
            decide_below,
            ..EarlyExit::default()
        }
    }

    /// Whether sampling may stop at a milestone of `shots` shots with
    /// `failures` observed failures. Pure in its integer arguments.
    #[must_use]
    pub fn decided(&self, failures: usize, shots: usize) -> bool {
        if shots < self.min_shots {
            return false;
        }
        if failures >= self.target_failures {
            return true;
        }
        if self.decide_below > 0.0 {
            let s = shots as f64;
            let upper = failures as f64 / s + (EARLY_EXIT_CONFIDENCE_LN / (2.0 * s)).sqrt();
            return upper < self.decide_below;
        }
        false
    }

    fn validate(&self) {
        assert!(
            self.check_every > 0 && self.check_every.is_multiple_of(EARLY_EXIT_ALIGN),
            "check_every must be a positive multiple of {EARLY_EXIT_ALIGN}"
        );
    }
}

/// Knobs of a configured batch run; [`FrameSampler::run_batch`] uses the
/// defaults (widest lanes, default chunk, no early exit).
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Plane word width. All widths give bit-identical outcomes; wider
    /// is faster.
    pub width: LaneWidth,
    /// Shots per internal frame chunk (results are chunk-invariant).
    pub chunk_shots: usize,
    /// Optional deterministic early exit.
    pub early_exit: Option<EarlyExit>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            width: LaneWidth::default(),
            chunk_shots: DEFAULT_CHUNK_SHOTS,
            early_exit: None,
        }
    }
}

/// Aggregate result of a batched memory run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Shots simulated. Equals the requested count unless an
    /// [`EarlyExit`] stopped the run at an earlier milestone.
    pub shots: usize,
    /// Shots whose decoded logical observable was flipped.
    pub failures: usize,
    /// Total detection events over all shots.
    pub detection_events: usize,
    /// Total data-qubit flips applied by the decoder over all shots.
    pub correction_weight: usize,
}

impl BatchOutcome {
    /// Fraction of failed shots.
    pub fn logical_error_rate(&self) -> f64 {
        self.failures as f64 / self.shots as f64
    }
}

/// A memory experiment compiled for bit-parallel frame sampling.
///
/// # Example
///
/// ```
/// use quest_surface::{FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise, UnionFindDecoder};
///
/// let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
/// let sampler = FrameSampler::new(&exp);
/// let out = sampler.run_batch(
///     &MemoryNoise::code_capacity(1e-2),
///     &UnionFindDecoder::new(),
///     1024,
///     7,
/// );
/// assert_eq!(out.shots, 1024);
/// assert!(out.logical_error_rate() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct FrameSampler {
    /// The compiled per-round gate sequence.
    round_gates: Vec<Gate>,
    /// Space-time decoding graph (`rounds + 1` detection rounds).
    graph: DecodingGraph,
    /// For monitored check `c`: its index into the per-round measurement
    /// planes (ancilla measurements come out in plaquette order).
    monitored_slots: Vec<usize>,
    /// Data support of monitored check `c` (for final readout parities).
    check_support: Vec<Vec<usize>>,
    /// Data support of the judged logical operator.
    logical_support: Vec<usize>,
    num_data: usize,
    num_qubits: usize,
    num_checks: usize,
    rounds: usize,
    basis: MemoryBasis,
}

impl FrameSampler {
    /// Compiles `exp` for frame sampling and verifies, via one noiseless
    /// tableau run, that the monitored reference record is all-zero (the
    /// precondition for frame flips *being* the record).
    ///
    /// # Panics
    ///
    /// Panics if the reference-record derivation fails — that would mean
    /// the experiment's preparation does not satisfy its monitored checks
    /// deterministically, and frame sampling would be silently wrong.
    pub fn new(exp: &MemoryExperiment) -> FrameSampler {
        let lat = exp.lattice();
        let basis = exp.basis();
        let kind = basis.check_kind();
        let rounds = exp.rounds();
        let circuit = exp.syndrome_circuit();

        let monitored_slots: Vec<usize> = lat
            .plaquettes()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kind == kind)
            .map(|(slot, _)| slot)
            .collect();
        let check_support: Vec<Vec<usize>> =
            lat.plaquettes_of(kind).map(|p| p.data.clone()).collect();
        let logical_support: Vec<usize> = match basis {
            MemoryBasis::Z => (0..lat.distance())
                .map(|col| lat.data_index(0, col))
                .collect(),
            MemoryBasis::X => (0..lat.distance())
                .map(|row| lat.data_index(row, 0))
                .collect(),
        };

        let sampler = FrameSampler {
            round_gates: circuit.round_circuit().iter().copied().collect(),
            graph: exp.decoding_graph(),
            monitored_slots,
            check_support,
            logical_support,
            num_data: lat.num_data(),
            num_qubits: lat.num_qubits(),
            num_checks: lat.plaquettes_of(kind).count(),
            rounds,
            basis,
        };
        sampler.verify_reference(exp);
        sampler
    }

    /// One noiseless tableau run asserting the all-zero reference record:
    /// every monitored check must read 0 in every round, and the final
    /// check/logical readout parities must be 0.
    fn verify_reference(&self, exp: &MemoryExperiment) {
        // The seed only steers which branch unmonitored (other-kind)
        // measurements collapse into; monitored outcomes are deterministic.
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = Tableau::new(self.num_qubits);
        if self.basis == MemoryBasis::X {
            for q in 0..self.num_data {
                t.h(q);
            }
        }
        let kind = self.basis.check_kind();
        for round in 0..self.rounds {
            let syn = exp.syndrome_circuit().run_round(&mut t, &mut rng);
            assert!(
                syn.of(kind).iter().all(|&b| !b),
                "monitored reference record must be zero (round {round})"
            );
        }
        let data_bits: Vec<bool> = (0..self.num_data)
            .map(|q| match self.basis {
                MemoryBasis::Z => t.measure(q, &mut rng).value,
                MemoryBasis::X => t.measure_x(q, &mut rng).value,
            })
            .collect();
        for (c, support) in self.check_support.iter().enumerate() {
            let parity = support.iter().fold(false, |acc, &q| acc ^ data_bits[q]);
            assert!(!parity, "reference final check {c} must have even parity");
        }
        let logical = self
            .logical_support
            .iter()
            .fold(false, |acc, &q| acc ^ data_bits[q]);
        assert!(!logical, "reference logical readout must have even parity");
    }

    /// The decoding graph shots are decoded over.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Whether readout flips live in the X or Z frame plane: a Z-basis
    /// readout is flipped by the frame's X component and vice versa.
    fn readout_plane<'a, W: FrameWord>(&self, sim: &'a FrameSimulator<W>, q: usize) -> &'a [W] {
        match self.basis {
            MemoryBasis::Z => sim.x_plane(q),
            MemoryBasis::X => sim.z_plane(q),
        }
    }

    /// Runs `shots` shots with the default [`SamplerConfig`]. The result
    /// is independent of chunking, threading and lane width by
    /// construction.
    pub fn run_batch<D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
    ) -> BatchOutcome {
        self.run_batch_configured(noise, decoder, shots, seed, &SamplerConfig::default())
    }

    /// Runs `shots` shots under an explicit [`SamplerConfig`] — lane
    /// width, chunk size and optional early exit.
    ///
    /// # Panics
    ///
    /// Panics if `shots` or `cfg.chunk_shots` is zero, or if
    /// `cfg.early_exit` has a misaligned `check_every`.
    pub fn run_batch_configured<D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
        cfg: &SamplerConfig,
    ) -> BatchOutcome {
        match cfg.width {
            LaneWidth::X1 => self.run_core::<u64, D>(noise, decoder, shots, seed, cfg),
            LaneWidth::X8 => self.run_core::<W512, D>(noise, decoder, shots, seed, cfg),
        }
    }

    /// The width-generic batch engine behind every `run_batch*` entry
    /// point.
    fn run_core<W: FrameWord, D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
        cfg: &SamplerConfig,
    ) -> BatchOutcome {
        assert!(shots > 0, "need at least one shot");
        assert!(cfg.chunk_shots > 0, "need a positive chunk size");
        if let Some(e) = &cfg.early_exit {
            e.validate();
        }
        let total_blocks = shots.div_ceil(64);
        let chunk_words = cfg
            .chunk_shots
            .div_ceil(W::BITS)
            .min(total_blocks.div_ceil(W::LANES));
        let chunk_blocks = chunk_words * W::LANES;
        let num_nodes = self.graph.boundary();

        let mut sim: FrameSimulator<W> =
            FrameSimulator::new(self.num_qubits, chunk_words * W::BITS);
        // Record planes: rec[(t * num_checks + c) * words + w].
        let mut rec = vec![W::ZERO; self.rounds * self.num_checks * chunk_words];
        // Per-measurement-slot planes of the current round.
        let mut meas: Vec<W> = Vec::new();
        // Node-major detection-event planes: ev[node * blocks + b].
        let mut ev = vec![0u64; num_nodes * chunk_blocks];
        // Uncorrected logical readout flips, one u64 per 64-shot block.
        let mut logical_blocks = vec![0u64; chunk_blocks];
        // Sparse-path and plane-path decode outputs, reused across chunks.
        let mut event_sets: Vec<Vec<NodeId>> = Vec::new();
        let mut batch = CorrectionBatch::new();

        let mut is_logical = vec![false; self.num_data];
        for &q in &self.logical_support {
            is_logical[q] = true;
        }

        let mut outcome = BatchOutcome {
            shots,
            failures: 0,
            detection_events: 0,
            correction_weight: 0,
        };

        let milestone_blocks = cfg.early_exit.as_ref().map(|e| e.check_every / 64);
        let mut base_block = 0usize;
        while base_block < total_blocks {
            let mut end_block = (base_block + chunk_blocks).min(total_blocks);
            if let Some(ms) = milestone_blocks {
                // Clip the chunk to the next milestone so tallies at a
                // milestone never depend on the chunk size.
                end_block = end_block.min((base_block / ms + 1) * ms);
            }
            let blocks = end_block - base_block;
            let words = blocks.div_ceil(W::LANES);
            let mut rngs = BlockRngs::new(seed, base_block as u64, blocks);
            self.simulate_chunk(noise, &mut sim, &mut rngs, words, &mut rec, &mut meas);

            // Shots beyond `shots` in the trailing block are dead lanes.
            let live_shots = (shots - base_block * 64).min(blocks * 64);
            self.extract_event_planes(
                &sim,
                &rec,
                words,
                live_shots,
                &mut ev[..num_nodes * blocks],
                &mut logical_blocks[..blocks],
            );

            let chunk_events: usize = ev[..num_nodes * blocks]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            outcome.detection_events += chunk_events;
            let planes = EventPlanes::new(&ev[..num_nodes * blocks], num_nodes, blocks, live_shots);
            let density = chunk_events as f64 / (num_nodes * live_shots) as f64;
            if density >= PLANE_DECODE_DENSITY {
                decoder.decode_planes(&self.graph, &planes, &mut batch);
                outcome.correction_weight += batch.total_flips();
                for shot in 0..live_shots {
                    let mut fail = logical_blocks[shot / 64] >> (shot % 64) & 1 == 1;
                    for &q in batch.flips_of(shot) {
                        if is_logical[q] {
                            fail = !fail;
                        }
                    }
                    if fail {
                        outcome.failures += 1;
                    }
                }
            } else {
                planes.scatter_into(&mut event_sets);
                let corrections = decoder.decode_many(&self.graph, &event_sets[..live_shots]);
                for (shot, correction) in corrections.iter().enumerate() {
                    outcome.correction_weight += correction.weight();
                    let mut fail = logical_blocks[shot / 64] >> (shot % 64) & 1 == 1;
                    for &q in &correction.data_flips {
                        if is_logical[q] {
                            fail = !fail;
                        }
                    }
                    if fail {
                        outcome.failures += 1;
                    }
                }
            }
            base_block = end_block;

            if let Some(e) = &cfg.early_exit {
                let done = (base_block * 64).min(shots);
                if done < shots
                    && done.is_multiple_of(e.check_every)
                    && e.decided(outcome.failures, done)
                {
                    outcome.shots = done;
                    break;
                }
            }
        }
        outcome
    }

    /// Simulates one chunk of shot-words: noise injection, gate
    /// propagation and measurement-flip sampling, filling `rec` with the
    /// monitored record planes.
    fn simulate_chunk<W: FrameWord>(
        &self,
        noise: &MemoryNoise,
        sim: &mut FrameSimulator<W>,
        rngs: &mut BlockRngs,
        words: usize,
        rec: &mut [W],
        meas: &mut Vec<W>,
    ) {
        let sim_words = sim.words();
        sim.clear();
        for t_idx in 0..self.rounds {
            // Fixed draw schedule, part 1: data channel in qubit order.
            for q in 0..self.num_data {
                sim.inject_pauli_channel(&noise.data, q, rngs);
            }
            meas.clear();
            for &g in &self.round_gates {
                sim.apply_gate(g, meas);
            }
            // Fixed draw schedule, part 2: measurement flips in check
            // order. Only the first `words` of each slot plane are live
            // when the final chunk is short.
            for c in 0..self.num_checks {
                let slot = self.monitored_slots[c];
                let dest = &mut rec[(t_idx * self.num_checks + c) * words..][..words];
                dest.copy_from_slice(&meas[slot * sim_words..][..words]);
                FrameSimulator::xor_flip_plane(noise.measurement_flip, rngs, dest);
            }
        }
    }

    /// Derives node-major detection-event planes (`ev[node * blocks + b]`,
    /// dead tail bits zeroed) from the record planes — round 0 against the
    /// all-zero reference, later rounds against their predecessor, and a
    /// final perfect-readout round from data parities. Also fills the
    /// uncorrected logical-flip blocks.
    fn extract_event_planes<W: FrameWord>(
        &self,
        sim: &FrameSimulator<W>,
        rec: &[W],
        words: usize,
        live_shots: usize,
        ev: &mut [u64],
        logical_blocks: &mut [u64],
    ) {
        let blocks = live_shots.div_ceil(64);
        let tail_bits = live_shots - (blocks - 1) * 64;
        let tail_mask = if tail_bits == 64 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        debug_assert_eq!(ev.len(), self.graph.boundary() * blocks);
        debug_assert_eq!(logical_blocks.len(), blocks);

        // Writes the 64-bit lanes of a W-word plane into one node's row,
        // masking the trailing block's dead lanes.
        let flatten = |plane: &[W], out: &mut [u64]| {
            for (b, slot) in out.iter_mut().enumerate().take(blocks) {
                *slot = plane[b / W::LANES].lane(b % W::LANES);
            }
            out[blocks - 1] &= tail_mask;
        };

        let mut node_plane = vec![W::ZERO; words];
        for t_idx in 0..self.rounds {
            for c in 0..self.num_checks {
                let cur = &rec[(t_idx * self.num_checks + c) * words..][..words];
                if t_idx == 0 {
                    node_plane.copy_from_slice(cur);
                } else {
                    let prev = &rec[((t_idx - 1) * self.num_checks + c) * words..][..words];
                    for w in 0..words {
                        node_plane[w] = cur[w].xor(prev[w]);
                    }
                }
                let node = self.graph.node(t_idx, c);
                flatten(&node_plane, &mut ev[node * blocks..][..blocks]);
            }
        }
        // Final round: perfect readout parities against the last record.
        for c in 0..self.num_checks {
            let last = &rec[((self.rounds - 1) * self.num_checks + c) * words..][..words];
            for w in 0..words {
                let mut parity = W::ZERO;
                for &q in &self.check_support[c] {
                    parity = parity.xor(self.readout_plane(sim, q)[w]);
                }
                node_plane[w] = parity.xor(last[w]);
            }
            let node = self.graph.node(self.rounds, c);
            flatten(&node_plane, &mut ev[node * blocks..][..blocks]);
        }
        // Uncorrected logical readout flips.
        for (w, slot) in node_plane.iter_mut().enumerate().take(words) {
            let mut parity = W::ZERO;
            for &q in &self.logical_support {
                parity = parity.xor(self.readout_plane(sim, q)[w]);
            }
            *slot = parity;
        }
        flatten(&node_plane, logical_blocks);
    }

    /// Frame-path counterpart of
    /// [`MemoryExperiment::faulted_shot_events`]: propagates one explicit
    /// fault pattern (`errors_per_round[t][q]` XORed before round `t`,
    /// `meas_flips_per_round[t][c]` flipping monitored records) and
    /// returns the detection events plus the uncorrected logical readout
    /// parity. Consumes no randomness at all.
    ///
    /// # Panics
    ///
    /// Panics if the fault pattern's shape does not match the experiment.
    pub fn faulted_shot_events(
        &self,
        errors_per_round: &[Vec<Pauli>],
        meas_flips_per_round: &[Vec<bool>],
    ) -> (Vec<NodeId>, bool) {
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
        let mut sim: FrameSimulator = FrameSimulator::new(self.num_qubits, 1);
        let words = sim.words();
        let mut rec = vec![0u64; self.rounds * self.num_checks * words];
        let mut meas: Vec<u64> = Vec::new();
        for (t_idx, (errors, flips)) in errors_per_round
            .iter()
            .zip(meas_flips_per_round)
            .enumerate()
        {
            assert_eq!(errors.len(), self.num_data, "one Pauli per data qubit");
            assert_eq!(flips.len(), self.num_checks, "one flip bit per check");
            for (q, &e) in errors.iter().enumerate() {
                sim.xor_frame(q, 0, e);
            }
            meas.clear();
            for &g in &self.round_gates {
                sim.apply_gate(g, &mut meas);
            }
            for c in 0..self.num_checks {
                let slot = self.monitored_slots[c];
                rec[(t_idx * self.num_checks + c) * words..][..words]
                    .copy_from_slice(&meas[slot * words..][..words]);
                if flips[c] {
                    rec[(t_idx * self.num_checks + c) * words] ^= 1;
                }
            }
        }
        let num_nodes = self.graph.boundary();
        let mut ev = vec![0u64; num_nodes];
        let mut logical_blocks = vec![0u64; 1];
        self.extract_event_planes(&sim, &rec, words, 1, &mut ev, &mut logical_blocks);
        let planes = EventPlanes::new(&ev, num_nodes, 1, 1);
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        planes.scatter_into(&mut sets);
        (std::mem::take(&mut sets[0]), logical_blocks[0] & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UnionFindDecoder;

    #[test]
    fn noiseless_batch_never_fails() {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(3, 3, basis);
            let out = FrameSampler::new(&exp).run_batch(
                &MemoryNoise::noiseless(),
                &UnionFindDecoder::new(),
                200,
                1,
            );
            assert_eq!(out.shots, 200);
            assert_eq!(out.failures, 0, "{basis:?}");
            assert_eq!(out.detection_events, 0);
            assert_eq!(out.correction_weight, 0);
        }
    }

    #[test]
    fn batch_rate_tracks_legacy_rate() {
        use quest_stabilizer::{SeedableRng, StdRng};
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let noise = MemoryNoise::phenomenological(0.02);
        let uf = UnionFindDecoder::new();
        let batch = FrameSampler::new(&exp)
            .run_batch(&noise, &uf, 4000, 11)
            .logical_error_rate();
        let mut rng = StdRng::seed_from_u64(11);
        let legacy = exp.logical_error_rate(&noise, &uf, 1000, &mut rng);
        // Same distribution, independent sampling: compare loosely.
        assert!(
            (batch - legacy).abs() < 0.03,
            "batch {batch} vs legacy {legacy}"
        );
    }

    #[test]
    fn non_word_aligned_shot_counts_are_exact() {
        // 100 shots = 1 block + 36 live bits of a second block; dead lanes
        // must not contribute failures or events.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
        let noise = MemoryNoise::code_capacity(0.05);
        let uf = UnionFindDecoder::new();
        let sampler = FrameSampler::new(&exp);
        let out = sampler.run_batch(&noise, &uf, 100, 5);
        assert_eq!(out.shots, 100);
        assert!(out.failures <= 100);
        // The same seed with a word-aligned count shares its first 64
        // lanes; rates must be in the same ballpark, not wildly off from
        // lane pollution.
        let aligned = sampler.run_batch(&noise, &uf, 128, 5);
        assert!(aligned.detection_events > 0);
    }

    #[test]
    fn all_lane_widths_agree_exactly() {
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let noise = MemoryNoise::phenomenological(0.02);
        let uf = UnionFindDecoder::new();
        let outs: Vec<BatchOutcome> = LaneWidth::ALL
            .iter()
            .map(|&width| {
                let cfg = SamplerConfig {
                    width,
                    ..SamplerConfig::default()
                };
                sampler.run_batch_configured(&noise, &uf, 1000, 21, &cfg)
            })
            .collect();
        assert_eq!(outs[0], outs[1]);
        assert!(outs[0].detection_events > 0);
    }

    #[test]
    fn early_exit_stops_at_a_milestone_with_identical_prefix() {
        // Above threshold, target_failures is reached quickly; the early
        // run must report a 512-aligned shot count and exactly the
        // full run's tallies restricted to that prefix.
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let noise = MemoryNoise::code_capacity(0.08);
        let uf = UnionFindDecoder::new();
        let cfg = SamplerConfig {
            early_exit: Some(EarlyExit::default()),
            ..SamplerConfig::default()
        };
        let early = sampler.run_batch_configured(&noise, &uf, 8192, 3, &cfg);
        assert!(early.shots < 8192, "must exit early above threshold");
        assert_eq!(early.shots % EARLY_EXIT_ALIGN, 0);
        assert!(early.failures >= 100);
        // Re-running with exactly that many shots (no early exit) must
        // reproduce the tallies bit-for-bit: determinism of the prefix.
        let prefix = sampler.run_batch(&noise, &uf, early.shots, 3);
        assert_eq!(early, prefix);
    }

    #[test]
    fn early_exit_rate_rule_fires_below_bound() {
        // A noiseless run never fails, so the Hoeffding upper bound drops
        // below a loose decide_below once enough shots accumulate.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let uf = UnionFindDecoder::new();
        let cfg = SamplerConfig {
            early_exit: Some(EarlyExit::decide_below(0.05)),
            ..SamplerConfig::default()
        };
        let out = sampler.run_batch_configured(&MemoryNoise::noiseless(), &uf, 1 << 14, 9, &cfg);
        // sqrt(ln(1e9) / (2 s)) < 0.05 needs s >= 4145 -> stop at 4608.
        assert!(out.shots < 1 << 14, "rate rule must fire");
        assert_eq!(out.failures, 0);
        assert_eq!(out.shots % EARLY_EXIT_ALIGN, 0);
    }

    #[test]
    fn x_basis_batch_detects_z_noise() {
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::X);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::phase_flip(0.05),
            measurement_flip: 0.0,
        };
        let out = FrameSampler::new(&exp).run_batch(&noise, &UnionFindDecoder::new(), 640, 9);
        assert!(out.detection_events > 0, "Z errors must trigger X checks");
    }

    #[test]
    fn x_basis_batch_ignores_x_noise() {
        // X errors act trivially on |+…+⟩ memory: no X-check events, no
        // logical-X flips.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::X);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::bit_flip(0.2),
            measurement_flip: 0.0,
        };
        let out = FrameSampler::new(&exp).run_batch(&noise, &UnionFindDecoder::new(), 640, 9);
        assert_eq!(out.detection_events, 0);
        assert_eq!(out.failures, 0);
    }
}
