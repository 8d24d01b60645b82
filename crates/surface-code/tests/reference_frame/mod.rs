//! The batch sampler as it was before the fault map: per chunk of shot
//! words it injects every round's data channel into a `FrameSimulator`,
//! pushes the words through every gate of the round, samples the record
//! flips, and derives detection events and logical flips from the record
//! and readout planes. Kept, written against the public
//! `FrameSimulator`/`BlockRngs` API, as the differential oracle of
//! `sampler_oracle.rs` (and of the fault-map tests): `FrameSampler` must
//! report exactly its tallies.

use quest_stabilizer::frame::{BlockRngs, FrameSimulator, FrameWord, LaneWidth, W512};
use quest_stabilizer::{Gate, Pauli};
use quest_surface::decoder::{CorrectionBatch, Decoder, EventPlanes};
use quest_surface::{
    BatchOutcome, DecodingGraph, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId, SamplerConfig,
    PLANE_DECODE_DENSITY,
};

/// A memory experiment compiled for frame propagation.
pub struct ReferenceSampler {
    round_gates: Vec<Gate>,
    graph: DecodingGraph,
    /// For monitored check `c`: its index into a round's measurements.
    monitored_slots: Vec<usize>,
    check_support: Vec<Vec<usize>>,
    logical_support: Vec<usize>,
    num_data: usize,
    num_qubits: usize,
    num_checks: usize,
    rounds: usize,
    basis: MemoryBasis,
}

impl ReferenceSampler {
    pub fn new(exp: &MemoryExperiment) -> ReferenceSampler {
        let lat = exp.lattice();
        let basis = exp.basis();
        let kind = basis.check_kind();
        ReferenceSampler {
            round_gates: exp
                .syndrome_circuit()
                .round_circuit()
                .iter()
                .copied()
                .collect(),
            graph: exp.decoding_graph(),
            monitored_slots: lat
                .plaquettes()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.kind == kind)
                .map(|(slot, _)| slot)
                .collect(),
            check_support: lat.plaquettes_of(kind).map(|p| p.data.clone()).collect(),
            logical_support: match basis {
                MemoryBasis::Z => (0..lat.distance())
                    .map(|col| lat.data_index(0, col))
                    .collect(),
                MemoryBasis::X => (0..lat.distance())
                    .map(|row| lat.data_index(row, 0))
                    .collect(),
            },
            num_data: lat.num_data(),
            num_qubits: lat.num_qubits(),
            num_checks: lat.plaquettes_of(kind).count(),
            rounds: exp.rounds(),
            basis,
        }
    }

    /// Readout flips live in the X plane of a Z-basis readout and in the
    /// Z plane of an X-basis one.
    fn readout_plane<'a, W: FrameWord>(&self, sim: &'a FrameSimulator<W>, q: usize) -> &'a [W] {
        match self.basis {
            MemoryBasis::Z => sim.x_plane(q),
            MemoryBasis::X => sim.z_plane(q),
        }
    }

    /// `FrameSampler::run_batch_configured` as it was, at the lane width
    /// `cfg` names.
    pub fn run<D: Decoder>(
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

    fn run_core<W: FrameWord, D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
        cfg: &SamplerConfig,
    ) -> BatchOutcome {
        let total_blocks = shots.div_ceil(64);
        let chunk_words = cfg
            .chunk_shots
            .div_ceil(W::BITS)
            .min(total_blocks.div_ceil(W::LANES));
        let chunk_blocks = chunk_words * W::LANES;
        let num_nodes = self.graph.boundary();

        let mut sim: FrameSimulator<W> =
            FrameSimulator::new(self.num_qubits, chunk_words * W::BITS);
        let mut rec = vec![W::ZERO; self.rounds * self.num_checks * chunk_words];
        let mut meas: Vec<W> = Vec::new();
        let mut ev = vec![0u64; num_nodes * chunk_blocks];
        let mut logical_blocks = vec![0u64; chunk_blocks];
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
                end_block = end_block.min((base_block / ms + 1) * ms);
            }
            let blocks = end_block - base_block;
            let words = blocks.div_ceil(W::LANES);
            let mut rngs = BlockRngs::new(seed, base_block as u64, blocks);
            self.simulate_chunk(noise, &mut sim, &mut rngs, words, &mut rec, &mut meas);

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

    /// Noise injection, gate propagation and record-flip sampling of one
    /// chunk, in the fixed per-block draw order: per round, the data
    /// channel in qubit order, then the record flips in check order.
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
            for q in 0..self.num_data {
                sim.inject_pauli_channel(&noise.data, q, rngs);
            }
            meas.clear();
            for &g in &self.round_gates {
                sim.apply_gate(g, meas);
            }
            for c in 0..self.num_checks {
                let slot = self.monitored_slots[c];
                let dest = &mut rec[(t_idx * self.num_checks + c) * words..][..words];
                dest.copy_from_slice(&meas[slot * sim_words..][..words]);
                FrameSimulator::xor_flip_plane(noise.measurement_flip, rngs, dest);
            }
        }
    }

    /// Node-major event planes (dead tail bits zeroed) and the logical
    /// flip blocks from the record planes and the final frame.
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
        for (w, slot) in node_plane.iter_mut().enumerate().take(words) {
            let mut parity = W::ZERO;
            for &q in &self.logical_support {
                parity = parity.xor(self.readout_plane(sim, q)[w]);
            }
            *slot = parity;
        }
        flatten(&node_plane, logical_blocks);
    }

    /// Propagates one explicit fault pattern through the rounds and
    /// returns its detection events and uncorrected logical parity.
    pub fn faulted_shot_events(
        &self,
        errors_per_round: &[Vec<Pauli>],
        meas_flips_per_round: &[Vec<bool>],
    ) -> (Vec<NodeId>, bool) {
        let mut sim: FrameSimulator = FrameSimulator::new(self.num_qubits, 1);
        let words = sim.words();
        let mut rec = vec![0u64; self.rounds * self.num_checks * words];
        let mut meas: Vec<u64> = Vec::new();
        for (t_idx, (errors, flips)) in errors_per_round
            .iter()
            .zip(meas_flips_per_round)
            .enumerate()
        {
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
        let events = (0..num_nodes).filter(|&n| ev[n] & 1 == 1).collect();
        (events, logical_blocks[0] & 1 == 1)
    }
}
