//! The Micro-coded Control Engine (MCE), §4.2/Figure 7.
//!
//! An MCE owns a tile of the quantum substrate and contains the four
//! functional blocks of the paper: the instruction pipeline (logical
//! instructions), the microcode pipeline (QECC replay), the prime-line
//! quantum execution unit, and the error-decoder pipeline. Once its QECC
//! microcode is programmed, the MCE sustains error correction with *zero*
//! global-bus instruction traffic — the architectural claim this
//! repository exists to demonstrate.

use crate::decoder_pipeline::{DecodeStats, DecoderPipeline, Escalation};
use crate::execution_unit::{ExecutionStats, ExecutionUnit, ResolvedCycle, ResolvedWord};
use crate::geometry::TileGeometry;
use crate::instruction_pipeline::InstructionPipeline;
use crate::mask::MaskTable;
use crate::microcode::QeccMicrocode;
use crate::program_gen;
#[cfg(test)]
use quest_isa::PhysOpcode;
use quest_isa::{LogicalInstr, MicroOp, VliwWord};
use quest_stabilizer::{Outcomes, StabilizerSim};
use quest_surface::{NodeId, RotatedLattice, StabKind, UfScratch, UnionFindDecoder};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Instruction-buffer bytes per MCE (the §5.3 cache capacity used by the
/// reference system and by the runtime's shard workers).
pub const MCE_IBUF_BYTES: usize = 65_536;

/// Result of a destructive logical-Z readout
/// ([`Mce::measure_logical_z_details`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readout {
    /// The decoded logical value.
    pub value: bool,
    /// Residual detection events resolved by the final perfect round
    /// (upstream syndrome traffic at readout).
    pub final_events: u64,
}

/// What an MCE derives from its QECC program once. Every clone shares it
/// (a run's tiles are clones of one template), so a clone does not grow.
#[derive(Debug)]
struct ResolvedProgram {
    /// The program's words, each resolved to the substrate calls that
    /// fire it; a slot that merges nothing fires its word from here.
    words: Box<[ResolvedWord]>,
    /// The same words as one gate list: a cycle that merges nothing is
    /// fired from here, as one substrate call.
    cycle: ResolvedCycle,
    /// The wiring between the execution unit's measurement outputs and
    /// the decoder pipelines ([`program_gen::measured_ancillas`]): per
    /// tile slot, the kind (0 for X checks, 1 for Z) and the bit of the
    /// syndrome words its reading is, if it is an ancilla. The syndrome
    /// words are the X checks' (`syndrome_words[0]` of them), then the Z
    /// checks'.
    check_of_slot: Box<[Option<(usize, usize)>]>,
    /// Per kind, the number of checks, the syndrome words of its checks
    /// and the mask regions holding its ancillas.
    checks: [usize; 2],
    syndrome_words: [usize; 2],
    regions: [Box<[usize]>; 2],
    /// The same wiring for the outcomes of `cycle`, as bits in firing
    /// order: for nibble `k` of the outcomes and each of its 16 values
    /// `v`, the syndrome words those outcomes set,
    /// `spread[(16 * k + v) * width..][..width]` with `width` the words
    /// of both kinds.
    spread: Box<[u64]>,
    /// The data qubits, in the order a readout measures them.
    data: Box<[usize]>,
}

impl ResolvedProgram {
    fn new(
        lattice: &RotatedLattice,
        words: &[VliwWord],
        geometry: &TileGeometry,
        mask: &MaskTable,
    ) -> Self {
        let ancillas =
            [StabKind::X, StabKind::Z].map(|kind| program_gen::measured_ancillas(lattice, kind));
        let words: Box<[ResolvedWord]> = words
            .iter()
            .map(|w| ResolvedWord::of(w, geometry))
            .collect();
        let cycle = ResolvedCycle::of(&words);
        // A cycle fired as one call routes its syndrome once, after every
        // word: only if the measurement word is the last one do the
        // readout-flip draws still follow every draw of the cycle. It
        // feeds both pipelines, so it measures every check, once.
        let mut measured: Vec<usize> = cycle.measured().to_vec();
        measured.sort_unstable();
        let mut ancilla_slots: Vec<usize> = ancillas.concat();
        ancilla_slots.sort_unstable();
        assert!(
            words.len() == program_gen::CYCLE_WORDS
                && words
                    .iter()
                    .enumerate()
                    .all(|(at, w)| w.measures() == (at == program_gen::MEASURE_WORD))
                && program_gen::MEASURE_WORD == program_gen::CYCLE_WORDS - 1
                && measured == ancilla_slots,
            "the QECC cycle must measure every check once, in its last word only"
        );
        let checks = ancillas.each_ref().map(Vec::len);
        let syndrome_words = checks.map(|c| c.div_ceil(64));
        let mut check_of_slot = vec![None; lattice.num_qubits()];
        for (kind, slots) in ancillas.iter().enumerate() {
            for (check, &slot) in slots.iter().enumerate() {
                check_of_slot[slot] = Some((kind, kind * syndrome_words[0] * 64 + check));
            }
        }
        // Each nibble's 16 sums, each from a smaller one and the bit of
        // one outcome.
        let width = syndrome_words[0] + syndrome_words[1];
        let outcomes = cycle.measured();
        let mut spread = vec![0; outcomes.len().div_ceil(4) * 16 * width];
        for (k, table) in spread.chunks_exact_mut(16 * width).enumerate() {
            for v in 1..16usize {
                let (done, entry) = table.split_at_mut(v * width);
                let entry = &mut entry[..width];
                entry.copy_from_slice(&done[(v & (v - 1)) * width..][..width]);
                let slot = outcomes.get(4 * k + v.trailing_zeros() as usize);
                if let Some(&(_, bit)) = slot.and_then(|&slot| check_of_slot[slot].as_ref()) {
                    entry[bit / 64] ^= 1 << (bit % 64);
                }
            }
        }
        ResolvedProgram {
            cycle,
            words,
            check_of_slot: check_of_slot.into(),
            checks,
            syndrome_words,
            regions: ancillas.map(|slots| {
                let mut regions: Vec<usize> = slots.iter().map(|&a| mask.region_of(a)).collect();
                regions.sort_unstable();
                regions.dedup();
                regions.into()
            }),
            spread: spread.into(),
            data: (0..lattice.num_data()).collect(),
        }
    }
}

/// What a readout writes, kept by the tile so that a readout allocates
/// nothing but a correction: the data qubits' outcomes, then the same
/// with the decoder's frame folded in as words, the final round's
/// events, and the union-find workspace that decodes them.
#[derive(Debug, Clone, Default)]
struct ReadoutScratch {
    outcomes: Outcomes,
    bits: Vec<u64>,
    events: Vec<NodeId>,
    decoder: UfScratch,
}

/// One Micro-coded Control Engine driving a surface-code tile.
///
/// What [`Mce::new`] derives from the lattice — the lattice itself, the
/// QECC microcode and its resolved words, the tile geometry, both
/// decoder pipelines' graph and lookup table — never changes, so every
/// clone of an MCE shares it: a run's tiles are clones of one template,
/// and a clone copies only the per-tile state.
///
/// # Example
///
/// ```
/// use quest_core::Mce;
/// use quest_stabilizer::{SeedableRng, StdRng, Tableau};
/// use quest_surface::RotatedLattice;
///
/// let lattice = RotatedLattice::new(3);
/// let mut mce = Mce::new(&lattice, 4096);
/// let mut substrate = Tableau::new(lattice.num_qubits());
/// let mut rng = StdRng::seed_from_u64(2);
/// // Run three full QECC cycles with no master-controller involvement.
/// for _ in 0..3 {
///     mce.run_qecc_cycle(&mut substrate, &mut rng);
/// }
/// assert_eq!(mce.microcode().completed_cycles(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mce {
    lattice: Arc<RotatedLattice>,
    microcode: QeccMicrocode,
    mask: MaskTable,
    execution: ExecutionUnit,
    instruction: InstructionPipeline,
    decode_x: DecoderPipeline,
    decode_z: DecoderPipeline,
    /// Logical-µop table: words queued by the instruction pipeline that
    /// take priority (via the mask) over QECC words.
    logical_uops: VecDeque<VliwWord>,
    /// Pending logical Pauli-frame flips on the tile's logical qubit.
    logical_frame_x: bool,
    logical_frame_z: bool,
    /// Magic states consumed by T gates dispatched to this tile.
    magic_states_consumed: u64,
    /// Probability that a syndrome measurement is reported flipped
    /// (readout-chain error, independent of the quantum state).
    measurement_flip: f64,
    /// The QECC program resolved, and the syndrome wiring.
    program: Arc<ResolvedProgram>,
    /// The syndrome bits of the measurement word being routed, packed
    /// 64 to a word: the X checks' words, then the Z checks'.
    syndrome: Vec<u64>,
    readout: ReadoutScratch,
}

impl Mce {
    /// Builds an MCE for a lattice tile with an instruction buffer of
    /// `ibuf_bytes` bytes. The QECC microcode is generated and installed
    /// immediately (the unit-cell program of the tile's syndrome circuit).
    /// The tile starts at substrate index 0 (see [`Mce::rebase`]).
    pub fn new(lattice: &RotatedLattice, ibuf_bytes: usize) -> Mce {
        let geometry = TileGeometry::from_lattice(lattice);
        let words = program_gen::qecc_cycle_words(lattice, &geometry);
        let d = lattice.distance();
        let mask = MaskTable::coalesced(lattice.num_qubits(), d * d);
        let program = ResolvedProgram::new(lattice, &words, &geometry, &mask);
        Mce {
            lattice: Arc::new(lattice.clone()),
            microcode: QeccMicrocode::new(words),
            mask,
            execution: ExecutionUnit::new(geometry),
            instruction: InstructionPipeline::new(ibuf_bytes),
            decode_x: DecoderPipeline::new(lattice, StabKind::X),
            decode_z: DecoderPipeline::new(lattice, StabKind::Z),
            logical_uops: VecDeque::new(),
            logical_frame_x: false,
            logical_frame_z: false,
            magic_states_consumed: 0,
            measurement_flip: 0.0,
            syndrome: vec![0; program.syndrome_words.iter().sum()],
            readout: ReadoutScratch::default(),
            program: Arc::new(program),
        }
    }

    /// Sets the classical syndrome-measurement flip probability (readout
    /// noise between the execution unit and the decoder pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_measurement_flip(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.measurement_flip = p;
    }

    /// Substrate index of tile-local qubit `q`.
    pub fn substrate_index(&self, q: usize) -> usize {
        self.execution.offset() + q
    }

    /// Moves the tile to start at substrate index `offset`. A tile has a
    /// block of its own until a transversal CNOT entangles it with
    /// another; [`Substrate::join`](crate::substrate::Substrate::join)
    /// then puts both in one block and re-bases the tile that moved.
    pub fn rebase(&mut self, offset: usize) {
        self.execution.set_offset(offset);
    }

    /// The tile's lattice.
    pub fn lattice(&self) -> &RotatedLattice {
        &self.lattice
    }

    /// The QECC replay engine.
    pub fn microcode(&self) -> &QeccMicrocode {
        &self.microcode
    }

    /// The mask table.
    pub fn mask(&self) -> &MaskTable {
        &self.mask
    }

    /// Mutable mask access (mask instructions write here).
    pub fn mask_mut(&mut self) -> &mut MaskTable {
        &mut self.mask
    }

    /// The instruction pipeline.
    pub fn instruction_pipeline(&self) -> &InstructionPipeline {
        &self.instruction
    }

    /// Mutable instruction-pipeline access.
    pub fn instruction_pipeline_mut(&mut self) -> &mut InstructionPipeline {
        &mut self.instruction
    }

    /// Execution-unit statistics.
    pub fn execution_stats(&self) -> ExecutionStats {
        self.execution.stats()
    }

    /// Measurement outcomes of the last word issued — of the whole
    /// cycle, when it was fired as one call — packed in firing order (by
    /// ascending tile slot within a word).
    pub fn measurements(&self) -> &Outcomes {
        self.execution.measurements()
    }

    /// Local-decoder statistics for one stabilizer type.
    pub fn decode_stats(&self, kind: StabKind) -> DecodeStats {
        match kind {
            StabKind::X => self.decode_x.stats(),
            StabKind::Z => self.decode_z.stats(),
        }
    }

    /// The decoder pipeline for one stabilizer type.
    pub fn decoder(&self, kind: StabKind) -> &DecoderPipeline {
        match kind {
            StabKind::X => &self.decode_x,
            StabKind::Z => &self.decode_z,
        }
    }

    /// Mutable decoder access (the master controller pushes global
    /// corrections through this).
    pub fn decoder_mut(&mut self, kind: StabKind) -> &mut DecoderPipeline {
        match kind {
            StabKind::X => &mut self.decode_x,
            StabKind::Z => &mut self.decode_z,
        }
    }

    /// Queues a logical VLIW word; while queued words exist they are
    /// issued in place of QECC words on masked qubits.
    pub fn queue_logical_word(&mut self, w: VliwWord) {
        assert_eq!(
            w.len(),
            self.lattice.num_qubits(),
            "logical word width must match tile"
        );
        self.logical_uops.push_back(w);
    }

    /// Number of queued logical words.
    pub fn pending_logical_words(&self) -> usize {
        self.logical_uops.len()
    }

    /// Issues one instruction slot: the next QECC word, merged through the
    /// mask table with the head of the logical-µop queue (Figure 8c).
    /// Returns the word actually fired.
    pub fn step<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) -> VliwWord {
        let at = self.microcode.cursor();
        if self.issue_slot(substrate, rng) {
            VliwWord::from_uops(self.execution.latched().to_vec())
        } else {
            self.microcode.word(at).clone()
        }
    }

    /// [`Mce::step`] without the copy of the fired word; `true` if the
    /// slot merged anything. A slot with no region masked and no logical
    /// µop queued fires its QECC word as [`Mce::new`] resolved it. Any
    /// other slot is merged — latched region by region onto the execution
    /// unit's switches — then resolved and fired by the same routine. The
    /// measurement outcomes are read from the unit's buffer, so a slot
    /// allocates nothing.
    ///
    /// The first slot of a cycle tells the substrate that the program
    /// starts over ([`StabilizerSim::cycle_boundary`], keyed by the
    /// tile's offset so that tiles sharing a block are told apart).
    fn issue_slot<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) -> bool {
        if self.microcode.at_cycle_start() {
            substrate.cycle_boundary(self.execution.offset());
        }
        let at = self.microcode.cursor();
        let qecc = self.microcode.advance();
        let merged = !self.logical_uops.is_empty() || self.mask.any_masked();
        let fired = if merged {
            let logical = self.logical_uops.pop_front();
            // The mask is walked region by region: which table a qubit's
            // µop comes from is decided once per region, not per qubit.
            let (width, size) = (qecc.len(), self.mask.region_size());
            for region in 0..self.mask.num_regions() {
                let qubits = region * size..width.min((region + 1) * size);
                let source = match self.mask.region_masked(region) {
                    false => Some(qecc),
                    true => logical.as_ref(),
                };
                self.execution.latch_range(qubits, source);
            }
            self.execution.fire(substrate, rng)
        } else {
            self.execution
                .issue(&self.program.words[at], substrate, rng)
        };
        if !fired.outcomes.is_empty() {
            self.route_syndrome(merged, at, rng);
        }
        merged
    }

    /// Runs exactly one full QECC cycle (all words of the microcode
    /// program from its current cycle start).
    ///
    /// A cycle that merges nothing — no logical µop queued and no mask
    /// region set when it starts, and nothing changes either during it —
    /// is fired as one substrate call ([`StabilizerSim::run_cycle`] over
    /// the whole program resolved as one gate list), its syndrome routed
    /// once after it, from the packed outcomes to the packed syndromes by
    /// the program's spread tables. Only the last word measures, so that
    /// is the same calls, draws and syndrome as its slots one by one,
    /// which is how any other cycle is issued.
    ///
    /// # Panics
    ///
    /// Panics if called mid-cycle (the microcode cursor is not at a cycle
    /// boundary).
    pub fn run_qecc_cycle<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) {
        assert!(
            self.microcode.at_cycle_start(),
            "run_qecc_cycle must start at a cycle boundary"
        );
        if self.logical_uops.is_empty() && !self.mask.any_masked() {
            for _ in 0..self.microcode.cycle_len() {
                self.microcode.advance();
            }
            self.execution
                .issue_cycle(&self.program.cycle, substrate, rng);
            self.route_cycle_syndrome(rng);
            return;
        }
        for _ in 0..self.microcode.cycle_len() {
            self.issue_slot(substrate, rng);
        }
    }

    /// Routes the outcomes of the measurement word just issued in slot
    /// `at` (`merged`: from the latches) to the decoder pipelines, each
    /// corrupted by readout noise with probability `measurement_flip`
    /// (one draw per outcome, in slot order, and none when the
    /// probability is zero). A kind's checks reach its pipeline only when
    /// every one of its ancillas was measured in this word and none of
    /// them is masked (masked regions produce no valid syndrome).
    fn route_syndrome<R: Rng + ?Sized>(&mut self, merged: bool, at: usize, rng: &mut R) {
        let program = &*self.program;
        let slots = match merged {
            true => self.execution.resolved().measured(),
            false => program.words[at].measured(),
        };
        let flip = self.measurement_flip;
        let mut measured = [0; 2];
        self.syndrome.fill(0);
        for (&slot, value) in slots.iter().zip(self.execution.measurements().iter()) {
            let flipped = flip > 0.0 && rng.gen::<f64>() < flip;
            if let Some((kind, bit)) = program.check_of_slot[slot] {
                measured[kind] += 1;
                self.syndrome[bit / 64] |= u64::from(value ^ flipped) << (bit % 64);
            }
        }
        let (x, z) = self.syndrome.split_at(program.syndrome_words[0]);
        for (kind, (decoder, syndrome)) in [(&mut self.decode_x, x), (&mut self.decode_z, z)]
            .into_iter()
            .enumerate()
        {
            let masked = program.regions[kind]
                .iter()
                .any(|&r| self.mask.region_masked(r));
            if measured[kind] == program.checks[kind] && !masked {
                decoder.feed_packed(syndrome);
            }
        }
    }

    /// [`Mce::route_syndrome`] for a whole cycle fired as one call, which
    /// measures every check once and runs with no region masked: the
    /// syndrome words are the XOR of the spread-table rows each nibble of
    /// the outcomes picks, a flipped outcome (the same draws, in the same
    /// order) XORs its own bit's row in, and both pipelines are fed.
    fn route_cycle_syndrome<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let program = &*self.program;
        let outcomes = self.execution.measurements();
        let (spread, syndrome) = (&program.spread, &mut self.syndrome);
        let width = syndrome.len();
        syndrome.fill(0);
        let mut pick = |entry: usize| {
            for (s, r) in syndrome.iter_mut().zip(&spread[entry * width..][..width]) {
                *s ^= r;
            }
        };
        for k in 0..spread.len() / (16 * width) {
            pick(16 * k + (outcomes.words()[k / 16] >> (4 * (k % 16)) & 15) as usize);
        }
        let flip = self.measurement_flip;
        if flip > 0.0 {
            for i in 0..outcomes.len() {
                if rng.gen::<f64>() < flip {
                    pick(16 * (i / 4) + (1 << (i % 4)));
                }
            }
        }
        let (x, z) = self.syndrome.split_at(program.syndrome_words[0]);
        self.decode_x.feed_packed(x);
        self.decode_z.feed_packed(z);
    }

    /// Executes one logical instruction on this tile (step ⑤/⑥ of the
    /// instruction pipeline: decode and expand).
    ///
    /// The tile hosts one logical qubit, so single-qubit operands are
    /// ignored. Simulation-backed operations:
    ///
    /// * `X`/`Z` — tracked in the logical Pauli frame (no physical µops,
    ///   exactly like real Pauli-frame controllers);
    /// * `MaskOn`/`MaskOff` — mask-table writes;
    /// * `BraidStep` — toggles a mask region (one boundary-move step);
    /// * `PrepZ`/`PrepX` — queue a transverse preparation word for the
    ///   data qubits (issued through the mask on the next slot);
    /// * `T`/`MagicInject` — consume a magic state (counted; the
    ///   non-Clifford rotation itself lies outside stabilizer
    ///   simulation);
    /// * `H`, `S`, `Cnot`, measurements, sync and cache control are
    ///   coordinated by the master controller, not expanded per tile.
    pub fn execute_logical(&mut self, i: LogicalInstr) {
        use quest_isa::PhysOpcode as Op;
        match i {
            LogicalInstr::X(_) => self.logical_frame_x = !self.logical_frame_x,
            LogicalInstr::Z(_) => self.logical_frame_z = !self.logical_frame_z,
            LogicalInstr::MaskOn(r) => self.mask.set_region(r.0 as usize, true),
            LogicalInstr::MaskOff(r) => self.mask.set_region(r.0 as usize, false),
            LogicalInstr::BraidStep(r) => {
                let region = r.0 as usize;
                let now = self.mask.region_masked(region);
                self.mask.set_region(region, !now);
            }
            LogicalInstr::PrepZ(_) | LogicalInstr::PrepX(_) => {
                let op = if matches!(i, LogicalInstr::PrepZ(_)) {
                    Op::PrepZ
                } else {
                    Op::PrepX
                };
                let mut w = VliwWord::nop(self.lattice.num_qubits());
                for q in 0..self.lattice.num_data() {
                    w.set(q, MicroOp::simple(op));
                }
                self.queue_logical_word(w);
                self.notify_prepared(if matches!(i, LogicalInstr::PrepZ(_)) {
                    StabKind::Z
                } else {
                    StabKind::X
                });
            }
            LogicalInstr::T(_) | LogicalInstr::MagicInject(_) => {
                self.magic_states_consumed += 1;
            }
            _ => {}
        }
    }

    /// Re-arms the decoder pipelines and clears the logical frame after a
    /// fresh logical preparation in the `deterministic_kind` basis: that
    /// kind's checks start from the known all-zero reference, the other
    /// kind's checks take their reference from the first projective round.
    pub fn notify_prepared(&mut self, deterministic_kind: StabKind) {
        use crate::decoder_pipeline::Reference;
        self.decoder_mut(deterministic_kind)
            .reset_reference(Reference::Deterministic);
        self.decoder_mut(deterministic_kind.other())
            .reset_reference(Reference::FirstRound);
        self.logical_frame_x = false;
        self.logical_frame_z = false;
    }

    /// Pending logical Pauli-frame flips `(x, z)` on the tile's logical
    /// qubit.
    pub fn logical_frame(&self) -> (bool, bool) {
        (self.logical_frame_x, self.logical_frame_z)
    }

    /// Magic states consumed by T gates dispatched to this tile.
    pub fn magic_states_consumed(&self) -> u64 {
        self.magic_states_consumed
    }

    /// Reads out the tile's logical qubit in the Z basis: measures every
    /// data qubit, applies the error-decoder Pauli frame plus one final
    /// perfect decoding round, XORs the logical-Z row, and folds in the
    /// logical Pauli frame.
    ///
    /// This consumes the logical state (all data qubits collapse).
    pub fn measure_logical_z<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) -> bool {
        self.measure_logical_z_details(substrate, rng).value
    }

    /// Like [`Mce::measure_logical_z`], additionally reporting how many
    /// residual detection events the final perfect decoding round saw —
    /// the master controller accounts those as upstream syndrome bytes
    /// ([`MasterController::note_readout_syndrome`](crate::MasterController::note_readout_syndrome)).
    pub fn measure_logical_z_details<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) -> Readout {
        let ReadoutScratch {
            outcomes,
            bits,
            events,
            decoder,
        } = &mut self.readout;
        outcomes.clear();
        substrate.measure_qubits(self.execution.offset(), &self.program.data, rng, outcomes);
        bits.clear();
        let frame = self.decode_z.frame_words();
        bits.extend(outcomes.words().iter().zip(frame).map(|(o, f)| o ^ f));
        let bit = |bits: &[u64], q: usize| bits[q / 64] >> (q % 64) & 1 == 1;
        // Final perfect round: decode the residual syndrome derived from
        // the readout itself, over the Z pipeline's single-round graph.
        let graph = self.decode_z.graph();
        events.clear();
        events.extend(
            self.lattice
                .plaquettes_of(StabKind::Z)
                .enumerate()
                .filter_map(|(c, p)| {
                    let parity = p.data.iter().fold(false, |acc, &q| acc ^ bit(bits, q));
                    parity.then_some(graph.node(0, c))
                }),
        );
        if !events.is_empty() {
            let correction = UnionFindDecoder::new().decode_with(graph, events, decoder);
            for q in correction.data_flips {
                bits[q / 64] ^= 1 << (q % 64);
            }
        }
        let parity = (0..self.lattice.distance())
            .map(|col| bit(bits, self.lattice.data_index(0, col)))
            .fold(false, |acc, b| acc ^ b);
        Readout {
            value: parity ^ self.logical_frame_x,
            final_events: events.len() as u64,
        }
    }

    /// Drains pending escalations from both decoder pipelines as
    /// `(kind, escalation)` pairs for the master controller.
    pub fn take_escalations(&mut self) -> Vec<(StabKind, Escalation)> {
        let mut out = Vec::new();
        for e in self.decode_z.take_escalations() {
            out.push((StabKind::Z, e));
        }
        for e in self.decode_x.take_escalations() {
            out.push((StabKind::X, e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_stabilizer::{SeedableRng, StdRng, Tableau};

    fn setup(d: usize) -> (Mce, Tableau, StdRng) {
        let lat = RotatedLattice::new(d);
        let mce = Mce::new(&lat, 4096);
        let t = Tableau::new(lat.num_qubits());
        (mce, t, StdRng::seed_from_u64(13))
    }

    #[test]
    fn qecc_cycles_replay_without_bus_traffic() {
        let (mut mce, mut t, mut rng) = setup(3);
        for _ in 0..10 {
            mce.run_qecc_cycle(&mut t, &mut rng);
        }
        assert_eq!(mce.microcode().completed_cycles(), 10);
        // The instruction pipeline saw nothing: QECC is hardware-managed.
        assert_eq!(mce.instruction_pipeline().stats().bus_instructions, 0);
    }

    #[test]
    fn noiseless_cycles_produce_no_corrections_or_escalations() {
        let (mut mce, mut t, mut rng) = setup(3);
        for _ in 0..5 {
            mce.run_qecc_cycle(&mut t, &mut rng);
        }
        let z = mce.decode_stats(StabKind::Z);
        assert_eq!(z.escalations, 0);
        assert_eq!(z.local_corrections, 0);
        assert!(mce.decoder(StabKind::Z).frame().next().is_none());
    }

    #[test]
    fn injected_error_is_fixed_by_local_decoder() {
        let (mut mce, mut t, mut rng) = setup(3);
        mce.run_qecc_cycle(&mut t, &mut rng); // project
        let victim = mce.lattice().data_index(1, 1);
        t.x(victim);
        mce.run_qecc_cycle(&mut t, &mut rng);
        let frame: Vec<usize> = mce.decoder(StabKind::Z).frame().collect();
        assert_eq!(frame, vec![victim]);
        assert_eq!(mce.decode_stats(StabKind::Z).local_hits, 1);
        assert_eq!(mce.decode_stats(StabKind::Z).escalations, 0);
    }

    #[test]
    fn buffers_never_grow_after_the_first_cycle() {
        // Everything a QECC cycle writes: the execution unit's latches
        // and outcome buffer, the syndrome routing buffers, and each
        // decoder pipeline's syndrome reference, event, flip and frame
        // words. (An escalated round still allocates its event list — an
        // escalation hands it upstream.)
        fn buffers(mce: &Mce) -> Vec<(usize, usize)> {
            let mut all = mce.execution.buffers().to_vec();
            all.push((mce.syndrome.as_ptr() as usize, mce.syndrome.capacity()));
            all.push((0, mce.logical_uops.capacity()));
            for kind in [StabKind::X, StabKind::Z] {
                all.extend(mce.decoder(kind).buffers());
            }
            all
        }
        let (mut mce, mut t, mut rng) = setup(5);
        mce.set_measurement_flip(0.01);
        mce.run_qecc_cycle(&mut t, &mut rng);
        let warm = buffers(&mce);
        for _ in 0..20 {
            t.pauli(
                rng.gen_range(0..mce.lattice().num_data()),
                quest_stabilizer::Pauli::Y,
            );
            mce.run_qecc_cycle(&mut t, &mut rng);
            let _ = mce.take_escalations();
            assert_eq!(buffers(&mce), warm, "an MCE buffer moved or grew");
        }
        assert!(mce.decode_stats(StabKind::Z).local_hits > 0);
    }

    #[test]
    fn step_returns_the_word_it_fired() {
        // `step` is `run_qecc_cycle`'s slot with a copy of the merged
        // word: unmasked slots carry the QECC µop, masked ones the
        // logical µop (or a NOP).
        let (mut mce, mut t, mut rng) = setup(3);
        let q = mce.lattice().data_index(0, 0);
        let region = mce.mask().region_of(q);
        mce.mask_mut().set_region(region, true);
        let mut logical = VliwWord::nop(mce.lattice().num_qubits());
        logical.set(q, MicroOp::simple(PhysOpcode::X));
        mce.queue_logical_word(logical.clone());
        let expected: Vec<MicroOp> = mce
            .microcode()
            .word(0)
            .iter()
            .map(|(slot, qecc)| {
                if mce.mask().is_masked(slot) {
                    logical.get(slot)
                } else {
                    qecc
                }
            })
            .collect();
        assert!(expected.iter().any(|u| u.opcode() != PhysOpcode::Nop));
        assert_eq!(mce.step(&mut t, &mut rng), VliwWord::from_uops(expected));
        assert!(t.measure(q, &mut rng).value, "the logical µop fired");
    }

    #[test]
    fn masked_region_stops_qecc_uops() {
        let (mut mce, mut t, mut rng) = setup(3);
        // Mask everything: all µops become NOPs, no measurements occur.
        let regions = mce.mask().num_regions();
        for r in 0..regions {
            mce.mask_mut().set_region(r, true);
        }
        let before = mce.execution_stats().measurements;
        mce.run_qecc_cycle(&mut t, &mut rng);
        assert_eq!(mce.execution_stats().measurements, before);
        assert_eq!(mce.execution_stats().active_uops, 0);
    }

    #[test]
    fn logical_words_flow_through_mask() {
        let (mut mce, mut t, mut rng) = setup(3);
        let n = mce.lattice().num_qubits();
        // Mask the whole tile and queue a logical X on one data qubit.
        for r in 0..mce.mask().num_regions() {
            mce.mask_mut().set_region(r, true);
        }
        let q = mce.lattice().data_index(0, 0);
        let mut w = VliwWord::nop(n);
        w.set(q, MicroOp::simple(PhysOpcode::X));
        mce.queue_logical_word(w);
        mce.step(&mut t, &mut rng);
        assert_eq!(mce.pending_logical_words(), 0);
        assert!(t.measure(q, &mut rng).value, "logical µop executed");
    }

    #[test]
    #[should_panic(expected = "cycle boundary")]
    fn mid_cycle_full_cycle_call_panics() {
        let (mut mce, mut t, mut rng) = setup(3);
        mce.step(&mut t, &mut rng);
        mce.run_qecc_cycle(&mut t, &mut rng);
    }

    #[test]
    fn mask_idle_and_resume_preserves_logical_state() {
        // §5.1: logical qubits are created by masking QECC over a region.
        // Mask the whole tile (QECC off), idle a few slots, unmask: in the
        // absence of noise the stabilizer state persists, the resumed
        // syndrome matches the pre-mask reference (no spurious detection
        // events), and the logical qubit reads back intact.
        let (mut mce, mut t, mut rng) = setup(3);
        mce.run_qecc_cycle(&mut t, &mut rng); // project |0_L>
        for r in 0..mce.mask().num_regions() {
            mce.mask_mut().set_region(r, true);
        }
        for _ in 0..3 {
            mce.run_qecc_cycle(&mut t, &mut rng); // masked: all-NOP cycles
        }
        for r in 0..mce.mask().num_regions() {
            mce.mask_mut().set_region(r, false);
        }
        mce.run_qecc_cycle(&mut t, &mut rng); // resumed QECC
        let z = mce.decode_stats(StabKind::Z);
        assert_eq!(z.local_hits + z.escalations, 0, "spurious events on resume");
        assert!(!mce.measure_logical_z(&mut t, &mut rng));
    }

    #[test]
    fn logical_pauli_instructions_toggle_the_frame() {
        use quest_isa::{LogicalInstr, LogicalQubit};
        let (mut mce, _, _) = setup(3);
        assert_eq!(mce.logical_frame(), (false, false));
        mce.execute_logical(LogicalInstr::X(LogicalQubit(0)));
        mce.execute_logical(LogicalInstr::Z(LogicalQubit(0)));
        assert_eq!(mce.logical_frame(), (true, true));
        mce.execute_logical(LogicalInstr::X(LogicalQubit(0)));
        assert_eq!(mce.logical_frame(), (false, true));
    }

    #[test]
    fn mask_instructions_write_the_mask_table() {
        use quest_isa::{LogicalInstr, MaskRegion};
        let (mut mce, _, _) = setup(3);
        mce.execute_logical(LogicalInstr::MaskOn(MaskRegion(1)));
        assert!(mce.mask().region_masked(1));
        mce.execute_logical(LogicalInstr::BraidStep(MaskRegion(1)));
        assert!(!mce.mask().region_masked(1));
        mce.execute_logical(LogicalInstr::BraidStep(MaskRegion(1)));
        assert!(mce.mask().region_masked(1));
        mce.execute_logical(LogicalInstr::MaskOff(MaskRegion(1)));
        assert!(!mce.mask().region_masked(1));
    }

    #[test]
    fn t_gates_consume_magic_states() {
        use quest_isa::{LogicalInstr, LogicalQubit};
        let (mut mce, _, _) = setup(3);
        for _ in 0..7 {
            mce.execute_logical(LogicalInstr::T(LogicalQubit(0)));
        }
        mce.execute_logical(LogicalInstr::MagicInject(LogicalQubit(0)));
        assert_eq!(mce.magic_states_consumed(), 8);
    }

    #[test]
    fn logical_prep_queues_a_transverse_word_and_clears_frames() {
        use quest_isa::{LogicalInstr, LogicalQubit};
        let (mut mce, _, _) = setup(3);
        mce.execute_logical(LogicalInstr::X(LogicalQubit(0)));
        mce.execute_logical(LogicalInstr::PrepZ(LogicalQubit(0)));
        assert_eq!(mce.pending_logical_words(), 1);
        assert_eq!(mce.logical_frame(), (false, false));
    }

    #[test]
    fn logical_readout_respects_frame_and_corrections() {
        use quest_isa::{LogicalInstr, LogicalQubit};
        let (mut mce, mut t, mut rng) = setup(3);
        mce.run_qecc_cycle(&mut t, &mut rng);
        // Clean |0_L>: reads 0. Frame X flips the report to 1.
        let mut probe = mce.clone();
        let mut pt = t.clone();
        assert!(!probe.measure_logical_z(&mut pt, &mut rng));
        mce.execute_logical(LogicalInstr::X(LogicalQubit(0)));
        assert!(mce.measure_logical_z(&mut t, &mut rng));
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
        let lattice = RotatedLattice::new(3);
        let mut failures = 0;
        let shots = 25;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let mut master = crate::MasterController::new();
            let mut mce = Mce::new(&lattice, MCE_IBUF_BYTES);
            mce.set_measurement_flip(0.02);
            let mut t = Tableau::new(lattice.num_qubits());
            for _ in 0..40 {
                crate::tile::qecc_cycle_serviced(&mut mce, &mut master, &mut t, &mut rng);
            }
            failures += mce.measure_logical_z(&mut t, &mut rng) as u32;
        }
        assert!(
            failures <= 7,
            "{failures}/{shots} failures under readout noise"
        );
    }

    #[test]
    fn readout_survives_uncorrected_residual_error() {
        // An error injected after the last QECC cycle is caught by the
        // final perfect decoding round inside measure_logical_z.
        let (mut mce, mut t, mut rng) = setup(3);
        mce.run_qecc_cycle(&mut t, &mut rng);
        t.x(mce.lattice().data_index(1, 1));
        assert!(!mce.measure_logical_z(&mut t, &mut rng));
    }
}
