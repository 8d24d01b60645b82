//! Prime-line quantum execution unit (§2.3, Figure 4; execution steps of
//! §4.3, Figure 8a).
//!
//! The unit models Hornibrook et al.'s Primeline Multiplexing Architecture:
//! a small set of arbitrary waveform generators (AWGs) continuously drive a
//! prime-line analog bus, and a matrix of microwave switches steers
//! waveforms to qubits. A physical instruction is just the select code
//! latched onto a switch.
//!
//! Execution of one VLIW word proceeds in the paper's three steps:
//! ① µops stream from the microcode memory to the address decoder,
//! ② each µop is latched onto its microwave switch, and
//! ③ the master clock fires, executing all latched waveforms in parallel.
//! Here "executing a waveform" means applying the corresponding gate to
//! the stabilizer-simulated substrate. Measurement waveforms return their
//! outcome bits, which flow to the error-decoder pipeline.
//!
//! What a word does to the substrate is fixed by its µops and the tile
//! geometry alone, so a word is *resolved* once into the substrate calls
//! its firing makes (a `ResolvedWord`, a [`SimGate`] list) and fired from
//! that list by [`fire_gates`], the one firing routine: the MCE resolves
//! its QECC program when it is built and re-resolves only the slots it
//! merges with logical µops (Fu et al.'s timed queue of micro-operations
//! decoded once, not per issue). [`ExecutionUnit::fire`] resolves the
//! latches and fires them through the same routine. A cycle that merges
//! nothing is issued as one substrate call over the program's words
//! concatenated ([`StabilizerSim::run_cycle`]), which a locked frame block
//! serves from a kernel compiled for that very list.
//!
//! The substrate is anything that is a [`StabilizerSim`]: the
//! [`FrameBlock`](quest_stabilizer::FrameBlock)s of a
//! [`Substrate`](crate::Substrate) in the two executors, a bare
//! [`Tableau`](quest_stabilizer::Tableau) wherever the unit is checked
//! against one.

use crate::geometry::TileGeometry;
use quest_isa::{MicroOp, PhysOpcode, VliwWord};
use quest_stabilizer::{fire_gates, Outcomes, SimGate, StabilizerSim};
use rand::Rng;
use std::sync::Arc;

/// Result of firing one VLIW word: its measurement outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FireResult {
    /// One outcome per measurement µop in the word, packed in firing
    /// order: by ascending slot.
    pub outcomes: Outcomes,
}

/// Statistics kept by the execution unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// VLIW words fired (master-clock pulses).
    pub words_fired: u64,
    /// Total µops latched (step ② events).
    pub uops_latched: u64,
    /// Non-idle µops executed.
    pub active_uops: u64,
    /// Measurement outcomes produced.
    pub measurements: u64,
}

/// One VLIW word written down as the substrate calls its firing makes, in
/// firing order — single-qubit waveforms and measurements by ascending
/// slot, then the CNOTs by ascending control slot (all commute within a
/// well-formed lock-step word: the scheduler never touches a qubit twice
/// in one slot) — with tile-local qubit indices (the unit adds its offset
/// when it fires, so a re-based tile keeps its resolved words).
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolvedWord {
    gates: Vec<SimGate>,
    /// What firing the word adds to [`ExecutionStats::active_uops`] (both
    /// halves of a CNOT count).
    active: u64,
    /// The slot of each outcome, in firing order.
    measured: Vec<usize>,
}

impl ResolvedWord {
    /// Resolves a word of the microcode program.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`ResolvedWord::resolve`].
    pub(crate) fn of(word: &VliwWord, geometry: &TileGeometry) -> ResolvedWord {
        let uops: Vec<MicroOp> = word.iter().map(|(_, u)| u).collect();
        let mut resolved = ResolvedWord::default();
        resolved.resolve(&uops, geometry);
        resolved
    }

    /// Whether firing the word reports a measurement outcome.
    pub(crate) fn measures(&self) -> bool {
        !self.measured.is_empty()
    }

    /// The slot of each outcome firing the word reports, in order.
    pub(crate) fn measured(&self) -> &[usize] {
        &self.measured
    }

    /// Overwrites this word with the resolution of `uops`, one per tile
    /// slot: every non-idle µop but a CNOT half is a call on its own slot,
    /// and each `CnotCtrl` is paired with the `CnotTgt` latched on the
    /// neighbour its direction nibble points at. The buffer is reused.
    ///
    /// # Panics
    ///
    /// Panics if a CNOT control half points at a qubit whose µop is not
    /// the matching target half — such a word is malformed microcode.
    pub(crate) fn resolve(&mut self, uops: &[MicroOp], geometry: &TileGeometry) {
        self.gates.clear();
        self.measured.clear();
        self.active = 0;
        for (q, &u) in uops.iter().enumerate() {
            let gate = match u.opcode() {
                PhysOpcode::Nop => continue,
                PhysOpcode::CnotCtrl | PhysOpcode::CnotTgt => None,
                PhysOpcode::PrepZ => Some(SimGate::Reset(q)),
                PhysOpcode::PrepX => Some(SimGate::ResetPlus(q)),
                PhysOpcode::MeasZ => Some(SimGate::Measure(q)),
                PhysOpcode::MeasX => Some(SimGate::MeasureX(q)),
                PhysOpcode::H => Some(SimGate::H(q)),
                PhysOpcode::S => Some(SimGate::S(q)),
                PhysOpcode::Sdg => Some(SimGate::SDagger(q)),
                PhysOpcode::X => Some(SimGate::X(q)),
                PhysOpcode::Y => Some(SimGate::Y(q)),
                PhysOpcode::Z => Some(SimGate::Z(q)),
            };
            self.gates.extend(gate);
            if let Some(SimGate::Measure(_) | SimGate::MeasureX(_)) = gate {
                self.measured.push(q);
            }
            self.active += 1;
        }
        for (q, &u) in uops.iter().enumerate() {
            // The microcode generator always emits directed ctrl halves
            // with an in-lattice partner; a malformed word loses the gate
            // (debug builds still assert) rather than panicking the
            // control plane.
            if u.opcode() == PhysOpcode::CnotCtrl {
                if let Some(target) = partner(uops, geometry, q, u) {
                    self.gates.push(SimGate::Cnot(q, target));
                }
            }
        }
    }
}

/// A whole QECC cycle as one gate list, its words' lists one after the
/// other, the slot of each outcome, and what firing it adds to
/// [`ExecutionStats`].
#[derive(Debug)]
pub(crate) struct ResolvedCycle {
    gates: Arc<[SimGate]>,
    words: u64,
    active: u64,
    measured: Box<[usize]>,
}

impl ResolvedCycle {
    pub(crate) fn of(words: &[ResolvedWord]) -> ResolvedCycle {
        ResolvedCycle {
            gates: words.iter().flat_map(|w| w.gates.iter().copied()).collect(),
            words: words.len() as u64,
            active: words.iter().map(|w| w.active).sum(),
            measured: words
                .iter()
                .flat_map(|w| w.measured.iter().copied())
                .collect(),
        }
    }

    /// The slot of each outcome firing the cycle reports, in order.
    pub(crate) fn measured(&self) -> &[usize] {
        &self.measured
    }
}

/// The target slot of the control half `u` latched at `q`.
fn partner(uops: &[MicroOp], geometry: &TileGeometry, q: usize, u: MicroOp) -> Option<usize> {
    let Some(dir) = u.direction() else {
        debug_assert!(false, "ctrl µop at qubit {q} carries no direction");
        return None;
    };
    let Some(target) = geometry.neighbor(q, dir) else {
        debug_assert!(false, "qubit {q}: no neighbour to the {dir}");
        return None;
    };
    let half = uops[target];
    assert_eq!(
        half.opcode(),
        PhysOpcode::CnotTgt,
        "qubit {target} latch does not hold the target half"
    );
    assert_eq!(
        half.direction(),
        Some(dir.opposite()),
        "target half at {target} points the wrong way"
    );
    Some(target)
}

/// The execution unit for one MCE tile. Clones share the tile geometry.
#[derive(Debug, Clone)]
pub struct ExecutionUnit {
    geometry: Arc<TileGeometry>,
    /// Latched select codes, one per switch (= per qubit).
    latches: Vec<MicroOp>,
    /// The latches as [`ExecutionUnit::fire`] last resolved them; the
    /// buffers are reused.
    resolved: ResolvedWord,
    /// Index of this tile's first qubit within the tableau it is fired
    /// at (tiles that share one occupy disjoint index ranges).
    offset: usize,
    stats: ExecutionStats,
    /// Outcomes of the last word fired; the buffer is reused.
    fired: FireResult,
}

impl ExecutionUnit {
    /// Builds an execution unit over a tile geometry, the tile starting
    /// at substrate index 0.
    pub fn new(geometry: TileGeometry) -> ExecutionUnit {
        let n = geometry.num_qubits();
        ExecutionUnit {
            geometry: Arc::new(geometry),
            latches: vec![MicroOp::nop(); n],
            resolved: ResolvedWord::default(),
            offset: 0,
            stats: ExecutionStats::default(),
            fired: FireResult::default(),
        }
    }

    /// This tile's substrate offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Moves the tile to substrate index `offset`: its tableau was
    /// appended to another, or it shares one with other tiles from the
    /// start.
    pub fn set_offset(&mut self, offset: usize) {
        self.offset = offset;
    }

    /// Tile width.
    pub fn num_qubits(&self) -> usize {
        self.latches.len()
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecutionStats {
        self.stats
    }

    /// The tile geometry.
    pub fn geometry(&self) -> &TileGeometry {
        &self.geometry
    }

    /// Steps ① and ②: latch every µop of a word onto its switch.
    ///
    /// # Panics
    ///
    /// Panics if the word width differs from the tile width.
    pub fn latch(&mut self, word: &VliwWord) {
        assert_eq!(
            word.len(),
            self.latches.len(),
            "VLIW word width must match tile width"
        );
        self.latch_range(0..self.latches.len(), Some(word));
    }

    /// Latches one µop onto the switch of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn latch_uop(&mut self, q: usize, u: MicroOp) {
        self.latches[q] = u;
        self.stats.uops_latched += 1;
    }

    /// Latches `word`'s µops for `qubits` onto their switches, or idle
    /// µops when there is no word to take them from: one region of the
    /// mask table at a time, as [`Mce`](crate::Mce) merges its two µop
    /// tables.
    pub(crate) fn latch_range(&mut self, qubits: std::ops::Range<usize>, word: Option<&VliwWord>) {
        let latches = &mut self.latches[qubits.clone()];
        self.stats.uops_latched += latches.len() as u64;
        match word {
            Some(word) => {
                for (latch, (_, uop)) in latches.iter_mut().zip(word.iter().skip(qubits.start)) {
                    *latch = uop;
                }
            }
            None => latches.fill(MicroOp::nop()),
        }
    }

    /// The latched select codes, one per qubit: the word the next
    /// [`ExecutionUnit::fire`] executes (and the last one it executed).
    /// An [`Mce`](crate::Mce) latches only the slots it merges with
    /// logical µops; it issues a plain QECC word pre-resolved, around the
    /// latches.
    pub fn latched(&self) -> &[MicroOp] {
        &self.latches
    }

    /// Measurement outcomes of the last word fired, packed in firing
    /// order: by ascending slot.
    pub fn measurements(&self) -> &Outcomes {
        &self.fired.outcomes
    }

    /// The latches as [`ExecutionUnit::fire`] last resolved them.
    pub(crate) fn resolved(&self) -> &ResolvedWord {
        &self.resolved
    }

    /// Step ③: fire the master clock, applying every latched waveform to
    /// the substrate in one parallel step. The latches are resolved
    /// (`ResolvedWord::resolve`: two-qubit waveforms pair each `CnotCtrl`
    /// with the `CnotTgt` latched on the neighbour its direction nibble
    /// points at) and fired like any resolved word. The result lives in a
    /// buffer the unit reuses, so firing allocates nothing once its
    /// buffers have grown to the widest word.
    ///
    /// # Panics
    ///
    /// Panics if a CNOT half points at a qubit whose latch does not hold
    /// the matching half — such a word is malformed microcode — or if the
    /// substrate is too small for the tile.
    pub fn fire<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        substrate: &mut S,
        rng: &mut R,
    ) -> &FireResult {
        let mut word = std::mem::take(&mut self.resolved);
        word.resolve(&self.latches, &self.geometry);
        self.fire_resolved(&word, substrate, rng);
        self.resolved = word;
        &self.fired
    }

    /// Steps ① to ③ for a word resolved ahead of time
    /// ([`ResolvedWord::of`]): every switch takes the word's µop — counted
    /// as latched, though the latches are left as they are, because the
    /// word already says what they would make the substrate do — and the
    /// master clock fires.
    pub(crate) fn issue<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        word: &ResolvedWord,
        substrate: &mut S,
        rng: &mut R,
    ) -> &FireResult {
        self.stats.uops_latched += self.latches.len() as u64;
        self.fire_resolved(word, substrate, rng)
    }

    /// Steps ① to ③ for every word of a QECC cycle, fired as one
    /// substrate call ([`StabilizerSim::run_cycle`], keyed by the tile's
    /// offset): what [`ExecutionUnit::issue`] does word by word, with the
    /// outcomes of all of them in [`ExecutionUnit::measurements`], in
    /// firing order.
    pub(crate) fn issue_cycle<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        cycle: &ResolvedCycle,
        substrate: &mut S,
        rng: &mut R,
    ) {
        self.check_fits(substrate);
        self.fired.outcomes.clear();
        substrate.run_cycle(
            self.offset,
            self.offset,
            &cycle.gates,
            rng,
            &mut self.fired.outcomes,
        );
        self.stats.uops_latched += cycle.words * self.latches.len() as u64;
        self.stats.words_fired += cycle.words;
        self.stats.active_uops += cycle.active;
        self.stats.measurements += cycle.measured.len() as u64;
    }

    /// Fires one resolved word through [`fire_gates`], the one firing
    /// routine.
    fn fire_resolved<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        word: &ResolvedWord,
        substrate: &mut S,
        rng: &mut R,
    ) -> &FireResult {
        self.check_fits(substrate);
        self.fired.outcomes.clear();
        fire_gates(
            substrate,
            self.offset,
            &word.gates,
            rng,
            &mut self.fired.outcomes,
        );
        self.stats.words_fired += 1;
        self.stats.active_uops += word.active;
        self.stats.measurements += word.measured.len() as u64;
        &self.fired
    }

    fn check_fits<S: StabilizerSim + ?Sized>(&self, substrate: &S) {
        assert!(
            substrate.num_qubits() >= self.offset + self.latches.len(),
            "substrate too small for tile at offset {}",
            self.offset
        );
    }

    /// Address and capacity of each buffer the unit owns.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 2] {
        let outcomes = self.fired.outcomes.words();
        [
            (self.latches.as_ptr() as usize, self.latches.capacity()),
            (outcomes.as_ptr() as usize, outcomes.len()),
        ]
    }

    /// Latches and fires in one call — the pipelined steady state of the
    /// microcode pipeline.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`ExecutionUnit::latch`] and
    /// [`ExecutionUnit::fire`].
    pub fn execute<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
        &mut self,
        word: &VliwWord,
        substrate: &mut S,
        rng: &mut R,
    ) -> &FireResult {
        self.latch(word);
        self.fire(substrate, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_isa::Direction;
    use quest_stabilizer::{SeedableRng, StdRng, Tableau};
    use quest_surface::RotatedLattice;

    fn setup() -> (ExecutionUnit, Tableau, StdRng, RotatedLattice) {
        let lat = RotatedLattice::new(3);
        let geo = TileGeometry::from_lattice(&lat);
        let n = geo.num_qubits();
        (
            ExecutionUnit::new(geo),
            Tableau::new(n),
            StdRng::seed_from_u64(5),
            lat,
        )
    }

    #[test]
    fn single_qubit_word_applies_gates() {
        let (mut eu, mut t, mut rng, lat) = setup();
        let q = lat.data_index(1, 1);
        let mut w = VliwWord::nop(eu.num_qubits());
        w.set(q, MicroOp::simple(PhysOpcode::X));
        eu.execute(&w, &mut t, &mut rng);
        assert!(t.measure(q, &mut rng).value);
        assert_eq!(eu.stats().words_fired, 1);
        assert_eq!(eu.stats().active_uops, 1);
    }

    #[test]
    fn measurement_word_reports_outcomes() {
        let (mut eu, mut t, mut rng, lat) = setup();
        let q = lat.data_index(0, 0);
        t.x(q);
        let mut w = VliwWord::nop(eu.num_qubits());
        w.set(q, MicroOp::simple(PhysOpcode::MeasZ));
        let r = eu.execute(&w, &mut t, &mut rng);
        assert_eq!(r.outcomes.iter().collect::<Vec<_>>(), [true]);
    }

    #[test]
    fn cnot_halves_resolve_to_a_cnot() {
        let (mut eu, mut t, mut rng, lat) = setup();
        // Use an ancilla and its SE data neighbour.
        let p = &lat.plaquettes()[0];
        let anc = p.ancilla;
        let geo = eu.geometry().clone();
        let (dir, data) = Direction::ALL
            .into_iter()
            .find_map(|d| geo.neighbor(anc, d).map(|n| (d, n)))
            .expect("ancilla has a neighbour");
        // Excite the control, fire CNOT(anc -> data).
        t.x(anc);
        let mut w = VliwWord::nop(eu.num_qubits());
        w.set(anc, MicroOp::cnot_half(PhysOpcode::CnotCtrl, dir));
        w.set(
            data,
            MicroOp::cnot_half(PhysOpcode::CnotTgt, dir.opposite()),
        );
        eu.execute(&w, &mut t, &mut rng);
        assert!(t.measure(data, &mut rng).value, "target was flipped");
        assert!(t.measure(anc, &mut rng).value, "control unchanged");
    }

    #[test]
    #[should_panic(expected = "does not hold the target half")]
    fn dangling_ctrl_half_panics() {
        let (mut eu, mut t, mut rng, lat) = setup();
        let p = &lat.plaquettes()[0];
        let geo = eu.geometry().clone();
        let dir = Direction::ALL
            .into_iter()
            .find(|&d| geo.neighbor(p.ancilla, d).is_some())
            .unwrap();
        let mut w = VliwWord::nop(eu.num_qubits());
        w.set(p.ancilla, MicroOp::cnot_half(PhysOpcode::CnotCtrl, dir));
        eu.execute(&w, &mut t, &mut rng);
    }

    #[test]
    fn prep_words_reset_state() {
        let (mut eu, mut t, mut rng, _) = setup();
        for q in 0..eu.num_qubits() {
            t.x(q);
        }
        let w = VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::PrepZ); eu.num_qubits()]);
        eu.execute(&w, &mut t, &mut rng);
        for q in 0..eu.num_qubits() {
            assert!(!t.measure(q, &mut rng).value);
        }
    }

    #[test]
    fn stats_accumulate() {
        let (mut eu, mut t, mut rng, _) = setup();
        let w = VliwWord::nop(eu.num_qubits());
        for _ in 0..5 {
            eu.execute(&w, &mut t, &mut rng);
        }
        let s = eu.stats();
        assert_eq!(s.words_fired, 5);
        assert_eq!(s.uops_latched, 5 * eu.num_qubits() as u64);
        assert_eq!(s.active_uops, 0);
    }
}
