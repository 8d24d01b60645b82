//! MCE error-decoder pipeline: the local half of the two-level decoding
//! scheme (§4.2).
//!
//! Each MCE collects the syndrome measurements its execution unit
//! produces, converts them to detection events, and runs a *local* lookup
//! decode that resolves isolated single-qubit errors immediately
//! (accumulating the correction into a Pauli frame — Appendix A.2: errors
//! are logged and corrected before measurement, not by executing extra
//! quantum instructions). Anything the lookup table cannot explain is
//! escalated to the master controller's global decoder, costing upstream
//! syndrome bandwidth.

use quest_surface::decoder::Correction;
use quest_surface::{DecodingGraph, LutDecoder, NodeId, RotatedLattice, StabKind};
use std::collections::BTreeSet;
use std::sync::Arc;

const WORD_BITS: usize = 64;

/// `bits` packed 64 to a word, bit `c % 64` of word `c / 64` for check `c`.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0; bits.len().div_ceil(WORD_BITS)];
    for (c, &bit) in bits.iter().enumerate() {
        words[c / WORD_BITS] |= u64::from(bit) << (c % WORD_BITS);
    }
    words
}

/// Statistics for the local decode stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Rounds whose events were fully resolved locally.
    pub local_hits: u64,
    /// Rounds escalated to the global decoder.
    pub escalations: u64,
    /// Rounds with no detection events at all.
    pub quiet_rounds: u64,
    /// Data-qubit corrections applied to the Pauli frame locally.
    pub local_corrections: u64,
}

/// Why a syndrome-reference update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceError {
    /// The reference is not yet established (no projective round has run
    /// since the last reset).
    NotSettled,
    /// The partner's bits have a different width than this reference.
    WidthMismatch {
        /// Checks in this pipeline's reference.
        expected: usize,
        /// Checks in the partner's bits.
        got: usize,
    },
}

impl std::fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReferenceError::NotSettled => {
                write!(f, "syndrome reference not settled (run a QECC cycle first)")
            }
            ReferenceError::WidthMismatch { expected, got } => {
                write!(f, "syndrome reference width mismatch: {expected} vs {got}")
            }
        }
    }
}

impl std::error::Error for ReferenceError {}

/// A round of detection events escalated to the master controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escalation {
    /// Round index (monotonically increasing since reset).
    pub round: usize,
    /// Detection events in the single-round graph's node numbering.
    pub events: Vec<NodeId>,
}

/// How the first syndrome round after (re)initialization is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The prepared state is a known +1 eigenstate of every check of this
    /// type (e.g. Z checks after `|0…0⟩`): the reference is all-zero and
    /// the first round already carries detection events.
    Deterministic,
    /// The checks of this type are randomly projected by the first round
    /// (e.g. X checks after `|0…0⟩`): the first round *establishes* the
    /// reference and produces no events.
    FirstRound,
}

/// The per-MCE decoder pipeline for one stabilizer type. The graph and
/// the lookup table are fixed by the lattice, so clones share them and
/// copy only the syndrome reference, the frame and the counters.
#[derive(Debug, Clone)]
pub struct DecoderPipeline {
    kind: StabKind,
    /// Single-round decoding graph the local table is built over.
    graph: Arc<DecodingGraph>,
    /// The local lookup table; a pattern outside it escalates.
    local: Arc<LutDecoder>,
    /// Previous round's syndrome bits (for detection-event differencing),
    /// packed 64 checks to a word so that a quiet round is one word
    /// compare at the distances the MCE runs; `None` while waiting for a
    /// first-round reference.
    previous: Option<Vec<u64>>,
    /// Accumulated Pauli-frame flips on data qubits.
    frame: BTreeSet<usize>,
    round: usize,
    stats: DecodeStats,
    escalations: Vec<Escalation>,
}

impl DecoderPipeline {
    /// Builds the pipeline for checks of `kind` on `lattice`, assuming a
    /// `|0…0⟩`-booted substrate: Z checks start deterministic, X checks
    /// take their reference from the first projective round.
    pub fn new(lattice: &RotatedLattice, kind: StabKind) -> DecoderPipeline {
        let reference = match kind {
            StabKind::Z => Reference::Deterministic,
            StabKind::X => Reference::FirstRound,
        };
        DecoderPipeline::with_reference(lattice, kind, reference)
    }

    /// Builds the pipeline with an explicit first-round interpretation.
    pub fn with_reference(
        lattice: &RotatedLattice,
        kind: StabKind,
        reference: Reference,
    ) -> DecoderPipeline {
        let graph = DecodingGraph::new(lattice, kind, 1);
        let local = LutDecoder::new(&graph);
        let mut pipeline = DecoderPipeline {
            kind,
            graph: Arc::new(graph),
            local: Arc::new(local),
            previous: None,
            frame: BTreeSet::new(),
            round: 0,
            stats: DecodeStats::default(),
            escalations: Vec::new(),
        };
        pipeline.reset_reference(reference);
        pipeline
    }

    /// The current syndrome reference (last round's bits, in plaquette
    /// order), or `None` before the first projective round.
    pub fn reference_bits(&self) -> Option<Vec<bool>> {
        let checks = self.graph.num_checks();
        self.previous.as_ref().map(|words| {
            (0..checks)
                .map(|c| words[c / WORD_BITS] >> (c % WORD_BITS) & 1 == 1)
                .collect()
        })
    }

    /// XORs another tile's syndrome values into this pipeline's reference.
    ///
    /// A transversal CNOT conjugates the target tile's Z checks into the
    /// product of both tiles' Z checks (and the control's X checks into
    /// the product of both X checks), so the affected pipeline's expected
    /// syndrome shifts by the partner tile's current values. Without this
    /// update every subsequent round would appear to be full of detection
    /// events.
    ///
    /// # Errors
    ///
    /// [`ReferenceError`] if this reference is not yet established or the
    /// widths differ; the reference is untouched on error.
    pub fn xor_reference(&mut self, partner_bits: &[bool]) -> Result<(), ReferenceError> {
        let prev = self.previous.as_mut().ok_or(ReferenceError::NotSettled)?;
        let expected = self.graph.num_checks();
        if partner_bits.len() != expected {
            return Err(ReferenceError::WidthMismatch {
                expected,
                got: partner_bits.len(),
            });
        }
        for (a, b) in prev.iter_mut().zip(pack(partner_bits)) {
            *a ^= b;
        }
        Ok(())
    }

    /// Re-arms the pipeline after a logical (re)preparation: clears the
    /// Pauli frame and resets the reference.
    pub fn reset_reference(&mut self, reference: Reference) {
        self.previous = match reference {
            Reference::Deterministic => Some(vec![0; self.graph.num_checks().div_ceil(WORD_BITS)]),
            Reference::FirstRound => None,
        };
        self.frame.clear();
        self.escalations.clear();
    }

    /// Stabilizer type handled by this pipeline.
    pub fn kind(&self) -> StabKind {
        self.kind
    }

    /// The single-round decoding graph of this pipeline's checks, in
    /// whose node numbering it escalates.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Statistics so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// The accumulated Pauli frame: data qubits whose readout must be
    /// flipped before interpretation.
    pub fn frame(&self) -> &BTreeSet<usize> {
        &self.frame
    }

    /// Escalated rounds awaiting the global decoder.
    pub fn pending_escalations(&self) -> &[Escalation] {
        &self.escalations
    }

    /// Drains the escalation queue (the master controller fetched them).
    pub fn take_escalations(&mut self) -> Vec<Escalation> {
        std::mem::take(&mut self.escalations)
    }

    /// Feeds one round of syndrome bits (plaquette order for this type).
    ///
    /// Detection events are the bits that changed since the previous
    /// round. If the LUT explains them as isolated single faults, the
    /// correction joins the local Pauli frame; otherwise the round is
    /// queued for escalation.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong length.
    pub fn feed_round(&mut self, bits: &[bool]) {
        assert_eq!(
            bits.len(),
            self.graph.num_checks(),
            "syndrome width mismatch"
        );
        self.feed_packed(&pack(bits));
    }

    /// [`DecoderPipeline::feed_round`] on bits packed 64 checks to a word
    /// (bit `c % 64` of word `c / 64`; the bits past the last check
    /// clear), as the MCE routes them: a quiet round is a word compare and
    /// allocates nothing, and the events are listed in ascending check
    /// order straight from the changed bits.
    pub(crate) fn feed_packed(&mut self, now: &[u64]) {
        debug_assert_eq!(now.len(), self.graph.num_checks().div_ceil(WORD_BITS));
        self.round += 1;
        let Some(prev) = &mut self.previous else {
            // First projective round: establish the reference, no events.
            self.previous = Some(now.to_vec());
            self.stats.quiet_rounds += 1;
            return;
        };
        if prev[..] == *now {
            self.stats.quiet_rounds += 1;
            return;
        }
        let mut events = Vec::new();
        for (w, (before, &after)) in prev.iter_mut().zip(now).enumerate() {
            let mut changed = *before ^ after;
            *before = after;
            while changed != 0 {
                let c = w * WORD_BITS + changed.trailing_zeros() as usize;
                events.push(self.graph.node(0, c));
                changed &= changed - 1;
            }
        }
        match self.local.try_correction(&self.graph, &events) {
            Some(Correction { data_flips, .. }) => {
                self.stats.local_hits += 1;
                self.stats.local_corrections += data_flips.len() as u64;
                self.apply_global_correction(data_flips);
            }
            None => {
                self.stats.escalations += 1;
                self.escalations.push(Escalation {
                    round: self.round - 1,
                    events,
                });
            }
        }
    }

    /// Address and capacity of the syndrome reference.
    #[cfg(test)]
    pub(crate) fn reference_buffer(&self) -> (usize, usize) {
        self.previous
            .as_ref()
            .map_or((0, 0), |words| (words.as_ptr() as usize, words.capacity()))
    }

    /// Merges a correction computed by the global decoder into the frame.
    pub fn apply_global_correction(&mut self, data_flips: impl IntoIterator<Item = usize>) {
        for q in data_flips {
            if !self.frame.insert(q) {
                self.frame.remove(&q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z_pipeline(d: usize) -> (RotatedLattice, DecoderPipeline) {
        let lat = RotatedLattice::new(d);
        let p = DecoderPipeline::new(&lat, StabKind::Z);
        (lat, p)
    }

    #[test]
    fn quiet_rounds_are_counted() {
        let (lat, mut p) = z_pipeline(3);
        let zeros = vec![false; lat.plaquettes_of(StabKind::Z).count()];
        for _ in 0..5 {
            p.feed_round(&zeros);
        }
        assert_eq!(p.stats().quiet_rounds, 5);
        assert!(p.frame().is_empty());
        assert!(p.pending_escalations().is_empty());
    }

    #[test]
    fn isolated_error_is_fixed_locally() {
        let (lat, mut p) = z_pipeline(3);
        let zc = lat.plaquettes_of(StabKind::Z).count();
        // A bulk data qubit flips its two Z checks.
        let victim = lat.data_index(1, 1);
        let owners: Vec<usize> = lat
            .plaquettes_of(StabKind::Z)
            .enumerate()
            .filter(|(_, pl)| pl.data.contains(&victim))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(owners.len(), 2);
        let mut bits = vec![false; zc];
        for &o in &owners {
            bits[o] = true;
        }
        p.feed_round(&bits);
        assert_eq!(p.stats().local_hits, 1);
        assert_eq!(p.stats().escalations, 0);
        // The frame holds exactly the victim.
        assert_eq!(p.frame().iter().copied().collect::<Vec<_>>(), vec![victim]);
        // The syndrome persists next round (error not physically removed);
        // no *new* events, so the round is quiet.
        p.feed_round(&bits);
        assert_eq!(p.stats().quiet_rounds, 1);
    }

    #[test]
    fn complex_pattern_escalates() {
        let (lat, mut p) = z_pipeline(5);
        let zc = lat.plaquettes_of(StabKind::Z).count();
        // Fire a non-adjacent pattern that no single fault explains: pick
        // three pairwise-distant bulk checks.
        let mut bits = vec![false; zc];
        bits[0] = true;
        bits[zc / 2] = true;
        bits[zc - 1] = true;
        p.feed_round(&bits);
        let escalated = p.stats().escalations == 1;
        let local = p.stats().local_hits == 1;
        assert!(escalated || local);
        if escalated {
            let esc = p.take_escalations();
            assert_eq!(esc.len(), 1);
            assert_eq!(esc[0].events.len(), 3);
            assert!(p.pending_escalations().is_empty());
        }
    }

    #[test]
    fn counters_sum_to_rounds_fed() {
        // ISSUE 7 satellite: local_hits + escalations + quiet_rounds must
        // account for every round the pipeline processed, for both
        // first-round interpretations.
        for reference in [Reference::Deterministic, Reference::FirstRound] {
            let lat = RotatedLattice::new(5);
            let mut p = DecoderPipeline::with_reference(&lat, StabKind::Z, reference);
            let zc = lat.plaquettes_of(StabKind::Z).count();
            let mut fed = 0u64;
            for round in 0..12 {
                let mut bits = vec![false; zc];
                match round % 3 {
                    0 => {}                       // quiet
                    1 => bits[round % zc] = true, // isolated-ish
                    _ => {
                        // Scattered pattern likely outside the LUT.
                        bits[0] = true;
                        bits[zc / 2] = true;
                        bits[zc - 1] = true;
                    }
                }
                p.feed_round(&bits);
                fed += 1;
            }
            let s = p.stats();
            assert_eq!(
                s.local_hits + s.escalations + s.quiet_rounds,
                fed,
                "round accounting leaked ({reference:?})"
            );
        }
    }

    #[test]
    fn escalated_corrections_merge_idempotently() {
        // Merging the global decoder's correction for an escalated round
        // is XOR-folding: an empty correction is a no-op, and re-merging
        // the same flips restores the prior frame (so a retransmitted
        // pair of identical corrections nets out instead of compounding).
        let (lat, mut p) = z_pipeline(5);
        let zc = lat.plaquettes_of(StabKind::Z).count();
        let mut bits = vec![false; zc];
        bits[0] = true;
        bits[zc / 2] = true;
        bits[zc - 1] = true;
        p.feed_round(&bits);
        let flips: Vec<usize> = vec![lat.data_index(0, 0), lat.data_index(2, 2)];
        let before = p.frame().clone();
        p.apply_global_correction([]);
        assert_eq!(*p.frame(), before, "empty correction must be a no-op");
        p.apply_global_correction(flips.iter().copied());
        p.apply_global_correction(flips.iter().copied());
        assert_eq!(*p.frame(), before, "double merge must cancel exactly");
    }

    #[test]
    fn frame_xor_cancels_double_corrections() {
        let (lat, mut p) = z_pipeline(3);
        let q = lat.data_index(0, 0);
        p.apply_global_correction([q]);
        assert!(p.frame().contains(&q));
        p.apply_global_correction([q]);
        assert!(!p.frame().contains(&q));
    }
}
