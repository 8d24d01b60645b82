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
//!
//! Everything from the syndrome on is packed 64 to a word: the previous
//! round, the detection events (`previous ^ now`, handed to
//! [`LutDecoder::try_packed`] as they are), the flips the table answers
//! with and the Pauli frame. A quiet or locally decoded round allocates
//! nothing; only an escalation lists its events.

use quest_surface::{DecodingGraph, LutDecoder, NodeId, RotatedLattice, StabKind};
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
/// copy only the syndrome reference, the frame, the scratch words and the
/// counters.
#[derive(Debug, Clone)]
pub struct DecoderPipeline {
    kind: StabKind,
    /// Single-round decoding graph the local table is built over.
    graph: Arc<DecodingGraph>,
    /// The local lookup table; a pattern outside it escalates.
    local: Arc<LutDecoder>,
    /// Previous round's syndrome bits (for detection-event differencing),
    /// packed 64 checks to a word so that a quiet round is one word
    /// compare at the distances the MCE runs; meaningless while
    /// `settled` is false.
    previous: Vec<u64>,
    /// Whether `previous` holds a reference (false while waiting for a
    /// first-round reference).
    settled: bool,
    /// Accumulated Pauli-frame flips, bit `q % 64` of word `q / 64` for
    /// data qubit `q`.
    frame: Vec<u64>,
    /// One round's detection events, as the table consumes them.
    events: Vec<u64>,
    /// One round's local correction, before it joins the frame.
    flips: Vec<u64>,
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
        let check_words = graph.num_checks().div_ceil(WORD_BITS);
        let data_words = lattice.num_data().div_ceil(WORD_BITS);
        let mut pipeline = DecoderPipeline {
            kind,
            graph: Arc::new(graph),
            local: Arc::new(local),
            previous: vec![0; check_words],
            settled: false,
            frame: vec![0; data_words],
            events: vec![0; check_words],
            flips: vec![0; data_words],
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
        let words = &self.previous;
        self.settled.then(|| {
            (0..self.graph.num_checks())
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
        if !self.settled {
            return Err(ReferenceError::NotSettled);
        }
        let expected = self.graph.num_checks();
        if partner_bits.len() != expected {
            return Err(ReferenceError::WidthMismatch {
                expected,
                got: partner_bits.len(),
            });
        }
        for (a, b) in self.previous.iter_mut().zip(pack(partner_bits)) {
            *a ^= b;
        }
        Ok(())
    }

    /// Re-arms the pipeline after a logical (re)preparation: clears the
    /// Pauli frame and resets the reference.
    pub fn reset_reference(&mut self, reference: Reference) {
        self.settled = reference == Reference::Deterministic;
        self.previous.fill(0);
        self.frame.fill(0);
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

    /// The accumulated Pauli frame: the data qubits whose readout must be
    /// flipped before interpretation, ascending.
    pub fn frame(&self) -> impl Iterator<Item = usize> + '_ {
        self.frame.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let q = w * WORD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    q
                })
            })
        })
    }

    /// The Pauli frame as words: bit `q % 64` of word `q / 64` for data
    /// qubit `q`.
    pub(crate) fn frame_words(&self) -> &[u64] {
        &self.frame
    }

    /// XORs another frame of the same width, as words, into this one:
    /// how a transversal CNOT copies a frame across tiles, and how the
    /// runtime applies a global correction that travels as words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor_frame(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.frame.len(), "frame width mismatch");
        for (a, b) in self.frame.iter_mut().zip(words) {
            *a ^= b;
        }
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
    /// clear), as the MCE routes them: a quiet round is a word compare,
    /// the changed bits go to the lookup table as they are and its flips
    /// are XOR-ed into the frame, all in words this pipeline already
    /// holds. Only an escalation allocates: it lists its events, in
    /// ascending check order.
    pub(crate) fn feed_packed(&mut self, now: &[u64]) {
        debug_assert_eq!(now.len(), self.previous.len());
        self.round += 1;
        if !self.settled || self.previous[..] == *now {
            // Quiet, or a first projective round establishing the
            // reference: no events.
            self.settled = true;
            self.previous.copy_from_slice(now);
            self.stats.quiet_rounds += 1;
            return;
        }
        for ((events, before), after) in self.events.iter_mut().zip(&self.previous).zip(now) {
            *events = before ^ after;
        }
        self.flips.fill(0);
        if self.local.try_packed(&mut self.events, &mut self.flips) {
            self.stats.local_hits += 1;
            let mut flipped = 0;
            for (frame, flips) in self.frame.iter_mut().zip(&self.flips) {
                *frame ^= flips;
                flipped += flips.count_ones();
            }
            self.stats.local_corrections += u64::from(flipped);
        } else {
            self.stats.escalations += 1;
            let mut events = Vec::new();
            for (w, (before, after)) in self.previous.iter().zip(now).enumerate() {
                let mut changed = before ^ after;
                while changed != 0 {
                    let c = w * WORD_BITS + changed.trailing_zeros() as usize;
                    events.push(self.graph.node(0, c));
                    changed &= changed - 1;
                }
            }
            self.escalations.push(Escalation {
                round: self.round - 1,
                events,
            });
        }
        self.previous.copy_from_slice(now);
    }

    /// Addresses and capacities of the words a round reads and writes.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 4] {
        [&self.previous, &self.frame, &self.events, &self.flips]
            .map(|words| (words.as_ptr() as usize, words.capacity()))
    }

    /// Merges a correction computed by the global decoder into the frame.
    pub fn apply_global_correction(&mut self, data_flips: impl IntoIterator<Item = usize>) {
        for q in data_flips {
            self.frame[q / WORD_BITS] ^= 1 << (q % WORD_BITS);
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
        assert!(p.frame().next().is_none());
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
        assert_eq!(p.frame().collect::<Vec<_>>(), vec![victim]);
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
        let before: Vec<usize> = p.frame().collect();
        p.apply_global_correction([]);
        assert_eq!(
            p.frame().collect::<Vec<_>>(),
            before,
            "empty correction must be a no-op"
        );
        p.apply_global_correction(flips.iter().copied());
        p.apply_global_correction(flips.iter().copied());
        assert_eq!(
            p.frame().collect::<Vec<_>>(),
            before,
            "double merge must cancel exactly"
        );
    }

    #[test]
    fn quiet_and_local_rounds_allocate_nothing() {
        // Every word a round reads or writes stays where it was, and the
        // escalation queue is never touched: the packed rounds of a quiet
        // or locally decoded syndrome allocate nothing.
        let (lat, mut p) = z_pipeline(5);
        let zc = lat.plaquettes_of(StabKind::Z).count();
        let mut rounds = vec![vec![false; zc]];
        for q in 0..lat.num_data() {
            // An X error on `q` (one or two events), the same bits again
            // (quiet), then the error gone (the same events again).
            let bits: Vec<bool> = lat
                .plaquettes_of(StabKind::Z)
                .map(|pl| pl.data.contains(&q))
                .collect();
            rounds.extend([bits.clone(), bits, vec![false; zc]]);
        }
        let rounds: Vec<Vec<u64>> = rounds.iter().map(|bits| pack(bits)).collect();
        p.feed_packed(&rounds[0]);
        let (warm, queue) = (p.buffers(), p.escalations.capacity());
        for now in &rounds[1..] {
            p.feed_packed(now);
            assert_eq!(p.buffers(), warm, "a pipeline buffer moved or grew");
            assert_eq!(p.escalations.capacity(), queue);
        }
        let s = p.stats();
        let n = lat.num_data() as u64;
        assert_eq!(s.escalations, 0, "a single data error is local");
        assert_eq!((s.local_hits, s.quiet_rounds), (2 * n, 1 + n));
        assert_eq!(s.local_corrections, 2 * n);
    }

    #[test]
    fn frame_xor_cancels_double_corrections() {
        let (lat, mut p) = z_pipeline(3);
        let q = lat.data_index(0, 0);
        p.apply_global_correction([q]);
        assert!(p.frame().any(|f| f == q));
        p.apply_global_correction([q]);
        assert!(!p.frame().any(|f| f == q));
    }
}
