//! Local lookup-table decoder — the MCE's error-decoder pipeline.
//!
//! Per the paper (§4.2): *"The error decoder collects the syndrome
//! measurement data and performs a limited local error decoding with a
//! lookup table to correct frequently occurring isolated single-qubit
//! errors."* Complex patterns are left to the global decoder in the master
//! controller.
//!
//! The table holds the detection-event pattern of every possible single
//! data-qubit error (one or two adjacent events within a round) and every
//! single measurement error (a temporal event pair) with its correction.
//! The decoder succeeds only when the observed events can be *exactly*
//! tiled by non-overlapping single-fault patterns; anything else is
//! escalated.
//!
//! # Layout
//!
//! A pattern has at most two events, so the table is flat: each check
//! node owns a slice of *candidates* (compressed rows, one offset per
//! node), one per edge touching it, in edge order. A candidate names the
//! pattern's other node (none for a boundary edge) and the data flip and
//! edge id of the *first* edge with that pattern — a pattern several
//! edges share is always answered by the first. The cover runs on event
//! words (bit `n % 64` of word `n / 64` for node `n`), as the MCE
//! computes them from two syndrome rounds: it repeatedly takes the lowest
//! remaining event and, among its candidates lying wholly inside the
//! remaining events, the *last* longest one, clears that candidate's
//! events and XORs its flip into packed data-qubit words. An event with
//! no candidate that fits escalates. Nothing is allocated on the packed
//! entry ([`LutDecoder::try_packed`]); [`LutDecoder::try_decode`] and
//! [`LutDecoder::try_correction`] wrap it for event lists.

use super::Correction;
use crate::graph::{DecodingGraph, EdgeId, Fault, NodeId};
use std::collections::BTreeMap;

const WORD_BITS: usize = 64;

/// The `other` of a one-event (boundary) pattern.
const NO_NODE: u32 = u32::MAX;

/// One single-fault pattern containing a node, seen from that node.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// The pattern's other event, or [`NO_NODE`].
    other: u32,
    /// The first edge with this pattern.
    edge: u32,
    /// Its data flip as a word of the flips and a mask (zero for a
    /// measurement fault).
    flip_word: u32,
    flip_mask: u64,
}

/// Lookup-table decoder for isolated single faults.
///
/// Returns `None` (escalate to the global decoder) whenever the syndrome
/// is not a disjoint union of single-fault patterns. The table is flat —
/// a row of candidate patterns per check node — and the cover runs on
/// packed event words ([`LutDecoder::try_packed`]).
///
/// # Example
///
/// ```
/// use quest_surface::{DecodingGraph, LutDecoder, RotatedLattice, StabKind};
///
/// let lat = RotatedLattice::new(3);
/// let g = DecodingGraph::new(&lat, StabKind::Z, 1);
/// let lut = LutDecoder::new(&g);
/// // A single boundary event is an isolated single-qubit error: handled.
/// assert!(lut.try_decode(&[g.node(0, 0)]).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LutDecoder {
    /// Node `n`'s candidates are `candidates[starts[n]..starts[n + 1]]`.
    starts: Box<[u32]>,
    candidates: Box<[Candidate]>,
    num_nodes: usize,
    boundary: NodeId,
    /// Table capacity statistics: number of entries (for the paper's
    /// feasibility accounting).
    entries: usize,
}

impl LutDecoder {
    /// Builds the table for a decoding graph by enumerating all single
    /// faults.
    pub fn new(graph: &DecodingGraph) -> LutDecoder {
        let narrow = |n: usize| u32::try_from(n).expect("decoding graph too large for the table");
        // Sorted pattern → its first edge; `NO_NODE` pads a single.
        let mut first: BTreeMap<[u32; 2], usize> = BTreeMap::new();
        let mut rows: Vec<Vec<[u32; 2]>> = vec![Vec::new(); graph.boundary()];
        for (i, e) in graph.edges().iter().enumerate() {
            let mut pattern = [e.a, e.b].map(|n| {
                if graph.is_boundary(n) {
                    NO_NODE
                } else {
                    narrow(n)
                }
            });
            pattern.sort_unstable();
            for &n in pattern.iter().filter(|&&n| n != NO_NODE) {
                rows[n as usize].push(pattern);
            }
            first.entry(pattern).or_insert(i);
        }
        let edges = graph.edges();
        let mut starts = Vec::with_capacity(rows.len() + 1);
        let mut candidates = Vec::new();
        starts.push(0);
        for (n, row) in rows.iter().enumerate() {
            for pattern in row {
                let edge = first[pattern];
                let other = if pattern[0] == narrow(n) {
                    pattern[1]
                } else {
                    pattern[0]
                };
                let (flip_word, flip_mask) = match edges[edge].fault {
                    Fault::Data(q) => (narrow(q / WORD_BITS), 1 << (q % WORD_BITS)),
                    Fault::Measurement { .. } => (0, 0),
                };
                candidates.push(Candidate {
                    other,
                    edge: narrow(edge),
                    flip_word,
                    flip_mask,
                });
            }
            starts.push(narrow(candidates.len()));
        }
        LutDecoder {
            starts: starts.into(),
            candidates: candidates.into(),
            num_nodes: graph.num_nodes(),
            boundary: graph.boundary(),
            entries: first.len(),
        }
    }

    /// Number of table entries (one per distinct single-fault pattern).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Words of event bits over this table's check nodes.
    pub fn event_words(&self) -> usize {
        self.boundary.div_ceil(WORD_BITS)
    }

    /// Covers `events` (bit `n % 64` of word `n / 64` for node `n`; the
    /// bits past the last check node clear) with single-fault patterns,
    /// calling `hit` with each chosen candidate in order. `false` means
    /// escalate; `events` then holds what was left uncovered.
    #[inline]
    fn cover(&self, events: &mut [u64], mut hit: impl FnMut(&Candidate)) -> bool {
        let mut w = 0;
        loop {
            while events.get(w) == Some(&0) {
                w += 1;
            }
            let Some(&word) = events.get(w) else {
                return true;
            };
            let n = w * WORD_BITS + word.trailing_zeros() as usize;
            let row = &self.candidates[self.starts[n] as usize..self.starts[n + 1] as usize];
            // The longest candidate that fits; of equals, the last.
            let mut chosen = None;
            let mut longest = 0;
            for c in row {
                let len = match c.other {
                    NO_NODE => 1,
                    other if events[other as usize / WORD_BITS] >> (other % 64) & 1 == 1 => 2,
                    _ => continue,
                };
                if len >= longest {
                    (chosen, longest) = (Some(c), len);
                }
            }
            let Some(c) = chosen else {
                return false;
            };
            events[w] &= word - 1;
            if c.other != NO_NODE {
                events[c.other as usize / WORD_BITS] &= !(1 << (c.other % 64));
            }
            hit(c);
        }
    }

    /// Decodes the event words `events` (bit `n % 64` of word `n / 64`
    /// for check node `n`; the bits past the last node clear) as a
    /// disjoint union of isolated single faults, XOR-ing each chosen
    /// pattern's data flip into `flips` (bit `q % 64` of word `q / 64` for
    /// data qubit `q`). Returns `false` to escalate. A hit leaves
    /// `events` clear; a miss leaves partial work in `events` and
    /// `flips`, so an escalating caller keeps its own copy of the events.
    /// Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `flips` is too short for a data qubit a chosen pattern
    /// flips.
    pub fn try_packed(&self, events: &mut [u64], flips: &mut [u64]) -> bool {
        self.cover(events, |c| flips[c.flip_word as usize] ^= c.flip_mask)
    }

    /// Attempts to decode `events` as a disjoint union of isolated single
    /// faults. Returns the matched edges, or `None` to escalate.
    ///
    /// # Panics
    ///
    /// Panics if `events` contains the boundary node or out-of-range ids.
    pub fn try_decode(&self, events: &[NodeId]) -> Option<Vec<EdgeId>> {
        let mut words = vec![0; self.event_words()];
        for &e in events {
            assert!(e < self.num_nodes && e != self.boundary, "bad event node");
            words[e / WORD_BITS] |= 1 << (e % WORD_BITS);
        }
        let mut edges = Vec::new();
        self.cover(&mut words, |c| edges.push(c.edge as EdgeId))
            .then_some(edges)
    }

    /// Like [`LutDecoder::try_decode`] but returns a full [`Correction`].
    pub fn try_correction(&self, graph: &DecodingGraph, events: &[NodeId]) -> Option<Correction> {
        self.try_decode(events)
            .map(|edges| Correction::from_edges(graph, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::correction_explains_events;
    use crate::graph::Fault;
    use crate::lattice::{RotatedLattice, StabKind};

    fn setup(d: usize, rounds: usize) -> (DecodingGraph, LutDecoder) {
        let lat = RotatedLattice::new(d);
        let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
        let lut = LutDecoder::new(&g);
        (g, lut)
    }

    #[test]
    fn every_single_fault_is_decoded() {
        let (g, lut) = setup(5, 2);
        for e in g.edges() {
            let events: Vec<NodeId> = [e.a, e.b]
                .into_iter()
                .filter(|&n| !g.is_boundary(n))
                .collect();
            let c = lut.try_correction(&g, &events).expect("single fault");
            assert!(correction_explains_events(&g, &c, &events));
        }
    }

    #[test]
    fn two_isolated_faults_are_decoded() {
        let (g, lut) = setup(5, 1);
        // Two internal spatial edges far apart.
        let internal: Vec<&crate::graph::DecodingEdge> = g
            .edges()
            .iter()
            .filter(|e| !g.is_boundary(e.a) && !g.is_boundary(e.b))
            .collect();
        let e1 = internal.first().unwrap();
        let e2 = internal.last().unwrap();
        // Ensure disjoint node sets.
        assert!(e1.a != e2.a && e1.a != e2.b && e1.b != e2.a && e1.b != e2.b);
        let events = vec![e1.a, e1.b, e2.a, e2.b];
        let c = lut
            .try_correction(&g, &events)
            .expect("two isolated faults");
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 2);
    }

    #[test]
    fn error_chain_is_escalated_or_valid() {
        // A weight-2 chain produces two events two hops apart; the LUT may
        // explain each event with a boundary single on small codes, but if
        // it answers, the answer must be syndrome-consistent.
        let (g, lut) = setup(3, 1);
        let chain_events = vec![g.node(0, 0), g.node(0, 3)];
        match lut.try_correction(&g, &chain_events) {
            None => {} // escalated: acceptable
            Some(c) => assert!(correction_explains_events(&g, &c, &chain_events)),
        }
    }

    #[test]
    fn measurement_fault_pattern_known() {
        let (g, lut) = setup(3, 3);
        // Temporal edge events.
        let e = g
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(e.fault, Fault::Measurement { .. }))
            .map(|(i, _)| i)
            .unwrap();
        let edge = &g.edges()[e];
        let events = vec![edge.a, edge.b];
        let c = lut.try_correction(&g, &events).unwrap();
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 0, "measurement error needs no data flip");
    }

    #[test]
    fn table_size_scales_with_edges() {
        let (g, lut) = setup(5, 1);
        assert!(lut.num_entries() <= g.edges().len());
        assert!(lut.num_entries() > 0);
    }

    #[test]
    fn empty_events_decode_to_nothing() {
        let (g, lut) = setup(3, 1);
        let c = lut.try_correction(&g, &[]).unwrap();
        assert!(c.edges.is_empty());
    }
}
