//! Brute-force minimum-weight perfect matching.
//!
//! The paper's global decoder is Fowler's MWPM. A full blossom
//! implementation is unnecessary here because the decoding graph's matching
//! problem has a special structure (events pair with each other or with the
//! boundary); for the small event counts used in validation we can solve it
//! *exactly* with memoized dynamic programming over event subsets in
//! `O(2^k · k)` time. This gives ground truth for the scalable
//! [union-find decoder](super::UnionFindDecoder).

use super::{Correction, Decoder};
use crate::graph::{DecodingGraph, EdgeId, NodeId};

/// Exact minimum-weight matcher (use only for ≲ 16 detection events).
///
/// # Example
///
/// ```
/// use quest_surface::{DecodingGraph, ExactMatchingDecoder, RotatedLattice, StabKind};
/// use quest_surface::decoder::{correction_explains_events, Decoder};
///
/// let lat = RotatedLattice::new(3);
/// let g = DecodingGraph::new(&lat, StabKind::Z, 1);
/// let events = [g.node(0, 0), g.node(0, 1)];
/// let c = ExactMatchingDecoder::new().decode(&g, &events);
/// assert!(correction_explains_events(&g, &c, &events));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMatchingDecoder {
    _private: (),
}

impl ExactMatchingDecoder {
    /// Creates the decoder.
    pub fn new() -> ExactMatchingDecoder {
        ExactMatchingDecoder::default()
    }

    /// Minimum total matching cost for the event set (diagnostic; the same
    /// DP that `decode` uses).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 20 events (the DP table would be
    /// excessive) or if any event is the boundary node.
    pub fn matching_cost(&self, graph: &DecodingGraph, events: &[NodeId]) -> usize {
        self.solve(graph, events).0
    }

    fn solve(&self, graph: &DecodingGraph, events: &[NodeId]) -> (usize, Vec<Pairing>) {
        let k = events.len();
        assert!(k <= 20, "exact matcher limited to 20 events, got {k}");
        for &e in events {
            assert!(!graph.is_boundary(e), "boundary node cannot be an event");
        }
        // Pairwise and boundary distances.
        let mut pair = vec![vec![0usize; k]; k];
        let mut bound = vec![0usize; k];
        for i in 0..k {
            bound[i] = graph.distance(events[i], graph.boundary());
            for j in i + 1..k {
                pair[i][j] = graph.distance(events[i], events[j]);
            }
        }
        // DP over subsets: best[mask] = min cost to match all events in mask.
        let full = 1usize << k;
        const INF: usize = usize::MAX / 4;
        let mut best = vec![INF; full];
        let mut choice: Vec<Pairing> = vec![Pairing::None; full];
        best[0] = 0;
        for mask in 1..full {
            // Lowest set bit must be matched now (canonical ordering).
            let i = mask.trailing_zeros() as usize;
            let rest = mask & !(1 << i);
            // Option 1: match i to the boundary.
            if best[rest] + bound[i] < best[mask] {
                best[mask] = best[rest] + bound[i];
                choice[mask] = Pairing::Boundary(i);
            }
            // Option 2: match i with some j in rest.
            let mut jm = rest;
            while jm != 0 {
                let j = jm.trailing_zeros() as usize;
                jm &= jm - 1;
                let sub = rest & !(1 << j);
                let cost = best[sub] + pair[i.min(j)][i.max(j)];
                if cost < best[mask] {
                    best[mask] = cost;
                    choice[mask] = Pairing::Pair(i, j);
                }
            }
        }
        // Reconstruct.
        let mut pairs = Vec::new();
        let mut mask = full - 1;
        while mask != 0 {
            let c = choice[mask];
            pairs.push(c);
            match c {
                Pairing::Boundary(i) => mask &= !(1 << i),
                Pairing::Pair(i, j) => mask &= !((1 << i) | (1 << j)),
                Pairing::None => unreachable!("unfilled DP cell"),
            }
        }
        (best[full - 1], pairs)
    }
}

#[derive(Debug, Clone, Copy)]
enum Pairing {
    None,
    Boundary(usize),
    Pair(usize, usize),
}

impl ExactMatchingDecoder {
    /// Writes the edges of a minimum-weight matching of `events` to
    /// `edges` (cleared first), without building a [`Correction`].
    pub(crate) fn match_edges(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        edges: &mut Vec<EdgeId>,
    ) {
        edges.clear();
        if events.is_empty() {
            return;
        }
        let (_, pairs) = self.solve(graph, events);
        for p in pairs {
            match p {
                Pairing::Boundary(i) => {
                    edges.extend(
                        graph
                            .shortest_path(events[i], graph.boundary())
                            .expect("graph is connected"),
                    );
                }
                Pairing::Pair(i, j) => {
                    edges.extend(
                        graph
                            .shortest_path(events[i], events[j])
                            .expect("graph is connected"),
                    );
                }
                Pairing::None => unreachable!(),
            }
        }
    }
}

impl Decoder for ExactMatchingDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        let mut edges = Vec::new();
        self.match_edges(graph, events, &mut edges);
        Correction::from_edges(graph, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::correction_explains_events;
    use crate::lattice::{RotatedLattice, StabKind};

    #[test]
    fn empty_events_give_empty_correction() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let c = ExactMatchingDecoder::new().decode(&g, &[]);
        assert!(c.edges.is_empty());
    }

    #[test]
    fn single_event_matches_to_boundary() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let events = [g.node(0, 0)];
        let c = ExactMatchingDecoder::new().decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 1, "d=3 edge check is one hop from boundary");
    }

    #[test]
    fn adjacent_pair_matches_internally() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        // Find two checks joined by a single spatial edge.
        let e = g
            .edges()
            .iter()
            .find(|e| !g.is_boundary(e.a) && !g.is_boundary(e.b))
            .unwrap();
        let events = [e.a, e.b];
        let dec = ExactMatchingDecoder::new();
        let c = dec.decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(dec.matching_cost(&g, &events), 1);
    }

    #[test]
    fn exact_is_never_worse_than_any_single_pairing() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        let events = [g.node(0, 0), g.node(0, 5), g.node(1, 3), g.node(1, 7)];
        let dec = ExactMatchingDecoder::new();
        let cost = dec.matching_cost(&g, &events);
        // All-boundary pairing is an upper bound.
        let all_boundary: usize = events.iter().map(|&e| g.distance(e, g.boundary())).sum();
        assert!(cost <= all_boundary);
        let c = dec.decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
    }
}
