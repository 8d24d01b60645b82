//! Complete lookup-table decoder: every possible syndrome precomputed.
//!
//! The MCE's error-decoder pipeline is "a lookup table" (§4.2). For small
//! codes the table can be *complete*: one minimum-weight correction per
//! possible syndrome pattern, giving O(1) decode with zero control flow —
//! exactly what a JJ-technology pipeline wants. The build cost is
//! `2^checks` exact decodes, so this is for per-round graphs of small
//! tiles (d = 3 has 4 checks per type → 16 entries; d = 5 has 12 → 4096).

use super::{Correction, Decoder, ExactMatchingDecoder};
use crate::graph::{DecodingGraph, NodeId};

/// Precomputed complete decoder for a single-round decoding graph.
///
/// # Example
///
/// ```
/// use quest_surface::decoder::{Decoder, TableDecoder};
/// use quest_surface::{DecodingGraph, RotatedLattice, StabKind};
///
/// let lat = RotatedLattice::new(3);
/// let g = DecodingGraph::new(&lat, StabKind::Z, 1);
/// let table = TableDecoder::build(&g);
/// assert_eq!(table.num_entries(), 16);
/// let c = table.decode(&g, &[g.node(0, 0)]);
/// assert_eq!(c.weight(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TableDecoder {
    num_checks: usize,
    /// Indexed by the syndrome bitmask.
    entries: Vec<Correction>,
}

impl TableDecoder {
    /// Maximum checks the builder accepts (2^16 exact decodes).
    pub const MAX_CHECKS: usize = 16;

    /// Precomputes the table for a **single-round** graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than one round or more than
    /// [`TableDecoder::MAX_CHECKS`] checks.
    pub fn build(graph: &DecodingGraph) -> TableDecoder {
        assert_eq!(graph.rounds(), 1, "table decoder covers one round");
        let num_checks = graph.num_checks();
        assert!(
            num_checks <= Self::MAX_CHECKS,
            "complete table infeasible for {num_checks} checks"
        );
        let exact = ExactMatchingDecoder::new();
        let entries = (0..1usize << num_checks)
            .map(|mask| {
                let events: Vec<NodeId> = (0..num_checks)
                    .filter(|c| mask >> c & 1 == 1)
                    .map(|c| graph.node(0, c))
                    .collect();
                exact.decode(graph, &events)
            })
            .collect();
        TableDecoder {
            num_checks,
            entries,
        }
    }

    /// Number of table entries (`2^checks`).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Table storage in bits, assuming one data-flip bitmap per entry over
    /// `data_qubits` (the hardware cost the paper's feasibility argument
    /// cares about).
    pub fn storage_bits(&self, data_qubits: usize) -> usize {
        self.num_entries() * data_qubits
    }
}

impl TableDecoder {
    /// The precomputed correction of a single-round event set.
    pub(crate) fn entry(&self, graph: &DecodingGraph, events: &[NodeId]) -> &Correction {
        debug_assert_eq!(graph.num_checks(), self.num_checks);
        let mut mask = 0usize;
        for &e in events {
            let (round, check) = graph.round_check(e).expect("event is a check node");
            debug_assert_eq!(round, 0);
            mask |= 1 << check;
        }
        &self.entries[mask]
    }
}

impl Decoder for TableDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.entry(graph, events).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::correction_explains_events;
    use crate::lattice::{RotatedLattice, StabKind};

    #[test]
    fn table_matches_exact_decoder_on_every_syndrome() {
        let lat = RotatedLattice::new(3);
        for kind in [StabKind::X, StabKind::Z] {
            let g = DecodingGraph::new(&lat, kind, 1);
            let table = TableDecoder::build(&g);
            let exact = ExactMatchingDecoder::new();
            for mask in 0..1usize << g.num_checks() {
                let events: Vec<NodeId> = (0..g.num_checks())
                    .filter(|c| mask >> c & 1 == 1)
                    .map(|c| g.node(0, c))
                    .collect();
                let t = table.decode(&g, &events);
                let e = exact.decode(&g, &events);
                assert!(correction_explains_events(&g, &t, &events));
                assert_eq!(t.weight(), e.weight(), "mask {mask:#b}");
            }
        }
    }

    #[test]
    fn d3_table_is_16_entries_and_tiny() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let table = TableDecoder::build(&g);
        assert_eq!(table.num_entries(), 16);
        // 16 entries × 9 data bits = 144 bits — trivially fits JJ memory.
        assert_eq!(table.storage_bits(lat.num_data()), 144);
    }

    #[test]
    fn d5_table_is_feasible() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let table = TableDecoder::build(&g);
        assert_eq!(table.num_entries(), 4096);
        // 4096 × 25 bits = 100 Kb: at the edge of JJ feasibility, which is
        // why the paper pairs the LUT with a *global* decoder instead of
        // scaling the table.
        assert_eq!(table.storage_bits(lat.num_data()), 102_400);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn d7_table_is_refused() {
        let lat = RotatedLattice::new(7);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        TableDecoder::build(&g);
    }
}
