//! Cycle-accurate model of a pipelined hardware union-find decoder.
//!
//! Das et al. ("A Scalable Decoder Micro-architecture for Fault-Tolerant
//! Quantum Computing", PAPERS.md) decompose the union-find decoder into
//! a three-stage hardware pipeline: a **spanning-tree** (graph-generator)
//! stage that grows and merges clusters in on-chip node/edge memories, a
//! **DFS** stage that walks the grown erasure into a peeling forest, and
//! a **correction** stage that emits the data-qubit flips. This module
//! models that micro-architecture on top of the software
//! [`UnionFindDecoder`](super::UnionFindDecoder): the engine
//! [`DecoderChoice::PipelinedUf`](super::DecoderChoice::PipelinedUf)
//! builds runs the *exact* software algorithm with tracing enabled, so
//! its corrections are bit-identical to the `union-find` engine's by
//! construction, and the trace's work counters are then priced against
//! the staged hardware model below.
//!
//! # Cycle model
//!
//! The pipeline clocks at the 10 GHz SFQ rate used throughout the
//! workspace's JJ accounting. Per decode:
//!
//! * spanning-tree stage — each active-cluster member visit reads one
//!   node entry ([`NODE_ENTRY_BITS`] wide) from the node bank, each
//!   incident-edge touch reads one edge entry ([`EDGE_ENTRY_BITS`]) from
//!   the edge bank (both priced at their bank's
//!   [`read_latency_cycles`]), and each cluster merge costs
//!   [`MERGE_CYCLES`] for the root update;
//! * DFS stage — building the forest reads each erased edge once and
//!   visits each forest node once, one edge-bank read each;
//! * correction stage — one cycle per peeled edge to XOR the flip into
//!   the correction register;
//! * plus [`PIPELINE_STAGES`] fill cycles of end-to-end latency.
//!
//! Bank sizes — and therefore the read latencies and the JJ footprint —
//! are pure functions of the decoding graph, and the trace counters are
//! pure functions of `(graph, events)`, so cycle counts are exactly
//! reproducible run to run (asserted by the equivalence property tests).

use super::backend::{read_latency_cycles, JJ_PER_BIT, JJ_PER_CHANNEL, MEMORY_WORD_BITS};
use super::union_find::UfTrace;
use crate::graph::DecodingGraph;

/// Bits per node entry in the spanning-tree stage's node bank: a parent
/// pointer and rank plus the parity/boundary/cluster flag bits, padded
/// to one memory word.
pub const NODE_ENTRY_BITS: u64 = MEMORY_WORD_BITS;

/// Bits per edge entry in the edge bank: 2 support bits plus grow-stamp
/// and erasure flags, padded to a byte.
pub const EDGE_ENTRY_BITS: u64 = 8;

/// Cycles per cluster merge (read both roots, write the union).
pub const MERGE_CYCLES: u64 = 2;

/// Depth of the decode pipeline (spanning-tree → DFS → correction).
pub const PIPELINE_STAGES: u64 = 3;

/// The pipelined hardware union-find decoder's cost model: what the
/// `pipelined-uf` engine charges for a traced software union-find
/// decode, following the module-level hardware model.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedUfDecoder;

impl PipelinedUfDecoder {
    /// JJ footprint of the pipeline sized for `graph`: the node and edge
    /// banks at `JJ_PER_BIT` each, plus one `JJ_PER_CHANNEL` of
    /// sequencing overhead per pipeline stage.
    pub fn jj_count(graph: &DecodingGraph) -> u64 {
        let node_bits = graph.num_nodes() as u64 * NODE_ENTRY_BITS;
        let edge_bits = graph.edges().len() as u64 * EDGE_ENTRY_BITS;
        (node_bits + edge_bits) * JJ_PER_BIT + PIPELINE_STAGES * JJ_PER_CHANNEL
    }

    /// Cycles one traced decode takes through the pipeline sized for
    /// `graph` (see the module docs for the stage breakdown).
    pub fn decode_cycles(graph: &DecodingGraph, trace: &UfTrace) -> u64 {
        let node_read = read_latency_cycles(graph.num_nodes() as u64 * NODE_ENTRY_BITS);
        let edge_read = read_latency_cycles(graph.edges().len() as u64 * EDGE_ENTRY_BITS);
        let spanning_tree = trace.member_visits * node_read
            + trace.edge_touches * edge_read
            + trace.merges * MERGE_CYCLES;
        let dfs = (trace.erased_edges + trace.forest_visits) * edge_read;
        let correction = trace.peeled_edges;
        PIPELINE_STAGES + spanning_tree + dfs + correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{Decoder, DecoderChoice, UnionFindDecoder};
    use crate::lattice::{RotatedLattice, StabKind};
    use proptest::prelude::*;

    #[test]
    fn jj_and_cycle_model_scales_with_the_graph() {
        let small = DecodingGraph::new(&RotatedLattice::new(3), StabKind::Z, 1);
        let large = DecodingGraph::new(&RotatedLattice::new(7), StabKind::Z, 7);
        assert!(PipelinedUfDecoder::jj_count(&large) > PipelinedUfDecoder::jj_count(&small));
        let trace = UfTrace {
            growth_rounds: 2,
            member_visits: 4,
            edge_touches: 12,
            merges: 1,
            erased_edges: 3,
            forest_visits: 4,
            peeled_edges: 2,
        };
        // The larger graph's deeper banks make the same work slower.
        assert!(
            PipelinedUfDecoder::decode_cycles(&large, &trace)
                > PipelinedUfDecoder::decode_cycles(&small, &trace)
        );
    }

    #[test]
    fn empty_syndrome_costs_only_the_pipeline_fill() {
        let g = DecodingGraph::new(&RotatedLattice::new(3), StabKind::Z, 1);
        let mut backend = DecoderChoice::PipelinedUf.backend();
        let c = backend.decode(&g, &[]);
        assert!(c.edges.is_empty());
        assert_eq!(backend.cost().cycles, PIPELINE_STAGES);
    }

    /// Distances the equivalence property sweeps (ISSUE 7 satellite:
    /// d ∈ {3, 5, 7}).
    const DISTANCES: [usize; 3] = [3, 5, 7];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite acceptance: on random syndromes at d ∈ {3, 5, 7},
        /// the pipelined model's corrections are bit-for-bit the
        /// software union-find's, and its cycle count is deterministic
        /// across independent decodes of the same syndrome.
        #[test]
        fn matches_software_union_find_bit_for_bit(
            d_idx in 0usize..DISTANCES.len(),
            rounds in 1usize..4,
            picks in proptest::collection::vec(0usize..10_000, 0..12),
        ) {
            let d = DISTANCES[d_idx];
            let lat = RotatedLattice::new(d);
            let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
            let mut events: Vec<usize> = picks
                .iter()
                .map(|p| p % g.boundary())
                .collect();
            events.sort_unstable();
            events.dedup();

            let software = UnionFindDecoder::new().decode(&g, &events);
            let mut first = DecoderChoice::PipelinedUf.backend();
            let hardware = first.decode(&g, &events);
            prop_assert_eq!(&software, &hardware, "corrections diverged at d={}", d);

            let mut second = DecoderChoice::PipelinedUf.backend();
            second.decode(&g, &events);
            prop_assert_eq!(
                first.cost(),
                second.cost(),
                "cycle counts nondeterministic at d={}",
                d
            );
            prop_assert!(first.cost().cycles >= PIPELINE_STAGES);
            prop_assert_eq!(first.cost().jj_count, PipelinedUfDecoder::jj_count(&g));
        }
    }
}
