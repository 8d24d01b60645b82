//! Two-level error decoding, mirroring the paper's §4.2:
//!
//! * [`LutDecoder`] — the *local* decoder inside each MCE's error-decoder
//!   pipeline. A lookup table recognises frequently-occurring isolated
//!   single-qubit errors and corrects them without master-controller
//!   involvement.
//! * [`UnionFindDecoder`] — the *global* decoder in the master controller.
//!   It resolves arbitrary error patterns (chains, multi-error clusters)
//!   over the space-time decoding graph. The paper uses minimum-weight
//!   perfect matching; we use the union-find decoder (Delfosse–Nickerson),
//!   which achieves near-identical thresholds, and validate it against
//!   [`ExactMatchingDecoder`] on small instances.
//! * [`ExactMatchingDecoder`] — brute-force minimum-weight perfect matching
//!   (exponential in the number of detection events), used as ground truth
//!   in tests and small benchmarks.
//!
//! [`Decoder`] is the one decoder trait: read-only, what the samplers
//! are generic over. The global decoders of a run (the master
//! controller's, the runtime's decode lane) are instead one concrete [`DecodeEngine`] (see
//! [`backend`]) built from the run's [`DecoderChoice`], which owns its
//! scratch and adds [`CostReport`] cycle/JJ accounting — priced, for
//! `pipelined-uf`, by the cycle-accurate [`PipelinedUfDecoder`] hardware
//! model of the Das et al. micro-architecture.

pub mod backend;
pub mod batch;
mod exact;
mod lut;
mod pipelined;
mod table;
mod union_find;

pub use backend::{CostReport, DecodeEngine, DecoderChoice};
pub use batch::{BatchGraphs, DecodeJob};
pub use exact::ExactMatchingDecoder;
pub use lut::LutDecoder;
pub use pipelined::PipelinedUfDecoder;
pub use table::TableDecoder;
pub use union_find::{UfScratch, UfTrace, UnionFindDecoder};

use crate::graph::{DecodingGraph, EdgeId, Fault, NodeId};
use std::collections::BTreeSet;

/// The output of a decoder: which data qubits to flip, and the full edge
/// set of the inferred fault pattern (including measurement-error edges,
/// which need no physical correction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Correction {
    /// Data qubits whose Pauli frame must be flipped.
    pub data_flips: BTreeSet<usize>,
    /// Matched edges of the decoding graph.
    pub edges: Vec<EdgeId>,
}

impl Correction {
    /// Builds a correction from matched edges, XOR-folding data faults
    /// (a qubit flipped an even number of times needs no correction).
    pub fn from_edges(graph: &DecodingGraph, edges: Vec<EdgeId>) -> Correction {
        let mut data_flips = BTreeSet::new();
        for &e in &edges {
            if let Fault::Data(q) = graph.edges()[e].fault {
                if !data_flips.insert(q) {
                    data_flips.remove(&q);
                }
            }
        }
        Correction { data_flips, edges }
    }

    /// Number of data-qubit flips.
    pub fn weight(&self) -> usize {
        self.data_flips.len()
    }
}

/// Detection events for a whole batch of shots, as node-major bit-planes:
/// `planes[node * blocks + b]` holds bit `s` set iff shot `64*b + s` saw
/// an event on check node `node`. This is exactly the layout the frame
/// sampler produces, so handing it to [`Decoder::decode_planes`] skips
/// the per-shot sparse scatter entirely.
///
/// Planes cover the non-boundary check nodes `0..nodes` (the boundary is
/// the last node id and never carries events). Bits at positions `shots`
/// and beyond must be zero — the constructor asserts it, because a stray
/// dead-lane bit would silently decode phantom shots.
#[derive(Debug, Clone, Copy)]
pub struct EventPlanes<'a> {
    planes: &'a [u64],
    nodes: usize,
    blocks: usize,
    shots: usize,
}

impl<'a> EventPlanes<'a> {
    /// Wraps node-major planes of `nodes` check nodes × `blocks` 64-shot
    /// words, of which the first `shots` bits per plane are live.
    ///
    /// # Panics
    ///
    /// Panics if the slice length is not `nodes * blocks`, `shots` does
    /// not land in the final block, or any plane has a bit set past
    /// `shots`.
    #[must_use]
    pub fn new(planes: &'a [u64], nodes: usize, blocks: usize, shots: usize) -> EventPlanes<'a> {
        assert_eq!(planes.len(), nodes * blocks, "plane slice shape mismatch");
        assert!(shots > 0, "need at least one shot");
        assert!(
            shots > (blocks - 1) * 64 && shots <= blocks * 64,
            "shots must fill the final block"
        );
        let tail_bits = shots - (blocks - 1) * 64;
        if tail_bits < 64 {
            let tail_mask = (1u64 << tail_bits) - 1;
            for node in 0..nodes {
                assert_eq!(
                    planes[node * blocks + blocks - 1] & !tail_mask,
                    0,
                    "dead-lane bits must be masked before decoding (node {node})"
                );
            }
        }
        EventPlanes {
            planes,
            nodes,
            blocks,
            shots,
        }
    }

    /// Check nodes covered (`0..nodes`, boundary excluded).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// 64-shot words per plane.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Live shots.
    #[must_use]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// The bit-plane of one check node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn plane(&self, node: NodeId) -> &'a [u64] {
        assert!(node < self.nodes, "node {node} has no event plane");
        &self.planes[node * self.blocks..(node + 1) * self.blocks]
    }

    /// Total detection events over all shots (popcount of every plane).
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.planes.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Scatters the planes into per-shot sparse event lists (ascending
    /// node order per shot). `out` is resized to `shots` and every inner
    /// vector reused.
    pub fn scatter_into(&self, out: &mut Vec<Vec<NodeId>>) {
        out.resize(self.shots, Vec::new());
        for ev in out.iter_mut() {
            ev.clear();
        }
        for node in 0..self.nodes {
            for (b, &word) in self.plane(node).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let shot = b * 64 + bits.trailing_zeros() as usize;
                    out[shot].push(node);
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// The corrections of a whole batch of shots, flattened: shot `s` flips
/// data qubits `flips[offsets[s]..offsets[s+1]]` (sorted ascending).
///
/// This is the allocation-free counterpart of `Vec<Correction>` for the
/// plane-batched decode path: one pair of growable vectors instead of a
/// `BTreeSet` + edge vector per shot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectionBatch {
    offsets: Vec<usize>,
    flips: Vec<usize>,
}

impl CorrectionBatch {
    /// An empty batch (zero shots).
    #[must_use]
    pub fn new() -> CorrectionBatch {
        CorrectionBatch {
            offsets: vec![0],
            flips: Vec::new(),
        }
    }

    /// Resets to zero shots, keeping allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.flips.clear();
    }

    /// Appends one data-qubit flip to the shot currently being built.
    pub fn push_flip(&mut self, q: usize) {
        self.flips.push(q);
    }

    /// Seals the shot currently being built and starts the next one.
    pub fn finish_shot(&mut self) {
        self.offsets.push(self.flips.len());
    }

    /// Number of sealed shots.
    #[must_use]
    pub fn shots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Data-qubit flips of one sealed shot.
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of range.
    #[must_use]
    pub fn flips_of(&self, shot: usize) -> &[usize] {
        assert!(shot < self.shots(), "shot {shot} not sealed");
        &self.flips[self.offsets[shot]..self.offsets[shot + 1]]
    }

    /// Total data-qubit flips over all sealed shots (the batch
    /// correction weight).
    #[must_use]
    pub fn total_flips(&self) -> usize {
        self.flips.len()
    }
}

impl Default for CorrectionBatch {
    fn default() -> CorrectionBatch {
        CorrectionBatch::new()
    }
}

/// A decoder over the space-time decoding graph.
///
/// `events` are the detection-event nodes (flipped syndrome records).
///
/// Contract: an empty event set decodes to the empty correction (no
/// edges, no data flips), through [`Decoder::decode`] and
/// [`Decoder::decode_many`] alike. [`crate::FrameSampler`] relies on it:
/// a shot without events never reaches the decoder, and its verdict is
/// its uncorrected logical flip.
///
/// Contract: a decode is a pure function of `(graph, events)` — the same
/// set on the same graph always gets the same correction, whatever was
/// decoded before. [`crate::FrameSampler`] relies on this too: it keeps
/// one run's answers to the sets a single fault makes (one node, or the
/// two ends of a graph edge) and answers a repeated one from them, so a
/// decoder that counts or prices its calls sees each such set at most
/// once per sampler run. Every implementor in the workspace is pure: the
/// union-find, exact-matching and table decoders (a [`TableDecoder`]'s
/// entry depends on the events alone, on the graph it was built for),
/// and the tests' counting and recording wrappers, which forward to one
/// of them. The decoder-backend ablation's cost-counting adapter samples
/// through [`crate::MemoryExperiment::logical_error_rate`], which decodes
/// every shot, not through the sampler.
pub trait Decoder {
    /// Produces a correction whose induced syndrome matches `events`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `events` contains the boundary node or
    /// out-of-range ids.
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction;

    /// Decodes many shots against one graph, returning one correction per
    /// event set in order. Semantically identical to mapping
    /// [`Decoder::decode`]; implementations override it to reuse working
    /// memory across shots (the batch samplers call this once per
    /// shot-block).
    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        event_sets.iter().map(|ev| self.decode(graph, ev)).collect()
    }

    /// Decodes a whole batch handed over as detection-event bit-planes,
    /// writing each shot's data-qubit flips into `out` (shot order, flips
    /// ascending). Bit-identical to scattering the planes and running
    /// [`Decoder::decode_many`] — which is exactly what this default
    /// does; implementations override it to consume the planes directly
    /// and skip the per-shot sparse sets and `Correction` allocations.
    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        let mut event_sets: Vec<Vec<NodeId>> = Vec::new();
        planes.scatter_into(&mut event_sets);
        let corrections = self.decode_many(graph, &event_sets);
        out.clear();
        for c in &corrections {
            for &q in &c.data_flips {
                out.push_flip(q);
            }
            out.finish_shot();
        }
    }
}

/// Validates that a correction's edges reproduce exactly the given
/// detection events (every event node touched an odd number of times, all
/// other check nodes an even number). Shared by tests.
pub fn correction_explains_events(
    graph: &DecodingGraph,
    correction: &Correction,
    events: &[NodeId],
) -> bool {
    let mut parity = vec![false; graph.num_nodes()];
    for &e in &correction.edges {
        let edge = &graph.edges()[e];
        parity[edge.a] = !parity[edge.a];
        parity[edge.b] = !parity[edge.b];
    }
    let event_set: BTreeSet<_> = events.iter().copied().collect();
    #[allow(clippy::needless_range_loop)] // n is the node id
    for n in 0..graph.num_nodes() {
        if graph.is_boundary(n) {
            continue; // the boundary absorbs any parity
        }
        if parity[n] != event_set.contains(&n) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{RotatedLattice, StabKind};

    #[test]
    fn correction_from_edges_xor_folds_duplicates() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        // Find two edges with the same data fault in different rounds.
        let q = 4usize; // bulk data qubit
        let same_fault: Vec<EdgeId> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.fault == Fault::Data(q))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(same_fault.len(), 2);
        let c = Correction::from_edges(&g, same_fault);
        assert!(c.data_flips.is_empty(), "double flip should cancel");
    }

    #[test]
    fn empty_correction_explains_no_events() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let c = Correction::default();
        assert!(correction_explains_events(&g, &c, &[]));
        assert!(!correction_explains_events(&g, &c, &[g.node(0, 0)]));
    }
}
