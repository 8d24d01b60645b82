//! The vocabulary of batched global decoding.
//!
//! The master controller's global decoder receives escalations one at a
//! time in the single-threaded systems, but a concurrent runtime collects
//! escalations from many tiles per cycle and hands them to a worker pool
//! in batches: independent [`DecodeJob`]s decoded against shared per-kind
//! [`BatchGraphs`], each job resolved exactly as the one-at-a-time path
//! resolves it (single-round graph, same node numbering), so batching
//! changes throughput but never corrections.

use crate::graph::{DecodingGraph, NodeId};
use crate::lattice::{RotatedLattice, StabKind};

/// One escalated decode request: the detection events of a single round
/// on one tile's single-round decoding graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeJob {
    /// Stabilizer type of the escalating decoder pipeline.
    pub kind: StabKind,
    /// Detection-event nodes (single-round graph numbering: node id =
    /// check index).
    pub events: Vec<NodeId>,
}

/// Per-kind single-round decoding graphs, built once per lattice and
/// reused across batches (graph construction is the per-job overhead
/// worth amortizing; the graphs themselves are immutable).
#[derive(Debug, Clone)]
pub struct BatchGraphs {
    x: DecodingGraph,
    z: DecodingGraph,
}

impl BatchGraphs {
    /// Builds the two single-round graphs for a tile lattice.
    pub fn new(lattice: &RotatedLattice) -> BatchGraphs {
        BatchGraphs {
            x: DecodingGraph::new(lattice, StabKind::X, 1),
            z: DecodingGraph::new(lattice, StabKind::Z, 1),
        }
    }

    /// The graph for one stabilizer kind.
    pub fn graph(&self, kind: StabKind) -> &DecodingGraph {
        match kind {
            StabKind::X => &self.x,
            StabKind::Z => &self.z,
        }
    }
}
