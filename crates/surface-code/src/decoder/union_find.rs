//! Union-find decoder (Delfosse–Nickerson, "Almost-linear time decoding
//! algorithm for topological codes").
//!
//! The decoder grows clusters around detection events in half-edge steps,
//! merging clusters as they touch, until every cluster has even parity or
//! touches the boundary. The grown region is then treated as an erasure and
//! peeled: a spanning forest is built and leaf edges are processed inward,
//! emitting a correction edge whenever a leaf carries an unpaired event.
//!
//! This plays the role of the paper's global MWPM decoder in the master
//! controller; its output is validated against the exact matcher in tests.
//!
//! Decoding state lives in a [`UfScratch`] workspace so batch callers
//! (thousands of shots against one decoding graph) pay for the ~dozen
//! working vectors once instead of once per shot; [`Decoder::decode`]
//! remains the convenient single-shot entry point.

use super::{Correction, CorrectionBatch, Decoder, EventPlanes};
use crate::graph::{DecodingGraph, EdgeId, Fault, NodeId};
use std::collections::VecDeque;

/// Deterministic work counters recorded by one traced union-find decode
/// (see [`UnionFindDecoder::decode_traced`]).
///
/// Every counter is a pure function of `(graph, events)` — the decode
/// itself consumes no randomness and iterates in fixed node/edge order —
/// so hardware cost models built on a trace (the pipelined-UF backend)
/// inherit the decoder's determinism. The counters mirror the stages of
/// the Das et al. pipelined micro-architecture: growth work feeds the
/// spanning-tree stage, forest traversal the DFS stage, and peeled edges
/// the correction stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UfTrace {
    /// Growth iterations until every cluster is even or boundary-bound.
    pub growth_rounds: u64,
    /// Frontier member nodes visited (cluster members that still have an
    /// unsaturated incident edge), summed over growth rounds. Interior
    /// members are skipped by an O(1) saturation check and do no work.
    pub member_visits: u64,
    /// Incident edges examined while growing frontier members, summed
    /// over growth rounds.
    pub edge_touches: u64,
    /// Cluster merge operations (union calls on fully-grown edges).
    pub merges: u64,
    /// Edges in the final erasure (support saturated at 2).
    pub erased_edges: u64,
    /// Nodes visited while building the peeling spanning forest.
    pub forest_visits: u64,
    /// Edges emitted into the correction by the peeling stage.
    pub peeled_edges: u64,
}

/// Scalable union-find decoder.
///
/// # Example
///
/// ```
/// use quest_surface::{DecodingGraph, RotatedLattice, StabKind, UnionFindDecoder};
/// use quest_surface::decoder::{correction_explains_events, Decoder};
///
/// let lat = RotatedLattice::new(5);
/// let g = DecodingGraph::new(&lat, StabKind::Z, 5);
/// let events = [g.node(1, 2), g.node(1, 3)];
/// let c = UnionFindDecoder::new().decode(&g, &events);
/// assert!(correction_explains_events(&g, &c, &events));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UnionFindDecoder {
    _private: (),
}

impl UnionFindDecoder {
    /// Creates the decoder.
    pub fn new() -> UnionFindDecoder {
        UnionFindDecoder::default()
    }
}

/// Reusable working memory for [`UnionFindDecoder`].
///
/// All vectors are sized for the decoding graph on first use and reused on
/// every subsequent [`UnionFindDecoder::decode_with`] call, so decoding a
/// batch of shots allocates nothing per shot (beyond the returned
/// [`Correction`]).
#[derive(Debug, Clone, Default)]
pub struct UfScratch {
    // Node-indexed.
    is_event: Vec<bool>,
    in_cluster: Vec<bool>,
    /// Per cluster node: its incident edges not yet saturated. Growth
    /// skips members at 0 — interior nodes of a grown ball contribute no
    /// delta, and on large clusters they vastly outnumber the frontier.
    unsat: Vec<u8>,
    parent: Vec<usize>,
    rank: Vec<u8>,
    odd: Vec<bool>,
    touches_boundary: Vec<bool>,
    visited: Vec<bool>,
    parent_edge: Vec<Option<EdgeId>>,
    order: Vec<NodeId>,
    adj: Vec<Vec<EdgeId>>,
    queue: VecDeque<NodeId>,
    // Edge-indexed.
    support: Vec<u8>,
    delta: Vec<u8>,
    edge_stamp: Vec<usize>,
    erased: Vec<EdgeId>,
    /// `(root, node)` frontier pairs of the current growth round. List
    /// order never affects results: growth deltas are per-root distinct
    /// counts, and supports are applied in ascending edge order.
    active_members: Vec<(usize, NodeId)>,
    /// Every node that entered a cluster this decode — the exact set of
    /// nodes whose union-find state the undo pass must restore.
    cluster_nodes: Vec<NodeId>,
    /// Edges whose support went nonzero this decode (for the undo pass).
    touched_edges: Vec<EdgeId>,
    /// Edges that received growth `delta` in the current round; sorted
    /// before the support update so processing order equals the old
    /// ascending full-edge scan (claim order decides the matching).
    round_edges: Vec<EdgeId>,
    /// Sorted, deduplicated endpoints of erased edges: the only possible
    /// spanning-forest roots, replacing the old all-node seed scan.
    forest_seeds: Vec<NodeId>,
}

impl UfScratch {
    /// Creates an empty workspace; it sizes itself lazily on first decode.
    pub fn new() -> UfScratch {
        UfScratch::default()
    }

    /// Resets the workspace for a fresh decode over `graph`, resizing if
    /// the graph changed since the previous use.
    fn reset_for(&mut self, graph: &DecodingGraph) {
        let n = graph.num_nodes();
        let m = graph.edges().len();
        self.is_event.clear();
        self.is_event.resize(n, false);
        self.in_cluster.clear();
        self.in_cluster.resize(n, false);
        self.unsat.clear();
        self.unsat.resize(n, 0);
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.odd.clear();
        self.odd.resize(n, false);
        self.touches_boundary.clear();
        self.touches_boundary.resize(n, false);
        self.visited.clear();
        self.visited.resize(n, false);
        self.parent_edge.clear();
        self.parent_edge.resize(n, None);
        self.order.clear();
        // Adjacency lists keep their inner allocations; only shrink the
        // outer vec if the graph shrank.
        for a in &mut self.adj {
            a.clear();
        }
        self.adj.resize(n, Vec::new());
        self.queue.clear();
        self.support.clear();
        self.support.resize(m, 0);
        self.delta.clear();
        self.delta.resize(m, 0);
        self.edge_stamp.clear();
        self.edge_stamp.resize(m, usize::MAX);
        self.erased.clear();
        self.active_members.clear();
        self.cluster_nodes.clear();
        self.touched_edges.clear();
        self.round_edges.clear();
        self.forest_seeds.clear();
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        self.odd[big] ^= self.odd[small];
        self.touches_boundary[big] |= self.touches_boundary[small];
    }

    /// A cluster is *active* (must keep growing) when it holds odd parity
    /// and does not touch the boundary.
    fn is_active_root(&self, root: usize) -> bool {
        self.odd[root] && !self.touches_boundary[root]
    }
}

impl UnionFindDecoder {
    /// Decodes using caller-provided working memory. Identical output to
    /// [`Decoder::decode`]; use this (or [`Decoder::decode_many`]) when
    /// decoding many shots against the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `events` contains the boundary node.
    pub fn decode_with(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        scratch: &mut UfScratch,
    ) -> Correction {
        self.decode_traced(graph, events, scratch, &mut UfTrace::default())
    }

    /// [`UnionFindDecoder::decode_with`], additionally accumulating the
    /// decode's deterministic work counts into `trace`. The correction is
    /// bit-identical to the untraced path (which delegates here with a
    /// discarded trace); the counters exist so hardware backends can put
    /// cycle prices on the exact work this decode performed.
    ///
    /// # Panics
    ///
    /// Panics if `events` contains the boundary node.
    pub fn decode_traced(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        scratch: &mut UfScratch,
        trace: &mut UfTrace,
    ) -> Correction {
        let mut edges = Vec::new();
        self.decode_edges(graph, events, scratch, trace, &mut edges);
        Correction::from_edges(graph, edges)
    }

    /// Core decode: appends the matched edges for `events` to `edges_out`
    /// (which is cleared first) without building a [`Correction`]. The
    /// plane-batched path calls [`Self::decode_edges_prepared`] per shot
    /// and XOR-folds the data flips itself.
    fn decode_edges(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        scratch: &mut UfScratch,
        trace: &mut UfTrace,
        edges_out: &mut Vec<EdgeId>,
    ) {
        edges_out.clear();
        if events.is_empty() {
            return;
        }
        scratch.reset_for(graph);
        self.decode_edges_prepared(graph, events, scratch, trace, edges_out);
    }

    /// [`Self::decode_edges`] against a scratch already reset for `graph`.
    ///
    /// Every loop here walks only touched-state lists (cluster members,
    /// delta'd edges, erased-edge endpoints), never the whole graph, and a
    /// final undo pass restores the scratch to its post-reset state — so
    /// per-shot cost is proportional to the clusters grown, not to
    /// `nodes + edges`. That is what makes plane-batched decoding cheap at
    /// low event density, where most shots grow a handful of tiny clusters.
    ///
    /// Output is bit-identical to a fresh-reset decode: each reordered
    /// iteration (round edges, erasure, forest seeds) is sorted back to the
    /// ascending order the full scans used, and the undo pass restores
    /// exactly the entries the decode mutated (union-find state on cluster
    /// nodes, forest state on BFS-visited nodes, support on delta'd edges;
    /// `delta`/`edge_stamp` are already restored per growth round).
    fn decode_edges_prepared(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        scratch: &mut UfScratch,
        trace: &mut UfTrace,
        edges_out: &mut Vec<EdgeId>,
    ) {
        edges_out.clear();
        if events.is_empty() {
            return;
        }
        let boundary = graph.boundary();
        for &e in events {
            assert!(!graph.is_boundary(e), "boundary node cannot be an event");
            scratch.is_event[e] = true;
            scratch.odd[e] = true;
            scratch.in_cluster[e] = true;
            // Supports are all zero on a clean scratch, so every incident
            // edge of a seed is unsaturated.
            scratch.unsat[e] = graph.incident(e).len() as u8;
            scratch.cluster_nodes.push(e);
        }

        // --- Growth stage -------------------------------------------------
        loop {
            // Collect member nodes of active clusters as (root, node)
            // pairs and sort them. The sort is what makes the matching
            // deterministic: the growth loop below iterates cluster by
            // cluster, and edge supports saturate at 2 — so the *order*
            // clusters claim shared edges decides which chains complete
            // first. `cluster_nodes` holds exactly the in-cluster nodes
            // (boundary excluded), so iterating it and sorting equals the
            // old ascending all-node scan. Members whose incident edges
            // are all saturated contribute no delta and are skipped
            // before the union-find lookup — `delta[e]` counts *distinct
            // adjacent active roots*, a pure set property, so dropping
            // zero-contribution members (and the member iteration order
            // itself) cannot change it. On a grown ball the interior
            // vastly outnumbers the frontier, so this check is what keeps
            // round cost proportional to the cluster surface.
            scratch.active_members.clear();
            for i in 0..scratch.cluster_nodes.len() {
                let node = scratch.cluster_nodes[i];
                if scratch.unsat[node] == 0 {
                    continue;
                }
                let root = scratch.find(node);
                if scratch.is_active_root(root) {
                    scratch.active_members.push((root, node));
                }
            }
            // An odd boundary-free cluster always has an unsaturated
            // frontier (saturation pulls the far endpoint in), so the
            // frontier list is empty exactly when no cluster is active.
            if scratch.active_members.is_empty() {
                break;
            }
            trace.growth_rounds += 1;
            trace.member_visits += scratch.active_members.len() as u64;
            scratch.round_edges.clear();
            for i in 0..scratch.active_members.len() {
                let (root, node) = scratch.active_members[i];
                trace.edge_touches += graph.incident(node).len() as u64;
                for &e in graph.incident(node) {
                    if scratch.support[e] < 2 && scratch.edge_stamp[e] != root {
                        scratch.edge_stamp[e] = root;
                        if scratch.delta[e] == 0 {
                            scratch.round_edges.push(e);
                        }
                        scratch.delta[e] += 1;
                    }
                }
            }
            // Only delta'd edges were stamped; restore their stamps, then
            // apply supports in ascending edge order, which decides edge
            // claim priority. Sorting the touched list and scanning every
            // edge for `delta > 0` build the same ascending vector; pick
            // whichever is cheaper for this round's density.
            for i in 0..scratch.round_edges.len() {
                scratch.edge_stamp[scratch.round_edges[i]] = usize::MAX;
            }
            let m = scratch.delta.len();
            if scratch.round_edges.len() * 4 >= m {
                scratch.round_edges.clear();
                for e in 0..m {
                    if scratch.delta[e] > 0 {
                        scratch.round_edges.push(e);
                    }
                }
            } else {
                scratch.round_edges.sort_unstable();
            }
            for i in 0..scratch.round_edges.len() {
                let e = scratch.round_edges[i];
                let d = scratch.delta[e];
                scratch.delta[e] = 0;
                if scratch.support[e] == 0 {
                    scratch.touched_edges.push(e);
                }
                scratch.support[e] = (scratch.support[e] + d).min(2);
                if scratch.support[e] == 2 {
                    let edge = &graph.edges()[e];
                    let (a, b) = (edge.a, edge.b);
                    if a == boundary || b == boundary {
                        let inner = if a == boundary { b } else { a };
                        Self::enter_cluster(graph, scratch, inner);
                        let root = scratch.find(inner);
                        scratch.touches_boundary[root] = true;
                    } else {
                        Self::enter_cluster(graph, scratch, a);
                        Self::enter_cluster(graph, scratch, b);
                        scratch.union(a, b);
                        trace.merges += 1;
                    }
                }
            }
        }

        // --- Peeling stage ------------------------------------------------
        // Erasure = fully grown edges. `touched_edges` holds every edge
        // whose support went nonzero, each pushed once; sorting and
        // filtering it equals the old ascending all-edge scan. Build a
        // spanning forest with BFS, seeding from the boundary first so
        // boundary-touching trees are rooted at the boundary (which absorbs
        // leftover parity).
        let m = scratch.support.len();
        if scratch.touched_edges.len() * 4 >= m {
            scratch.touched_edges.clear();
            for e in 0..m {
                if scratch.support[e] > 0 {
                    scratch.touched_edges.push(e);
                }
            }
        } else {
            scratch.touched_edges.sort_unstable();
        }
        for i in 0..scratch.touched_edges.len() {
            let e = scratch.touched_edges[i];
            if scratch.support[e] == 2 {
                scratch.erased.push(e);
            }
        }
        scratch.forest_seeds.clear();
        for i in 0..scratch.erased.len() {
            let e = scratch.erased[i];
            let edge = &graph.edges()[e];
            scratch.adj[edge.a].push(e);
            scratch.adj[edge.b].push(e);
            scratch.forest_seeds.push(edge.a);
            scratch.forest_seeds.push(edge.b);
        }
        trace.erased_edges += scratch.erased.len() as u64;
        if !scratch.adj[boundary].is_empty() {
            Self::bfs(graph, scratch, boundary);
        }
        // Erased-edge endpoints are the only nodes with nonempty adjacency;
        // visiting them ascending equals the old all-node seed scan.
        let n = graph.num_nodes();
        if scratch.forest_seeds.len() * 2 >= n {
            scratch.forest_seeds.clear();
            for node in 0..n {
                if !scratch.adj[node].is_empty() {
                    scratch.forest_seeds.push(node);
                }
            }
        } else {
            scratch.forest_seeds.sort_unstable();
            scratch.forest_seeds.dedup();
        }
        for i in 0..scratch.forest_seeds.len() {
            let node = scratch.forest_seeds[i];
            if !scratch.visited[node] && !scratch.adj[node].is_empty() {
                Self::bfs(graph, scratch, node);
            }
        }
        trace.forest_visits += scratch.order.len() as u64;

        // Peel leaves inward: process nodes in reverse BFS order; each node
        // (except roots) has a parent edge. If the node still carries an
        // event, the parent edge joins the correction and the event moves to
        // the parent.
        for i in (0..scratch.order.len()).rev() {
            let node = scratch.order[i];
            if let Some(pe) = scratch.parent_edge[node] {
                if scratch.is_event[node] {
                    scratch.is_event[node] = false;
                    let parent = graph.other_end(pe, node);
                    if parent != boundary {
                        scratch.is_event[parent] = !scratch.is_event[parent];
                    }
                    edges_out.push(pe);
                }
            }
        }
        trace.peeled_edges += edges_out.len() as u64;

        // --- Undo pass ----------------------------------------------------
        // Restore the scratch to its post-reset state so the next
        // `decode_edges_prepared` call starts clean without an O(n + m)
        // reset. Peeling already returns `is_event` to all-false when every
        // event pairs up; clear it anyway so an incomplete pairing can
        // never leak into the next shot.
        for i in 0..scratch.cluster_nodes.len() {
            let x = scratch.cluster_nodes[i];
            debug_assert!(
                !scratch.is_event[x],
                "union-find left unpaired events: growth stage incomplete"
            );
            scratch.is_event[x] = false;
            scratch.in_cluster[x] = false;
            scratch.parent[x] = x;
            scratch.rank[x] = 0;
            scratch.odd[x] = false;
            scratch.touches_boundary[x] = false;
            scratch.unsat[x] = 0;
        }
        scratch.cluster_nodes.clear();
        for i in 0..scratch.order.len() {
            let x = scratch.order[i];
            scratch.visited[x] = false;
            scratch.parent_edge[x] = None;
            scratch.adj[x].clear();
        }
        scratch.order.clear();
        for i in 0..scratch.touched_edges.len() {
            scratch.support[scratch.touched_edges[i]] = 0;
        }
        scratch.touched_edges.clear();
        scratch.erased.clear();
        scratch.active_members.clear();
        scratch.forest_seeds.clear();
    }

    /// Plane-batched decode: transposes the node-major event planes into
    /// per-shot event lists (CSR layout, one pass), then runs the core
    /// decode shot by shot with fully reused working memory.
    ///
    /// The output is bit-identical to scattering the planes and calling
    /// [`Decoder::decode_many`]: the CSR fill visits nodes in ascending
    /// order, so each shot's events arrive sorted exactly as the sparse
    /// path produces them, and the XOR-fold below emits flips in the same
    /// ascending order as [`Correction::from_edges`]'s `BTreeSet`.
    fn decode_planes_impl(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        scratch: &mut UfScratch,
        out: &mut CorrectionBatch,
    ) {
        let shots = planes.shots();
        out.clear();

        // CSR transpose: per-shot event counts, prefix sums, fill.
        let mut offsets = vec![0usize; shots + 1];
        for node in 0..planes.nodes() {
            for (b, &word) in planes.plane(node).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let shot = b * 64 + bits.trailing_zeros() as usize;
                    offsets[shot + 1] += 1;
                    bits &= bits - 1;
                }
            }
        }
        for s in 0..shots {
            offsets[s + 1] += offsets[s];
        }
        let total = offsets[shots];
        let mut events_flat = vec![0 as NodeId; total];
        let mut cursor = offsets.clone();
        for node in 0..planes.nodes() {
            for (b, &word) in planes.plane(node).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let shot = b * 64 + bits.trailing_zeros() as usize;
                    events_flat[cursor[shot]] = node;
                    cursor[shot] += 1;
                    bits &= bits - 1;
                }
            }
        }

        // Per-shot decode with reused scratch, edge buffer and flip marks.
        // The scratch is reset once for the whole batch; each prepared
        // decode cleans up after itself, so per-shot cost scales with the
        // clusters grown rather than with the graph.
        scratch.reset_for(graph);
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut marked: Vec<bool> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for shot in 0..shots {
            let events = &events_flat[offsets[shot]..offsets[shot + 1]];
            let mut trace = UfTrace::default();
            self.decode_edges_prepared(graph, events, scratch, &mut trace, &mut edges);

            // XOR-fold data faults without a per-shot set: mark parity in a
            // reusable bool table, then emit odd-parity qubits ascending.
            touched.clear();
            for &e in &edges {
                if let Fault::Data(q) = graph.edges()[e].fault {
                    if q >= marked.len() {
                        marked.resize(q + 1, false);
                    }
                    if !marked[q] {
                        touched.push(q);
                        marked[q] = true;
                    } else {
                        marked[q] = false;
                    }
                }
            }
            touched.sort_unstable();
            for &q in &touched {
                if marked[q] {
                    out.push_flip(q);
                    marked[q] = false;
                }
            }
            out.finish_shot();
        }
    }

    /// Cluster bookkeeping for `node` after one of its incident edges
    /// saturated: a node already in a cluster loses one unsaturated edge
    /// (the saturating one, which its count necessarily still included);
    /// a node entering now counts its unsaturated incident edges — the
    /// saturating edge is already at full support, so it is excluded.
    fn enter_cluster(graph: &DecodingGraph, scratch: &mut UfScratch, node: NodeId) {
        if scratch.in_cluster[node] {
            debug_assert!(scratch.unsat[node] > 0, "saturated edge not in count");
            scratch.unsat[node] -= 1;
        } else {
            scratch.in_cluster[node] = true;
            scratch.cluster_nodes.push(node);
            let mut unsat = 0u8;
            for &e in graph.incident(node) {
                if scratch.support[e] < 2 {
                    unsat += 1;
                }
            }
            scratch.unsat[node] = unsat;
        }
    }

    fn bfs(graph: &DecodingGraph, scratch: &mut UfScratch, start: NodeId) {
        scratch.visited[start] = true;
        scratch.queue.push_back(start);
        while let Some(u) = scratch.queue.pop_front() {
            scratch.order.push(u);
            for i in 0..scratch.adj[u].len() {
                let e = scratch.adj[u][i];
                let v = graph.other_end(e, u);
                if !scratch.visited[v] {
                    scratch.visited[v] = true;
                    scratch.parent_edge[v] = Some(e);
                    scratch.queue.push_back(v);
                }
            }
        }
    }
}

impl Decoder for UnionFindDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.decode_with(graph, events, &mut UfScratch::new())
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        let mut scratch = UfScratch::new();
        event_sets
            .iter()
            .map(|ev| self.decode_with(graph, ev, &mut scratch))
            .collect()
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        self.decode_planes_impl(graph, planes, &mut UfScratch::new(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{correction_explains_events, ExactMatchingDecoder};
    use crate::lattice::{RotatedLattice, StabKind};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn empty_events_trivial() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let c = UnionFindDecoder::new().decode(&g, &[]);
        assert!(c.edges.is_empty());
    }

    #[test]
    fn single_event_reaches_boundary() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        for c_idx in 0..g.num_checks() {
            let events = [g.node(0, c_idx)];
            let c = UnionFindDecoder::new().decode(&g, &events);
            assert!(correction_explains_events(&g, &c, &events), "check {c_idx}");
        }
    }

    #[test]
    fn pair_of_adjacent_events() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let e = g
            .edges()
            .iter()
            .find(|e| !g.is_boundary(e.a) && !g.is_boundary(e.b))
            .unwrap();
        let events = [e.a, e.b];
        let c = UnionFindDecoder::new().decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
    }

    #[test]
    fn temporal_pair_needs_no_data_flip() {
        // A measurement error shows up as two temporal events on the same
        // check; the correction should involve no data flips.
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 3);
        let events = [g.node(0, 4), g.node(1, 4)];
        let c = UnionFindDecoder::new().decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 0, "temporal match should flip no data qubits");
    }

    #[test]
    fn random_event_sets_always_explained() {
        let mut rng = StdRng::seed_from_u64(99);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 4);
        let all_nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let uf = UnionFindDecoder::new();
        for k in [1usize, 2, 3, 5, 8, 12] {
            for _ in 0..20 {
                let events: Vec<NodeId> = all_nodes.choose_multiple(&mut rng, k).copied().collect();
                let c = uf.decode(&g, &events);
                assert!(
                    correction_explains_events(&g, &c, &events),
                    "k = {k}, events = {events:?}"
                );
            }
        }
    }

    #[test]
    fn decode_is_deterministic_across_runs_and_threads() {
        // Regression test for the growth-stage grouping: cluster processing
        // order must be the deterministic (root, node) order, never a
        // hashed-map order that follows the per-process RandomState. The
        // matching must be bit-identical however often and wherever it is
        // computed.
        let mut rng = StdRng::seed_from_u64(2024);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 4);
        let all_nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let event_sets: Vec<Vec<NodeId>> = (0..40)
            .map(|_| all_nodes.choose_multiple(&mut rng, 6).copied().collect())
            .collect();

        let decode_all = |sets: &[Vec<NodeId>]| -> Vec<Correction> {
            let lat = RotatedLattice::new(5);
            let g = DecodingGraph::new(&lat, StabKind::Z, 4);
            let uf = UnionFindDecoder::new();
            sets.iter().map(|ev| uf.decode(&g, ev)).collect()
        };

        let first = decode_all(&event_sets);
        let second = decode_all(&event_sets);
        assert_eq!(first, second, "same-thread decode must be reproducible");

        // A spawned thread gets a freshly seeded RandomState for any
        // hashed collections it creates — decode there too.
        let sets = event_sets.clone();
        let third = std::thread::spawn(move || decode_all(&sets))
            .join()
            .expect("decode thread must not panic");
        assert_eq!(first, third, "cross-thread decode must be reproducible");
    }

    #[test]
    fn scratch_reuse_matches_fresh_decodes() {
        // decode_many (one reused workspace) must be bit-identical to
        // per-shot decode (fresh workspace each time), including when the
        // reused scratch has seen larger event sets first.
        let mut rng = StdRng::seed_from_u64(77);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 5);
        let all_nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let mut event_sets: Vec<Vec<NodeId>> = (0..30)
            .map(|i| {
                let k = [12usize, 6, 1, 0, 8, 3][i % 6];
                all_nodes.choose_multiple(&mut rng, k).copied().collect()
            })
            .collect();
        event_sets.push(Vec::new());
        let uf = UnionFindDecoder::new();
        let batch = uf.decode_many(&g, &event_sets);
        let fresh: Vec<Correction> = event_sets.iter().map(|ev| uf.decode(&g, ev)).collect();
        assert_eq!(batch, fresh);
    }

    #[test]
    fn scratch_survives_graph_size_changes() {
        // One workspace used across graphs of different sizes must resize
        // correctly in both directions.
        let uf = UnionFindDecoder::new();
        let mut scratch = UfScratch::new();
        for rounds in [4usize, 1, 3] {
            let lat = RotatedLattice::new(5);
            let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
            let events = [g.node(0, 2)];
            let with_scratch = uf.decode_with(&g, &events, &mut scratch);
            let fresh = uf.decode(&g, &events);
            assert_eq!(with_scratch, fresh, "rounds = {rounds}");
            assert!(correction_explains_events(&g, &with_scratch, &events));
        }
    }

    #[test]
    fn plane_decode_matches_sparse_decode() {
        // decode_planes (CSR transpose + alloc-free XOR fold) must be
        // bit-identical to scattering and calling decode_many, including
        // shots with no events and a non-multiple-of-64 shot count.
        let mut rng = StdRng::seed_from_u64(4242);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 4);
        let nodes = g.boundary();
        let shots = 150usize; // 3 blocks, 22 live bits in the tail
        let blocks = shots.div_ceil(64);
        let tail_mask = (1u64 << (shots - (blocks - 1) * 64)) - 1;

        let mut planes = vec![0u64; nodes * blocks];
        for shot in 0..shots {
            let k = [0usize, 1, 2, 4, 7][shot % 5];
            let all: Vec<NodeId> = (0..nodes).collect();
            for &node in all.choose_multiple(&mut rng, k) {
                planes[node * blocks + shot / 64] |= 1u64 << (shot % 64);
            }
        }
        for node in 0..nodes {
            planes[node * blocks + blocks - 1] &= tail_mask;
        }

        let ev = EventPlanes::new(&planes, nodes, blocks, shots);
        let uf = UnionFindDecoder::new();
        let mut batch = CorrectionBatch::new();
        uf.decode_planes(&g, &ev, &mut batch);

        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        ev.scatter_into(&mut sets);
        let sparse = uf.decode_many(&g, &sets);

        assert_eq!(batch.shots(), shots);
        for (shot, c) in sparse.iter().enumerate() {
            let want: Vec<usize> = c.data_flips.iter().copied().collect();
            assert_eq!(batch.flips_of(shot), want.as_slice(), "shot {shot}");
        }
        assert_eq!(
            batch.total_flips(),
            sparse.iter().map(Correction::weight).sum::<usize>()
        );
    }

    #[test]
    fn union_find_weight_is_close_to_exact_for_small_cases() {
        // UF is not guaranteed minimum weight, but for isolated small event
        // sets it must still produce a *valid* correction whose weight is at
        // most a small factor above optimal. We assert validity and a 3x
        // bound, which is far looser than observed.
        let mut rng = StdRng::seed_from_u64(123);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 3);
        let all_nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let uf = UnionFindDecoder::new();
        let exact = ExactMatchingDecoder::new();
        for _ in 0..30 {
            let events: Vec<NodeId> = all_nodes.choose_multiple(&mut rng, 4).copied().collect();
            let cu = uf.decode(&g, &events);
            let ce = exact.decode(&g, &events);
            assert!(correction_explains_events(&g, &cu, &events));
            assert!(correction_explains_events(&g, &ce, &events));
            assert!(
                cu.edges.len() <= 3 * ce.edges.len().max(1),
                "UF used {} edges vs exact {}",
                cu.edges.len(),
                ce.edges.len()
            );
        }
    }
}
