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
//! Decoding state lives in a [`UfScratch`] workspace: flat `u32`/`u8`
//! arrays indexed by node and edge id, plus bitset worklists. A decode
//! touches only the entries of the clusters it grows and restores them
//! before it returns, so a scratch stays *clean* between decodes and a
//! batch of shots against one graph shape pays the O(nodes + edges)
//! sizing once; [`Decoder::decode`] remains the convenient single-shot
//! entry point.
//!
//! Order is part of the contract (the matching depends on which cluster
//! claims a shared edge first, and [`UfTrace`] is priced by the hardware
//! model): supports are applied in ascending edge id, erased edges are
//! enumerated ascending, forest roots are tried boundary first and then
//! in ascending node id, and a forest node's erased edges are walked in
//! ascending edge id. Draining a bitset word by word with
//! `trailing_zeros` *is* that ascending order.

use super::{Correction, CorrectionBatch, Decoder, EventPlanes};
use crate::graph::{DecodingGraph, EdgeId, NodeId, NO_QUBIT};
use std::ops::Range;

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

/// "No edge" / "no root" in the `u32` id arrays.
const NONE: u32 = u32::MAX;

// Per-node flag bits. `ODD` and `AT_BOUNDARY` are meaningful on cluster
// roots only; `VISITED` is the only one the boundary node ever carries.
const EVENT: u8 = 1;
const IN_CLUSTER: u8 = 1 << 1;
const ODD: u8 = 1 << 2;
const AT_BOUNDARY: u8 = 1 << 3;
const VISITED: u8 = 1 << 4;

/// A worklist of node or edge ids as a bitset, with the range of words
/// that may hold bits. Ids come back out ascending: take the range, then
/// take each word and walk its [`ids_in`].
#[derive(Debug, Clone, Default)]
struct IdSet {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl IdSet {
    fn reset(&mut self, ids: usize) {
        refill(&mut self.words, ids.div_ceil(64), 0);
        (self.lo, self.hi) = (usize::MAX, 0);
    }

    #[inline]
    fn insert(&mut self, id: usize) {
        let w = id >> 6;
        self.words[w] |= 1 << (id & 63);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// The words that may hold bits; the set forgets them, so the caller
    /// must take every word of the range.
    #[inline]
    fn take_range(&mut self) -> Range<usize> {
        let range = self.lo.min(self.hi)..self.hi;
        (self.lo, self.hi) = (usize::MAX, 0);
        range
    }
}

/// The ids in word `w` of a bitset whose content is `bits`, ascending.
#[inline]
fn ids_in(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let id = (w << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            id
        })
    })
}

/// Reusable working memory for [`UnionFindDecoder`].
///
/// The buffers are sized for a decoding graph's `(nodes, edges)` on first
/// use. Every decode leaves them as it found them — all clear, every node
/// its own cluster — so the next decode over a graph of the same shape
/// starts at once; only a change of shape pays the full reset again (see
/// [`UfScratch::full_resets`]). Decoding a batch of shots therefore
/// allocates nothing per shot beyond the returned [`Correction`].
#[derive(Debug, Clone, Default)]
pub struct UfScratch {
    /// The `(nodes, edges)` the buffers are sized *and clean* for; `None`
    /// before the first decode and while one is under way, so that a
    /// decode abandoned by a panic is followed by a full reset.
    clean_for: Option<(usize, usize)>,
    full_resets: u64,
    // Node-indexed.
    flags: Vec<u8>,
    /// Per cluster node: its incident edges not yet saturated. Growth
    /// skips members at 0 — interior nodes of a grown ball contribute no
    /// delta, and on large clusters they vastly outnumber the frontier.
    unsat: Vec<u8>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Forest edge towards the root; written when a node is reached,
    /// `NONE` on roots.
    parent_edge: Vec<u32>,
    // Edge-indexed.
    support: Vec<u8>,
    delta: Vec<u8>,
    /// Root that last counted itself into `delta` this round.
    stamp: Vec<u32>,
    /// Edges that received growth `delta` in the current round.
    round: IdSet,
    /// Edges grown to full support: the erasure.
    erased: IdSet,
    /// Endpoints of erased edges: the only possible forest roots.
    seeds: IdSet,
    /// Every node that entered a cluster this decode — the exact set of
    /// nodes whose state the undo pass restores. `members[..saturated]`
    /// have no unsaturated edge left and never will again (support only
    /// grows), so growth rounds start behind them. Order within the rest
    /// never affects results: growth deltas are per-root distinct counts.
    members: Vec<u32>,
    saturated: usize,
    /// Edges whose support went nonzero this decode (for the undo pass).
    touched: Vec<u32>,
    /// Erased edges at the boundary node, ascending: its forest
    /// adjacency, kept as a list because its graph incidence is long.
    boundary_edges: Vec<u32>,
    /// Forest nodes in BFS order; the BFS reads its queue off this list.
    order: Vec<u32>,
    // Plane-batched decode: per-shot event ranges, the events themselves,
    // the current shot's matched edges and data-flip parities.
    offsets: Vec<usize>,
    events: Vec<NodeId>,
    edges: Vec<EdgeId>,
    flips: Vec<u64>,
}

fn refill<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
    buffer.clear();
    buffer.resize(len, value);
}

impl UfScratch {
    /// Creates an empty workspace; it sizes itself lazily on first decode.
    pub fn new() -> UfScratch {
        UfScratch::default()
    }

    /// How many times the workspace was sized and cleared in full, an
    /// O(nodes + edges) pass: once per run of decodes over one graph
    /// shape (decodes of an empty event set touch nothing and count for
    /// nothing).
    pub fn full_resets(&self) -> u64 {
        self.full_resets
    }

    fn reset(&mut self, nodes: usize, edges: usize) {
        self.full_resets += 1;
        refill(&mut self.flags, nodes, 0);
        refill(&mut self.unsat, nodes, 0);
        self.parent.clear();
        self.parent.extend(0..nodes as u32);
        refill(&mut self.rank, nodes, 0);
        refill(&mut self.parent_edge, nodes, NONE);
        refill(&mut self.support, edges, 0);
        refill(&mut self.delta, edges, 0);
        refill(&mut self.stamp, edges, NONE);
        self.round.reset(edges);
        self.erased.reset(edges);
        self.seeds.reset(nodes);
        // The lists start empty and are bounded by the graph: reserve the
        // bound so that no decode grows them.
        self.members.clear();
        self.members.reserve(nodes);
        self.saturated = 0;
        self.touched.clear();
        self.touched.reserve(edges);
        self.boundary_edges.clear();
        self.order.clear();
        self.order.reserve(nodes);
    }

    fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let grandparent = self.parent[p];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
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
        self.parent[small] = big as u32;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        self.flags[big] =
            (self.flags[big] ^ (self.flags[small] & ODD)) | (self.flags[small] & AT_BOUNDARY);
    }

    /// A cluster is *active* (must keep growing) when it holds odd parity
    /// and does not touch the boundary.
    fn is_active_root(&self, root: usize) -> bool {
        self.flags[root] & (ODD | AT_BOUNDARY) == ODD
    }

    /// Cluster bookkeeping for `node` after one of its incident edges
    /// saturated: a node already in a cluster loses one unsaturated edge
    /// (the saturating one, which its count necessarily still included);
    /// a node entering now counts its unsaturated incident edges — the
    /// saturating edge is already at full support, so it is excluded.
    fn enter_cluster(&mut self, graph: &DecodingGraph, node: usize) {
        if self.flags[node] & IN_CLUSTER != 0 {
            debug_assert!(self.unsat[node] > 0, "saturated edge not in count");
            self.unsat[node] -= 1;
        } else {
            self.flags[node] |= IN_CLUSTER;
            self.members.push(node as u32);
            let unsat = graph
                .incident(node)
                .iter()
                .filter(|&&e| self.support[e] < 2);
            self.unsat[node] = unsat.count() as u8;
        }
    }

    /// Grows the BFS tree of `start` over the erasure, appending to
    /// `order`, which doubles as the queue.
    fn grow_tree(&mut self, graph: &DecodingGraph, start: usize) {
        let boundary = graph.boundary();
        self.flags[start] |= VISITED;
        self.parent_edge[start] = NONE;
        let mut head = self.order.len();
        self.order.push(start as u32);
        while head < self.order.len() {
            let u = self.order[head] as usize;
            head += 1;
            if u == boundary {
                for i in 0..self.boundary_edges.len() {
                    self.reach(graph, self.boundary_edges[i] as usize, u);
                }
            } else {
                for &e in graph.incident(u) {
                    if self.support[e] == 2 {
                        self.reach(graph, e, u);
                    }
                }
            }
        }
    }

    /// Adds the far end of erased edge `e` to the tree of `u`, unless
    /// some tree already has it.
    #[inline]
    fn reach(&mut self, graph: &DecodingGraph, e: EdgeId, u: usize) {
        let [a, b] = graph.ends()[e];
        let v = if a as usize == u { b } else { a };
        if self.flags[v as usize] & VISITED == 0 {
            self.flags[v as usize] |= VISITED;
            self.parent_edge[v as usize] = e as u32;
            self.order.push(v);
        }
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

    /// Core decode: writes the matched edges for `events` to `edges_out`
    /// (cleared first) without building a [`Correction`].
    ///
    /// Every loop walks only touched state (cluster members, delta'd
    /// edges, erased-edge endpoints), never the whole graph, and a final
    /// undo pass restores exactly the entries the decode mutated — so the
    /// cost is proportional to the clusters grown, not to `nodes + edges`,
    /// and the scratch is clean again for the next decode.
    pub(crate) fn decode_edges(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        s: &mut UfScratch,
        trace: &mut UfTrace,
        edges_out: &mut Vec<EdgeId>,
    ) {
        edges_out.clear();
        if events.is_empty() {
            return;
        }
        let boundary = graph.boundary();
        // Reject bad input before the first mutation: a scratch that is
        // clean stays clean.
        for &e in events {
            assert!(e != boundary, "boundary node cannot be an event");
            assert!(e < boundary, "event node {e} is not in the graph");
        }
        let shape = (graph.num_nodes(), graph.edges().len());
        if s.clean_for.take() != Some(shape) {
            s.reset(shape.0, shape.1);
        }
        let ends = graph.ends();

        for &e in events {
            s.flags[e] |= EVENT | ODD | IN_CLUSTER;
            // Supports are all zero on a clean scratch, so every incident
            // edge of a seed is unsaturated.
            s.unsat[e] = graph.incident(e).len() as u8;
            s.members.push(e as u32);
        }

        // --- Growth stage -------------------------------------------------
        loop {
            // Frontier members of active clusters count themselves, once
            // per cluster, into the `delta` of their unsaturated edges.
            // `delta[e]` is the number of *distinct adjacent active roots*,
            // a pure set property: neither the member order nor skipping
            // members whose edges are all saturated can change it. On a
            // grown ball the interior vastly outnumbers the frontier, so
            // retiring saturated members is what keeps a round's cost
            // proportional to the cluster surface.
            let mut visits = 0u64;
            for i in s.saturated..s.members.len() {
                let node = s.members[i] as usize;
                if s.unsat[node] == 0 {
                    s.members.swap(i, s.saturated);
                    s.saturated += 1;
                    continue;
                }
                let root = s.find(node);
                if !s.is_active_root(root) {
                    continue;
                }
                visits += 1;
                let incident = graph.incident(node);
                trace.edge_touches += incident.len() as u64;
                for &e in incident {
                    if s.support[e] < 2 && s.stamp[e] != root as u32 {
                        s.stamp[e] = root as u32;
                        if s.delta[e] == 0 {
                            s.round.insert(e);
                        }
                        s.delta[e] += 1;
                    }
                }
            }
            // An odd boundary-free cluster always has an unsaturated
            // frontier (saturation pulls the far endpoint in), so nothing
            // was visited exactly when no cluster is active.
            if visits == 0 {
                break;
            }
            trace.growth_rounds += 1;
            trace.member_visits += visits;
            // Apply supports in ascending edge order: supports saturate
            // at 2, so the order in which clusters claim shared edges
            // decides which chains complete first.
            for w in s.round.take_range() {
                for e in ids_in(w, std::mem::take(&mut s.round.words[w])) {
                    let d = std::mem::take(&mut s.delta[e]);
                    s.stamp[e] = NONE;
                    if s.support[e] == 0 {
                        s.touched.push(e as u32);
                    }
                    s.support[e] = (s.support[e] + d).min(2);
                    if s.support[e] == 2 {
                        s.erased.insert(e);
                        let [a, b] = ends[e].map(|n| n as usize);
                        if a == boundary || b == boundary {
                            let inner = if a == boundary { b } else { a };
                            s.enter_cluster(graph, inner);
                            let root = s.find(inner);
                            s.flags[root] |= AT_BOUNDARY;
                        } else {
                            s.enter_cluster(graph, a);
                            s.enter_cluster(graph, b);
                            s.union(a, b);
                            trace.merges += 1;
                        }
                    }
                }
            }
        }

        // --- Peeling stage ------------------------------------------------
        // Erasure = fully grown edges. Build a spanning forest with BFS,
        // seeding from the boundary first so boundary-touching trees are
        // rooted at the boundary (which absorbs leftover parity), then
        // from the erased edges' endpoints in ascending node id.
        for w in s.erased.take_range() {
            let bits = std::mem::take(&mut s.erased.words[w]);
            trace.erased_edges += u64::from(bits.count_ones());
            for e in ids_in(w, bits) {
                let [a, b] = ends[e].map(|n| n as usize);
                if a == boundary || b == boundary {
                    s.boundary_edges.push(e as u32);
                }
                s.seeds.insert(a);
                s.seeds.insert(b);
            }
        }
        if !s.boundary_edges.is_empty() {
            s.grow_tree(graph, boundary);
        }
        for w in s.seeds.take_range() {
            for node in ids_in(w, std::mem::take(&mut s.seeds.words[w])) {
                if s.flags[node] & VISITED == 0 {
                    s.grow_tree(graph, node);
                }
            }
        }
        trace.forest_visits += s.order.len() as u64;

        // Peel leaves inward: process nodes in reverse BFS order; each node
        // (except roots) has a parent edge. If the node still carries an
        // event, the parent edge joins the correction and the event moves to
        // the parent.
        for i in (0..s.order.len()).rev() {
            let node = s.order[i] as usize;
            let pe = s.parent_edge[node];
            if pe != NONE && s.flags[node] & EVENT != 0 {
                s.flags[node] &= !EVENT;
                let [a, b] = ends[pe as usize].map(|n| n as usize);
                let parent = if a == node { b } else { a };
                if parent != boundary {
                    s.flags[parent] ^= EVENT;
                }
                edges_out.push(pe as usize);
            }
        }
        trace.peeled_edges += edges_out.len() as u64;

        // --- Undo pass ----------------------------------------------------
        // Every forest node but the boundary is a cluster member, `delta`
        // and `stamp` were restored round by round, and the three id sets
        // were emptied by their drains.
        for &x in &s.members {
            let x = x as usize;
            debug_assert!(
                s.flags[x] & EVENT == 0,
                "union-find left unpaired events: growth stage incomplete"
            );
            s.flags[x] = 0;
            s.parent[x] = x as u32;
            s.rank[x] = 0;
            s.unsat[x] = 0;
        }
        s.members.clear();
        s.saturated = 0;
        s.flags[boundary] = 0;
        s.order.clear();
        s.boundary_edges.clear();
        for &e in &s.touched {
            s.support[e as usize] = 0;
        }
        s.touched.clear();
        s.clean_for = Some(shape);
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
        s: &mut UfScratch,
        out: &mut CorrectionBatch,
    ) {
        let shots = planes.shots();
        out.clear();
        let mut offsets = std::mem::take(&mut s.offsets);
        let mut events = std::mem::take(&mut s.events);
        let mut edges = std::mem::take(&mut s.edges);
        let mut flips = std::mem::take(&mut s.flips);

        // CSR transpose: per-shot event counts, then a prefix sum that
        // leaves `offsets[shot]` at the shot's start, then a fill that
        // advances it to the shot's end.
        refill(&mut offsets, shots + 1, 0);
        for_each_event(planes, |_, shot| offsets[shot + 1] += 1);
        for shot in 1..shots {
            offsets[shot + 1] += offsets[shot];
        }
        refill(&mut events, offsets[shots], 0);
        for_each_event(planes, |node, shot| {
            events[offsets[shot]] = node;
            offsets[shot] += 1;
        });

        let qubits = graph.data_qubits();
        let mut start = 0;
        for &end in &offsets[..shots] {
            let mut trace = UfTrace::default();
            self.decode_edges(graph, &events[start..end], s, &mut trace, &mut edges);
            start = end;

            // XOR-fold data faults in a parity bitset over data qubits,
            // then emit the odd-parity qubits ascending.
            for &e in &edges {
                let q = qubits[e];
                if q != NO_QUBIT {
                    let w = q as usize >> 6;
                    if w >= flips.len() {
                        flips.resize(w + 1, 0);
                    }
                    flips[w] ^= 1 << (q & 63);
                }
            }
            if !edges.is_empty() {
                for (w, word) in flips.iter_mut().enumerate() {
                    ids_in(w, std::mem::take(word)).for_each(|q| out.push_flip(q));
                }
            }
            out.finish_shot();
        }
        (s.offsets, s.events, s.edges, s.flips) = (offsets, events, edges, flips);
    }
}

/// Visits every `(node, shot)` event of `planes`, nodes ascending.
fn for_each_event(planes: &EventPlanes<'_>, mut visit: impl FnMut(NodeId, usize)) {
    for node in 0..planes.nodes() {
        for (b, &word) in planes.plane(node).iter().enumerate() {
            ids_in(b, word).for_each(|shot| visit(node, shot));
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
    fn buffers_never_grow_after_first_batch() {
        // Pointer and capacity of everything a scratch owns, after one
        // 4096-shot batch through each entry and after a second one.
        fn buffers(s: &UfScratch) -> Vec<(usize, usize)> {
            fn of<T>(v: &Vec<T>) -> (usize, usize) {
                (v.as_ptr() as usize, v.capacity())
            }
            vec![
                of(&s.flags),
                of(&s.unsat),
                of(&s.parent),
                of(&s.rank),
                of(&s.parent_edge),
                of(&s.support),
                of(&s.delta),
                of(&s.stamp),
                of(&s.round.words),
                of(&s.erased.words),
                of(&s.seeds.words),
                of(&s.members),
                of(&s.touched),
                of(&s.boundary_edges),
                of(&s.order),
                of(&s.offsets),
                of(&s.events),
                of(&s.edges),
                of(&s.flips),
            ]
        }
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(1315);
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 6);
        let (nodes, shots) = (g.boundary(), 4096);
        let blocks = shots / 64;
        let planes: Vec<u64> = (0..nodes * blocks)
            .map(|_| rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>())
            .collect();
        let planes = EventPlanes::new(&planes, nodes, blocks, shots);
        let mut sets = Vec::new();
        planes.scatter_into(&mut sets);

        let uf = UnionFindDecoder::new();
        let mut scratch = UfScratch::new();
        let mut batch = CorrectionBatch::new();
        let mut both_entries = |scratch: &mut UfScratch| {
            uf.decode_planes_impl(&g, &planes, scratch, &mut batch);
            let weight: usize = sets
                .iter()
                .map(|events| uf.decode_with(&g, events, scratch).weight())
                .sum();
            assert_eq!(batch.total_flips(), weight);
        };
        both_entries(&mut scratch);
        let warm = buffers(&scratch);
        both_entries(&mut scratch);
        assert_eq!(buffers(&scratch), warm, "a scratch buffer moved or grew");
        assert_eq!(scratch.full_resets(), 1);
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
