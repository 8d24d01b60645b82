//! The union-find decoder as it was before the flat, reset-free rewrite
//! (`Vec<bool>` state, nested `adj` lists, a `VecDeque` BFS, sorted
//! worklists), kept verbatim as the differential oracle of
//! `decoder_properties.rs`: the shipped decoder must return the same
//! edge list and the same [`UfTrace`] on every input.

use quest_surface::decoder::UfTrace;
use quest_surface::{DecodingGraph, EdgeId, NodeId};
use std::collections::VecDeque;

/// Working memory of the reference decoder.
#[derive(Debug, Clone, Default)]
pub struct ReferenceScratch {
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

impl ReferenceScratch {
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

/// Decodes `events` over `graph` on a freshly reset scratch, returning
/// the matched edges and accumulating the work counters into `trace`.
pub fn reference_decode(
    graph: &DecodingGraph,
    events: &[NodeId],
    trace: &mut UfTrace,
) -> Vec<EdgeId> {
    let mut edges = Vec::new();
    if !events.is_empty() {
        let mut scratch = ReferenceScratch::default();
        scratch.reset_for(graph);
        decode_edges_prepared(graph, events, &mut scratch, trace, &mut edges);
    }
    edges
}

/// One decode against a scratch already reset for `graph`.
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
    graph: &DecodingGraph,
    events: &[NodeId],
    scratch: &mut ReferenceScratch,
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
                    enter_cluster(graph, scratch, inner);
                    let root = scratch.find(inner);
                    scratch.touches_boundary[root] = true;
                } else {
                    enter_cluster(graph, scratch, a);
                    enter_cluster(graph, scratch, b);
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
        bfs(graph, scratch, boundary);
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
            bfs(graph, scratch, node);
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

/// Cluster bookkeeping for `node` after one of its incident edges
/// saturated: a node already in a cluster loses one unsaturated edge
/// (the saturating one, which its count necessarily still included);
/// a node entering now counts its unsaturated incident edges — the
/// saturating edge is already at full support, so it is excluded.
fn enter_cluster(graph: &DecodingGraph, scratch: &mut ReferenceScratch, node: NodeId) {
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

fn bfs(graph: &DecodingGraph, scratch: &mut ReferenceScratch, start: NodeId) {
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
