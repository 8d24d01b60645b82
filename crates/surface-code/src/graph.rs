//! Space-time decoding graph.
//!
//! Surface-code decoding (Appendix A.2 of the paper) pairs up flipped
//! syndrome records over a window of space and time. Nodes of the decoding
//! graph are individual stabilizer measurements `(check, round)`; edges are
//! the elementary faults that flip exactly the two adjacent records:
//!
//! * **spatial** edges — a data-qubit error flips the two neighbouring
//!   checks of the matching type within a round (or one check and the
//!   boundary, for boundary data qubits);
//! * **temporal** edges — a measurement error flips the same check in two
//!   consecutive rounds.
//!
//! Decoders ([`crate::decoder`]) operate purely on this graph.

use crate::lattice::{RotatedLattice, StabKind};

/// Identifier of a decoding-graph node. Check nodes are
/// `round * num_checks + check`; the single boundary node is the last id.
pub type NodeId = usize;

/// Identifier of a decoding-graph edge (index into [`DecodingGraph::edges`]).
pub type EdgeId = usize;

/// The physical fault an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// An error on this data qubit (correction: flip this qubit).
    Data(usize),
    /// A measurement error on `check` between `round` and `round + 1`
    /// (no physical correction needed).
    Measurement {
        /// Check index within this graph's stabilizer type.
        check: usize,
        /// Earlier of the two affected rounds.
        round: usize,
    },
}

/// One edge of the decoding graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodingEdge {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint (may be the boundary node).
    pub b: NodeId,
    /// Fault represented by the edge.
    pub fault: Fault,
}

/// Space-time decoding graph for one stabilizer type over a number of
/// detection rounds.
///
/// # Example
///
/// ```
/// use quest_surface::{DecodingGraph, RotatedLattice, StabKind};
///
/// let lat = RotatedLattice::new(3);
/// // Graph for decoding X errors (Z-type checks) across 3 rounds.
/// let g = DecodingGraph::new(&lat, StabKind::Z, 3);
/// assert_eq!(g.num_checks(), 4);
/// assert_eq!(g.rounds(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    kind: StabKind,
    rounds: usize,
    num_checks: usize,
    edges: Vec<DecodingEdge>,
    /// CSR incidence: node `n`'s incident edges, ascending, are
    /// `incidence[inc_off[n]..inc_off[n + 1]]`.
    inc_off: Vec<u32>,
    incidence: Vec<EdgeId>,
    /// Compact copies of the edges for the decoders' inner loops: the
    /// endpoints `[a, b]`, and the faulted data qubit or [`NO_QUBIT`].
    ends: Vec<[u32; 2]>,
    data_qubit: Vec<u32>,
}

/// [`DecodingGraph::data_qubits`] entry of a measurement-fault edge.
pub(crate) const NO_QUBIT: u32 = u32::MAX;

impl DecodingGraph {
    /// Builds the decoding graph for checks of type `kind` over `rounds`
    /// detection rounds (spatial + temporal edges: the phenomenological
    /// noise model).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn new(lattice: &RotatedLattice, kind: StabKind, rounds: usize) -> DecodingGraph {
        DecodingGraph::build(lattice, kind, rounds, false)
    }

    /// Builds the **circuit-level** decoding graph: additionally includes
    /// the space-time *diagonal* edges produced by mid-round data errors.
    /// An error striking a data qubit after its earlier-scheduled check's
    /// CNOT but before the later one's is seen by the late check this
    /// round and by the early check only next round — an elementary fault
    /// connecting `(t, late)` to `(t + 1, early)`. Without these edges a
    /// single circuit fault can cost the matcher two edges and defeat
    /// distance-3 codes (see the fault-injection tests).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn with_diagonals(
        lattice: &RotatedLattice,
        kind: StabKind,
        rounds: usize,
    ) -> DecodingGraph {
        DecodingGraph::build(lattice, kind, rounds, true)
    }

    fn build(
        lattice: &RotatedLattice,
        kind: StabKind,
        rounds: usize,
        diagonals: bool,
    ) -> DecodingGraph {
        assert!(rounds > 0, "need at least one detection round");
        let num_data = lattice.num_data();
        // Round 0 as a template. Per data qubit, the one or two checks
        // that see it (ascending check index) with the schedule layer in
        // which each touches it.
        let mut layer_of_corner = [0; 4];
        for layer in 0..4 {
            layer_of_corner[crate::schedule::corner_for_layer(kind, layer)] = layer;
        }
        let mut owners = vec![([(0usize, 0usize); 2], 0usize); num_data];
        let mut num_checks = 0;
        for (check, p) in lattice.plaquettes_of(kind).enumerate() {
            num_checks += 1;
            for (corner, q) in lattice.corners(p).into_iter().enumerate() {
                let Some(q) = q else { continue };
                let (slots, n) = &mut owners[q];
                assert!(*n < 2, "data qubit {q} is in three {kind} stabilizers");
                slots[*n] = (check, layer_of_corner[corner]);
                *n += 1;
            }
        }
        // Diagonals: mid-round data errors between the two owners' CNOT
        // times, as `(late check, early check, qubit)`.
        let mut diagonal = Vec::new();
        for (q, &(slots, n)) in owners.iter().enumerate() {
            assert!(n > 0, "data qubit {q} is in no {kind} stabilizer");
            if diagonals && n == 2 {
                let [(c1, l1), (c2, l2)] = slots;
                diagonal.push(if l1 < l2 { (c2, c1, q) } else { (c1, c2, q) });
            }
        }

        // Replicate the template by node offset, round by round.
        let boundary = rounds * num_checks;
        let num_edges = rounds * num_data + (rounds - 1) * (num_checks + diagonal.len());
        assert!(
            u32::try_from((2 * num_edges).max(boundary)).is_ok_and(|x| x < NO_QUBIT),
            "decoding graph ids and incidence offsets must fit in 32 bits"
        );
        let mut graph = DecodingGraph {
            kind,
            rounds,
            num_checks,
            edges: Vec::with_capacity(num_edges),
            inc_off: vec![0; boundary + 3],
            incidence: vec![0; 2 * num_edges],
            ends: Vec::with_capacity(num_edges),
            data_qubit: Vec::with_capacity(num_edges),
        };
        for t in 0..rounds {
            let (here, next) = (t * num_checks, (t + 1) * num_checks);
            // Spatial / boundary edges: one per data qubit.
            for (q, &(slots, n)) in owners.iter().enumerate() {
                let b = if n == 2 { here + slots[1].0 } else { boundary };
                graph.push_edge(here + slots[0].0, b, Fault::Data(q));
            }
            if t + 1 < rounds {
                for check in 0..num_checks {
                    let fault = Fault::Measurement { check, round: t };
                    graph.push_edge(here + check, next + check, fault);
                }
                for &(late, early, q) in &diagonal {
                    graph.push_edge(here + late, next + early, Fault::Data(q));
                }
            }
        }
        // `push_edge` counted node n's degree into `inc_off[n + 2]`: one
        // prefix sum makes `inc_off[n + 1]` node n's fill cursor, and the
        // ascending fill leaves it at node n's end, node n + 1's start.
        for n in 2..graph.inc_off.len() {
            graph.inc_off[n] += graph.inc_off[n - 1];
        }
        for (e, &[a, b]) in graph.ends.iter().enumerate() {
            for n in [a, b] {
                let cursor = &mut graph.inc_off[n as usize + 1];
                graph.incidence[*cursor as usize] = e;
                *cursor += 1;
            }
        }
        graph.inc_off.pop();
        graph
    }

    fn push_edge(&mut self, a: NodeId, b: NodeId, fault: Fault) {
        self.edges.push(DecodingEdge { a, b, fault });
        self.ends.push([a as u32, b as u32]);
        self.data_qubit.push(match fault {
            Fault::Data(q) => q as u32,
            Fault::Measurement { .. } => NO_QUBIT,
        });
        self.inc_off[a + 2] += 1;
        self.inc_off[b + 2] += 1;
    }

    /// Stabilizer type this graph decodes.
    pub fn kind(&self) -> StabKind {
        self.kind
    }

    /// Number of detection rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of checks (stabilizers of this type) per round.
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Total nodes including the boundary node.
    pub fn num_nodes(&self) -> usize {
        self.rounds * self.num_checks + 1
    }

    /// The boundary node id.
    pub fn boundary(&self) -> NodeId {
        self.rounds * self.num_checks
    }

    /// Returns `true` when `n` is the boundary node.
    pub fn is_boundary(&self, n: NodeId) -> bool {
        n == self.boundary()
    }

    /// Node id for check `c` at detection round `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, t: usize, c: usize) -> NodeId {
        assert!(t < self.rounds && c < self.num_checks, "node out of range");
        t * self.num_checks + c
    }

    /// Inverse of [`DecodingGraph::node`]; `None` for the boundary.
    pub fn round_check(&self, n: NodeId) -> Option<(usize, usize)> {
        if self.is_boundary(n) {
            None
        } else {
            Some((n / self.num_checks, n % self.num_checks))
        }
    }

    /// All edges.
    pub fn edges(&self) -> &[DecodingEdge] {
        &self.edges
    }

    /// Edge ids incident to node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        &self.incidence[self.inc_off[n] as usize..self.inc_off[n + 1] as usize]
    }

    /// Endpoints `[a, b]` of every edge, by edge id.
    pub(crate) fn ends(&self) -> &[[u32; 2]] {
        &self.ends
    }

    /// The data qubit every edge faults, by edge id; [`NO_QUBIT`] for a
    /// measurement fault.
    pub(crate) fn data_qubits(&self) -> &[u32] {
        &self.data_qubit
    }

    /// The endpoint of `e` other than `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of `e`.
    pub fn other_end(&self, e: EdgeId, n: NodeId) -> NodeId {
        let edge = &self.edges[e];
        if edge.a == n {
            edge.b
        } else {
            assert_eq!(edge.b, n, "node {n} is not an endpoint of edge {e}");
            edge.a
        }
    }

    /// Unweighted shortest-path distance between two nodes (BFS), used by
    /// the exact matcher. Returns `usize::MAX` if disconnected.
    pub fn distance(&self, from: NodeId, to: NodeId) -> usize {
        self.shortest_path(from, to).map_or(usize::MAX, |p| p.len())
    }

    /// Unweighted shortest path between two nodes as a list of edge ids, or
    /// `None` if disconnected.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<EdgeId>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; self.num_nodes()];
        let mut visited = vec![false; self.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            for &e in self.incident(u) {
                let v = self.other_end(e, u);
                if !visited[v] {
                    visited[v] = true;
                    parent_edge[v] = Some(e);
                    if v == to {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let pe = parent_edge[cur].expect("path exists");
                            path.push(pe);
                            cur = self.other_end(pe, cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The construction as it was before the template build: a linear
    /// `check_of` scan per endpoint, `stabilizers_on` per (round, qubit),
    /// nested adjacency lists.
    fn reference_build(
        lattice: &RotatedLattice,
        kind: StabKind,
        rounds: usize,
        diagonals: bool,
    ) -> (Vec<DecodingEdge>, Vec<Vec<EdgeId>>) {
        let checks: Vec<_> = lattice.plaquettes_of(kind).collect();
        let num_checks = checks.len();
        let check_of = |ancilla: usize| -> usize {
            checks
                .iter()
                .position(|p| p.ancilla == ancilla)
                .expect("ancilla is a check of this kind")
        };
        let boundary = rounds * num_checks;
        let mut edges = Vec::new();
        for t in 0..rounds {
            for q in 0..lattice.num_data() {
                let owners = lattice.stabilizers_on(q, kind);
                match owners.as_slice() {
                    [p] => edges.push(DecodingEdge {
                        a: t * num_checks + check_of(p.ancilla),
                        b: boundary,
                        fault: Fault::Data(q),
                    }),
                    [p1, p2] => edges.push(DecodingEdge {
                        a: t * num_checks + check_of(p1.ancilla),
                        b: t * num_checks + check_of(p2.ancilla),
                        fault: Fault::Data(q),
                    }),
                    other => {
                        unreachable!("data qubit {q} is in {} {kind} stabilizers", other.len())
                    }
                }
            }
            if t + 1 < rounds {
                for c in 0..num_checks {
                    edges.push(DecodingEdge {
                        a: t * num_checks + c,
                        b: (t + 1) * num_checks + c,
                        fault: Fault::Measurement { check: c, round: t },
                    });
                }
            }
            if diagonals && t + 1 < rounds {
                for q in 0..lattice.num_data() {
                    let owners = lattice.stabilizers_on(q, kind);
                    if let [p1, p2] = owners.as_slice() {
                        let layer_of = |p: &crate::lattice::Plaquette| -> usize {
                            let corners = lattice.corners(p);
                            let corner = corners
                                .iter()
                                .position(|&c| c == Some(q))
                                .expect("owner contains q");
                            (0..4)
                                .find(|&l| crate::schedule::corner_for_layer(p.kind, l) == corner)
                                .expect("corner appears in the order")
                        };
                        let (early, late) = if layer_of(p1) < layer_of(p2) {
                            (p1, p2)
                        } else {
                            (p2, p1)
                        };
                        edges.push(DecodingEdge {
                            a: t * num_checks + check_of(late.ancilla),
                            b: (t + 1) * num_checks + check_of(early.ancilla),
                            fault: Fault::Data(q),
                        });
                    }
                }
            }
        }
        let mut adjacency = vec![Vec::new(); boundary + 1];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a].push(i);
            adjacency[e.b].push(i);
        }
        (edges, adjacency)
    }

    #[test]
    fn template_build_equals_the_per_round_construction() {
        for d in [3, 5, 7] {
            let lat = RotatedLattice::new(d);
            for kind in [StabKind::X, StabKind::Z] {
                for rounds in [1, 2, d + 1] {
                    for diagonals in [false, true] {
                        let g = DecodingGraph::build(&lat, kind, rounds, diagonals);
                        let (edges, adjacency) = reference_build(&lat, kind, rounds, diagonals);
                        let case = format!("d={d} {kind} rounds={rounds} diagonals={diagonals}");
                        assert_eq!(g.edges(), edges.as_slice(), "{case}");
                        assert_eq!(g.num_nodes(), adjacency.len(), "{case}");
                        for (n, incident) in adjacency.iter().enumerate() {
                            assert_eq!(g.incident(n), incident.as_slice(), "{case} node {n}");
                        }
                        for (e, edge) in edges.iter().enumerate() {
                            assert_eq!(g.ends()[e], [edge.a as u32, edge.b as u32], "{case}");
                            let q = match edge.fault {
                                Fault::Data(q) => q as u32,
                                Fault::Measurement { .. } => NO_QUBIT,
                            };
                            assert_eq!(g.data_qubits()[e], q, "{case} edge {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn d3_single_round_graph_shape() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        assert_eq!(g.num_checks(), 4);
        // One spatial/boundary edge per data qubit, no temporal edges.
        assert_eq!(g.edges().len(), 9);
        let boundary_edges = g
            .edges()
            .iter()
            .filter(|e| e.b == g.boundary() || e.a == g.boundary())
            .count();
        // d=3: data qubits with exactly one Z stabilizer.
        let expected_boundary = (0..9)
            .filter(|&q| lat.stabilizers_on(q, StabKind::Z).len() == 1)
            .count();
        assert_eq!(boundary_edges, expected_boundary);
    }

    #[test]
    fn temporal_edges_connect_consecutive_rounds() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 3);
        let temporal: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| matches!(e.fault, Fault::Measurement { .. }))
            .collect();
        assert_eq!(temporal.len(), 4 * 2);
        for e in temporal {
            let (ta, ca) = g.round_check(e.a).unwrap();
            let (tb, cb) = g.round_check(e.b).unwrap();
            assert_eq!(ca, cb);
            assert_eq!(tb, ta + 1);
        }
    }

    #[test]
    fn graph_is_connected() {
        for d in [3, 5] {
            let lat = RotatedLattice::new(d);
            for kind in [StabKind::X, StabKind::Z] {
                let g = DecodingGraph::new(&lat, kind, 2);
                for n in 0..g.num_nodes() - 1 {
                    assert_ne!(g.distance(n, g.boundary()), usize::MAX);
                }
            }
        }
    }

    #[test]
    fn shortest_path_has_consistent_length() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        let a = g.node(0, 0);
        let b = g.node(1, g.num_checks() - 1);
        let path = g.shortest_path(a, b).unwrap();
        assert_eq!(path.len(), g.distance(a, b));
        // Walk the path and confirm it lands on b.
        let mut cur = a;
        for &e in &path {
            cur = g.other_end(e, cur);
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn boundary_distance_is_small_for_edge_checks() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        // Every Z check in d=3 borders the boundary through some data qubit.
        for c in 0..g.num_checks() {
            assert_eq!(g.distance(g.node(0, c), g.boundary()), 1);
        }
    }

    #[test]
    fn diagonal_graph_adds_one_edge_per_bulk_data_qubit_per_step() {
        let lat = RotatedLattice::new(5);
        let plain = DecodingGraph::new(&lat, StabKind::Z, 3);
        let diag = DecodingGraph::with_diagonals(&lat, StabKind::Z, 3);
        let bulk_data = (0..lat.num_data())
            .filter(|&q| lat.stabilizers_on(q, StabKind::Z).len() == 2)
            .count();
        assert_eq!(
            diag.edges().len(),
            plain.edges().len() + 2 * bulk_data,
            "one diagonal per bulk data qubit per round transition"
        );
    }

    #[test]
    fn diagonal_edges_cross_rounds_with_data_faults() {
        // Diagonals are exactly the data-fault edges whose endpoints are
        // checks in *different* rounds.
        let lat = RotatedLattice::new(3);
        let diag = DecodingGraph::with_diagonals(&lat, StabKind::Z, 2);
        let diagonals: Vec<_> = diag
            .edges()
            .iter()
            .filter(|e| {
                matches!(e.fault, Fault::Data(_))
                    && !diag.is_boundary(e.a)
                    && !diag.is_boundary(e.b)
                    && diag.round_check(e.a).unwrap().0 != diag.round_check(e.b).unwrap().0
            })
            .collect();
        assert!(!diagonals.is_empty());
        for e in diagonals {
            let (ta, ca) = diag.round_check(e.a).unwrap();
            let (tb, cb) = diag.round_check(e.b).unwrap();
            assert_eq!(tb, ta + 1, "diagonals span consecutive rounds");
            assert_ne!(ca, cb, "diagonals connect different checks");
        }
    }

    #[test]
    fn single_round_diagonal_graph_equals_plain() {
        let lat = RotatedLattice::new(3);
        let plain = DecodingGraph::new(&lat, StabKind::Z, 1);
        let diag = DecodingGraph::with_diagonals(&lat, StabKind::Z, 1);
        assert_eq!(plain.edges().len(), diag.edges().len());
    }

    #[test]
    fn node_round_check_round_trips() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::X, 4);
        for t in 0..4 {
            for c in 0..g.num_checks() {
                assert_eq!(g.round_check(g.node(t, c)), Some((t, c)));
            }
        }
        assert_eq!(g.round_check(g.boundary()), None);
    }
}
