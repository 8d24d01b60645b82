//! The local lookup decoder as it was before the flat rewrite (a
//! `BTreeMap` from sorted event pattern to edge, a `BTreeSet` of
//! remaining events, allocating on every decode), kept verbatim as the
//! differential oracle of `lut_flat.rs`: the shipped table must hit and
//! miss on the same event sets, with the same edge list and the same
//! data flips.

use quest_surface::decoder::Correction;
use quest_surface::{DecodingGraph, EdgeId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Lookup-table decoder for isolated single faults (the old layout).
#[derive(Debug, Clone)]
pub struct ReferenceLut {
    /// Sorted event pattern → edge producing it. Single-fault patterns have
    /// one or two events.
    table: BTreeMap<Vec<NodeId>, EdgeId>,
    /// For each node, the single-fault patterns containing it.
    patterns_at: BTreeMap<NodeId, Vec<Vec<NodeId>>>,
    num_nodes: usize,
    boundary: NodeId,
    entries: usize,
}

impl ReferenceLut {
    /// Builds the table for a decoding graph by enumerating all single
    /// faults.
    pub fn new(graph: &DecodingGraph) -> ReferenceLut {
        let mut table = BTreeMap::new();
        let mut patterns_at: BTreeMap<NodeId, Vec<Vec<NodeId>>> = BTreeMap::new();
        for (i, e) in graph.edges().iter().enumerate() {
            let mut pattern: Vec<NodeId> = [e.a, e.b]
                .into_iter()
                .filter(|&n| !graph.is_boundary(n))
                .collect();
            pattern.sort_unstable();
            for &n in &pattern {
                patterns_at.entry(n).or_default().push(pattern.clone());
            }
            table.entry(pattern).or_insert(i);
        }
        let entries = table.len();
        ReferenceLut {
            table,
            patterns_at,
            num_nodes: graph.num_nodes(),
            boundary: graph.boundary(),
            entries,
        }
    }

    /// Number of table entries (one per distinct single-fault pattern).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Attempts to decode `events` as a disjoint union of isolated single
    /// faults. Returns the matched edges, or `None` to escalate.
    pub fn try_decode(&self, events: &[NodeId]) -> Option<Vec<EdgeId>> {
        for &e in events {
            assert!(e < self.num_nodes && e != self.boundary, "bad event node");
        }
        let mut remaining: BTreeSet<NodeId> = events.iter().copied().collect();
        let mut edges = Vec::new();
        while let Some(&n) = remaining.iter().next() {
            // Candidate patterns at n whose events are all still pending and
            // *isolated*: consuming them must not break another pattern —
            // for the LUT this simply means an exact cover step.
            let candidates = self.patterns_at.get(&n)?;
            // Prefer two-event patterns (internal faults) over boundary
            // singles only when both events are present; otherwise fall back
            // to the boundary single.
            let chosen = candidates
                .iter()
                .filter(|pat| pat.iter().all(|q| remaining.contains(q)))
                .max_by_key(|pat| pat.len())?;
            for q in chosen {
                remaining.remove(q);
            }
            edges.push(self.table[chosen]);
        }
        Some(edges)
    }

    /// Like [`ReferenceLut::try_decode`] but returns a full [`Correction`].
    pub fn try_correction(&self, graph: &DecodingGraph, events: &[NodeId]) -> Option<Correction> {
        self.try_decode(events)
            .map(|edges| Correction::from_edges(graph, edges))
    }
}
