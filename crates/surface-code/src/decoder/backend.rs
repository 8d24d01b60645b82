//! The costed decode engine: [`DecoderChoice`] selects it,
//! [`DecodeEngine`] runs it, [`CostReport`] prices it.
//!
//! The master controller's global decoder and the runtime master's
//! decode lane each own one [`DecodeEngine`], built from the
//! run's [`DecoderChoice`] (the CLI's `--decoder` flag), so the decode
//! algorithm is swapped per run without touching either layer. Unlike
//! the read-only [`Decoder`](super::Decoder) trait the samplers are
//! generic over, the engine takes `&mut self`: it owns its scratch memory
//! (zero per-shot allocation) and accumulates a [`CostReport`] across
//! decodes.
//!
//! # Cost model
//!
//! Each engine prices its decodes in cycles of the 10 GHz SFQ clock and
//! a Josephson-junction footprint. The SFQ memory price — [`JJ_PER_BIT`],
//! [`JJ_PER_CHANNEL`], [`read_latency_cycles`] and the word one read
//! returns, [`MEMORY_WORD_BITS`] — is defined here once; `quest-core`'s
//! microcode-memory model (`jj::MemoryConfig`) reads it too. Cycle counts are pure functions of `(graph, events)` and
//! [`CostReport::merge`] is order-invariant, so the runtime's decode
//! memo, which replays a kept decode's cost instead of decoding again,
//! reports bit-identical costs to the single-threaded reference.

use super::pipelined::PipelinedUfDecoder;
use super::table::TableDecoder;
use super::union_find::{UfScratch, UfTrace, UnionFindDecoder};
use super::{Correction, ExactMatchingDecoder};
use crate::graph::{DecodingGraph, EdgeId, Fault, NodeId, NO_QUBIT};
use crate::lattice::StabKind;
use std::collections::BTreeMap;
use std::fmt;

/// JJs per bit of SFQ memory (ERSFQ non-destructive-readout cell), in
/// the decoder's banks and the MCE's microcode memory alike.
pub const JJ_PER_BIT: u64 = 41;

/// Fixed JJ overhead per memory channel or pipeline stage — address
/// decoder, sense amps, sequencing.
pub const JJ_PER_CHANNEL: u64 = 500;

/// Bits one read of an SFQ memory channel returns (RQL pipelined storage
/// reads one 32-bit word per access): a microcode word of the MCE's
/// memory, and a node entry of the pipelined decoder's node bank.
pub const MEMORY_WORD_BITS: u64 = 32;

/// SFQ read latency of a memory bank, in clock cycles, as a function of
/// the bank's size in bits: larger banks need deeper address decoding
/// (§4.5: a 512 b bank reads in one cycle, a 1 Kb bank in two, a 4 Kb
/// array in three).
pub fn read_latency_cycles(bank_bits: u64) -> u64 {
    if bank_bits <= 512 {
        1
    } else if bank_bits <= 2048 {
        2
    } else {
        3
    }
}

/// Accumulated decode-cost counters for one engine.
///
/// All fields are integers and [`CostReport::merge`] only sums and
/// maxes, so merging reports in any order yields the same total — the
/// property that lets the runtime, which replays a memoized decode's
/// kept report, report the same `decode_cost` as the single-threaded
/// reference.
#[must_use]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Decodes performed by the chosen algorithm itself.
    pub decodes: u64,
    /// Decodes handed to the union-find fallback (graphs or event sets
    /// outside the chosen algorithm's domain).
    pub fallback_decodes: u64,
    /// Total modeled decode cycles at the 10 GHz SFQ clock.
    pub cycles: u64,
    /// Most expensive single decode, in cycles (the decode-latency
    /// worst case, which bounds the syndrome backlog).
    pub max_decode_cycles: u64,
    /// Modeled JJ footprint of the decode hardware. A capacity, not a
    /// rate: merging takes the max, and software engines report 0.
    pub jj_count: u64,
}

impl CostReport {
    /// Folds another report in: counters and cycles add, capacities max.
    pub fn merge(&mut self, other: &CostReport) {
        self.decodes = self.decodes.saturating_add(other.decodes);
        self.fallback_decodes = self.fallback_decodes.saturating_add(other.fallback_decodes);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.max_decode_cycles = self.max_decode_cycles.max(other.max_decode_cycles);
        self.jj_count = self.jj_count.max(other.jj_count);
    }

    /// Records one decode that cost `cycles`, attributing it to the
    /// chosen algorithm or the fallback.
    fn record(&mut self, cycles: u64, fallback: bool) {
        if fallback {
            self.fallback_decodes = self.fallback_decodes.saturating_add(1);
        } else {
            self.decodes = self.decodes.saturating_add(1);
        }
        self.cycles = self.cycles.saturating_add(cycles);
        self.max_decode_cycles = self.max_decode_cycles.max(cycles);
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decodes (+{} fallback), {} cycles ({} max/decode), {} JJs",
            self.decodes, self.fallback_decodes, self.cycles, self.max_decode_cycles, self.jj_count
        )
    }
}

/// The total work counted by a [`UfTrace`], in unit-work cycles: one
/// cycle per member visit, edge touch, merge, erased-edge insertion,
/// forest visit and peeled edge. The software engines price union-find
/// decodes with this flat model; the pipelined engine prices the same
/// trace against its staged hardware model instead.
fn trace_work_cycles(t: &UfTrace) -> u64 {
    t.member_visits + t.edge_touches + t.merges + t.erased_edges + t.forest_visits + t.peeled_edges
}

/// Largest event set the exact matcher enumerates; beyond it the
/// engine falls back to union-find (the DP is over `2^k` subsets, and
/// the underlying solver rejects `k > 20` outright).
pub const EXACT_MAX_EVENTS: usize = 16;

/// Distinct data qubits a graph's edges can fault — the per-entry width
/// of a complete correction table over that graph.
fn graph_data_qubits(graph: &DecodingGraph) -> usize {
    let mut qubits: Vec<usize> = graph
        .edges()
        .iter()
        .filter_map(|e| match e.fault {
            Fault::Data(q) => Some(q),
            Fault::Measurement { .. } => None,
        })
        .collect();
    qubits.sort_unstable();
    qubits.dedup();
    qubits.len()
}

/// Which decode engine a run's global decoders use — the validated,
/// user-facing selector threaded from `WorkloadSpec` / `--decoder` down
/// to every decoding site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecoderChoice {
    /// Software [`UnionFindDecoder`] with trace-derived work accounting —
    /// the default. 0 JJs.
    #[default]
    UnionFind,
    /// [`ExactMatchingDecoder`] for event sets up to
    /// [`EXACT_MAX_EVENTS`], union-find beyond. Cycles model the
    /// subset-DP enumeration (`k · 2^k` for `k` events); software, so
    /// 0 JJs.
    Exact,
    /// A complete precomputed [`TableDecoder`] per decoding-graph shape,
    /// built lazily on first sight of a feasible graph (single round, at
    /// most [`TableDecoder::MAX_CHECKS`] checks), union-find for
    /// everything else — the multi-round windows of the master's
    /// escalation service. Only feasible up to distance 5 (the runtime
    /// rejects larger distances when it validates the spec). A table
    /// decode is one read of a bank holding `2^checks × data_qubits`
    /// bits, priced at that bank's read latency; the JJ footprint is the
    /// bank plus one channel of overhead.
    Table,
    /// Union-find priced by the cycle-accurate pipelined hardware model
    /// ([`PipelinedUfDecoder`]); corrections bit-identical to
    /// [`DecoderChoice::UnionFind`].
    PipelinedUf,
}

impl DecoderChoice {
    /// Every selectable engine, in display order.
    pub const ALL: [DecoderChoice; 4] = [
        DecoderChoice::UnionFind,
        DecoderChoice::Exact,
        DecoderChoice::Table,
        DecoderChoice::PipelinedUf,
    ];

    /// The stable machine-readable name (what `--decoder` parses and the
    /// serve ledger reports).
    pub fn name(self) -> &'static str {
        match self {
            DecoderChoice::UnionFind => "union-find",
            DecoderChoice::Exact => "exact",
            DecoderChoice::Table => "table",
            DecoderChoice::PipelinedUf => "pipelined-uf",
        }
    }

    /// Parses an engine name as printed by [`DecoderChoice::name`].
    pub fn parse(s: &str) -> Option<DecoderChoice> {
        DecoderChoice::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Builds a fresh engine of this kind. Nothing is sized or tabulated
    /// until the first decode.
    pub fn backend(self) -> DecodeEngine {
        DecodeEngine {
            choice: self,
            scratch: UfScratch::new(),
            tables: BTreeMap::new(),
            edges: Vec::new(),
            cost: CostReport::default(),
        }
    }
}

impl fmt::Display for DecoderChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The costed decode engine the master controller and the runtime's
/// decode lane each own: the algorithm its [`DecoderChoice`] names, the
/// union-find scratch every choice shares (as the engine itself or as
/// the fallback), the lazily built lookup tables and the accumulated
/// [`CostReport`].
///
/// [`DecodeEngine::decode`] is total (any graph, any event set) and
/// deterministic in `(graph, events)` alone.
#[derive(Debug, Clone)]
pub struct DecodeEngine {
    choice: DecoderChoice,
    scratch: UfScratch,
    /// Single-round tables keyed by `(is X kind, num_checks)` — every
    /// tile of a run shares one lattice, so in practice this holds at
    /// most one table per stabilizer kind. Only [`DecoderChoice::Table`]
    /// fills it.
    tables: BTreeMap<(bool, usize), TableDecoder>,
    /// The matched edges of the last [`DecodeEngine::decode_words`].
    edges: Vec<EdgeId>,
    cost: CostReport,
}

impl DecodeEngine {
    /// Decodes one event set over `graph` into a correction, accruing
    /// the decode's modeled cost.
    pub fn decode(&mut self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        let mut edges = Vec::new();
        self.match_edges(graph, events, &mut edges);
        Correction::from_edges(graph, edges)
    }

    /// [`DecodeEngine::decode`], XOR-ing the correction's data-qubit
    /// flips into `flips` as packed words (bit `q % 64` of word `q / 64`)
    /// instead of building a [`Correction`]: the matched edges go to a
    /// buffer the engine keeps, so a decode allocates nothing of its own.
    /// The bits it sets are exactly [`Correction::data_flips`], and the
    /// cost it accrues is the same.
    ///
    /// # Panics
    ///
    /// Panics if `flips` is too short for a data qubit the graph faults.
    pub fn decode_words(&mut self, graph: &DecodingGraph, events: &[NodeId], flips: &mut [u64]) {
        let mut edges = std::mem::take(&mut self.edges);
        self.match_edges(graph, events, &mut edges);
        let qubits = graph.data_qubits();
        for &e in &edges {
            let q = qubits[e];
            if q != NO_QUBIT {
                flips[q as usize >> 6] ^= 1 << (q & 63);
            }
        }
        self.edges = edges;
    }

    /// The edges of the chosen algorithm's matching of `events`, written
    /// to `edges` (cleared first), with the decode's cost accrued.
    fn match_edges(&mut self, graph: &DecodingGraph, events: &[NodeId], edges: &mut Vec<EdgeId>) {
        match self.choice {
            DecoderChoice::UnionFind => self.union_find(graph, events, false, edges),
            DecoderChoice::PipelinedUf => {
                self.cost.jj_count = self.cost.jj_count.max(PipelinedUfDecoder::jj_count(graph));
                self.union_find(graph, events, false, edges);
            }
            DecoderChoice::Exact => {
                let k = events.len();
                if k > EXACT_MAX_EVENTS {
                    return self.union_find(graph, events, true, edges);
                }
                self.cost.record((k as u64) << k, false);
                ExactMatchingDecoder::new().match_edges(graph, events, edges);
            }
            DecoderChoice::Table => {
                if graph.rounds() != 1 || graph.num_checks() > TableDecoder::MAX_CHECKS {
                    return self.union_find(graph, events, true, edges);
                }
                let table = self
                    .tables
                    .entry((graph.kind() == StabKind::X, graph.num_checks()))
                    .or_insert_with(|| TableDecoder::build(graph));
                let bank_bits = table.storage_bits(graph_data_qubits(graph)) as u64;
                self.cost.record(read_latency_cycles(bank_bits), false);
                self.cost.jj_count = self
                    .cost
                    .jj_count
                    .max(bank_bits * JJ_PER_BIT + JJ_PER_CHANNEL);
                edges.clear();
                edges.extend_from_slice(&table.entry(graph, events).edges);
            }
        }
    }

    /// One traced union-find decode on the shared scratch: the
    /// `union-find` engine at the flat software price, the `pipelined-uf`
    /// engine at its staged hardware price, and (at the software price,
    /// booked as a fallback) the fallback of `exact` and `table`.
    fn union_find(
        &mut self,
        graph: &DecodingGraph,
        events: &[NodeId],
        fallback: bool,
        edges: &mut Vec<EdgeId>,
    ) {
        let mut trace = UfTrace::default();
        UnionFindDecoder::new().decode_edges(graph, events, &mut self.scratch, &mut trace, edges);
        let cycles = match self.choice {
            DecoderChoice::PipelinedUf => PipelinedUfDecoder::decode_cycles(graph, &trace),
            DecoderChoice::UnionFind | DecoderChoice::Exact | DecoderChoice::Table => {
                trace_work_cycles(&trace)
            }
        };
        self.cost.record(cycles, fallback);
    }

    /// The cost accumulated since construction or the last
    /// [`DecodeEngine::reset_cost`].
    pub fn cost(&self) -> CostReport {
        self.cost
    }

    /// Clears the cost accumulator (the runtime's decode lane scopes
    /// costs to one decode this way, to keep it with its answer).
    pub fn reset_cost(&mut self) {
        self.cost = CostReport::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{correction_explains_events, Decoder};
    use crate::lattice::RotatedLattice;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn random_event_sets(graph: &DecodingGraph, count: usize, seed: u64) -> Vec<Vec<NodeId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<NodeId> = (0..graph.boundary()).collect();
        (0..count)
            .map(|i| {
                let k = [0usize, 1, 2, 4, 6, 10][i % 6];
                all.choose_multiple(&mut rng, k).copied().collect()
            })
            .collect()
    }

    #[test]
    fn every_backend_explains_every_syndrome() {
        let lat = RotatedLattice::new(5);
        for rounds in [1usize, 3] {
            let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
            for choice in DecoderChoice::ALL {
                let mut backend = choice.backend();
                for events in random_event_sets(&g, 12, 7 + rounds as u64) {
                    let c = backend.decode(&g, &events);
                    assert!(
                        correction_explains_events(&g, &c, &events),
                        "{choice} failed on rounds={rounds}, events={events:?}"
                    );
                }
                let cost = backend.cost();
                assert!(cost.decodes + cost.fallback_decodes >= 12);
            }
        }
    }

    #[test]
    fn words_are_the_correction_and_cost_alike() {
        let lat = RotatedLattice::new(5);
        let words = lat.num_data().div_ceil(64);
        for rounds in [1usize, 3] {
            let g = DecodingGraph::new(&lat, StabKind::X, rounds);
            for choice in DecoderChoice::ALL {
                let (mut by_set, mut by_words) = (choice.backend(), choice.backend());
                for events in random_event_sets(&g, 24, 5 + rounds as u64) {
                    let want = by_set.decode(&g, &events).data_flips;
                    let mut flips = vec![0; words];
                    by_words.decode_words(&g, &events, &mut flips);
                    let got: BTreeSet<usize> = (0..lat.num_data())
                        .filter(|&q| flips[q / 64] >> (q % 64) & 1 == 1)
                        .collect();
                    assert_eq!(got, want, "{choice}, rounds={rounds}, events={events:?}");
                }
                assert_eq!(by_words.cost(), by_set.cost(), "{choice}, rounds={rounds}");
            }
        }
    }

    #[test]
    fn costs_are_deterministic_and_order_invariant() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let sets = random_event_sets(&g, 20, 3);
        for choice in DecoderChoice::ALL {
            // Same decodes, same accumulated cost, run to run.
            let run = |order: &[usize]| {
                let mut backend = choice.backend();
                for &i in order {
                    backend.decode(&g, &sets[i]);
                }
                backend.cost()
            };
            let forward: Vec<usize> = (0..sets.len()).collect();
            let reverse: Vec<usize> = (0..sets.len()).rev().collect();
            assert_eq!(run(&forward), run(&forward), "{choice}: not reproducible");
            assert_eq!(
                run(&forward),
                run(&reverse),
                "{choice}: cost depends on decode order"
            );
            // Split-and-merge equals one accumulator (the decode-pool
            // aggregation pattern).
            let mut whole = choice.backend();
            for s in &sets {
                whole.decode(&g, s);
            }
            let mut merged = CostReport::default();
            for half in sets.chunks(7) {
                let mut worker = choice.backend();
                for s in half {
                    worker.decode(&g, s);
                }
                merged.merge(&worker.cost());
            }
            assert_eq!(merged, whole.cost(), "{choice}: merge != sequential");
        }
    }

    #[test]
    fn backend_corrections_match_their_reference_engines() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let sets = random_event_sets(&g, 12, 11);
        let uf = UnionFindDecoder::new();
        let exact = ExactMatchingDecoder::new();
        for events in &sets {
            assert_eq!(
                DecoderChoice::UnionFind.backend().decode(&g, events),
                uf.decode(&g, events),
                "union-find engine diverged from UnionFindDecoder"
            );
            assert_eq!(
                DecoderChoice::Exact.backend().decode(&g, events),
                exact.decode(&g, events),
                "exact engine diverged from ExactMatchingDecoder"
            );
        }
    }

    /// One engine decoding `steps` in order must return the corrections
    /// and accumulate the cost of one fresh engine per step: the shared
    /// scratch and the table map must be insensitive to graph changes.
    fn assert_insensitive_to_graph_changes(
        choice: DecoderChoice,
        steps: &[(&DecodingGraph, &[NodeId])],
    ) {
        let mut shared = choice.backend();
        let mut merged = CostReport::default();
        for (i, &(graph, events)) in steps.iter().enumerate() {
            let mut fresh = choice.backend();
            assert_eq!(
                shared.decode(graph, events),
                fresh.decode(graph, events),
                "{choice}: step {i} corrected differently on a used engine"
            );
            merged.merge(&fresh.cost());
        }
        assert_eq!(shared.cost(), merged, "{choice}: cost leaked across graphs");
    }

    /// What a fresh `union-find` engine charges for one decode.
    fn union_find_cost(graph: &DecodingGraph, events: &[NodeId]) -> CostReport {
        let mut uf = DecoderChoice::UnionFind.backend();
        uf.decode(graph, events);
        uf.cost()
    }

    #[test]
    fn table_backend_builds_once_and_reports_hardware() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let mut backend = DecoderChoice::Table.backend();
        backend.decode(&g, &[g.node(0, 1)]);
        backend.decode(&g, &[]);
        let cost = backend.cost();
        assert_eq!(cost.decodes, 2);
        assert_eq!(cost.fallback_decodes, 0);
        assert!(cost.jj_count > 0, "a lookup memory has a JJ footprint");
        // A multi-round graph routes through the union-find fallback, at
        // exactly the price a union-find engine charges for it.
        let g3 = DecodingGraph::new(&lat, StabKind::Z, 3);
        let events3 = [g3.node(1, 1), g3.node(2, 2)];
        backend.reset_cost();
        backend.decode(&g3, &events3);
        let fallback = backend.cost();
        let uf = union_find_cost(&g3, &events3);
        assert_eq!((fallback.decodes, fallback.fallback_decodes), (0, 1));
        assert!(uf.cycles > 0);
        assert_eq!(fallback.cycles, uf.cycles);
        assert_eq!(fallback.max_decode_cycles, uf.max_decode_cycles);
        // Table, fallback, table again on one engine.
        let events1 = [g.node(0, 0), g.node(0, 2)];
        assert_insensitive_to_graph_changes(
            DecoderChoice::Table,
            &[(&g, &events1), (&g3, &events3), (&g, &events1)],
        );
    }

    #[test]
    fn exact_backend_falls_back_beyond_its_event_budget() {
        let lat = RotatedLattice::new(7);
        let over_budget = |g: &DecodingGraph, seed: u64| -> Vec<NodeId> {
            let mut rng = StdRng::seed_from_u64(seed);
            let all: Vec<NodeId> = (0..g.boundary()).collect();
            all.choose_multiple(&mut rng, EXACT_MAX_EVENTS + 4)
                .copied()
                .collect()
        };
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        let events = over_budget(&g, 9);
        let mut backend = DecoderChoice::Exact.backend();
        let c = backend.decode(&g, &events);
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(backend.cost().fallback_decodes, 1);
        assert_eq!(backend.cost().decodes, 0);
        // The fallback is priced exactly as a union-find engine prices it.
        let uf = union_find_cost(&g, &events);
        assert!(uf.cycles > 0);
        assert_eq!(backend.cost().cycles, uf.cycles);
        assert_eq!(backend.cost().max_decode_cycles, uf.max_decode_cycles);
        // Fallback decodes on a single-round graph, a three-round graph
        // and the single-round graph again share one scratch.
        let g1 = DecodingGraph::new(&lat, StabKind::Z, 1);
        let g3 = DecodingGraph::new(&lat, StabKind::Z, 3);
        let (events1, events3) = (over_budget(&g1, 10), over_budget(&g3, 11));
        assert_insensitive_to_graph_changes(
            DecoderChoice::Exact,
            &[(&g1, &events1), (&g3, &events3), (&g1, &events1)],
        );
    }

    #[test]
    fn choice_round_trips_names() {
        for choice in DecoderChoice::ALL {
            assert_eq!(DecoderChoice::parse(choice.name()), Some(choice));
        }
        assert_eq!(DecoderChoice::parse("mwpm"), None);
        assert_eq!(DecoderChoice::default(), DecoderChoice::UnionFind);
    }
}
