//! Property-based tests of the decoder stack.
//!
//! The defining property of a distance-`d` code is that every error of
//! weight ≤ ⌊(d−1)/2⌋ is corrected. We verify it end-to-end through the
//! memory experiment (stabilizer simulation → syndrome extraction →
//! space-time decoding → logical readout), and check structural properties
//! of the decoders on random syndromes.

mod reference_uf;

use proptest::prelude::*;
use quest_stabilizer::{Pauli, PauliString};
use quest_surface::decoder::{
    correction_explains_events, Correction, CorrectionBatch, Decoder, EventPlanes, UfScratch,
    UfTrace,
};
use quest_surface::{
    DecodingGraph, ExactMatchingDecoder, Fault, LutDecoder, MemoryBasis, MemoryExperiment,
    MemoryNoise, NodeId, RotatedLattice, StabKind, UnionFindDecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference_uf::reference_decode;
use std::collections::BTreeSet;

/// Homology class of an X-type flip set: whether it anticommutes with
/// logical Z, i.e. crosses the lattice. Two corrections for the same
/// syndrome are equivalent (differ by stabilizers) iff their classes
/// match; a class flip is exactly a logical error.
fn crosses_logical(lat: &RotatedLattice, flips: &BTreeSet<usize>) -> bool {
    let logical = lat.logical_z();
    flips
        .iter()
        .filter(|&&q| logical.get(q) != Pauli::I)
        .count()
        % 2
        == 1
}

/// Detection events produced by a set of single-round data-qubit errors.
fn events_of_data_error(g: &DecodingGraph, error: &BTreeSet<usize>) -> Vec<NodeId> {
    let mut parity = vec![false; g.num_nodes()];
    for &q in error {
        let edge = g
            .edges()
            .iter()
            .find(|e| e.fault == Fault::Data(q))
            .expect("every data qubit has a decoding edge");
        parity[edge.a] = !parity[edge.a];
        parity[edge.b] = !parity[edge.b];
    }
    (0..g.num_nodes())
        .filter(|&n| !g.is_boundary(n) && parity[n])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// d = 3: every weight-1 error anywhere, any Pauli, any round spacing,
    /// is corrected by both global decoders in both bases.
    #[test]
    fn weight_one_errors_always_corrected_d3(
        q in 0usize..9,
        pauli_idx in 0usize..3,
        rounds in 1usize..4,
        basis_z in any::<bool>(),
        seed in 0u64..500,
    ) {
        let basis = if basis_z { MemoryBasis::Z } else { MemoryBasis::X };
        let exp = MemoryExperiment::new(3, rounds, basis);
        let n = exp.lattice().num_qubits();
        let inject = PauliString::from_sparse(n, &[(q, Pauli::ERRORS[pauli_idx])]);
        let mut rng = StdRng::seed_from_u64(seed);
        let uf = exp.run_with_injection(&MemoryNoise::noiseless(), Some(&inject), &UnionFindDecoder::new(), &mut rng);
        prop_assert!(!uf.logical_error, "union-find failed");
        let ex = exp.run_with_injection(&MemoryNoise::noiseless(), Some(&inject), &ExactMatchingDecoder::new(), &mut rng);
        prop_assert!(!ex.logical_error, "exact matcher failed");
    }

    /// d = 5 corrects every weight-2 error (two independent single-qubit
    /// Paulis) with the exact matcher.
    #[test]
    fn weight_two_errors_always_corrected_d5(
        q1 in 0usize..25,
        q2 in 0usize..25,
        p1 in 0usize..3,
        p2 in 0usize..3,
        seed in 0u64..100,
    ) {
        let exp = MemoryExperiment::new(5, 1, MemoryBasis::Z);
        let n = exp.lattice().num_qubits();
        let inject = PauliString::from_sparse(
            n,
            &[(q1, Pauli::ERRORS[p1]), (q2, Pauli::ERRORS[p2])],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let out = exp.run_with_injection(
            &MemoryNoise::noiseless(),
            Some(&inject),
            &ExactMatchingDecoder::new(),
            &mut rng,
        );
        prop_assert!(!out.logical_error, "exact matcher failed on {inject}");
    }

    /// Union-find always yields a syndrome-consistent correction on random
    /// event sets, across distances and round counts.
    #[test]
    fn union_find_is_always_syndrome_consistent(
        d_idx in 0usize..2,
        rounds in 1usize..5,
        event_seed in any::<u64>(),
        k in 0usize..10,
    ) {
        let d = [3, 5][d_idx];
        let lat = RotatedLattice::new(d);
        let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(event_seed);
        let nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let events: Vec<NodeId> = nodes.choose_multiple(&mut rng, k.min(nodes.len())).copied().collect();
        let c = UnionFindDecoder::new().decode(&g, &events);
        prop_assert!(correction_explains_events(&g, &c, &events));
    }

    /// Whenever the local LUT decoder answers, its answer is
    /// syndrome-consistent (it may escalate by returning `None`, never
    /// answer wrongly).
    #[test]
    fn lut_decoder_never_answers_inconsistently(
        rounds in 1usize..4,
        event_seed in any::<u64>(),
        k in 0usize..6,
    ) {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
        let lut = LutDecoder::new(&g);
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(event_seed);
        let nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let events: Vec<NodeId> = nodes.choose_multiple(&mut rng, k.min(nodes.len())).copied().collect();
        if let Some(c) = lut.try_correction(&g, &events) {
            prop_assert!(correction_explains_events(&g, &c, &events));
        }
    }

    /// On every correctable error (weight ≤ ⌊(d−1)/2⌋) the union-find
    /// decoder lands in the same homology class as the exact matcher —
    /// i.e. it is never *worse*: whenever minimum-weight matching
    /// recovers the state, so does union-find.
    #[test]
    fn union_find_class_never_worse_than_exact_on_correctable_errors(
        d_idx in 0usize..2,
        qubit_seed in any::<u64>(),
    ) {
        let d = [3usize, 5][d_idx];
        let lat = RotatedLattice::new(d);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(qubit_seed);
        let qubits: Vec<usize> = (0..lat.num_data()).collect();
        let error: BTreeSet<usize> = qubits
            .choose_multiple(&mut rng, (d - 1) / 2)
            .copied()
            .collect();
        let events = events_of_data_error(&g, &error);
        let exact = ExactMatchingDecoder::new().decode(&g, &events);
        let uf = UnionFindDecoder::new().decode(&g, &events);
        // The exact matcher corrects every error within the code radius…
        prop_assert_eq!(
            crosses_logical(&lat, &exact.data_flips),
            crosses_logical(&lat, &error),
            "exact matcher missed a correctable error {error:?}"
        );
        // …and union-find must land in the same class.
        prop_assert_eq!(
            crosses_logical(&lat, &uf.data_flips),
            crosses_logical(&lat, &exact.data_flips),
            "union-find chose a worse class than exact on {error:?}"
        );
    }

    /// At d = 3 the local lookup table agrees with the exact matcher on
    /// every single-fault pattern: same matching cost, same class.
    #[test]
    fn lut_agrees_with_exact_on_every_single_fault_at_d3(
        edge_raw in any::<u64>(),
        rounds in 1usize..4,
    ) {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
        let lut = LutDecoder::new(&g);
        let edge = &g.edges()[edge_raw as usize % g.edges().len()];
        let events: Vec<NodeId> = [edge.a, edge.b]
            .into_iter()
            .filter(|&n| !g.is_boundary(n))
            .collect();
        let c = lut.try_correction(&g, &events);
        prop_assert!(c.is_some(), "LUT escalated a single-fault pattern {events:?}");
        let c = c.unwrap();
        let exact = ExactMatchingDecoder::new();
        prop_assert_eq!(c.edges.len(), exact.matching_cost(&g, &events));
        let ec = exact.decode(&g, &events);
        prop_assert_eq!(
            crosses_logical(&lat, &c.data_flips),
            crosses_logical(&lat, &ec.data_flips)
        );
    }

    /// When the LUT answers on an arbitrary d = 3 event set, its answer is
    /// syndrome-consistent and never beats the exact minimum matching cost
    /// (class agreement is only guaranteed on its designed single-fault
    /// domain — a greedy tiling of an ambiguous multi-event pattern may
    /// legitimately pick boundary singles where the matcher chains).
    #[test]
    fn lut_never_beats_exact_cost_when_it_answers_at_d3(
        event_seed in any::<u64>(),
        k in 0usize..5,
    ) {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        let lut = LutDecoder::new(&g);
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(event_seed);
        let nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let events: Vec<NodeId> =
            nodes.choose_multiple(&mut rng, k.min(nodes.len())).copied().collect();
        if let Some(c) = lut.try_correction(&g, &events) {
            prop_assert!(correction_explains_events(&g, &c, &events));
            let cost = ExactMatchingDecoder::new().matching_cost(&g, &events);
            prop_assert!(c.edges.len() >= cost);
        }
    }

    /// The exact matcher's cost is a lower bound on union-find's edge count
    /// (exact is minimum-weight by construction).
    #[test]
    fn exact_cost_lower_bounds_union_find(
        event_seed in any::<u64>(),
        k in 1usize..7,
    ) {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 3);
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(event_seed);
        let nodes: Vec<NodeId> = (0..g.boundary()).collect();
        let events: Vec<NodeId> = nodes.choose_multiple(&mut rng, k).copied().collect();
        let exact = ExactMatchingDecoder::new();
        let cost = exact.matching_cost(&g, &events);
        let uf = UnionFindDecoder::new().decode(&g, &events);
        prop_assert!(uf.edges.len() >= cost || uf.edges.is_empty() && cost == 0,
            "UF produced fewer edges ({}) than the optimal matching cost ({cost})", uf.edges.len());
    }
}

/// The graph shapes of the differential tests: d ∈ {3, 5, 7}, one round
/// or d + 1, plain or with diagonals — `shape` picks one of the twelve.
fn differential_graph(shape: usize) -> DecodingGraph {
    let d = [3, 5, 7][shape % 3];
    let rounds = if shape % 6 < 3 { 1 } else { d + 1 };
    let lat = RotatedLattice::new(d);
    if shape < 6 {
        DecodingGraph::new(&lat, StabKind::Z, rounds)
    } else {
        DecodingGraph::with_diagonals(&lat, StabKind::Z, rounds)
    }
}

/// Every check node independently with probability `density`, ascending.
fn random_events(g: &DecodingGraph, density: f64, rng: &mut StdRng) -> Vec<NodeId> {
    (0..g.boundary())
        .filter(|_| rng.gen_bool(density))
        .collect()
}

/// What the reference decoder makes of `events`: correction and trace.
fn reference(g: &DecodingGraph, events: &[NodeId]) -> (Correction, UfTrace) {
    let mut trace = UfTrace::default();
    let edges = reference_decode(g, events, &mut trace);
    (Correction::from_edges(g, edges), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat decoder is the old decoder: the same matched edges in the
    /// same order and the same work counters, on every graph shape and at
    /// every density up to far above threshold.
    #[test]
    fn flat_union_find_equals_the_reference_edges_and_trace(
        shape in 0usize..12,
        density in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let g = differential_graph(shape);
        let events = random_events(&g, density, &mut StdRng::seed_from_u64(seed));
        let mut trace = UfTrace::default();
        let correction =
            UnionFindDecoder::new().decode_traced(&g, &events, &mut UfScratch::new(), &mut trace);
        let (want, want_trace) = reference(&g, &events);
        prop_assert_eq!(correction, want);
        prop_assert_eq!(trace, want_trace);
    }

    /// One scratch carried across graphs of different shapes (and back)
    /// decodes as a fresh scratch does, trace included.
    #[test]
    fn one_scratch_across_graph_shapes_equals_fresh_scratches(
        shapes in proptest::collection::vec(0usize..12, 2..7),
        density in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let uf = UnionFindDecoder::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shared = UfScratch::new();
        for (step, &shape) in shapes.iter().enumerate() {
            let g = differential_graph(shape);
            for _ in 0..3 {
                let events = random_events(&g, density, &mut rng);
                let (mut got_trace, mut want_trace) = (UfTrace::default(), UfTrace::default());
                let got = uf.decode_traced(&g, &events, &mut shared, &mut got_trace);
                let want = uf.decode_traced(&g, &events, &mut UfScratch::new(), &mut want_trace);
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!(got_trace, want_trace, "step {}", step);
            }
        }
    }

    /// `decode_planes` equals scatter + `decode_many` (and through it the
    /// reference) on random planes whose last block is partly dead.
    #[test]
    fn plane_decode_equals_scatter_and_sparse_decode(
        shape in 0usize..12,
        density in 0.0f64..0.3,
        shots in 65usize..192,
        seed in any::<u64>(),
    ) {
        prop_assume!(shots % 64 != 0);
        let g = differential_graph(shape);
        let (nodes, blocks) = (g.boundary(), shots.div_ceil(64));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut planes = vec![0u64; nodes * blocks];
        for node in 0..nodes {
            for shot in 0..shots {
                if rng.gen_bool(density) {
                    planes[node * blocks + shot / 64] |= 1 << (shot % 64);
                }
            }
        }
        let planes = EventPlanes::new(&planes, nodes, blocks, shots);
        let uf = UnionFindDecoder::new();
        let mut batch = CorrectionBatch::new();
        uf.decode_planes(&g, &planes, &mut batch);
        let mut sets = Vec::new();
        planes.scatter_into(&mut sets);
        let sparse = uf.decode_many(&g, &sets);
        prop_assert_eq!(batch.shots(), shots);
        for (shot, correction) in sparse.iter().enumerate() {
            let flips: Vec<usize> = correction.data_flips.iter().copied().collect();
            prop_assert_eq!(batch.flips_of(shot), flips.as_slice(), "shot {}", shot);
            prop_assert_eq!(correction, &reference(&g, &sets[shot]).0, "shot {}", shot);
        }
    }
}

/// The O(nodes + edges) reset is paid per graph shape, not per shot — a
/// count, not a timing — and a rejected input cannot spoil a clean
/// scratch.
#[test]
fn a_batch_of_sparse_decodes_resets_the_scratch_once() {
    let uf = UnionFindDecoder::new();
    let g = differential_graph(4); // d = 5, 6 rounds
    let mut rng = StdRng::seed_from_u64(24);
    let mut scratch = UfScratch::new();
    for shot in 0..4096 {
        let density = [0.0, 0.002, 0.02, 0.1][shot % 4];
        let events = random_events(&g, density, &mut rng);
        let correction = uf.decode_with(&g, &events, &mut scratch);
        assert_eq!(correction, uf.decode(&g, &events), "shot {shot}");
    }
    assert_eq!(scratch.full_resets(), 1);

    let events = [g.node(0, 0), g.node(3, 5), g.boundary()];
    let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        uf.decode_with(&g, &events, &mut scratch)
    }));
    assert!(rejected.is_err(), "the boundary is not an event");
    let events = random_events(&g, 0.05, &mut rng);
    assert_eq!(
        uf.decode_with(&g, &events, &mut scratch),
        uf.decode(&g, &events)
    );
    assert_eq!(
        scratch.full_resets(),
        1,
        "a rejected input dirtied the scratch"
    );

    // Another shape and back: one reset each.
    let other = differential_graph(0);
    uf.decode_with(&other, &[other.node(0, 1)], &mut scratch);
    assert_eq!(scratch.full_resets(), 2);
    uf.decode_with(&g, &events, &mut scratch);
    uf.decode_with(&g, &[], &mut scratch);
    assert_eq!(scratch.full_resets(), 3);
}

#[test]
fn an_empty_event_set_decodes_to_the_empty_correction() {
    // The contract the batch sampler's quiet shots rely on, on every
    // graph it builds. The table decoder only accepts a one-round graph
    // of at most 16 checks, so it is built over the same lattice's (d ≤ 5)
    // and asked about the sampler's graph, as a pipeline would.
    use quest_surface::{FrameSampler, TableDecoder};
    for d in [3usize, 5, 7, 9] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(d, d, basis);
            let sampler = FrameSampler::new(&exp);
            let g = sampler.graph();
            let table = (d <= 5)
                .then(|| TableDecoder::build(&DecodingGraph::new(exp.lattice(), g.kind(), 1)));
            let decoders: [(&str, Option<&dyn Decoder>); 3] = [
                ("union-find", Some(&UnionFindDecoder::new())),
                ("exact", Some(&ExactMatchingDecoder::new())),
                ("table", table.as_ref().map(|t| t as &dyn Decoder)),
            ];
            for (name, decoder) in decoders {
                let Some(decoder) = decoder else { continue };
                let at = format!("{name}, d={d} {basis:?}");
                assert_eq!(decoder.decode(g, &[]), Correction::default(), "{at}");
                let many = decoder.decode_many(g, &[Vec::new(), Vec::new()]);
                assert_eq!(many, vec![Correction::default(); 2], "{at}");
            }
        }
    }
}

/// The sweep's shape at its top rates: d = 7 over 7 rounds under
/// code-capacity noise, event sets built fault by fault through the
/// sampler's columns, so they carry the correlated pairs (a Y, two
/// faults sharing a check) that independent node events never draw.
/// Both entry points equal the reference: edges per shot through
/// `decode_traced`, flips per shot through `decode_planes`, and the
/// summed trace.
#[test]
fn sweep_shaped_event_sets_decode_as_the_reference_does() {
    use quest_surface::FrameSampler;
    let (d, shots) = (7usize, 320usize);
    let sampler = FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z));
    let g = sampler.graph();
    let num_data = RotatedLattice::new(d).num_data();
    let uf = UnionFindDecoder::new();
    for (i, p) in [3e-2, 8e-2].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7 + i as u64);
        let sets: Vec<Vec<NodeId>> = (0..shots)
            .map(|_| {
                let errors: Vec<Vec<Pauli>> = (0..d)
                    .map(|_| {
                        (0..num_data)
                            .map(|_| match rng.gen_bool(p) {
                                true => Pauli::ERRORS[rng.gen_range(0..3)],
                                false => Pauli::I,
                            })
                            .collect()
                    })
                    .collect();
                let flips = vec![vec![false; g.num_checks()]; d];
                sampler.faulted_shot_events(&errors, &flips).0
            })
            .collect();

        let (nodes, blocks) = (g.boundary(), shots.div_ceil(64));
        let mut planes = vec![0u64; nodes * blocks];
        for (shot, events) in sets.iter().enumerate() {
            for &node in events {
                planes[node * blocks + shot / 64] |= 1 << (shot % 64);
            }
        }
        let mut batch = CorrectionBatch::new();
        uf.decode_planes(
            g,
            &EventPlanes::new(&planes, nodes, blocks, shots),
            &mut batch,
        );

        let (mut scratch, mut got_trace, mut want_trace) =
            (UfScratch::new(), UfTrace::default(), UfTrace::default());
        for (shot, events) in sets.iter().enumerate() {
            let got = uf.decode_traced(g, events, &mut scratch, &mut got_trace);
            let want = reference_decode(g, events, &mut want_trace);
            assert_eq!(got.edges, want, "p = {p}, shot {shot}");
            let flips: Vec<usize> = got.data_flips.iter().copied().collect();
            assert_eq!(
                batch.flips_of(shot),
                flips.as_slice(),
                "p = {p}, shot {shot}"
            );
        }
        assert_eq!(got_trace, want_trace, "p = {p}");
        assert!(want_trace.merges > 0, "p = {p}: no cluster ever merged");
    }
}
