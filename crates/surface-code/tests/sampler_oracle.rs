//! The fault-map sampler against the frame-propagating sampler it
//! replaced (`tests/reference_frame`, which injects noise into a
//! `FrameSimulator` and pushes every shot through every gate), and the
//! circuit-derived fault map against the lattice-derived decoding graph.
//!
//! A batch must report exactly the oracle's tallies over distances,
//! bases, noise shapes, rates from zero to far above threshold, ragged
//! and word-aligned shot counts, chunk sizes, early exit and both decode
//! entries. Every single fault must be an edge of `DecodingGraph::new`
//! carrying that fault, and flip the logical exactly when the judged
//! logical operator covers it.

mod reference_frame;

use quest_stabilizer::{Pauli, PauliChannel, Rng, SeedableRng, StdRng};
use quest_surface::{
    Correction, Decoder, DecodingGraph, EarlyExit, Fault, FrameSampler, LaneWidth, MemoryBasis,
    MemoryExperiment, MemoryNoise, NodeId, SamplerConfig, UnionFindDecoder,
};
use reference_frame::ReferenceSampler;
use std::collections::BTreeMap;

/// Inherits the default `decode_planes` (scatter to sparse sets, then
/// `decode_many`), so a dense chunk reaches the decoder through the
/// sparse handoff too.
#[derive(Debug)]
struct ForceSparse<D>(D);

impl<D: Decoder> Decoder for ForceSparse<D> {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.0.decode(graph, events)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        self.0.decode_many(graph, event_sets)
    }
}

/// The noise shapes of the grid. Flip rates differ from data rates so
/// that a mixed-up rate cannot pass unseen.
fn noise_shapes(p: f64) -> [(&'static str, MemoryNoise); 4] {
    [
        ("code-capacity", MemoryNoise::code_capacity(p)),
        ("phenomenological", MemoryNoise::phenomenological(p)),
        (
            "bit-flip",
            MemoryNoise {
                data: PauliChannel::bit_flip(p),
                measurement_flip: p / 2.0,
            },
        ),
        (
            "phase-flip",
            MemoryNoise {
                data: PauliChannel::phase_flip(p),
                measurement_flip: p / 2.0,
            },
        ),
    ]
}

const RATES: [f64; 5] = [0.0, 1e-4, 1e-2, 8e-2, 0.3];
const SHOTS: [usize; 5] = [1, 63, 100, 4096, 5000];
const CHUNKS: [usize; 3] = [64, 512, 4096];

#[test]
fn batches_equal_the_frame_propagating_oracle() {
    let uf = UnionFindDecoder::new();
    let sparse = ForceSparse(UnionFindDecoder::new());
    // Every (distance, basis, noise shape, rate) is run once; the shot
    // count, chunk, early exit, decode entry and the oracle's lane width
    // rotate against the rate so that every rate meets every shot count
    // across the grid.
    let mut case = 0usize;
    for d in [3usize, 5, 7] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(d, d, basis);
            let sampler = FrameSampler::new(&exp);
            let oracle = ReferenceSampler::new(&exp);
            for (shape, _) in noise_shapes(0.0).iter().enumerate() {
                for (r, &p) in RATES.iter().enumerate() {
                    let (name, noise) = noise_shapes(p)[shape];
                    let group = case / RATES.len();
                    let shots = SHOTS[(group + r) % SHOTS.len()];
                    let cfg = SamplerConfig {
                        width: LaneWidth::ALL[case % 2],
                        chunk_shots: CHUNKS[(group + r / 2) % CHUNKS.len()],
                        early_exit: (case / 2 % 2 == 1).then(EarlyExit::default),
                    };
                    let seed = 0x5EED + case as u64;
                    let force_sparse = case / 3 % 2 == 1;
                    let (got, want) = if !force_sparse {
                        (
                            sampler.run_batch_configured(&noise, &uf, shots, seed, &cfg),
                            oracle.run(&noise, &uf, shots, seed, &cfg),
                        )
                    } else {
                        (
                            sampler.run_batch_configured(&noise, &sparse, shots, seed, &cfg),
                            oracle.run(&noise, &sparse, shots, seed, &cfg),
                        )
                    };
                    assert_eq!(
                        got, want,
                        "case {case}: d={d} {basis:?} {name} p={p} shots={shots} {cfg:?}"
                    );
                    case += 1;
                }
            }
        }
    }
}

#[test]
fn the_oracle_grid_is_not_vacuous() {
    // The tallies above only pin what shows: at the grid's top rate the
    // oracle must see events and failures, and a ragged tail must count.
    let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
    let oracle = ReferenceSampler::new(&exp);
    let uf = UnionFindDecoder::new();
    let cfg = SamplerConfig::default();
    let out = oracle.run(&MemoryNoise::phenomenological(0.3), &uf, 100, 9, &cfg);
    assert!(out.detection_events > 0 && out.failures > 0 && out.correction_weight > 0);
    let sampler = FrameSampler::new(&exp);
    assert_eq!(
        sampler.run_batch_configured(&MemoryNoise::phenomenological(0.3), &uf, 100, 9, &cfg),
        out
    );
}

/// One fault: a Pauli on data qubit `q` before round `t`, or a flip of
/// check `c`'s record in round `t`.
fn single_fault(
    sampler: &FrameSampler,
    exp: &MemoryExperiment,
    t: usize,
    data: Option<(usize, Pauli)>,
    flip: Option<usize>,
) -> (Vec<Vec<Pauli>>, Vec<Vec<bool>>) {
    let num_data = exp.lattice().num_data();
    let num_checks = sampler.graph().num_checks();
    let mut errors = vec![vec![Pauli::I; num_data]; exp.rounds()];
    let mut flips = vec![vec![false; num_checks]; exp.rounds()];
    if let Some((q, p)) = data {
        errors[t][q] = p;
    }
    if let Some(c) = flip {
        flips[t][c] = true;
    }
    (errors, flips)
}

#[test]
fn fault_patterns_equal_frame_propagation() {
    // Every single fault, then random patterns dense enough to stack
    // errors and flips: the map's XOR of columns against propagating the
    // whole pattern through the rounds.
    for d in [3usize, 5, 7, 9] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(d, d, basis);
            let sampler = FrameSampler::new(&exp);
            let oracle = ReferenceSampler::new(&exp);
            let num_data = exp.lattice().num_data();
            let num_checks = sampler.graph().num_checks();
            for t in 0..exp.rounds() {
                for q in 0..num_data {
                    for p in Pauli::ERRORS {
                        let (errors, flips) = single_fault(&sampler, &exp, t, Some((q, p)), None);
                        assert_eq!(
                            sampler.faulted_shot_events(&errors, &flips),
                            oracle.faulted_shot_events(&errors, &flips),
                            "d={d} {basis:?}: {p} on qubit {q} before round {t}"
                        );
                    }
                }
                for c in 0..num_checks {
                    let (errors, flips) = single_fault(&sampler, &exp, t, None, Some(c));
                    assert_eq!(
                        sampler.faulted_shot_events(&errors, &flips),
                        oracle.faulted_shot_events(&errors, &flips),
                        "d={d} {basis:?}: flip of check {c} in round {t}"
                    );
                }
            }
            let mut rng = StdRng::seed_from_u64(0xFA17 + d as u64);
            for trial in 0..20 {
                let errors: Vec<Vec<Pauli>> = (0..exp.rounds())
                    .map(|_| {
                        (0..num_data)
                            .map(|_| Pauli::ALL[rng.gen_range(0..4)])
                            .collect()
                    })
                    .collect();
                let flips: Vec<Vec<bool>> = (0..exp.rounds())
                    .map(|_| (0..num_checks).map(|_| rng.gen_bool(0.3)).collect())
                    .collect();
                assert_eq!(
                    sampler.faulted_shot_events(&errors, &flips),
                    oracle.faulted_shot_events(&errors, &flips),
                    "d={d} {basis:?}: random pattern {trial}"
                );
            }
        }
    }
}

#[test]
fn every_single_fault_is_an_edge_of_the_lattice_graph() {
    for d in [3usize, 5, 7, 9] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(d, d, basis);
            let sampler = FrameSampler::new(&exp);
            let lat = exp.lattice();
            let graph = DecodingGraph::new(lat, basis.check_kind(), exp.rounds() + 1);
            let (logical, detected) = match basis {
                MemoryBasis::Z => (lat.logical_z(), Pauli::X),
                MemoryBasis::X => (lat.logical_x(), Pauli::Z),
            };
            // Every edge's fault, by its (ascending) endpoints.
            let mut faults: BTreeMap<(NodeId, NodeId), Vec<Fault>> = BTreeMap::new();
            for e in graph.edges() {
                faults
                    .entry((e.a.min(e.b), e.a.max(e.b)))
                    .or_default()
                    .push(e.fault);
            }
            let edge_faults = |events: &[NodeId]| -> &[Fault] {
                let ends = match *events {
                    [a] => (a, graph.boundary()),
                    [a, b] => (a, b),
                    _ => panic!("d={d} {basis:?}: {events:?} is no edge"),
                };
                faults.get(&ends).map_or(&[], Vec::as_slice)
            };
            for t in 0..exp.rounds() {
                for q in 0..lat.num_data() {
                    for p in [Pauli::X, Pauli::Z] {
                        let (errors, flips) = single_fault(&sampler, &exp, t, Some((q, p)), None);
                        let (events, flips_logical) = sampler.faulted_shot_events(&errors, &flips);
                        let at = format!("d={d} {basis:?}: {p} on qubit {q} before round {t}");
                        if p != detected {
                            assert!(events.is_empty() && !flips_logical, "{at}");
                            continue;
                        }
                        assert!(edge_faults(&events).contains(&Fault::Data(q)), "{at}");
                        assert_eq!(flips_logical, logical.get(q) != Pauli::I, "{at}");
                    }
                }
                for c in 0..graph.num_checks() {
                    let (errors, flips) = single_fault(&sampler, &exp, t, None, Some(c));
                    let (events, flips_logical) = sampler.faulted_shot_events(&errors, &flips);
                    let at = format!("d={d} {basis:?}: flip of check {c} in round {t}");
                    let fault = Fault::Measurement { check: c, round: t };
                    assert!(edge_faults(&events).contains(&fault), "{at}");
                    assert!(!flips_logical, "{at}");
                }
            }
        }
    }
}
