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
    Correction, CorrectionBatch, Decoder, DecodingGraph, EarlyExit, EventPlanes, Fault,
    FrameSampler, LaneWidth, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId, SamplerConfig,
    UnionFindDecoder,
};
use reference_frame::ReferenceSampler;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// A decoder whose correction is a function of the exact event list:
/// it flips a hashed set of data qubits, so distinct sets almost always
/// get distinct weights and logical parities. An answer the sampler
/// reuses for the wrong set, or stores without its logical flip, shows
/// in the tallies. Counts the non-empty sets it decodes.
struct Fingerprint {
    num_data: usize,
    sets: AtomicUsize,
}

impl Fingerprint {
    fn new(exp: &MemoryExperiment) -> Fingerprint {
        Fingerprint {
            num_data: exp.lattice().num_data(),
            sets: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> usize {
        self.sets.swap(0, Ordering::Relaxed)
    }
}

impl Decoder for Fingerprint {
    fn decode(&self, _graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        if events.is_empty() {
            return Correction::default();
        }
        self.sets.fetch_add(1, Ordering::Relaxed);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for &n in events {
            hash = (hash ^ (n as u64 + 1)).wrapping_mul(0x0100_0000_01B3);
        }
        let data_flips = (0..1 + hash % 7)
            .map(|i| (hash.rotate_right(9 * i as u32) % self.num_data as u64) as usize)
            .collect();
        Correction {
            data_flips,
            edges: Vec::new(),
        }
    }
}

#[test]
fn slot_answers_equal_decoder_answers_under_a_fingerprint_decoder() {
    const SHOTS: usize = 20_000;
    for d in [3usize, 5, 7, 9] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(d, d, basis);
            let sampler = FrameSampler::new(&exp);
            let oracle = ReferenceSampler::new(&exp);
            let decoder = Fingerprint::new(&exp);
            for p in [1e-4, 1e-3, 3e-3] {
                for (name, noise) in [
                    ("code-capacity", MemoryNoise::code_capacity(p)),
                    ("phenomenological", MemoryNoise::phenomenological(p)),
                ] {
                    let at = format!("d={d} {basis:?} {name} p={p}");
                    let seed = 0xF1A9 + d as u64;
                    let cfg = SamplerConfig::default();
                    let got = sampler.run_batch_configured(&noise, &decoder, SHOTS, seed, &cfg);
                    let decoded = decoder.take();
                    let want = oracle.run(&noise, &decoder, SHOTS, seed, &cfg);
                    let hit_shots = decoder.take();
                    assert_eq!(got, want, "{at}");
                    assert!(decoded <= hit_shots, "{at}: {decoded} of {hit_shots}");
                    if p == 1e-4 {
                        // Every chunk is sparse: repeated single-fault
                        // sets were answered from their slots.
                        assert!(decoded < hit_shots, "{at}: no slot reused");
                    }
                }
            }
        }
    }
}

/// Union-find that records every event set it is handed.
#[derive(Default)]
struct Recording {
    inner: UnionFindDecoder,
    sets: Mutex<Vec<Vec<NodeId>>>,
}

impl Decoder for Recording {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.decode_many(graph, &[events.to_vec()]).remove(0)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        if let Ok(mut sets) = self.sets.lock() {
            sets.extend(event_sets.iter().filter(|s| !s.is_empty()).cloned());
        }
        self.inner.decode_many(graph, event_sets)
    }
}

#[test]
fn a_low_p_run_decodes_each_single_fault_set_once() {
    const SHOTS: usize = 200_000;
    let exp = MemoryExperiment::new(7, 7, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let graph = sampler.graph();
    let noise = MemoryNoise::code_capacity(3e-4);
    let cfg = SamplerConfig::default();
    let decoder = Recording::default();
    let got = sampler.run_batch_configured(&noise, &decoder, SHOTS, 0xB0D6, &cfg);
    let decoded = decoder.sets.lock().map(|s| s.clone()).unwrap_or_default();

    // One node, or two joined by an edge: the sets a single fault makes.
    let has_slot = |set: &[NodeId]| match *set {
        [_] => true,
        [a, b] => graph
            .incident(a)
            .iter()
            .any(|&e| graph.other_end(e, a) == b),
        _ => false,
    };
    let mut seen = BTreeMap::new();
    for set in decoded.iter().filter(|s| has_slot(s)) {
        *seen.entry(set.clone()).or_insert(0usize) += 1;
    }
    assert!(!seen.is_empty());
    for (set, calls) in &seen {
        assert_eq!(*calls, 1, "{set:?} reached the decoder {calls} times");
    }

    // The reference decodes every shot: its non-empty sets are the run's
    // hit shots, and its tallies are the run's.
    let reference = Recording::default();
    let oracle = ReferenceSampler::new(&exp);
    assert_eq!(oracle.run(&noise, &reference, SHOTS, 0xB0D6, &cfg), got);
    let hit_shots = reference.sets.lock().map(|s| s.len()).unwrap_or(0);
    let from_slots = hit_shots - decoded.len();
    assert!(
        from_slots * 10 > hit_shots * 9,
        "{from_slots} of {hit_shots} hit shots answered from slots"
    );
}

/// Which decode entry a chunk took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Planes,
    Many,
}

/// Union-find that records, in order, which entry each call came through.
#[derive(Default)]
struct Entries {
    inner: UnionFindDecoder,
    calls: Mutex<Vec<Entry>>,
}

impl Entries {
    fn record(&self, entry: Entry) {
        if let Ok(mut calls) = self.calls.lock() {
            calls.push(entry);
        }
    }

    fn take(&self) -> Vec<Entry> {
        self.calls
            .lock()
            .map(|mut c| std::mem::take(&mut *c))
            .unwrap_or_default()
    }
}

impl Decoder for Entries {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.inner.decode(graph, events)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        self.record(Entry::Many);
        self.inner.decode_many(graph, event_sets)
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        self.record(Entry::Planes);
        self.inner.decode_planes(graph, planes, out);
    }
}

#[test]
fn chunks_crossing_the_density_both_ways_equal_the_oracle() {
    // A rate near `PLANE_DECODE_DENSITY` at three-block chunks: chunk
    // after chunk the run flips between the plane and the sparse path,
    // and the row stride changes with a short, ragged trailing chunk
    // (5000 = 78 blocks + 8 shots) and, under early exit, with every
    // chunk clipped at a 512-shot milestone (3, 3, 2 blocks, ...). Each
    // chunk must start on all-zero rows whatever stride wrote the last.
    const SHOTS: usize = 5000;
    let exp = MemoryExperiment::new(5, 5, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let oracle = ReferenceSampler::new(&exp);
    let noise = MemoryNoise::phenomenological(1e-3);
    let decoder = Entries::default();
    for early_exit in [None, Some(EarlyExit::default())] {
        let at = format!("early exit {early_exit:?}");
        let cfg = SamplerConfig {
            chunk_shots: 192,
            early_exit,
            ..SamplerConfig::default()
        };
        let got = sampler.run_batch_configured(&noise, &decoder, SHOTS, 0xC4A2, &cfg);
        let entries = decoder.take();
        let crossed = |from: Entry, to: Entry| entries.windows(2).any(|w| w == [from, to]);
        assert!(crossed(Entry::Many, Entry::Planes), "{at}: {entries:?}");
        assert!(crossed(Entry::Planes, Entry::Many), "{at}: {entries:?}");
        assert_eq!(got.shots, SHOTS, "{at}");
        assert_eq!(
            got,
            oracle.run(&noise, &decoder, SHOTS, 0xC4A2, &cfg),
            "{at}"
        );
        let single = SamplerConfig {
            chunk_shots: 64,
            ..cfg
        };
        let by_block = sampler.run_batch_configured(&noise, &decoder, SHOTS, 0xC4A2, &single);
        assert_eq!(got, by_block, "{at}");
        decoder.take();
    }
}
