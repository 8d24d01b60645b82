//! Exactness and determinism of the bit-parallel frame sampler.
//!
//! The frame fast path is only admissible because it is *exactly*
//! equivalent to the tableau path, not an approximation: for any fixed
//! physical fault pattern (per-round data Paulis + measurement flips),
//! both paths must produce bit-for-bit identical detection events and the
//! same uncorrected logical readout parity. These tests pin that down over
//! randomized fault patterns at d ∈ {3, 5} in both bases, under
//! code-capacity (data errors only) and phenomenological (data +
//! measurement-flip) fault shapes — and additionally pin the batch
//! sampler's determinism: invariance under internal batch size and under
//! the threshold sweep's worker count.

use quest_stabilizer::{Pauli, PauliChannel, Rng, SeedableRng, StdRng};
use quest_surface::{
    BatchOutcome, Correction, Decoder, DecodingGraph, EarlyExit, FrameSampler, LaneWidth,
    MemoryBasis, MemoryExperiment, MemoryNoise, NodeId, SamplerConfig, SweepConfig, ThresholdSweep,
    UnionFindDecoder,
};

/// Draws a random fault pattern: per-round per-data-qubit Paulis (density
/// `p_err`) and per-round per-check measurement flips (density `p_flip`).
fn random_faults(
    exp: &MemoryExperiment,
    num_checks: usize,
    p_err: f64,
    p_flip: f64,
    rng: &mut StdRng,
) -> (Vec<Vec<Pauli>>, Vec<Vec<bool>>) {
    let errors = (0..exp.rounds())
        .map(|_| {
            (0..exp.lattice().num_data())
                .map(|_| {
                    if rng.gen::<f64>() < p_err {
                        Pauli::ERRORS[rng.gen_range(0..3)]
                    } else {
                        Pauli::I
                    }
                })
                .collect()
        })
        .collect();
    let flips = (0..exp.rounds())
        .map(|_| (0..num_checks).map(|_| rng.gen::<f64>() < p_flip).collect())
        .collect();
    (errors, flips)
}

fn assert_paths_agree(d: usize, basis: MemoryBasis, p_err: f64, p_flip: f64, trials: usize) {
    let exp = MemoryExperiment::new(d, d, basis);
    let sampler = FrameSampler::new(&exp);
    let num_checks = sampler.graph().num_checks();
    let mut rng = StdRng::seed_from_u64(0xD1CE + d as u64 + (p_flip.to_bits() >> 50));
    for trial in 0..trials {
        let (errors, flips) = random_faults(&exp, num_checks, p_err, p_flip, &mut rng);
        let (frame_events, frame_logical) = sampler.faulted_shot_events(&errors, &flips);
        let (tab_events, tab_logical) = exp.faulted_shot_events(&errors, &flips, &mut rng);
        assert_eq!(
            frame_events, tab_events,
            "detection events diverged: d={d}, {basis:?}, trial {trial}"
        );
        assert_eq!(
            frame_logical, tab_logical,
            "logical parity diverged: d={d}, {basis:?}, trial {trial}"
        );
    }
}

#[test]
fn frame_matches_tableau_code_capacity() {
    for d in [3usize, 5] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            assert_paths_agree(d, basis, 0.08, 0.0, 40);
        }
    }
}

#[test]
fn frame_matches_tableau_phenomenological() {
    for d in [3usize, 5] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            assert_paths_agree(d, basis, 0.05, 0.05, 40);
        }
    }
}

#[test]
fn frame_matches_tableau_at_high_error_density() {
    // Dense faults exercise frame composition across rounds (errors
    // stacking on the same qubit, Y components, flip cancellation).
    assert_paths_agree(3, MemoryBasis::Z, 0.35, 0.25, 30);
    assert_paths_agree(3, MemoryBasis::X, 0.35, 0.25, 30);
}

#[test]
fn single_faults_agree_exhaustively() {
    // Every single-qubit Pauli in every round, and every single
    // measurement flip, one at a time — the minimal generators of any
    // fault pattern.
    for basis in [MemoryBasis::Z, MemoryBasis::X] {
        let exp = MemoryExperiment::new(3, 3, basis);
        let sampler = FrameSampler::new(&exp);
        let num_checks = sampler.graph().num_checks();
        let num_data = exp.lattice().num_data();
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..exp.rounds() {
            for q in 0..num_data {
                for p in Pauli::ERRORS {
                    let mut errors = vec![vec![Pauli::I; num_data]; exp.rounds()];
                    errors[round][q] = p;
                    let flips = vec![vec![false; num_checks]; exp.rounds()];
                    let (fe, fl) = sampler.faulted_shot_events(&errors, &flips);
                    let (te, tl) = exp.faulted_shot_events(&errors, &flips, &mut rng);
                    assert_eq!(fe, te, "{basis:?}: {p} on qubit {q}, round {round}");
                    assert_eq!(fl, tl, "{basis:?}: {p} on qubit {q}, round {round}");
                }
            }
            for c in 0..num_checks {
                let errors = vec![vec![Pauli::I; num_data]; exp.rounds()];
                let mut flips = vec![vec![false; num_checks]; exp.rounds()];
                flips[round][c] = true;
                let (fe, fl) = sampler.faulted_shot_events(&errors, &flips);
                let (te, tl) = exp.faulted_shot_events(&errors, &flips, &mut rng);
                assert_eq!(fe, te, "{basis:?}: flip on check {c}, round {round}");
                assert_eq!(fl, tl, "{basis:?}: flip on check {c}, round {round}");
            }
        }
    }
}

#[test]
fn run_batch_is_invariant_under_batch_size() {
    let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let noise = MemoryNoise::phenomenological(0.02);
    let uf = UnionFindDecoder::new();
    let chunked = |seed: u64, chunk_shots: usize| {
        let cfg = SamplerConfig {
            chunk_shots,
            ..SamplerConfig::default()
        };
        sampler.run_batch_configured(&noise, &uf, 1000, seed, &cfg)
    };
    // 1000 shots spans multiple 64-chunks and 256-chunks with a ragged
    // tail in both splits.
    let small = chunked(42, 64);
    let large = chunked(42, 256);
    let whole = chunked(42, 1000);
    assert_eq!(small, large, "chunk 64 vs 256 must be bit-identical");
    assert_eq!(
        small, whole,
        "chunked vs single-batch must be bit-identical"
    );
    // And a different seed must actually change the sample.
    let other = chunked(43, 256);
    assert_ne!(
        small.detection_events, other.detection_events,
        "different seeds should differ"
    );
}

#[test]
fn threshold_run_batch_is_invariant_under_worker_count() {
    let uf = UnionFindDecoder::new();
    let distances = [3usize, 5];
    let rates = [5e-3, 2e-2, 5e-2];
    let one = ThresholdSweep::run_batch(&distances, &rates, 1500, &uf, 0xBEEF, 1);
    let four = ThresholdSweep::run_batch(&distances, &rates, 1500, &uf, 0xBEEF, 4);
    assert_eq!(one, four, "worker count must not change the sweep");
    assert_eq!(one.points.len(), distances.len() * rates.len());
    // Canonical (distance, p) order regardless of completion order.
    for (i, pt) in one.points.iter().enumerate() {
        assert_eq!(pt.distance, distances[i / rates.len()]);
        assert_eq!(pt.p, rates[i % rates.len()]);
    }
}

/// Wraps a decoder but inherits the *default* `decode_planes` (scatter to
/// sparse sets, then `decode_many`) — so a batch run through it exercises
/// the sparse handoff even where the sampler would pick the plane path.
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

fn run_width(
    sampler: &FrameSampler,
    noise: &MemoryNoise,
    shots: usize,
    seed: u64,
    width: LaneWidth,
    chunk_shots: usize,
) -> BatchOutcome {
    let cfg = SamplerConfig {
        width,
        chunk_shots,
        ..SamplerConfig::default()
    };
    sampler.run_batch_configured(noise, &UnionFindDecoder::new(), shots, seed, &cfg)
}

#[test]
fn run_batch_is_invariant_under_lane_width() {
    // 64- and 512-bit plane words over the same (shots, seed) must
    // produce bit-identical outcomes, including at a non-multiple-of-64
    // shot count and across different chunkings per width.
    let exp = MemoryExperiment::new(5, 5, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let noise = MemoryNoise::phenomenological(0.03);
    for shots in [1000usize, 4096] {
        let narrow = run_width(&sampler, &noise, shots, 0xA11CE, LaneWidth::X1, 4096);
        for chunk in [512usize, 4096] {
            let wide = run_width(&sampler, &noise, shots, 0xA11CE, LaneWidth::X8, chunk);
            assert_eq!(narrow, wide, "chunk {chunk} diverged at {shots} shots");
        }
        assert!(narrow.detection_events > 0);
    }
}

#[test]
fn threshold_sweep_is_invariant_under_width_and_workers() {
    let uf = UnionFindDecoder::new();
    let distances = [3usize, 5];
    let rates = [5e-3, 5e-2];
    let reference = ThresholdSweep::run_batch(&distances, &rates, 1024, &uf, 0xFEED, 1);
    for width in [LaneWidth::X1, LaneWidth::X8] {
        for workers in [1usize, 3] {
            let cfg = SweepConfig {
                width,
                workers,
                early_exit: None,
            };
            let sweep =
                ThresholdSweep::run_batch_configured(&distances, &rates, 1024, &uf, 0xFEED, &cfg);
            assert_eq!(
                reference,
                sweep,
                "width {} workers {workers} changed the sweep",
                width.name()
            );
        }
    }
}

#[test]
fn exact_shot_counts_scale_deterministic_noise_linearly() {
    // bit_flip(1.0) errors every data qubit and measurement_flip 1.0
    // flips every record bit, in every shot identically — so every
    // per-shot tally is the same and totals must scale exactly with the
    // requested shot count. This is the tail-masking regression test: a
    // padded dead lane would break linearity at non-multiples of 64.
    let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let noise = MemoryNoise {
        data: PauliChannel::bit_flip(1.0),
        measurement_flip: 1.0,
    };
    let uf = UnionFindDecoder::new();
    let per_shot = sampler.run_batch(&noise, &uf, 1, 7);
    assert_eq!(per_shot.shots, 1);
    assert!(per_shot.detection_events > 0);
    for shots in [64usize, 65, 100, 128, 1000] {
        let out = sampler.run_batch(&noise, &uf, shots, 7);
        assert_eq!(out.shots, shots);
        assert_eq!(
            out.detection_events,
            shots * per_shot.detection_events,
            "{shots} shots"
        );
        assert_eq!(out.failures, shots * per_shot.failures);
        assert_eq!(out.correction_weight, shots * per_shot.correction_weight);
    }
}

#[test]
fn plane_and_sparse_decode_paths_agree_end_to_end() {
    // At p = 0.08 the event density is far above the plane-decode cutoff,
    // so the plain run takes the plane-batched path; ForceSparse inherits
    // the default scatter path. Outcomes must be bit-identical.
    let exp = MemoryExperiment::new(5, 5, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let uf = UnionFindDecoder::new();
    for p in [0.08f64, 0.01, 1e-3] {
        let noise = MemoryNoise::code_capacity(p);
        let plane = sampler.run_batch(&noise, &uf, 2000, 0xCAFE);
        let sparse = sampler.run_batch(&noise, &ForceSparse(UnionFindDecoder::new()), 2000, 0xCAFE);
        assert_eq!(plane, sparse, "paths diverged at p = {p}");
    }
}

#[test]
fn early_exit_preserves_crossing_verdicts_at_pinned_point() {
    // The CI contract: early exit may shorten points but must not change
    // a crossing verdict. Pinned bracket [4e-3, 5e-2] at d in {3, 5}.
    let uf = UnionFindDecoder::new();
    let distances = [3usize, 5];
    let rates = [4e-3, 5e-2];
    let full = ThresholdSweep::run_batch(&distances, &rates, 4096, &uf, 0xC0DE, 1);
    let cfg = SweepConfig {
        early_exit: Some(EarlyExit::default()),
        ..SweepConfig::default()
    };
    let early = ThresholdSweep::run_batch_configured(&distances, &rates, 4096, &uf, 0xC0DE, &cfg);
    assert_eq!(
        full.crossing_below(3, 5),
        early.crossing_below(3, 5),
        "early exit changed the d3/d5 crossing verdict"
    );
    // Above threshold the early run must actually have stopped short.
    let stopped = early.points.iter().any(|pt| pt.shots < 4096);
    assert!(
        stopped,
        "early exit never fired on an above-threshold point"
    );
    // And early-exited sweeps are themselves width-invariant.
    let wide_cfg = SweepConfig {
        width: LaneWidth::X1,
        ..cfg
    };
    let early_narrow =
        ThresholdSweep::run_batch_configured(&distances, &rates, 4096, &uf, 0xC0DE, &wide_cfg);
    assert_eq!(early, early_narrow, "early exit is width-dependent");
}

#[test]
fn batch_and_legacy_sample_the_same_distribution() {
    // Not bit-identical (different RNG streams) but the same physics:
    // compare logical rates at a point where both are well-resolved.
    let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
    let noise = MemoryNoise::code_capacity(0.05);
    let uf = UnionFindDecoder::new();
    let batch = FrameSampler::new(&exp)
        .run_batch(&noise, &uf, 8000, 3)
        .logical_error_rate();
    let mut rng = StdRng::seed_from_u64(3);
    let legacy = exp.logical_error_rate(&noise, &uf, 2000, &mut rng);
    assert!(
        (batch - legacy).abs() < 0.025,
        "batch rate {batch} vs legacy rate {legacy}"
    );
}
