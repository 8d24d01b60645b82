//! Root-level identity pin for the frame sampler → decoder path: the
//! tallies of a small sweep grid, recorded once from the commit before
//! the log-free sampler and the flat union-find went in, at both lane
//! widths. The grid covers both decode entries (the sparse
//! `decode_many` below `PLANE_DECODE_DENSITY`, `decode_planes` above),
//! which the wrapper below counts so that a grid that stops covering
//! one fails instead of passing vacuously.
//!
//! (The exhaustive pins live in the member crates —
//! `crates/surface-code/tests/{frame_equivalence,decoder_properties}.rs`,
//! `crates/stabilizer/src/frame` — and in `benchmark/golden.json`,
//! none of which tier-1 runs.)

use quest::surface::{
    BatchOutcome, Correction, CorrectionBatch, Decoder, DecodingGraph, EventPlanes, FrameSampler,
    LaneWidth, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId, SamplerConfig, UnionFindDecoder,
};
use std::sync::atomic::{AtomicUsize, Ordering};

const SHOTS: usize = 20_000;

/// `(distance, p, seed, failures, detection_events, correction_weight)`
/// under `MemoryNoise::phenomenological(p)`, `d` rounds, Z basis.
const RECORDED: [(usize, f64, u64, usize, usize, usize); 8] = [
    (3, 5e-4, 11, 0, 546, 199),
    (3, 5e-4, 2017, 2, 470, 170),
    (3, 5e-2, 11, 2196, 42325, 15315),
    (3, 5e-2, 2017, 2248, 41997, 15306),
    (5, 5e-4, 11, 0, 2598, 881),
    (5, 5e-4, 2017, 0, 2484, 828),
    (5, 5e-2, 11, 3376, 216966, 72860),
    (5, 5e-2, 2017, 3289, 216020, 72131),
];

/// Union-find that counts which batch entry the sampler took.
#[derive(Default)]
struct CountingDecoder {
    inner: UnionFindDecoder,
    sparse_calls: AtomicUsize,
    plane_calls: AtomicUsize,
}

impl Decoder for CountingDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.inner.decode(graph, events)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        self.sparse_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_many(graph, event_sets)
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        self.plane_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_planes(graph, planes, out);
    }
}

#[test]
fn sweep_tallies_equal_the_recorded_ones_at_both_lane_widths() {
    let decoder = CountingDecoder::default();
    for (d, p, seed, failures, detection_events, correction_weight) in RECORDED {
        let sampler = FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z));
        let noise = MemoryNoise::phenomenological(p);
        let want = BatchOutcome {
            shots: SHOTS,
            failures,
            detection_events,
            correction_weight,
        };
        for width in [LaneWidth::X1, LaneWidth::X8] {
            let cfg = SamplerConfig {
                width,
                ..SamplerConfig::default()
            };
            let got = sampler.run_batch_configured(&noise, &decoder, SHOTS, seed, &cfg);
            assert_eq!(got, want, "d={d} p={p} seed={seed} width={width:?}");
        }
    }
    assert!(
        decoder.sparse_calls.load(Ordering::Relaxed) > 0
            && decoder.plane_calls.load(Ordering::Relaxed) > 0,
        "the grid must cover both decode entries"
    );
}
