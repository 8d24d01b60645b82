//! `sweep_low_p` and `sweep_high_p`: a code-capacity threshold sweep on
//! the frame sampler, at the paper's operating rates (sampler-bound,
//! sparse decode path) and at threshold-bracket rates (decoder-bound,
//! plane decode path).

use super::{Ops, Scale, Shares, TracedPass, Workload};
use crate::decoders::TimedDecoder;
use crate::json::Json;
use crate::trace::{self_times, SpanId, Tracer};
use quest_stabilizer::frame::block_seed;
use quest_surface::{
    BatchOutcome, Decoder, FrameSampler, LaneWidth, MemoryBasis, MemoryExperiment, MemoryNoise,
    SamplerConfig, SweepConfig, ThresholdPoint, ThresholdSweep, UnionFindDecoder,
};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

pub struct Sweep {
    distances: [usize; 3],
    rates: [f64; 3],
    shots: usize,
    seed: u64,
    decoder: UnionFindDecoder,
    /// The first pass's points; every later pass must reproduce them.
    first: Option<Vec<ThresholdPoint>>,
}

impl Sweep {
    /// The paper's regime (its Figure 15 spans 1e-3…1e-5): every chunk is
    /// below `PLANE_DECODE_DENSITY`, so the decoder is entered through
    /// `scatter_into` + `decode_many` only.
    pub fn low_p(seed: u64, scale: Scale) -> Sweep {
        Sweep::new([5, 7, 9], [1e-4, 2e-4, 5e-4], 800_000, seed, scale)
    }

    /// The threshold bracket's top rates: every chunk is dense, so the
    /// decoder is entered through `decode_planes` only.
    pub fn high_p(seed: u64, scale: Scale) -> Sweep {
        Sweep::new([3, 5, 7], [3e-2, 5e-2, 8e-2], 40_000, seed, scale)
    }

    fn new(distances: [usize; 3], rates: [f64; 3], shots: u64, seed: u64, scale: Scale) -> Sweep {
        Sweep {
            distances,
            rates,
            shots: scale.of(shots) as usize,
            seed,
            decoder: UnionFindDecoder::new(),
            first: None,
        }
    }

    fn run(&self, shots: usize, width: LaneWidth) -> Vec<ThresholdPoint> {
        ThresholdSweep::run_batch_configured(
            &self.distances,
            &self.rates,
            shots,
            &self.decoder,
            self.seed,
            // One worker and no early exit: a pass is a fixed amount of
            // work on one core whatever the failure tallies do.
            &SweepConfig {
                width,
                early_exit: None,
                workers: 1,
            },
        )
        .points
    }

    /// The sweep as `ThresholdSweep::run_batch_configured` runs it on one
    /// worker, spelled out per point on the public `FrameSampler` so that
    /// spans can sit at the sampler-build, point and decode boundaries
    /// and the full `BatchOutcome` tallies are visible.
    fn sample_points<D: Decoder>(
        &self,
        decoder: &D,
        tracer: &Tracer,
        root: SpanId,
        enter_point: impl Fn(SpanId),
    ) -> Vec<BatchOutcome> {
        let samplers: Vec<FrameSampler> = self
            .distances
            .iter()
            .map(|&d| {
                tracer.span("surface.sampler_build", Some(root), |_| {
                    FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z))
                })
            })
            .collect();
        let mut outcomes = Vec::new();
        for (di, sampler) in samplers.iter().enumerate() {
            for (pi, &p) in self.rates.iter().enumerate() {
                let index = (di * self.rates.len() + pi) as u64;
                outcomes.push(tracer.span("surface.point", Some(root), |point| {
                    enter_point(point);
                    sampler.run_batch_configured(
                        &MemoryNoise::code_capacity(p),
                        decoder,
                        self.shots,
                        block_seed(self.seed, index),
                        &SamplerConfig::default(),
                    )
                }));
            }
        }
        outcomes
    }

    fn grid(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.distances
            .iter()
            .flat_map(|&d| self.rates.iter().map(move |&p| (d, p)))
    }
}

impl Workload for Sweep {
    fn work_per_pass(&self) -> u64 {
        (self.distances.len() * self.rates.len() * self.shots) as u64
    }

    fn setup_reps(&self) -> usize {
        9
    }

    fn setup_once(&self) -> f64 {
        let started = Instant::now();
        for &d in &self.distances {
            black_box(FrameSampler::new(&MemoryExperiment::new(
                d,
                d,
                MemoryBasis::Z,
            )));
        }
        black_box(UnionFindDecoder::new());
        started.elapsed().as_secs_f64()
    }

    fn pass(&mut self) -> Ops {
        let points = self.run(self.shots, LaneWidth::default());
        let first = self.first.get_or_insert_with(|| points.clone()).clone();
        let mut ops = Ops::default();
        for (i, (d, p)) in self.grid().enumerate() {
            ops.check(points.get(i).is_some_and(|pt| {
                pt.distance == d && pt.p == p && pt.shots == self.shots && Some(pt) == first.get(i)
            }));
        }
        ops
    }

    fn traced_pass(&mut self, tracer: &Tracer) -> TracedPass {
        let decoder = TimedDecoder::new(tracer);
        let root = tracer.open("sweep.pass", None);
        let outcomes =
            self.sample_points(&decoder, tracer, root, |point| decoder.set_parent(point));
        tracer.close(root);

        // Per-point sampler tallies must be the sweep's points exactly.
        let mut ops = Ops::default();
        let reference = self
            .first
            .clone()
            .unwrap_or_else(|| self.run(self.shots, LaneWidth::default()));
        for (out, pt) in outcomes.iter().zip(&reference) {
            ops.check(out.shots == pt.shots && out.logical_error_rate() == pt.logical_rate);
        }

        let spans = tracer.spans();
        let selfs = self_times(&spans);
        let wall = spans[root].duration_ns() as f64;
        let mut decode = 0.0;
        let mut simulate = 0.0;
        for (span, self_ns) in spans.iter().zip(&selfs) {
            match span.name {
                "surface.decode_many" | "surface.decode_planes" => {
                    decode += span.duration_ns() as f64
                }
                "surface.point" => simulate += *self_ns as f64,
                _ => {}
            }
        }
        let shares = Shares {
            simulate: simulate / wall,
            decode: decode / wall,
            orchestrate: (wall - simulate - decode) / wall,
        };
        let count = |c: &std::sync::atomic::AtomicU64| Json::int(c.load(Ordering::Relaxed));
        TracedPass {
            wall_s: wall * 1e-9,
            shares,
            ops,
            counters: Json::obj([
                ("decode_many_calls", count(&decoder.sparse_calls)),
                ("decode_many_shots", count(&decoder.sparse_shots)),
                ("decode_planes_calls", count(&decoder.plane_calls)),
                ("decode_planes_shots", count(&decoder.plane_shots)),
                (
                    "detection_events",
                    Json::int(outcomes.iter().map(|o| o.detection_events as u64).sum()),
                ),
                (
                    "failures",
                    Json::int(outcomes.iter().map(|o| o.failures as u64).sum()),
                ),
            ]),
        }
    }

    /// Lane width must never change a point: 64-bit lanes against the
    /// default 512-bit lanes on a 10 % shot replica.
    fn deep_checks(&mut self) -> Ops {
        let shots = (self.shots / 10).max(1);
        let narrow = self.run(shots, LaneWidth::X1);
        let wide = self.run(shots, LaneWidth::X8);
        let mut ops = Ops::default();
        for i in 0..self.distances.len() * self.rates.len() {
            ops.check(narrow.get(i).is_some() && narrow.get(i) == wide.get(i));
        }
        ops
    }

    fn simulated_stats(&self) -> Json {
        let outcomes = self.sample_points(&self.decoder, &Tracer::off(), 0, |_| {});
        let points = self
            .grid()
            .zip(outcomes)
            .map(|((d, p), out)| {
                Json::obj([
                    ("distance", Json::int(d as u64)),
                    ("p", Json::Num(p)),
                    ("shots", Json::int(out.shots as u64)),
                    ("failures", Json::int(out.failures as u64)),
                    ("detection_events", Json::int(out.detection_events as u64)),
                    ("correction_weight", Json::int(out.correction_weight as u64)),
                ])
            })
            .collect();
        Json::obj([("points", Json::Arr(points))])
    }
}
