//! Threshold estimation: sweep physical error rate × code distance and
//! locate the crossing point below which larger codes win.
//!
//! The existence of a threshold is the premise of the entire paper — the
//! reason adding physical qubits (and hence instruction bandwidth)
//! suppresses logical errors at all. This harness measures logical error
//! rates over a grid and reports the empirical crossing between
//! consecutive distances.

use crate::decoder::Decoder;
use crate::memory::{MemoryBasis, MemoryExperiment, MemoryNoise};
use crate::sampler::{wilson_interval, EarlyExit, FrameSampler, SamplerConfig};
use quest_stabilizer::frame::{block_seed, LaneWidth};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Knobs of a configured batch sweep (see
/// [`ThresholdSweep::run_batch_configured`]).
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Unread: the sampler propagates no frame, so there is no plane
    /// word to size. It stays while callers still name a lane width.
    pub width: LaneWidth,
    /// Optional deterministic per-point early exit. Points stopped early
    /// report their actual shot count in [`ThresholdPoint::shots`].
    pub early_exit: Option<EarlyExit>,
    /// OS threads grid points are fanned out over (results are
    /// worker-invariant).
    pub workers: usize,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            width: LaneWidth::default(),
            early_exit: None,
            workers: 1,
        }
    }
}

/// One grid point of a threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Code distance.
    pub distance: usize,
    /// Physical error rate.
    pub p: f64,
    /// Measured logical error rate.
    pub logical_rate: f64,
    /// Shots used.
    pub shots: usize,
    /// Shots whose decoded logical observable was flipped.
    pub failures: usize,
}

impl ThresholdPoint {
    /// The 95 % Wilson score interval of the logical error rate (see
    /// [`wilson_interval`]): at zero failures, an upper bound.
    pub fn rate_interval(&self) -> (f64, f64) {
        wilson_interval(self.failures, self.shots)
    }
}

/// Result of a full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSweep {
    /// All measured points, ordered by (distance, p).
    pub points: Vec<ThresholdPoint>,
}

impl ThresholdSweep {
    /// Runs a code-capacity sweep over `distances` × `error_rates` with
    /// `shots` shots per point and `rounds = d` noisy rounds, on the
    /// fault-map fast path (see [`crate::FrameSampler`]), optionally
    /// fanning grid points out over `workers` OS threads with
    /// `std::thread::scope` — no thread pool, no extra dependencies,
    /// mirroring the runtime's sharding style.
    ///
    /// Deterministic by construction: every grid point draws from its own
    /// RNG stream derived from `(seed, canonical point index)`, work is
    /// claimed from an atomic counter, and results are written into their
    /// canonical `(distance, p)` slot — so the output is bit-identical
    /// for any `workers ≥ 1` and equals the single-threaded run.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn run_batch<D: Decoder + Sync>(
        distances: &[usize],
        error_rates: &[f64],
        shots: usize,
        decoder: &D,
        seed: u64,
        workers: usize,
    ) -> ThresholdSweep {
        let cfg = SweepConfig {
            workers,
            ..SweepConfig::default()
        };
        ThresholdSweep::run_batch_configured(distances, error_rates, shots, decoder, seed, &cfg)
    }

    /// [`ThresholdSweep::run_batch`] with explicit lane-width and
    /// early-exit knobs. The sweep stays a pure function of
    /// `(grid, shots, seed, early_exit)`: lane width and worker count
    /// never change any point, and the early-exit decision is evaluated
    /// per point from deterministic tallies at fixed milestones — so an
    /// early-exited sweep equals the full sweep truncated per point.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero.
    pub fn run_batch_configured<D: Decoder + Sync>(
        distances: &[usize],
        error_rates: &[f64],
        shots: usize,
        decoder: &D,
        seed: u64,
        cfg: &SweepConfig,
    ) -> ThresholdSweep {
        assert!(cfg.workers > 0, "need at least one worker");
        let workers = cfg.workers;
        let sampler_cfg = SamplerConfig {
            width: cfg.width,
            early_exit: cfg.early_exit,
            ..SamplerConfig::default()
        };
        // Canonical grid in (distance, p) order; each point gets an
        // independent master seed from its canonical index.
        let grid: Vec<(usize, f64)> = distances
            .iter()
            .flat_map(|&d| error_rates.iter().map(move |&p| (d, p)))
            .collect();
        // Compile (and reference-verify) one sampler per distance instead
        // of per point: the sampler is noise-independent, and its one-time
        // tableau verification is a visible fraction of a fast sweep.
        let samplers: Vec<FrameSampler> = distances
            .iter()
            .map(|&d| FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z)))
            .collect();
        let run_point = |i: usize| -> ThresholdPoint {
            let (d, p) = grid[i];
            let noise = MemoryNoise::code_capacity(p);
            let out = samplers[i / error_rates.len()].run_batch_configured(
                &noise,
                decoder,
                shots,
                block_seed(seed, i as u64),
                &sampler_cfg,
            );
            ThresholdPoint {
                distance: d,
                p,
                logical_rate: out.logical_error_rate(),
                shots: out.shots,
                failures: out.failures,
            }
        };

        let mut points: Vec<Option<ThresholdPoint>> = vec![None; grid.len()];
        if workers == 1 {
            for (i, slot) in points.iter_mut().enumerate() {
                *slot = Some(run_point(i));
            }
        } else {
            let next = AtomicUsize::new(0);
            let results = Mutex::new(&mut points);
            std::thread::scope(|scope| {
                for _ in 0..workers.min(grid.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= grid.len() {
                            break;
                        }
                        let pt = run_point(i);
                        if let Ok(mut slots) = results.lock() {
                            slots[i] = Some(pt);
                        }
                    });
                }
            });
        }
        ThresholdSweep {
            points: points.into_iter().flatten().collect(),
        }
    }

    /// Points for one distance, ordered by error rate.
    pub fn series(&self, distance: usize) -> Vec<ThresholdPoint> {
        self.points
            .iter()
            .filter(|pt| pt.distance == distance)
            .copied()
            .collect()
    }

    /// The largest swept error rate at which the bigger code is at least
    /// as good as the smaller one — an empirical lower bound on the
    /// threshold between the two distances. `None` if the bigger code
    /// never wins on the grid.
    pub fn crossing_below(&self, d_small: usize, d_large: usize) -> Option<f64> {
        let small = self.series(d_small);
        let large = self.series(d_large);
        small
            .iter()
            .zip(&large)
            .filter(|(s, l)| l.logical_rate <= s.logical_rate)
            .map(|(s, _)| s.p)
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UnionFindDecoder;

    #[test]
    fn sweep_shapes_are_complete() {
        let sweep =
            ThresholdSweep::run_batch(&[3, 5], &[5e-3, 2e-2], 40, &UnionFindDecoder::new(), 8, 1);
        assert_eq!(sweep.points.len(), 4);
        assert_eq!(sweep.series(3).len(), 2);
        assert_eq!(sweep.series(5).len(), 2);
    }

    #[test]
    fn points_carry_their_failures_and_interval() {
        let sweep =
            ThresholdSweep::run_batch(&[3], &[2e-3, 5e-2], 300, &UnionFindDecoder::new(), 9, 1);
        for pt in &sweep.points {
            assert_eq!(pt.logical_rate, pt.failures as f64 / pt.shots as f64);
            let (lo, hi) = pt.rate_interval();
            assert_eq!((lo, hi), wilson_interval(pt.failures, pt.shots));
            assert!(lo <= pt.logical_rate && pt.logical_rate <= hi && hi > 0.0);
        }
    }

    #[test]
    fn logical_rate_increases_with_p() {
        let sweep =
            ThresholdSweep::run_batch(&[3], &[2e-3, 5e-2], 300, &UnionFindDecoder::new(), 9, 1);
        let s = sweep.series(3);
        assert!(
            s[0].logical_rate <= s[1].logical_rate,
            "{} vs {}",
            s[0].logical_rate,
            s[1].logical_rate
        );
    }

    #[test]
    fn d5_beats_d3_well_below_threshold() {
        let sweep =
            ThresholdSweep::run_batch(&[3, 5], &[4e-3], 400, &UnionFindDecoder::new(), 10, 1);
        let crossing = sweep.crossing_below(3, 5);
        assert_eq!(crossing, Some(4e-3), "d=5 must win at p=4e-3");
    }
}
