//! The four workloads. Each is a fixed amount of work per pass whose
//! inputs are a pure function of the seed, with a cheap correctness
//! check on every pass and expensive ones in the traced run.

mod runtime;
mod serve;
mod sweep;

use crate::json::Json;
use crate::trace::Tracer;

/// Workload names, as `--workload` takes them and `BENCHMARK.json`
/// lists them.
pub const NAMES: [&str; 4] = ["sweep_low_p", "sweep_high_p", "runtime_cycles", "serve_mix"];

/// Divisor applied to every workload's size. The benchmark always runs
/// at full size; the golden statistics and the unit tests use
/// [`Scale::REDUCED`] so they stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const REDUCED: Scale = Scale(10);

    pub fn of(self, full_size: u64) -> u64 {
        (full_size / self.0).max(1)
    }
}

/// Checked operations: a sweep grid point, a runtime run or a served
/// job. Failures are reported as counts, never folded into a metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Where a traced pass's time went; the three sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// Physics simulation: frame sampling and event extraction, or the
    /// runtime's cycle, logical and readout phases.
    pub simulate: f64,
    /// Inside any decoder call.
    pub decode: f64,
    /// Everything else: building, spawning, queueing, tallying, idling.
    pub orchestrate: f64,
}

/// Result of the one traced pass of a traced run.
pub struct TracedPass {
    pub wall_s: f64,
    pub shares: Shares,
    pub ops: Ops,
    /// Counts taken at the span boundaries, for the trace file.
    pub counters: Json,
}

pub trait Workload {
    /// Units of work in one pass: shots, tile-cycles or jobs.
    fn work_per_pass(&self) -> u64;

    /// How many times a run repeats set-up to take a median.
    fn setup_reps(&self) -> usize;

    /// Does everything a caller pays before the first unit of work, once,
    /// and returns how long it took in seconds.
    fn setup_once(&self) -> f64;

    /// One untraced fixed-work pass with the cheap checks.
    fn pass(&mut self) -> Ops;

    /// The same work with spans recorded around the calls into each
    /// layer.
    fn traced_pass(&mut self, tracer: &Tracer) -> TracedPass;

    /// The expensive oracle checks of the traced run.
    fn deep_checks(&mut self) -> Ops;

    /// Every simulated statistic of the workload's inputs: what the
    /// modelled system computes, as opposed to how fast the host computes
    /// it. A change that only speeds the simulator up must leave these
    /// identical.
    fn simulated_stats(&self) -> Json;
}

/// Builds a workload by name; `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep_low_p" => Box::new(sweep::Sweep::low_p(seed, scale)),
        "sweep_high_p" => Box::new(sweep::Sweep::high_p(seed, scale)),
        "runtime_cycles" => Box::new(runtime::RuntimeCycles::new(seed, scale)),
        "serve_mix" => Box::new(serve::ServeMix::new(seed, scale)),
        _ => return None,
    })
}
