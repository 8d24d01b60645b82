//! `runtime_cycles`: one long memory run on the sharded runtime. The
//! shard tableaus and MCE pipelines do almost all the work; escalations
//! keep the master, decode pool, network and bus ledger live.

use super::{Ops, Scale, Shares, TracedPass, Workload};
use crate::json::Json;
use crate::trace::Tracer;
use quest_core::Traffic;
use quest_runtime::{
    run_reference, CancelToken, PhaseTimings, RunControl, RunProgress, RunReport, Runtime,
    WorkloadSpec,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DISTANCE: usize = 5;
const TILES: usize = 8;
/// Two shards: one per core of the reference sandbox.
const SHARDS: usize = 2;
const ERROR_RATE: f64 = 2e-2;
const CYCLES: u64 = 1800;

pub struct RuntimeCycles {
    seed: u64,
    cycles: u64,
    runtime: Runtime,
    /// The first pass's report; every later pass must reproduce it.
    first: Option<RunReport>,
}

impl RuntimeCycles {
    pub fn new(seed: u64, scale: Scale) -> RuntimeCycles {
        RuntimeCycles {
            seed,
            cycles: scale.of(CYCLES),
            runtime: Runtime::new().with_decode_workers(1),
            first: None,
        }
    }

    fn spec(&self, cycles: u64) -> WorkloadSpec {
        WorkloadSpec::memory(DISTANCE, TILES, SHARDS, ERROR_RATE, self.seed, cycles)
    }

    fn check_against_first(&mut self, report: Option<RunReport>) -> Ops {
        let mut ops = Ops::default();
        match report {
            Some(report) => {
                let first = self.first.get_or_insert_with(|| report.clone());
                ops.check(report == *first && report.outcomes.len() == TILES);
            }
            None => ops.check(false),
        }
        ops
    }
}

/// The simulated statistics of one run: physics outcomes, the modelled
/// bus ledger and the modelled decode cost.
pub fn run_report_stats(report: &RunReport) -> Json {
    let outcomes: String = report
        .outcomes
        .iter()
        .map(|&(_, v)| if v { '1' } else { '0' })
        .collect();
    let bus = Traffic::ALL
        .iter()
        .map(|&class| (class.to_string(), Json::int(report.bus_bytes_of(class))));
    let cost = report.decode_cost;
    Json::obj([
        ("outcomes", Json::str(outcomes)),
        ("qecc_cycles", Json::int(report.qecc_cycles)),
        ("local_decodes", Json::int(report.local_decodes)),
        ("escalations", Json::int(report.escalations)),
        ("global_decodes", Json::int(report.master.global_decodes)),
        ("bus_bytes", Json::obj(bus)),
        (
            "decode_cost",
            Json::obj([
                ("decodes", Json::int(cost.decodes)),
                ("fallback_decodes", Json::int(cost.fallback_decodes)),
                ("cycles", Json::int(cost.cycles)),
                ("max_decode_cycles", Json::int(cost.max_decode_cycles)),
                ("jj_count", Json::int(cost.jj_count)),
            ]),
        ),
    ])
}

/// Splits a run's time by the runtime's own master-side phase timers,
/// as `(simulate, decode)` seconds: the cycle, logical and readout
/// phases simulate, the decode phase decodes. What no phase accounts
/// for (spec validation, shard and pool spawn, MCE and tableau build,
/// teardown) is orchestration.
pub fn phase_split(phases: &PhaseTimings) -> (f64, f64) {
    (
        (phases.cycles + phases.logical + phases.readout).as_secs_f64(),
        phases.decode.as_secs_f64(),
    )
}

impl Workload for RuntimeCycles {
    fn work_per_pass(&self) -> u64 {
        TILES as u64 * self.cycles
    }

    fn setup_reps(&self) -> usize {
        15
    }

    /// Spec build and validation, shard and pool spawn, MCE and tableau
    /// build and the preparations: everything up to the first QECC
    /// cycle's progress callback, where a cancel token ends the run.
    fn setup_once(&self) -> f64 {
        let started = Instant::now();
        let spec = self.spec(self.cycles);
        spec.validate()
            .expect("the benchmark's runtime spec is valid");
        let token = CancelToken::new();
        let first_cycle: Mutex<Option<f64>> = Mutex::new(None);
        let on_progress = |_: RunProgress| {
            let mut slot = first_cycle.lock().expect("progress callback panicked");
            if slot.is_none() {
                *slot = Some(started.elapsed().as_secs_f64());
                token.cancel();
            }
        };
        let control = RunControl::new()
            .with_cancel(&token)
            .with_progress(&on_progress);
        let cancelled = self.runtime.run_controlled(&spec, &control);
        assert!(cancelled.is_err(), "the set-up run was not cancelled");
        let elapsed = *first_cycle.lock().expect("progress callback panicked");
        elapsed.expect("the run reported no first cycle")
    }

    fn pass(&mut self) -> Ops {
        let report = self.runtime.run(&self.spec(self.cycles)).ok();
        self.check_against_first(report.map(|r| r.report))
    }

    /// One span per QECC cycle from the gaps between progress callbacks
    /// (they run on the master thread, which is this one), bracketed by
    /// the time to the first cycle and the time after the last.
    fn traced_pass(&mut self, tracer: &Tracer) -> TracedPass {
        let stamps: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(self.cycles as usize));
        let on_progress = |_: RunProgress| {
            stamps
                .lock()
                .expect("progress callback panicked")
                .push(tracer.now());
        };
        let control = RunControl::new().with_progress(&on_progress);
        let start = tracer.now();
        let result = self
            .runtime
            .run_controlled(&self.spec(self.cycles), &control);
        let end = tracer.now();

        let root = tracer.record("runtime.run", None, start, end);
        let stamps = stamps.into_inner().expect("progress callback panicked");
        let mut previous = start;
        for (i, &stamp) in stamps.iter().enumerate() {
            let name = if i == 0 {
                "runtime.to_first_cycle"
            } else {
                "runtime.cycle"
            };
            tracer.record(name, Some(root), previous, stamp);
            previous = stamp;
        }
        tracer.record("runtime.after_last_cycle", Some(root), previous, end);

        let wall = (end - start) as f64 * 1e-9;
        // A failed run (counted below) has no phase timings: all zero.
        let stats = result.as_ref().map(|r| r.stats.clone()).unwrap_or_default();
        let (simulate, decode) = phase_split(&stats.phases);
        let shares = Shares {
            simulate: simulate / wall,
            decode: decode / wall,
            orchestrate: (wall - simulate - decode) / wall,
        };
        let seconds = |d: Duration| Json::Num(d.as_secs_f64());
        let counters = Json::obj([
            ("cycles", Json::int(stamps.len() as u64)),
            (
                "escalations",
                Json::int(stats.shards.iter().map(|s| s.escalations).sum()),
            ),
            ("decode_batches", Json::int(stats.decode.batches)),
            ("decode_jobs", Json::int(stats.decode.jobs)),
            ("packets_sent", Json::int(stats.packets_sent)),
            ("wire_bytes", Json::int(stats.wire_bytes)),
            ("phase_cycles_s", seconds(stats.phases.cycles)),
            ("phase_decode_s", seconds(stats.phases.decode)),
            ("phase_logical_s", seconds(stats.phases.logical)),
            ("phase_readout_s", seconds(stats.phases.readout)),
        ]);
        let mut ops = self.check_against_first(result.ok().map(|r| r.report));
        ops.check(stamps.len() as u64 == self.cycles);
        TracedPass {
            wall_s: wall,
            shares,
            ops,
            counters,
        }
    }

    /// The sharded runtime must equal the single-threaded reference
    /// system, on a cycle-reduced copy of the spec (the reference runs
    /// one tableau over all tiles and is several times slower).
    fn deep_checks(&mut self) -> Ops {
        let spec = self.spec((self.cycles / 10).max(1));
        let sharded = self.runtime.run(&spec).map(|r| r.report);
        let reference = run_reference(&spec);
        let mut ops = Ops::default();
        ops.check(matches!((sharded, reference), (Ok(a), Ok(b)) if a == b));
        ops
    }

    fn simulated_stats(&self) -> Json {
        let report = self
            .runtime
            .run(&self.spec(self.cycles))
            .expect("the benchmark's runtime spec is valid")
            .report;
        run_report_stats(&report)
    }
}
