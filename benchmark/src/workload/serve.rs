//! `serve_mix`: a burst of short jobs through the job server. Jobs last
//! milliseconds, so per-run shard and pool spawn, teardown, the
//! per-cycle barrier on small tiles, admission, the bounded queue and
//! event streaming carry weight here that they do not in
//! `runtime_cycles`; it is also the only place all four decoder
//! backends run inside the runtime.

use super::runtime::{phase_split, run_report_stats};
use super::{Ops, Scale, Shares, TracedPass, Workload};
use crate::json::Json;
use crate::trace::{SpanId, Tracer};
use quest_runtime::{DecoderChoice, RunReport, Runtime, RuntimeReport, WorkloadSpec};
use quest_serve::{JobOutcome, Server, ServerConfig, TenantId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// More than the default 64-deep queue, so the generator blocks in the
/// queue's `push_wait` and backpressure is on the measured path.
const JOBS: u64 = 400;
const TENANTS: u32 = 3;
const WORKERS: usize = 2;
const TILES: usize = 4;

pub struct ServeMix {
    specs: Vec<WorkloadSpec>,
    /// The first pass's reports; every later pass must reproduce them.
    first: Option<Vec<Option<RunReport>>>,
}

/// Job `i` of the mix. Seven of eight have the `quest-cli submit`
/// default shape at a rate where some rounds escalate; every eighth is
/// a larger, longer tile. Decoders rotate over the backends feasible at
/// each distance.
fn job_spec(seed: u64, i: u64) -> WorkloadSpec {
    let job_seed = seed.wrapping_add(i);
    let (mut spec, third) = if i % 8 == 7 {
        (
            WorkloadSpec::memory(5, TILES, 1, 1e-2, job_seed, 60),
            DecoderChoice::Exact,
        )
    } else {
        (
            WorkloadSpec::memory(3, TILES, 1, 5e-3, job_seed, 30),
            DecoderChoice::Table,
        )
    };
    spec.decoder = [DecoderChoice::UnionFind, DecoderChoice::PipelinedUf, third][(i % 3) as usize];
    spec
}

fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_workers(WORKERS)
        .with_runtime(Runtime::new().with_decode_workers(1))
}

/// What one burst produced, for the checks and the shares.
struct Burst {
    wall: Duration,
    reports: Vec<Option<RuntimeReport>>,
    drained: bool,
    jobs_done: u64,
    queue_p50: Duration,
    run_p50: Duration,
}

impl ServeMix {
    pub fn new(seed: u64, scale: Scale) -> ServeMix {
        ServeMix {
            specs: (0..scale.of(JOBS)).map(|i| job_spec(seed, i)).collect(),
            first: None,
        }
    }

    /// Starts a server, bursts every job at it from this one thread with
    /// blocking submits, waits for all of them, and drains. A closed
    /// loop of one client that only waits after its whole burst is out.
    fn burst(&self, tracer: &Tracer, root: Option<SpanId>) -> Burst {
        let started = Instant::now();
        let server = tracer.span("serve.start", root, |_| Server::start(server_config()));
        let handles: Vec<_> = tracer.span("serve.submit_burst", root, |burst| {
            self.specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    tracer.span("serve.submit", Some(burst), |_| {
                        server.submit(TenantId(i as u32 % TENANTS), spec.clone())
                    })
                })
                .collect()
        });
        let reports: Vec<Option<RuntimeReport>> = tracer.span("serve.wait_all", root, |wait| {
            handles
                .into_iter()
                .map(|handle| {
                    tracer.span("serve.wait", Some(wait), |_| match handle.ok()?.wait() {
                        JobOutcome::Done(report) => Some(*report),
                        _ => None,
                    })
                })
                .collect()
        });
        let drained = server.outstanding() == (0, 0);
        let ledger = tracer.span("serve.shutdown", root, |_| server.shutdown());
        let tenant0 = ledger.tenant(TenantId(0));
        Burst {
            wall: started.elapsed(),
            reports,
            drained,
            jobs_done: ledger.jobs_done(),
            queue_p50: tenant0.map_or(Duration::ZERO, |t| t.queue_latency.p50),
            run_p50: tenant0.map_or(Duration::ZERO, |t| t.run_latency.p50),
        }
    }

    /// Every job `Done` with one outcome per tile and the same report as
    /// in the first pass, and no reservation left after the drain.
    fn check(&mut self, burst: &Burst) -> Ops {
        let reports = burst.reports.iter().map(|r| r.as_ref().map(|r| &r.report));
        let all_done = burst.drained && burst.jobs_done == self.specs.len() as u64;
        let first = self
            .first
            .get_or_insert_with(|| reports.clone().map(Option::<&RunReport>::cloned).collect());
        let mut ops = Ops::default();
        for (report, first) in reports.zip(first.iter()) {
            let complete = report.is_some_and(|r| r.outcomes.len() == TILES);
            ops.check(all_done && complete && report == first.as_ref());
        }
        ops
    }
}

impl Workload for ServeMix {
    fn work_per_pass(&self) -> u64 {
        self.specs.len() as u64
    }

    fn setup_reps(&self) -> usize {
        25
    }

    /// `Server::start` plus building and validating the job specs.
    fn setup_once(&self) -> f64 {
        let started = Instant::now();
        let server = Server::start(server_config());
        let seed = self.specs[0].seed;
        for i in 0..self.specs.len() as u64 {
            job_spec(seed, i)
                .validate()
                .expect("the benchmark's job specs are valid");
        }
        let elapsed = started.elapsed().as_secs_f64();
        drop(server);
        elapsed
    }

    fn pass(&mut self) -> Ops {
        let burst = self.burst(&Tracer::off(), None);
        self.check(&burst)
    }

    /// Spans sit on this, the client's, thread: start, every submit
    /// (long ones waited for a queue slot), every wait, the drain. What
    /// the workers did comes back in each job's report: the runtime's
    /// phase timers, summed and set against the workers' capacity
    /// (workers × pass wall), give the shares.
    fn traced_pass(&mut self, tracer: &Tracer) -> TracedPass {
        let root = tracer.open("serve.pass", None);
        let burst = self.burst(tracer, Some(root));
        tracer.close(root);
        let ops = self.check(&burst);

        let wall = burst.wall.as_secs_f64();
        let capacity = wall * WORKERS as f64;
        let (mut simulate, mut decode, mut escalations) = (0.0, 0.0, 0);
        for report in burst.reports.iter().flatten() {
            let (s, d) = phase_split(&report.stats.phases);
            simulate += s;
            decode += d;
            escalations += report.report.escalations;
        }
        TracedPass {
            wall_s: wall,
            shares: Shares {
                simulate: simulate / capacity,
                decode: decode / capacity,
                orchestrate: (capacity - simulate - decode) / capacity,
            },
            ops,
            counters: Json::obj([
                ("jobs_done", Json::int(burst.jobs_done)),
                ("escalations", Json::int(escalations)),
                ("worker_capacity_s", Json::Num(capacity)),
                ("phase_simulate_s", Json::Num(simulate)),
                ("phase_decode_s", Json::Num(decode)),
                (
                    "tenant0_queue_p50_s",
                    Json::Num(burst.queue_p50.as_secs_f64()),
                ),
                ("tenant0_run_p50_s", Json::Num(burst.run_p50.as_secs_f64())),
            ]),
        }
    }

    /// Serving must not change a job: every tenth job's served report
    /// equals a solo `Runtime::run` of its spec.
    fn deep_checks(&mut self) -> Ops {
        let runtime = Runtime::new().with_decode_workers(1);
        let mut ops = Ops::default();
        let first = self.first.clone().unwrap_or_default();
        for (i, spec) in self.specs.iter().enumerate().step_by(10) {
            let solo = runtime.run(spec).map(|r| r.report).ok();
            ops.check(solo.is_some() && Some(&solo) == first.get(i));
        }
        ops
    }

    fn simulated_stats(&self) -> Json {
        let burst = self.burst(&Tracer::off(), None);
        // Totals per decoder backend plus every job's readout bits: the
        // served reports are a pure function of the job specs.
        let mut by_decoder: BTreeMap<&'static str, [u64; 5]> = BTreeMap::new();
        let mut outcomes = String::new();
        for (spec, report) in self.specs.iter().zip(&burst.reports) {
            let report = &report
                .as_ref()
                .expect("a benchmark job did not finish")
                .report;
            let totals = by_decoder.entry(spec.decoder.name()).or_default();
            totals[0] += 1;
            totals[1] += report.escalations;
            totals[2] += report.bus_bytes();
            totals[3] += report.decode_cost.cycles;
            totals[4] += report.decode_cost.fallback_decodes;
            outcomes.extend(
                report
                    .outcomes
                    .iter()
                    .map(|&(_, v)| if v { '1' } else { '0' }),
            );
        }
        let by_decoder = by_decoder.into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("jobs", Json::int(t[0])),
                    ("escalations", Json::int(t[1])),
                    ("bus_bytes", Json::int(t[2])),
                    ("decode_cycles", Json::int(t[3])),
                    ("fallback_decodes", Json::int(t[4])),
                ]),
            )
        });
        let first_job = burst.reports[0]
            .as_ref()
            .map(|r| run_report_stats(&r.report));
        Json::obj([
            ("jobs", Json::int(self.specs.len() as u64)),
            ("outcomes", Json::str(outcomes)),
            ("by_decoder", Json::obj(by_decoder)),
            ("first_job", first_job.unwrap_or(Json::Null)),
        ])
    }
}
