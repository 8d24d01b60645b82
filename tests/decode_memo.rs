//! A `Runtime` keeps the global decodes of a code distance: an
//! escalation it has decoded before — same decoder, stabilizer kind and
//! event list — is answered from its memo, and the kept decode's modeled
//! cost is replayed into the run's ledger. Nothing of it may show in a
//! report. Here escalation-heavy memory and Bell runs at d = 3 and 5, for
//! every decoder and at 1, 2 and 4 shards, are run on a fresh runtime,
//! twice on a reused one (the second run answers every escalation from
//! the memo) and on the reference executor, and every `RunReport` —
//! `decode_cost` included — must be the same; so must the recovery of a
//! scheduled decode-worker kill, and runs on two threads at once over
//! clones of one runtime, which read and add to the same memo.

use quest::runtime::{
    run_reference, DecoderChoice, FaultPlan, Runtime, RuntimeReport, WorkloadSpec,
};

const SEED: u64 = 20_171_018;
const TILES: usize = 8;
const ERROR_RATE: f64 = 2e-2;

fn memory(d: usize, decoder: DecoderChoice, cycles: u64) -> WorkloadSpec {
    WorkloadSpec {
        decoder,
        ..WorkloadSpec::memory(d, TILES, 1, ERROR_RATE, SEED + d as u64, cycles)
    }
}

fn bell(d: usize, decoder: DecoderChoice) -> WorkloadSpec {
    WorkloadSpec {
        decoder,
        ..WorkloadSpec::bell_pairs(d, TILES, 1, ERROR_RATE, SEED ^ d as u64, 150)
            .expect("even tiles")
    }
}

/// Every escalation of the run was answered from the memo.
fn all_hits(report: &RuntimeReport) -> bool {
    report.stats.decode.memo_hits == report.stats.decode.jobs
}

#[test]
fn cold_warm_and_reference_runs_report_alike() {
    let reused = Runtime::new();
    for decoder in DecoderChoice::ALL {
        for d in [3, 5] {
            for spec in [memory(d, decoder, 200), bell(d, decoder)] {
                let reference = run_reference(&spec).unwrap();
                if d == 5 {
                    assert!(reference.escalations > 15, "{spec:?} barely escalates");
                }
                for shards in [1, 2, 4] {
                    let spec = WorkloadSpec {
                        shards,
                        ..spec.clone()
                    };
                    let context = format!("{decoder}, d={d}, shards={shards}: {spec:?}");
                    let cold = Runtime::new().run(&spec).unwrap();
                    let first = reused.run(&spec).unwrap();
                    let warm = reused.run(&spec).unwrap();
                    assert!(all_hits(&warm), "{context}");
                    for report in [&cold, &first, &warm] {
                        assert_eq!(report.report, reference, "{context}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_decode_worker_killed_on_a_warm_runtime_recovers_as_on_a_cold_one() {
    let reused = Runtime::new();
    for shards in [1, 2, 4] {
        let spec = WorkloadSpec {
            shards,
            faults: FaultPlan {
                kill_decode_worker_after_jobs: Some(10),
                ..FaultPlan::none()
            },
            ..memory(5, DecoderChoice::PipelinedUf, 200)
        };
        let cold = Runtime::new().run(&spec).unwrap();
        assert_eq!(cold.recovery.decode_worker_deaths, 1, "the kill must fire");
        reused.run(&spec).unwrap();
        let warm = reused.run(&spec).unwrap();
        assert!(all_hits(&warm), "shards={shards}");
        assert_eq!(warm.recovery, cold.recovery, "shards={shards}");
        assert_eq!(warm.report, cold.report, "shards={shards}");
    }
}

#[test]
fn concurrent_runs_on_clones_of_one_runtime_share_the_memo() {
    let specs: Vec<WorkloadSpec> = DecoderChoice::ALL
        .into_iter()
        .map(|decoder| memory(5, decoder, 200))
        .collect();
    let references: Vec<_> = specs.iter().map(|s| run_reference(s).unwrap()).collect();
    let runtime = Runtime::new();
    // The first pass fills the memo from both threads at once, often
    // with the same escalations; the second finds every one kept.
    for warm in [false, true] {
        std::thread::scope(|scope| {
            for shards in [1, 2] {
                let (runtime, specs, references) = (runtime.clone(), &specs, &references);
                scope.spawn(move || {
                    for (spec, reference) in specs.iter().zip(references) {
                        let spec = WorkloadSpec {
                            shards,
                            ..spec.clone()
                        };
                        let context = format!("warm={warm}, shards={shards}: {spec:?}");
                        let report = runtime.run(&spec).unwrap();
                        assert!(report.stats.decode.jobs > 15, "{context}");
                        assert_eq!(report.report, *reference, "{context}");
                        if warm {
                            assert!(all_hits(&report), "{context}");
                        }
                    }
                });
            }
        });
    }
}
