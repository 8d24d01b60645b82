//! A `Runtime` keeps what every run of a code distance shares: one
//! template MCE, and the warm-up trails its runs' fresh tiles follow
//! instead of running their first cycles on a tableau. Nothing of it may
//! show in a report. One runtime is reused here over a mixed sequence —
//! memory and Bell workloads, `|0⟩` and `|+⟩` preparations, d = 3, 5, 7,
//! shards 1/2/4, every decoder, noise from 0 to 5e-2, runs shorter than a
//! trail and longer, link faults, a checkpoint and a resume — and every
//! report must equal a fresh runtime's and the reference executor's.
//!
//! The sequence also has to show that the warm path ran: once a distance
//! has a trail, every tile-cycle of a memory run is served by a kernel —
//! the trail's, then the one its last cycle locked — without touching a
//! reference tableau.

use quest::runtime::{
    run_reference, CancelToken, CheckpointSink, DecoderChoice, FaultPlan, LogicalBasis, RunControl,
    RunProgress, Runtime, RuntimeError, RuntimeReport, WorkloadOp, WorkloadSpec,
    TABLE_DECODER_MAX_DISTANCE,
};

const SEED: u64 = 20_171_014;
const TILES: usize = 4;

fn memory(d: usize, shards: usize, p: f64, cycles: u64, decoder: DecoderChoice) -> WorkloadSpec {
    WorkloadSpec {
        decoder,
        ..WorkloadSpec::memory(d, TILES, shards, p, SEED + cycles, cycles)
    }
}

/// A memory run whose tiles are prepared in `|+_L⟩`: its fresh tiles
/// start from another reference, so they lay or follow another trail.
fn plus_memory(d: usize, shards: usize, p: f64, cycles: u64) -> WorkloadSpec {
    let mut spec = memory(d, shards, p, cycles, DecoderChoice::default());
    for op in &mut spec.ops {
        if let WorkloadOp::Prep { basis, .. } = op {
            *basis = LogicalBasis::Plus;
        }
    }
    spec
}

fn bell(d: usize, shards: usize, p: f64, cycles: u64, decoder: DecoderChoice) -> WorkloadSpec {
    WorkloadSpec {
        decoder,
        ..WorkloadSpec::bell_pairs(d, TILES, shards, p, SEED ^ cycles, cycles).expect("even tiles")
    }
}

/// Tile-cycles a run's tiles were served by a kernel, without touching a
/// reference tableau.
fn replayed(report: &RuntimeReport) -> u64 {
    report
        .stats
        .shards
        .iter()
        .map(|s| s.replayed_tile_cycles)
        .sum()
}

/// Readouts a run's tiles served from the exit of the trail they
/// followed, without touching a reference tableau.
fn served(report: &RuntimeReport) -> u64 {
    report.stats.shards.iter().map(|s| s.served_readouts).sum()
}

/// One spec of the sequence and whether, on a runtime that has run the
/// distance's trail-laying runs already, all of its tile-cycles must be
/// replayed.
struct Step {
    spec: WorkloadSpec,
    all_replayed: bool,
}

/// The sequence at one distance: a Bell run first, then a `|+⟩` memory
/// run that lays that trail, then the `|0⟩` run that lays the other;
/// every run after that follows one or the other.
fn sequence(d: usize) -> Vec<Step> {
    let decoders: Vec<DecoderChoice> = DecoderChoice::ALL
        .into_iter()
        .filter(|&c| c != DecoderChoice::Table || d <= TABLE_DECODER_MAX_DISTANCE)
        .collect();
    let laying = |spec| Step {
        spec,
        all_replayed: false,
    };
    let warm = |spec| Step {
        spec,
        all_replayed: true,
    };
    let mut steps = vec![
        laying(bell(d, 1, 1e-2, 12, DecoderChoice::default())),
        laying(plus_memory(d, 2, 5e-3, 10)),
        laying(memory(d, 1, 0.0, 30, DecoderChoice::default())),
    ];
    let rates = [0.0, 1e-3, 1e-2, 5e-2];
    let cycles = [1, 2, 3, 30];
    for (k, &decoder) in decoders.iter().enumerate() {
        // The exact matcher is priced for sparse rounds.
        let p = if decoder == DecoderChoice::Exact {
            1e-2
        } else {
            rates[k]
        };
        steps.push(warm(memory(d, [1, 2, 4][k % 3], p, cycles[k], decoder)));
        steps.push(laying(bell(d, 2, 2e-2, 8, decoder)));
    }
    steps.push(warm(plus_memory(d, 4, 1e-2, 2)));
    steps.push(warm(plus_memory(d, 1, 2e-2, 20)));
    steps
}

#[test]
fn a_reused_runtime_reports_what_a_fresh_one_and_the_reference_do() {
    let reused = Runtime::new();
    for d in [3, 5, 7] {
        for (i, Step { spec, all_replayed }) in sequence(d).iter().enumerate() {
            let context = format!("d={d}, step {i}: {spec:?}");
            let warm = reused.run(spec).unwrap();
            let fresh = Runtime::new().run(spec).unwrap();
            assert_eq!(warm.report, fresh.report, "{context}");
            assert_eq!(warm.report, run_reference(spec).unwrap(), "{context}");
            let tile_cycles = TILES as u64 * spec.total_cycles();
            if *all_replayed {
                assert_eq!(replayed(&warm), tile_cycles, "{context}");
            }
            // A fresh runtime lays the trails its tiles start on before
            // dispatch, so they replay what a reused runtime's do.
            assert_eq!(replayed(&fresh), replayed(&warm), "{context}");
        }
    }
}

#[test]
fn a_reused_runtime_recovers_and_resumes_as_a_fresh_one_does() {
    let reused = Runtime::new();
    // Lays the trail.
    reused
        .run(&memory(5, 2, 0.0, 6, DecoderChoice::default()))
        .unwrap();

    // Link faults: retransmissions, the same on both.
    let faulty = WorkloadSpec {
        faults: FaultPlan {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            max_retries: 8,
            ..FaultPlan::none()
        },
        ..memory(5, 2, 2e-2, 30, DecoderChoice::PipelinedUf)
    };
    let warm = reused.run(&faulty).unwrap();
    let fresh = Runtime::new().run(&faulty).unwrap();
    assert!(warm.recovery.retransmissions > 0, "faults must fire");
    assert_eq!(warm.report, fresh.report);
    assert_eq!(replayed(&warm), TILES as u64 * 30);

    // A checkpoint taken while the tiles are still on their trail (cycle
    // 2) and one past it (cycle 7), each resumed on the same runtime.
    let spec = memory(5, 2, 2e-2, 30, DecoderChoice::UnionFind);
    let baseline = Runtime::new().run(&spec).unwrap();
    for k in [2, 7] {
        let sink = CheckpointSink::every(1);
        let token = CancelToken::new();
        let trip = token.clone();
        let callback = move |p: RunProgress| {
            if p.cycles_done == k {
                trip.cancel();
            }
        };
        let control = RunControl::new()
            .with_cancel(&token)
            .with_progress(&callback)
            .with_checkpoints(&sink);
        assert_eq!(
            reused.run_controlled(&spec, &control).unwrap_err(),
            RuntimeError::Cancelled { cycles_done: k }
        );
        let snapshot = sink.take().expect("a checkpoint at the kill cycle");
        let resumed = reused.resume(&snapshot, &RunControl::new()).unwrap();
        assert_eq!(resumed.report, baseline.report, "killed at cycle {k}");
    }
    assert_eq!(reused.run(&spec).unwrap().report, baseline.report);
}

#[test]
fn a_warm_runtime_serves_the_readouts_of_memory_runs_and_none_of_joined_tiles() {
    for shards in [1, 2, 4] {
        let reused = Runtime::new();
        let zero = memory(5, shards, 1e-2, 20, DecoderChoice::default());
        let plus = plus_memory(5, shards, 1e-2, 20);
        // The first run of a preparation lays its trail, and the second's
        // tiles follow it to its lock and record its exit there.
        for spec in [&zero, &plus, &zero, &plus] {
            reused.run(spec).unwrap();
        }
        let tiles = TILES.max(2 * shards);
        let joined = WorkloadSpec {
            decoder: DecoderChoice::UnionFind,
            ..WorkloadSpec::bell_pairs(5, tiles, shards, 1e-2, SEED, 20).expect("even tiles")
        };
        for (spec, readouts) in [(&zero, TILES), (&plus, TILES), (&joined, 0)] {
            let context = format!("shards {shards}: {spec:?}");
            let warm = reused.run(spec).unwrap();
            assert_eq!(
                warm.report,
                Runtime::new().run(spec).unwrap().report,
                "{context}"
            );
            assert_eq!(warm.report, run_reference(spec).unwrap(), "{context}");
            assert_eq!(served(&warm), readouts as u64, "{context}");
        }
    }
}

/// A run that reports, checked against the reference executor and
/// against a second run of the same spec on the same runtime, which
/// lays nothing ahead.
fn run_twice(runtime: &Runtime, spec: &WorkloadSpec, context: &str) -> RuntimeReport {
    let first = runtime.run(spec).unwrap();
    assert_eq!(first.report, run_reference(spec).unwrap(), "{context}");
    let second = runtime.run(spec).unwrap();
    assert_eq!(second.report, first.report, "{context}");
    assert_eq!(second.stats.trails_laid, 0, "{context}");
    first
}

#[test]
fn a_new_runtime_lays_its_trails_before_dispatch_and_follows_them_from_cycle_one() {
    const CYCLES: u64 = 12;
    let all = TILES as u64 * CYCLES;
    for d in [3, 5] {
        for shards in [1, 2, 4] {
            let context = format!("d={d}, shards {shards}");
            let zero = memory(d, shards, 1e-2, CYCLES, DecoderChoice::default());
            let plus = plus_memory(d, shards, 1e-2, CYCLES);

            // A new runtime's first memory run and its first |+⟩ one each
            // lay their preparation's trail and replay every tile-cycle.
            let runtime = Runtime::new();
            for spec in [&zero, &plus] {
                let first = run_twice(&runtime, spec, &context);
                assert_eq!(first.stats.trails_laid, 1, "{context}");
                assert_eq!(replayed(&first), all, "{context}");
            }

            // The benchmark's set-up pattern: a first run cancelled at its
            // first progress callback never reports, yet the next run
            // follows the trail it laid from cycle 1.
            let runtime = Runtime::new();
            let token = CancelToken::new();
            let trip = token.clone();
            let callback = move |_: RunProgress| trip.cancel();
            let control = RunControl::new()
                .with_cancel(&token)
                .with_progress(&callback);
            assert_eq!(
                runtime.run_controlled(&zero, &control).unwrap_err(),
                RuntimeError::Cancelled { cycles_done: 1 },
                "{context}"
            );
            let next = run_twice(&runtime, &zero, &context);
            assert_eq!(next.stats.trails_laid, 0, "{context}");
            assert_eq!(replayed(&next), all, "{context}");

            // Both halves of a Bell pair start from a lone preparation.
            let tiles = TILES.max(2 * shards);
            let pairs =
                WorkloadSpec::bell_pairs(d, tiles, shards, 1e-2, SEED, CYCLES).expect("even tiles");
            let first = run_twice(&Runtime::new(), &pairs, &context);
            assert_eq!(first.stats.trails_laid, 2, "{context}");

            // Tiles whose first op is not a lone `Prep`: a sync ahead of
            // it, none at all, and two. Only tile 3 starts from a lone
            // one, so one trail is laid ahead.
            let mut mixed = zero.clone();
            mixed.ops.retain(|op| {
                *op != WorkloadOp::Prep {
                    tile: 1,
                    basis: LogicalBasis::Zero,
                }
            });
            mixed.ops.insert(0, WorkloadOp::Sync { tile: 0 });
            mixed.ops.insert(
                3,
                WorkloadOp::Prep {
                    tile: 2,
                    basis: LogicalBasis::Plus,
                },
            );
            let first = run_twice(&Runtime::new(), &mixed, &context);
            assert_eq!(first.stats.trails_laid, 1, "{context}");

            // No tile starts from a lone `Prep`: nothing is laid ahead,
            // the tiles lay their trail in the run, and the runtime keeps
            // it when the run reports.
            let mut synced = zero.clone();
            for tile in 0..TILES {
                synced.ops.insert(0, WorkloadOp::Sync { tile });
            }
            let runtime = Runtime::new();
            let first = runtime.run(&synced).unwrap();
            assert_eq!(first.report, run_reference(&synced).unwrap(), "{context}");
            assert_eq!(first.stats.trails_laid, 0, "{context}");
            assert!(replayed(&first) < all, "{context}");
            let second = run_twice(&runtime, &synced, &context);
            assert_eq!(replayed(&second), all, "{context}");
        }
    }
}
