//! Smoke test of the substrate from the top: a transversal CNOT merges
//! the blocks of its two tiles, in the reference system and in the
//! shard workers alike, and nothing a run reports may show it; and the
//! blocks do serve their tiles' cycles from tapes, so that what the
//! benchmark times is the fast path and not its fallback.
//!
//! (The exhaustive pins live in the member crates —
//! `crates/stabilizer/tests/{tableau,frame_block}_differential.rs`,
//! `crates/core/tests/substrate_equivalence.rs`,
//! `crates/runtime/tests/{determinism,checkpoint_resume}.rs` — which
//! tier-1 does not run.)

use quest::arch::tile::tile_seed;
use quest::arch::MultiTileSystem;
use quest::runtime::{
    run_reference, CancelToken, CheckpointSink, DecoderChoice, FaultPlan, RunControl, RunProgress,
    Runtime, RuntimeError, RuntimeReport, WorkloadOp, WorkloadSpec,
};
use quest::stabilizer::{SeedableRng, StdRng};

const CYCLES: u64 = 40;

/// Two Bell pairs at d = 5, noisy enough that escalations flow.
fn bell(shards: usize) -> WorkloadSpec {
    WorkloadSpec::bell_pairs(5, 4, shards, 2e-2, 20170914, CYCLES).expect("even tile count")
}

#[test]
fn sharded_bell_pairs_match_the_reference() {
    let reference = run_reference(&bell(1)).unwrap();
    assert!(reference.escalations > 0, "the decode path must be live");
    for shards in [1, 2] {
        let report = Runtime::new().run(&bell(shards)).unwrap();
        assert_eq!(report.report, reference, "shards={shards}");
    }
}

#[test]
fn resume_across_a_join_is_bit_identical() {
    let spec = bell(2);
    let runtime = Runtime::new();
    let baseline = runtime.run(&spec).unwrap();
    // The CNOTs sit between cycle 1 and cycle 2: a snapshot at cycle 1
    // holds four single-tile blocks and the resumed run joins them; one
    // at cycle 3 carries the joined blocks and the re-based MCEs.
    for k in [1, 3] {
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
            runtime.run_controlled(&spec, &control).unwrap_err(),
            RuntimeError::Cancelled { cycles_done: k }
        );
        let snapshot = sink.take().expect("a checkpoint at the kill cycle");
        assert_eq!(snapshot.cycles_done(), k);
        let resumed = runtime.resume(&snapshot, &RunControl::new()).unwrap();
        assert_eq!(resumed.report, baseline.report, "killed at cycle {k}");
    }
}

/// Drives `spec` through the reference system as `run_reference` does
/// and returns, per tile, how many cycles its block served from a tape:
/// up to the last CNOT, and in all.
fn replayed_cycles(spec: &WorkloadSpec) -> (Vec<u64>, Vec<u64>) {
    let mut sys = MultiTileSystem::new(spec.distance, spec.tiles, spec.error_rate).unwrap();
    let mut rngs: Vec<StdRng> = (0..spec.tiles as u64)
        .map(|t| StdRng::seed_from_u64(tile_seed(spec.seed, t)))
        .collect();
    let replayed =
        |sys: &MultiTileSystem| (0..spec.tiles).map(|t| sys.replayed_cycles(t)).collect();
    let mut at_last_cnot = vec![0; spec.tiles];
    for op in &spec.ops {
        match *op {
            WorkloadOp::Prep { tile, basis } => sys.prep_logical(tile, basis, &mut rngs[tile]),
            WorkloadOp::Cycles(n) => {
                for _ in 0..n {
                    sys.run_noisy_cycle_streams(&mut rngs);
                }
            }
            WorkloadOp::Cnot { control, target } => {
                sys.transversal_cnot(control, target, &mut rngs[control])
                    .unwrap();
                at_last_cnot = replayed(&sys);
            }
            // The readouts come last and replay nothing.
            WorkloadOp::MeasureZ { .. } => break,
            ref other => panic!("not part of these workloads: {other:?}"),
        }
    }
    (at_last_cnot, replayed(&sys))
}

#[test]
fn tiles_are_served_from_their_tapes() {
    // The shape of the benchmark's `runtime_cycles` workload: a tile's
    // first three cycles run on the reference tableau (the projection,
    // then two that must repeat), every later one on the tape.
    let memory = WorkloadSpec::memory(5, 2, 1, 2e-2, 20170914, 50);
    let (_, replayed) = replayed_cycles(&memory);
    assert!(replayed.iter().all(|&n| n >= 46), "of 50: {replayed:?}");

    // A join drops the tapes of both blocks; the joined block records
    // one per tile and locks them again.
    let (before, after) = replayed_cycles(&bell(1));
    for (tile, (before, after)) in before.iter().zip(&after).enumerate() {
        let since = after - before;
        assert!(
            since >= 30,
            "tile {tile}: {since} of {CYCLES} since the CNOT"
        );
    }
}

#[test]
fn resume_while_every_block_replays_is_bit_identical() {
    // A checkpoint carries reference and frame and no tape: the resumed
    // blocks start over on their references and lock again. Ten cycles
    // in, every block of this workload is replaying.
    let until = |cycles| WorkloadSpec::memory(5, 4, 2, 2e-2, 20170914, cycles);
    let (_, replayed) = replayed_cycles(&until(10));
    assert!(replayed.iter().all(|&n| n >= 5), "{replayed:?}");

    let spec = until(30);
    let runtime = Runtime::new();
    let baseline = runtime.run(&spec).unwrap();
    let sink = CheckpointSink::every(1);
    let token = CancelToken::new();
    let trip = token.clone();
    let callback = move |p: RunProgress| {
        if p.cycles_done == 10 {
            trip.cancel();
        }
    };
    let control = RunControl::new()
        .with_cancel(&token)
        .with_progress(&callback)
        .with_checkpoints(&sink);
    assert_eq!(
        runtime.run_controlled(&spec, &control).unwrap_err(),
        RuntimeError::Cancelled { cycles_done: 10 }
    );
    let snapshot = sink.take().expect("a checkpoint at the kill cycle");
    let resumed = runtime.resume(&snapshot, &RunControl::new()).unwrap();
    assert_eq!(resumed.report, baseline.report);
    assert_eq!(resumed.report, run_reference(&until(30)).unwrap());
}

/// Runs `spec` free (each threaded shard on one grant per `Cycles` op)
/// and under a sink that never fires (one cycle per grant: the
/// lock-step the runtime had before grants, through the same code).
fn free_and_lock_step(spec: &WorkloadSpec) -> [RuntimeReport; 2] {
    let runtime = Runtime::new();
    let sink = CheckpointSink::every(0);
    let control = RunControl::new().with_checkpoints(&sink);
    let free = runtime.run(spec).unwrap();
    let lock_step = runtime.run_controlled(spec, &control).unwrap();
    // What tells the two apart is the traffic: past shard 0 (which the
    // master drives itself, a cycle at a time) a free shard is sent one
    // grant per cycle op, a lock-stepped one a grant per cycle.
    let cycle_ops = spec
        .ops
        .iter()
        .filter(|op| matches!(op, WorkloadOp::Cycles(n) if *n > 0))
        .count() as u64;
    let shards = free.stats.shards.iter().zip(&lock_step.stats.shards);
    for (a, b) in shards.skip(1) {
        assert_eq!(
            b.downstream_messages - a.downstream_messages,
            spec.total_cycles() - cycle_ops,
            "shard {}",
            a.shard
        );
    }
    [free, lock_step]
}

/// `workload(shards)` under every decoder, free and lock-step, at each
/// shard count: all of it must equal the reference executor's report.
fn equals_reference_everywhere(workload: &dyn Fn(usize) -> WorkloadSpec, shard_counts: &[usize]) {
    for decoder in DecoderChoice::ALL {
        let with_decoder = |shards| WorkloadSpec {
            decoder,
            ..workload(shards)
        };
        let reference = run_reference(&with_decoder(1)).unwrap();
        assert!(reference.escalations > 0, "the decode path must be live");
        for &shards in shard_counts {
            let [free, lock_step] = free_and_lock_step(&with_decoder(shards));
            assert_eq!(free.report, reference, "{decoder}, shards={shards}");
            assert_eq!(lock_step.report, reference, "{decoder}, shards={shards}");
        }
    }
}

#[test]
fn free_running_shards_equal_lock_step() {
    let memory = |shards| WorkloadSpec::memory(5, 8, shards, 2e-2, 20170914, 120);
    equals_reference_everywhere(&memory, &[1, 2, 4]);
    equals_reference_everywhere(&bell, &[1, 2]);

    // Under faults there is no reference executor: every shard count,
    // free and lock-step, must tell the same story, recoveries included.
    let faulty = |shards| WorkloadSpec {
        faults: FaultPlan {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            stall_rate: 0.01,
            quarantine_cycles: 3,
            kill_decode_worker_after_jobs: Some(3),
            ..FaultPlan::none()
        },
        ..memory(shards)
    };
    let [baseline, _] = free_and_lock_step(&faulty(1));
    assert!(baseline.recovery.retransmissions > 0, "faults must fire");
    assert_eq!(baseline.stats.decode.deaths, 1, "the kill must fire");
    for shards in [1, 2, 4] {
        for run in free_and_lock_step(&faulty(shards)) {
            assert_eq!(run.report, baseline.report, "faulty, shards={shards}");
        }
    }
}
