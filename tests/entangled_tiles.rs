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
    run_reference, CancelToken, CheckpointSink, RunControl, RunProgress, Runtime, RuntimeError,
    WorkloadOp, WorkloadSpec,
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
