//! Checkpoint/resume determinism pins.
//!
//! The contract under test: a [`RunSnapshot`] taken at any QECC-cycle
//! barrier, resumed on a fresh `Runtime`, produces a `RunReport` —
//! outcomes, bus ledger, decode cost, recovery counters, everything —
//! bit-identical to the uninterrupted run. The pin kills a faulted run
//! at *every* cycle k, at shard counts 1/2/4, and diffs full reports.

use quest_runtime::{
    CancelToken, CheckpointSink, FaultPlan, RunControl, RunProgress, RunSnapshot, Runtime,
    RuntimeError, ShardPanicPlan, WorkloadSpec,
};

const CYCLES: u64 = 10;

/// A noisy spec with every recoverable fault class armed: link
/// drops/corruptions (retransmission), MCE stalls (quarantine) and one
/// scheduled decode-worker kill (supervisor respawn).
fn faulted_spec(shards: usize) -> WorkloadSpec {
    // Distance 5 at 2e-2: noisy enough that local decoders escalate
    // (the decode pool has real work) within a handful of cycles.
    let mut spec = WorkloadSpec::memory(5, 4, shards, 2e-2, 20260808, CYCLES);
    spec.faults = FaultPlan {
        drop_rate: 0.05,
        corrupt_rate: 0.05,
        stall_rate: 0.03,
        quarantine_cycles: 2,
        kill_decode_worker_after_jobs: Some(3),
        ..FaultPlan::none()
    };
    spec
}

/// Runs `spec` with per-cycle checkpointing, cancelling at cycle `k`,
/// and returns the snapshot taken at that exact cycle.
fn run_killed_at(rt: &Runtime, spec: &WorkloadSpec, k: u64) -> RunSnapshot {
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
    let err = rt.run_controlled(spec, &control).unwrap_err();
    assert_eq!(err, RuntimeError::Cancelled { cycles_done: k });
    let snap = sink.take().expect("a checkpoint must exist at cycle k");
    assert_eq!(snap.cycles_done(), k);
    snap
}

#[test]
fn killing_at_every_cycle_and_resuming_is_bit_identical() {
    for shards in [1, 2, 4] {
        let spec = faulted_spec(shards);
        let rt = Runtime::new();
        let baseline = rt.run(&spec).unwrap();
        assert!(
            !baseline.recovery.is_quiet(),
            "the plan must actually inject faults for this pin to mean anything"
        );
        for k in 1..=CYCLES {
            let snap = run_killed_at(&rt, &spec, k);
            let resumed = rt.resume(&snap, &RunControl::new()).unwrap();
            assert_eq!(
                resumed.report, baseline.report,
                "resume diverged (shards={shards}, killed at cycle {k})"
            );
            assert_eq!(
                resumed.stats.decode.jobs, baseline.stats.decode.jobs,
                "pool job totals must include the pre-snapshot baseline"
            );
        }
    }
}

#[test]
fn decode_worker_kill_replays_across_the_snapshot_boundary() {
    // Arm the kill on the very first escalation batch so the drill is
    // guaranteed to fire. Killing the run both before and after that
    // point must leave death/respawn counters identical to the
    // uninterrupted run's.
    let mut spec = faulted_spec(2);
    spec.faults.kill_decode_worker_after_jobs = Some(1);
    let rt = Runtime::new();
    let baseline = rt.run(&spec).unwrap();
    assert_eq!(
        baseline.recovery.decode_worker_deaths, 1,
        "the drill must fire within {CYCLES} cycles"
    );
    for k in [1, CYCLES] {
        let snap = run_killed_at(&rt, &spec, k);
        let resumed = rt.resume(&snap, &RunControl::new()).unwrap();
        assert_eq!(resumed.report.recovery, baseline.report.recovery, "k={k}");
    }
}

#[test]
fn checkpointing_is_a_pure_observer() {
    let spec = faulted_spec(2);
    let rt = Runtime::new();
    let plain = rt.run(&spec).unwrap();
    let sink = CheckpointSink::every(1);
    let observed = rt
        .run_controlled(&spec, &RunControl::new().with_checkpoints(&sink))
        .unwrap();
    assert_eq!(
        observed.report, plain.report,
        "a checkpointed run must report bit-identically to an unobserved one"
    );
    assert_eq!(observed.stats.decode.jobs, plain.stats.decode.jobs);
    let last = sink.take().expect("final-cycle checkpoint");
    assert_eq!(last.cycles_done(), CYCLES);
}

#[test]
fn forced_checkpoints_fire_at_the_next_barrier() {
    let spec = faulted_spec(1);
    let rt = Runtime::new();
    let sink = CheckpointSink::every(0); // forced-only
    let observer = sink.clone();
    let callback = move |p: RunProgress| {
        if p.cycles_done == 4 {
            observer.force();
        }
    };
    let control = RunControl::new()
        .with_progress(&callback)
        .with_checkpoints(&sink);
    let full = rt.run_controlled(&spec, &control).unwrap();
    let snap = sink.take().expect("the forced checkpoint");
    assert_eq!(snap.cycles_done(), 5, "force lands at the next barrier");
    // Resuming a snapshot of a run that succeeded anyway re-derives the
    // same tail.
    let resumed = rt.resume(&snap, &RunControl::new()).unwrap();
    assert_eq!(resumed.report, full.report);
}

#[test]
fn shard_panic_disarmed_resume_matches_the_clean_run() {
    for shards in [2, 4] {
        let mut spec = faulted_spec(shards);
        spec.faults.shard_panic = Some(ShardPanicPlan {
            shard: shards - 1,
            after_cycles: 6,
        });
        let rt = Runtime::new();
        let sink = CheckpointSink::every(1);
        let control = RunControl::new().with_checkpoints(&sink);
        let err = rt.run_controlled(&spec, &control).unwrap_err();
        assert!(matches!(err, RuntimeError::ShardFailed { .. }), "{err:?}");
        let mut snap = sink.take().expect("pre-panic checkpoint");
        assert_eq!(snap.cycles_done(), 6, "latest barrier before the panic");
        snap.disarm_shard_panic();
        let resumed = rt.resume(&snap, &RunControl::new()).unwrap();
        // Pre-panic cycles are unaffected by an armed-but-unfired plan,
        // so the resumed run must equal a clean run of the disarmed
        // spec — the invariant the serve retry supervisor leans on.
        let mut clean = spec.clone();
        clean.faults.shard_panic = None;
        let expected = rt.run(&clean).unwrap();
        assert_eq!(resumed.report, expected.report, "shards={shards}");
    }
}

#[test]
fn undisarmed_snapshot_refires_the_same_fault() {
    let mut spec = faulted_spec(2);
    spec.faults.shard_panic = Some(ShardPanicPlan {
        shard: 0,
        after_cycles: 5,
    });
    let rt = Runtime::new();
    let sink = CheckpointSink::every(1);
    let err = rt
        .run_controlled(&spec, &RunControl::new().with_checkpoints(&sink))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::ShardFailed { shard: 0, .. }));
    let snap = sink.take().expect("pre-panic checkpoint");
    let err = rt.resume(&snap, &RunControl::new()).unwrap_err();
    assert!(
        matches!(err, RuntimeError::ShardFailed { shard: 0, .. }),
        "an armed fault must replay deterministically: {err:?}"
    );
}

#[test]
fn resume_composes_across_multiple_kills() {
    let spec = faulted_spec(2);
    let rt = Runtime::new();
    let baseline = rt.run(&spec).unwrap();
    let snap3 = run_killed_at(&rt, &spec, 3);
    // Kill the resumed run too, checkpointing on an even cadence.
    let sink = CheckpointSink::every(2);
    let token = CancelToken::new();
    let trip = token.clone();
    let callback = move |p: RunProgress| {
        if p.cycles_done == 7 {
            trip.cancel();
        }
    };
    let control = RunControl::new()
        .with_cancel(&token)
        .with_progress(&callback)
        .with_checkpoints(&sink);
    let err = rt.resume(&snap3, &control).unwrap_err();
    assert_eq!(err, RuntimeError::Cancelled { cycles_done: 7 });
    let snap6 = sink.take().expect("cadence-2 checkpoint");
    assert_eq!(snap6.cycles_done(), 6);
    let resumed = rt.resume(&snap6, &RunControl::new()).unwrap();
    assert_eq!(
        resumed.report, baseline.report,
        "snapshot-of-a-resumed-run must still converge to the baseline"
    );
}
