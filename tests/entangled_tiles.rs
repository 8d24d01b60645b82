//! Smoke test of the join path from the top: a transversal CNOT merges
//! the tableaus of its two tiles, in the reference system and in the
//! shard workers alike, and nothing a run reports may show it.
//!
//! (The exhaustive pins live in the member crates —
//! `crates/stabilizer/tests/tableau_differential.rs`,
//! `crates/core/tests/substrate_equivalence.rs`,
//! `crates/runtime/tests/{determinism,checkpoint_resume}.rs` — which
//! tier-1 does not run.)

use quest::runtime::{
    run_reference, CancelToken, CheckpointSink, RunControl, RunProgress, Runtime, RuntimeError,
    WorkloadSpec,
};

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
