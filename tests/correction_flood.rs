//! A shard runs its whole grant through its own escalations: it applies
//! the corrections they ask for as they arrive and never waits for one.
//! Here one op makes shard 1 owe more corrections than a channel of the
//! runtime holds (`CHANNEL_BOUND` envelopes), so a down channel that
//! could fill while its shard blocks upstream would hang this test (a
//! worker that leaves its corrections queued until the grant ends does,
//! at this many cycles); the run must finish, and equal the
//! single-threaded reference and the lock-stepped run (a grant per
//! cycle).

use quest::runtime::{run_reference, CheckpointSink, RunControl, Runtime, WorkloadSpec};

/// `quest_runtime::shard::CHANNEL_BOUND`, which is private.
const CHANNEL_BOUND: u64 = 1024;

#[test]
fn a_flood_of_corrections_in_one_op_equals_the_reference_and_lock_step() {
    let spec = WorkloadSpec::memory(5, 8, 2, 5e-2, 20261015, 6000);
    let free = Runtime::new().run(&spec).unwrap();
    let owed = free.stats.shards[1].escalations;
    assert!(
        owed > CHANNEL_BOUND,
        "shard 1 must owe more corrections than a channel holds, owed {owed}"
    );
    assert_eq!(free.report, run_reference(&spec).unwrap());
    let sink = CheckpointSink::every(0);
    let control = RunControl::new().with_checkpoints(&sink);
    let lock_step = Runtime::new().run_controlled(&spec, &control).unwrap();
    assert_eq!(free.report, lock_step.report);
}
