//! Fault injection and recovery: the runtime's classical-fault layer is
//! deterministic, strictly optional, and panic-free.
//!
//! * An empty [`FaultPlan`] is a strict no-op: the report is
//!   bit-identical to the single-threaded fault-free reference at every
//!   shard count (property-tested over random specs).
//! * A faulty run is as reproducible as a clean one: same seed + same
//!   plan ⇒ bit-identical [`RunReport`] (ledger, outcomes, recovery
//!   counters) at shards 1/2/4.
//! * Faults touch the control plane only: the physics (outcomes, decode
//!   counters) of a faulty run equals the clean run's.
//! * Scheduled worker deaths are contained: a killed decode lane is
//!   rebuilt losing nothing; a panicking shard thread surfaces as a
//!   typed [`RuntimeError::ShardFailed`]; a hopeless link as
//!   [`RuntimeError::Link`]. No path panics the caller.
//!
//! Setting `QUEST_FAULT_HEAVY=1` (the CI fault-drill job does) scales
//! the injected rates and run lengths up.

use proptest::prelude::*;
use quest_core::Traffic;
use quest_runtime::{
    run_reference, FaultPlan, Runtime, RuntimeError, ShardPanicPlan, WorkloadSpec,
};

/// Heavier rates and longer runs under `QUEST_FAULT_HEAVY=1`.
fn heavy() -> bool {
    std::env::var_os("QUEST_FAULT_HEAVY").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The stock faulty profile used across these tests: every fault class
/// active at rates that fire plenty in a short run.
fn faulty_plan() -> FaultPlan {
    let scale = if heavy() { 2.0 } else { 1.0 };
    FaultPlan {
        drop_rate: 0.10 * scale,
        corrupt_rate: 0.15 * scale,
        stall_rate: 0.02 * scale,
        quarantine_cycles: 4,
        max_retries: 8,
        ..FaultPlan::none()
    }
}

fn cycles() -> u64 {
    if heavy() {
        60
    } else {
        30
    }
}

#[test]
fn faulty_runs_are_bit_identical_across_shard_counts() {
    let mut spec = WorkloadSpec::memory(5, 4, 1, 2e-2, 97, cycles());
    spec.faults = faulty_plan();
    let one = Runtime::new().run(&spec).unwrap();
    assert!(one.escalations > 0, "workload must produce bus traffic");
    assert!(
        one.recovery.retransmissions > 0,
        "profile must actually retransmit: {:?}",
        one.recovery
    );
    assert!(one.recovery.crc_corruptions > 0);
    assert!(one.recovery.dropped_packets > 0);
    for shards in [2, 4] {
        let sharded = Runtime::new()
            .run(&WorkloadSpec {
                shards,
                ..spec.clone()
            })
            .unwrap();
        assert_eq!(
            sharded.report, one.report,
            "faulty run diverged at {shards} shards"
        );
    }
}

#[test]
fn faults_touch_accounting_never_physics() {
    let mut spec = WorkloadSpec::memory(5, 4, 2, 2e-2, 41, cycles());
    let clean = Runtime::new().run(&spec).unwrap();
    spec.faults = faulty_plan();
    let faulty = Runtime::new().run(&spec).unwrap();

    assert_eq!(faulty.outcomes, clean.outcomes, "faults changed physics");
    assert_eq!(faulty.qecc_cycles, clean.qecc_cycles);
    assert_eq!(faulty.local_decodes, clean.local_decodes);
    assert_eq!(faulty.escalations, clean.escalations);
    // Only the retransmit class and (via degradation) the baseline QECC
    // class may differ from the clean ledger.
    for class in Traffic::ALL {
        match class {
            Traffic::Retransmit | Traffic::QeccInstructions => {}
            _ => assert_eq!(
                faulty.bus_bytes_of(class),
                clean.bus_bytes_of(class),
                "class {class} drifted under faults"
            ),
        }
    }
    assert_eq!(
        faulty.bus_bytes_of(Traffic::Retransmit),
        faulty.recovery.retransmitted_bytes,
        "ledger and recovery counters must agree on retransmitted bytes"
    );
    assert!(clean.recovery.is_quiet());
}

#[test]
fn degraded_tiles_pay_the_software_baseline_rate() {
    // A certain stall on cycle 0 quarantines every tile for the whole
    // run, so the QuEST-mode run pays exactly the software baseline's
    // per-tile-cycle QECC stream for each degraded tile-cycle.
    let tiles = 4;
    let run_cycles = 10;
    let mut spec = WorkloadSpec::memory(3, tiles, 2, 0.0, 7, run_cycles);
    spec.faults = FaultPlan {
        stall_rate: 1.0,
        quarantine_cycles: run_cycles,
        ..FaultPlan::none()
    };
    let degraded = Runtime::new().run(&spec).unwrap();
    assert_eq!(
        degraded.recovery.watchdog_timeouts, tiles as u64,
        "every tile stalls once"
    );
    assert_eq!(
        degraded.recovery.degraded_tile_cycles,
        tiles as u64 * run_cycles
    );

    // The software baseline run prices one tile-cycle of QECC stream.
    let baseline = Runtime::new()
        .run(&WorkloadSpec {
            delivery: quest_runtime::DeliveryMode::SoftwareBaseline,
            faults: FaultPlan::none(),
            ..spec.clone()
        })
        .unwrap();
    let per_tile_cycle =
        baseline.bus_bytes_of(Traffic::QeccInstructions) / (tiles as u64 * run_cycles);
    assert!(per_tile_cycle > 0);
    assert_eq!(
        degraded.bus_bytes_of(Traffic::QeccInstructions),
        degraded.recovery.degraded_tile_cycles * per_tile_cycle,
        "degradation must cost exactly the baseline stream"
    );
}

#[test]
fn killed_decode_worker_is_respawned_and_changes_nothing() {
    let mut spec = WorkloadSpec::memory(5, 4, 2, 2e-2, 23, cycles());
    let clean = Runtime::new().run(&spec).unwrap();
    assert!(
        clean.escalations > 0,
        "need escalations for the pool to have jobs"
    );
    spec.faults = FaultPlan {
        kill_decode_worker_after_jobs: Some(1),
        ..FaultPlan::none()
    };
    let survived = Runtime::new().run(&spec).unwrap();
    assert_eq!(survived.recovery.decode_worker_deaths, 1);
    assert_eq!(survived.recovery.decode_worker_respawns, 1);
    assert_eq!(survived.stats.decode.deaths, 1);
    // Identical physics and ledger: the respawn lost no corrections.
    assert_eq!(survived.outcomes, clean.outcomes);
    assert_eq!(survived.report.bus, clean.report.bus);
}

#[test]
fn shard_panic_is_a_typed_error_not_an_abort() {
    for shards in [1, 2] {
        let mut spec = WorkloadSpec::memory(3, 4, shards, 1e-3, 5, 10);
        spec.faults = FaultPlan {
            shard_panic: Some(ShardPanicPlan {
                shard: shards - 1,
                after_cycles: 3,
            }),
            ..FaultPlan::none()
        };
        let err = Runtime::new().run(&spec).unwrap_err();
        match err {
            RuntimeError::ShardFailed { shard, ref detail } => {
                assert_eq!(shard, shards - 1);
                assert!(detail.contains("injected"), "detail: {detail}");
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert!(!err.to_string().contains('\n'), "one-line diagnostic");
    }
}

#[test]
fn hopeless_link_fails_with_a_typed_error() {
    // Every packet drops and the budget is tiny: the first transfer
    // (the first escalated syndrome) must surface RuntimeError::Link.
    let mut spec = WorkloadSpec::memory(5, 2, 1, 2e-2, 13, 50);
    spec.faults = FaultPlan {
        drop_rate: 1.0,
        max_retries: 2,
        ..FaultPlan::none()
    };
    match Runtime::new().run(&spec).unwrap_err() {
        RuntimeError::Link(failure) => assert_eq!(failure.attempts, 3),
        other => panic!("expected Link, got {other:?}"),
    }
}

#[test]
fn reference_executor_refuses_fault_plans() {
    let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
    spec.faults = faulty_plan();
    assert_eq!(
        run_reference(&spec).unwrap_err(),
        RuntimeError::ReferenceFaults
    );
    // The runtime accepts the very same spec.
    assert!(Runtime::new().run(&spec).is_ok());
}

/// Golden counters for one pinned faulty configuration. These values
/// are a determinism contract, like the bench's byte counts: they must
/// never drift without an intentional change to the fault layer's roll
/// sequence or accounting.
#[test]
fn golden_faulty_run_is_pinned() {
    let mut spec = WorkloadSpec::memory(5, 4, 2, 2e-2, 1234, 60);
    spec.faults = FaultPlan {
        drop_rate: 0.15,
        corrupt_rate: 0.10,
        stall_rate: 0.02,
        quarantine_cycles: 5,
        max_retries: 8,
        ..FaultPlan::none()
    };
    let report = Runtime::new().run(&spec).unwrap();
    let golden = quest_runtime::RecoveryStats {
        crc_corruptions: 1,
        dropped_packets: 3,
        retransmissions: 4,
        retransmitted_bytes: 14,
        backoff_slots: 5,
        watchdog_timeouts: 2,
        degraded_tile_cycles: 12,
        decode_worker_deaths: 0,
        decode_worker_respawns: 0,
    };
    assert_eq!(report.recovery, golden, "golden recovery counters drifted");
    assert_eq!(
        report.bus_bytes_of(Traffic::Retransmit),
        golden.retransmitted_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Empty plan ⇒ strict no-op: random specs produce reports
    /// bit-identical to the fault-free reference at shards 1, 2 and 4.
    #[test]
    fn empty_plan_matches_reference_at_all_shard_counts(
        seed in any::<u64>(),
        noisy in any::<bool>(),
        run_cycles in 1u64..20,
    ) {
        let spec = WorkloadSpec::memory(
            3,
            4,
            1,
            if noisy { 5e-3 } else { 0.0 },
            seed,
            run_cycles,
        );
        prop_assert!(spec.faults.is_none());
        let reference = run_reference(&spec).unwrap();
        prop_assert!(reference.recovery.is_quiet());
        for shards in [1usize, 2, 4] {
            let report = Runtime::new()
                .run(&WorkloadSpec { shards, ..spec.clone() })
                .unwrap();
            prop_assert_eq!(
                &report.report,
                &reference,
                "empty-plan run diverged from reference at {} shards",
                shards
            );
        }
    }
}
