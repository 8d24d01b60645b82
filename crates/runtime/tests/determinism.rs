//! Acceptance: for a fixed master seed, the concurrent runtime produces
//! a bit-identical unified [`RunReport`] — logical outcomes, per-class
//! bus ledger, decode counters, master stats — at shard counts 1, 2 and
//! 4, all matching the single-threaded `MultiTileSystem` reference.

use quest_core::{DeliveryMode, Traffic};
use quest_isa::{InstrClass, LogicalInstr, LogicalProgram, LogicalQubit};
use quest_runtime::{
    run_reference, DecoderChoice, Runtime, RuntimeReport, WorkloadSpec, TABLE_DECODER_MAX_DISTANCE,
};

fn run_at(spec: &WorkloadSpec, shards: usize) -> RuntimeReport {
    let spec = WorkloadSpec {
        shards,
        ..spec.clone()
    };
    Runtime::new().run(&spec).unwrap()
}

fn assert_matches_reference(spec: &WorkloadSpec) {
    let reference = run_reference(spec).unwrap();
    for shards in [1, 2, 4] {
        let report = run_at(spec, shards);
        // The whole unified report must match bit-for-bit: outcomes,
        // per-class bus bytes, cycle and decode counters, master stats.
        assert_eq!(
            report.report, reference,
            "unified report diverged at {shards} shards (seed {})",
            spec.seed
        );
        for class in Traffic::ALL {
            assert_eq!(
                report.bus_bytes_of(class),
                reference.bus_bytes_of(class),
                "traffic class {class} diverged at {shards} shards"
            );
        }
    }
}

fn distillation_program() -> LogicalProgram {
    let mut p = LogicalProgram::new();
    for i in 0..6u8 {
        p.push(
            LogicalInstr::H(LogicalQubit(i % 4)),
            InstrClass::Algorithmic,
        );
    }
    for _ in 0..40 {
        p.push(LogicalInstr::T(LogicalQubit(0)), InstrClass::Distillation);
    }
    p
}

#[test]
fn noisy_memory_matches_reference_at_1_2_4_shards() {
    for seed in [1, 7, 42] {
        assert_matches_reference(&WorkloadSpec::memory(3, 8, 1, 4e-3, seed, 25));
    }
}

#[test]
fn bell_pair_workload_matches_reference_at_1_2_4_shards() {
    for seed in [3, 19] {
        assert_matches_reference(&WorkloadSpec::bell_pairs(3, 8, 1, 2e-3, seed, 10).unwrap());
    }
}

#[test]
fn delivery_workloads_match_reference_at_1_2_4_shards() {
    // The Figure-14 experiment, sharded: every delivery mode's full bus
    // ledger survives the message path bit-identically.
    let program = distillation_program();
    for mode in DeliveryMode::ALL {
        let spec = WorkloadSpec::delivery_memory(3, 8, 1, 3e-3, 13, 15, &program, 25, mode);
        assert_matches_reference(&spec);
    }
}

#[test]
fn every_decoder_backend_matches_reference_at_1_2_4_shards() {
    // Tentpole acceptance: the determinism guarantee holds per backend.
    // Each backend's unified report — including its decode-cost ledger —
    // must be bit-identical across shard counts and match the reference.
    // d=5 at a heavy rate so global decodes actually happen; the table
    // backend is infeasible above d=5 and is exercised right at its cap.
    for decoder in DecoderChoice::ALL {
        let mut spec = WorkloadSpec::memory(5, 4, 1, 2e-2, 11, 20);
        spec.decoder = decoder;
        assert!(spec.distance <= TABLE_DECODER_MAX_DISTANCE);
        let reference = run_reference(&spec).unwrap();
        assert!(
            reference.escalations > 0,
            "{decoder}: no escalations; the backend never decoded"
        );
        assert_matches_reference(&spec);
    }
}

#[test]
fn runtime_is_deterministic_across_repeats() {
    let spec = WorkloadSpec::memory(3, 8, 4, 4e-3, 99, 25);
    let a = Runtime::new().run(&spec).unwrap();
    let b = Runtime::new().run(&spec).unwrap();
    assert_eq!(a.report, b.report);
}

#[test]
fn escalations_survive_the_message_path() {
    // At a heavy error rate the workload must actually exercise the
    // escalation → batch decode → correction path, otherwise the parity
    // assertions above prove nothing. Distance 5: the d=3 lookup table
    // resolves essentially every single-round pattern locally.
    let spec = WorkloadSpec::memory(5, 8, 4, 2e-2, 5, 25);
    let report = Runtime::new().run(&spec).unwrap();
    assert!(
        report.stats.decode.jobs > 0,
        "workload produced no escalations; raise the error rate"
    );
    assert!(report.escalations > 0 && report.local_decodes > 0);
    assert_matches_reference(&spec);
}
