//! Fault-tolerance integration: the complete QuEST machine (microcode
//! replay → execution unit → two-level decoding → Pauli frame) must
//! actually protect logical information, exactly as the standalone
//! memory-experiment harness does.

use quest::runtime::{run_reference, WorkloadSpec};
use quest::stabilizer::{SeedableRng, StdRng};
use quest::surface::{
    ExactMatchingDecoder, MemoryBasis, MemoryExperiment, MemoryNoise, UnionFindDecoder,
};

/// At a low error rate, the full system preserves logical |0> in nearly
/// every run; at p = 0 it always does.
#[test]
fn system_preserves_logical_zero() {
    let mut failures = 0;
    let shots = 30;
    for seed in 0..shots {
        let run = run_reference(&WorkloadSpec::memory(3, 1, 1, 1e-3, seed, 30)).unwrap();
        failures += (!run.logical_ok()) as u32;
    }
    assert!(
        failures <= 2,
        "{failures}/{shots} logical failures at p=1e-3"
    );
}

/// The system-level logical failure rate tracks the standalone memory
/// experiment within statistical noise (same physics, different plumbing).
#[test]
fn system_failure_rate_matches_memory_experiment() {
    let p = 8e-3;
    let shots = 150;
    let cycles = 3;

    let mut sys_failures = 0;
    for seed in 0..shots {
        let run = run_reference(&WorkloadSpec::memory(3, 1, 1, p, 1000 + seed, cycles)).unwrap();
        sys_failures += (!run.logical_ok()) as u32;
    }
    let sys_rate = sys_failures as f64 / shots as f64;

    let exp = MemoryExperiment::new(3, cycles as usize, MemoryBasis::Z);
    let noise = MemoryNoise {
        data: quest::stabilizer::PauliChannel::depolarizing(p),
        measurement_flip: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let exp_rate =
        exp.logical_error_rate(&noise, &UnionFindDecoder::new(), shots as usize, &mut rng);

    assert!(
        (sys_rate - exp_rate).abs() < 0.08,
        "system {sys_rate} vs experiment {exp_rate}"
    );
}

/// Union-find and exact matching agree on logical outcomes for moderate
/// noise at d = 3 (both correct all single errors; they may differ only
/// on multi-error shots).
#[test]
fn decoders_agree_on_suppression() {
    let noise = MemoryNoise::code_capacity(6e-3);
    let shots = 300;
    let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
    let mut rng = StdRng::seed_from_u64(31);
    let uf = exp.logical_error_rate(&noise, &UnionFindDecoder::new(), shots, &mut rng);
    let mut rng = StdRng::seed_from_u64(31);
    let ex = exp.logical_error_rate(&noise, &ExactMatchingDecoder::new(), shots, &mut rng);
    assert!(uf < 0.05, "union-find rate {uf}");
    assert!(ex < 0.05, "exact rate {ex}");
    assert!((uf - ex).abs() < 0.04, "uf {uf} vs exact {ex}");
}

/// Both memory bases are protected through the standalone harness at
/// realistic phenomenological noise.
#[test]
fn both_bases_suppress_at_low_noise() {
    for basis in [MemoryBasis::Z, MemoryBasis::X] {
        let exp = MemoryExperiment::new(3, 3, basis);
        let noise = MemoryNoise::phenomenological(1e-3);
        let mut rng = StdRng::seed_from_u64(55);
        let rate = exp.logical_error_rate(&noise, &UnionFindDecoder::new(), 200, &mut rng);
        assert!(rate < 0.03, "{basis:?}: rate {rate}");
    }
}
