//! State-vector validation of the magic-state T-gadget.
//!
//! The architecture consumes distilled magic states via gate
//! teleportation: with an ancilla in `|A⟩ = (|0⟩ + e^{iπ/4}|1⟩)/√2`, a
//! CNOT from the data qubit and a measurement of the ancilla implement a
//! T gate up to a classically-controlled S correction. This is the
//! physical content of the ISA's `MagicInject`/`T` pair and the reason
//! T gates need one magic state each (§5.2).

mod reference_statevector;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reference_statevector::StateVector;

/// Prepares a non-trivial single-qubit state on qubit `q`.
fn prepare_test_state(sv: &mut StateVector, q: usize) {
    sv.h(q);
    sv.t(q);
    sv.h(q);
    sv.s(q);
}

/// Runs the T-gadget on qubit 0 with ancilla qubit 1, returning the
/// post-gadget single-qubit state (ancilla measured out).
fn run_gadget(seed: u64) -> (StateVector, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sv = StateVector::new(2);
    prepare_test_state(&mut sv, 0);
    // Magic ancilla |A⟩ = T H |0⟩.
    sv.h(1);
    sv.t(1);
    // Gadget: CNOT(data → ancilla), measure ancilla, S correction on 1.
    sv.cnot(0, 1);
    let m = sv.measure(1, &mut rng);
    if m {
        sv.s(0);
    }
    (sv, m)
}

/// Reference: the same input state with a direct T gate.
fn reference() -> StateVector {
    let mut sv = StateVector::new(2);
    prepare_test_state(&mut sv, 0);
    sv.t(0);
    sv
}

#[test]
fn t_gadget_implements_t_in_both_branches() {
    let target = reference();
    let mut saw = [false, false];
    for seed in 0..32 {
        let (got, m) = run_gadget(seed);
        saw[m as usize] = true;
        // Compare on the data qubit: fidelity with the reference (the
        // measured ancilla is |0⟩ or |1⟩; rebuild the reference with the
        // matching ancilla value).
        let mut reference_full = target.clone();
        if m {
            reference_full.x(1);
        }
        let f = got.fidelity(&reference_full);
        assert!(
            (f - 1.0).abs() < 1e-9,
            "branch m={m}: fidelity {f} (global phase aside, the gadget must equal T)"
        );
    }
    assert!(saw[0] && saw[1], "both measurement branches must occur");
}

#[test]
fn gadget_without_correction_is_wrong_in_the_one_branch() {
    // Drop the S correction: the m=1 branch must then disagree with T.
    let target = reference();
    let mut checked = false;
    for seed in 0..32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sv = StateVector::new(2);
        prepare_test_state(&mut sv, 0);
        sv.h(1);
        sv.t(1);
        sv.cnot(0, 1);
        let m = sv.measure(1, &mut rng);
        if !m {
            continue;
        }
        let mut reference_full = target.clone();
        reference_full.x(1);
        let f = sv.fidelity(&reference_full);
        assert!(f < 0.999, "uncorrected m=1 branch looked like T (f = {f})");
        checked = true;
    }
    assert!(checked, "never sampled the m=1 branch");
}

#[test]
fn two_gadgets_compose_to_s() {
    // T·T = S: run the gadget twice and compare with a direct S.
    let mut expected = StateVector::new(3);
    prepare_test_state(&mut expected, 0);
    expected.s(0);

    'seeds: for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let mut sv = StateVector::new(3);
        prepare_test_state(&mut sv, 0);
        for anc in [1usize, 2] {
            sv.h(anc);
            sv.t(anc);
            sv.cnot(0, anc);
            let m = sv.measure(anc, &mut rng);
            if m {
                sv.s(0);
            }
            // Reset measured ancilla to |0⟩ for comparison.
            if m {
                sv.x(anc);
            }
        }
        let f = sv.fidelity(&expected);
        assert!((f - 1.0).abs() < 1e-9, "seed {seed}: fidelity {f}");
        continue 'seeds;
    }
}
