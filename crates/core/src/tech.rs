//! Technology parameters (Table 1 of the paper).
//!
//! Three superconducting-qubit parameter sets are evaluated:
//! `Experimental_S` (measured devices, Tomita & Svore), `Projected_F`
//! (Fowler's projections) and `Projected_D` (DiVincenzo's projections).

use quest_isa::MicroOp;
use std::fmt;

/// Qubit-technology timing parameters in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyParams {
    /// Parameter-set name.
    pub name: &'static str,
    /// State-preparation latency.
    pub t_prep: f64,
    /// Single-qubit gate latency.
    pub t_single: f64,
    /// Measurement latency.
    pub t_meas: f64,
    /// CNOT latency.
    pub t_cnot: f64,
    /// One full error-correction round.
    pub t_ecc_round: f64,
}

impl TechnologyParams {
    /// Measured superconducting devices (Table 1, `Experimental_S`).
    pub const EXPERIMENTAL_S: TechnologyParams = TechnologyParams {
        name: "Experimental_S",
        t_prep: 1e-6,
        t_single: 25e-9,
        t_meas: 1e-6,
        t_cnot: 100e-9,
        t_ecc_round: 2.42e-6,
    };

    /// Fowler projections (Table 1, `Projected_F`).
    pub const PROJECTED_F: TechnologyParams = TechnologyParams {
        name: "Projected_F",
        t_prep: 40e-9,
        t_single: 10e-9,
        t_meas: 35e-9,
        t_cnot: 80e-9,
        t_ecc_round: 405e-9,
    };

    /// DiVincenzo projections (Table 1, `Projected_D`).
    pub const PROJECTED_D: TechnologyParams = TechnologyParams {
        name: "Projected_D",
        t_prep: 40e-9,
        t_single: 5e-9,
        t_meas: 35e-9,
        t_cnot: 20e-9,
        t_ecc_round: 165e-9,
    };

    /// The three parameter sets in Table-1 order.
    pub const ALL: [TechnologyParams; 3] = [
        TechnologyParams::EXPERIMENTAL_S,
        TechnologyParams::PROJECTED_F,
        TechnologyParams::PROJECTED_D,
    ];

    /// The shortest instruction slot in the QECC cycle — the window within
    /// which the microcode pipeline must re-latch every qubit's µop (§4.5).
    pub fn min_slot(&self) -> f64 {
        self.t_single
            .min(self.t_cnot)
            .min(self.t_prep)
            .min(self.t_meas)
    }
}

impl fmt::Display for TechnologyParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Substrate operating rate assumed throughout the paper (§2.2, §3.3):
/// superconducting qubits operated at 100 MHz, i.e. one byte-sized physical
/// instruction per qubit per 10 ns.
pub const QUBIT_OP_RATE_HZ: f64 = 100e6;

/// Baseline software-managed instruction bandwidth for `n` physical qubits
/// in bytes/second: every qubit receives a byte-sized instruction
/// ([`MicroOp::ENCODED_BYTES`]) at the substrate operating rate (100 MB/s
/// per qubit).
pub fn baseline_bandwidth_bytes_per_s(n_physical_qubits: f64) -> f64 {
    n_physical_qubits * QUBIT_OP_RATE_HZ * MicroOp::ENCODED_BYTES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let e = TechnologyParams::EXPERIMENTAL_S;
        assert_eq!(e.t_single, 25e-9);
        assert_eq!(e.t_cnot, 100e-9);
        assert_eq!(e.t_ecc_round, 2.42e-6);
        let d = TechnologyParams::PROJECTED_D;
        assert_eq!(d.t_single, 5e-9);
        assert_eq!(d.t_cnot, 20e-9);
        assert_eq!(d.t_ecc_round, 165e-9);
    }

    #[test]
    fn min_slot_is_single_qubit_gate_for_all_sets() {
        for t in TechnologyParams::ALL {
            assert_eq!(t.min_slot(), t.t_single, "{t}");
        }
    }

    #[test]
    fn paper_headline_bandwidth_examples() {
        // §3.3: one qubit at 100 MHz needs 100 MB/s.
        assert_eq!(baseline_bandwidth_bytes_per_s(1.0), 100e6);
        // §3.3: 100,000 qubits need 10 TB/s.
        assert_eq!(baseline_bandwidth_bytes_per_s(1e5), 1e13);
    }
}
