//! Parametric resource model for Shor's factoring algorithm (Figure 2).
//!
//! Follows the structure of the Fowler et al. appendix-M estimate the
//! paper cites: an `n`-bit modular exponentiation on `2n + 2` logical
//! qubits dominated by Toffoli gates (≈ `40·n³`), each decomposed into
//! seven T gates. Wide modular adders expose Toffoli-level parallelism
//! that grows with `n`, so the magic-state consumption rate — and with it
//! the T-factory block — scales with the modulus width. Factories are
//! modelled as compact pipelined blocks (`16` logical qubits per level).
//!
//! Calibration target (§1/Figure 2): at `p = 10⁻⁴`, factoring a 1024-bit
//! modulus needs millions of physical qubits and a baseline instruction
//! bandwidth on the order of 100 TB/s.

use crate::distance::qure_distance;
use crate::distillation::{levels_needed, INSTRS_PER_LEVEL};
use crate::workloads::Workload;

/// Fowler-style constants for the modular-exponentiation circuit.
pub mod constants {
    /// Logical qubits for the algorithm proper (`2n + 2`).
    pub fn logical_qubits(n_bits: u32) -> f64 {
        2.0 * n_bits as f64 + 2.0
    }

    /// Toffoli count `≈ 40·n³`.
    pub fn toffoli_count(n_bits: u32) -> f64 {
        40.0 * (n_bits as f64).powi(3)
    }

    /// T gates per Toffoli.
    pub const T_PER_TOFFOLI: f64 = 7.0;

    /// Clifford gates per Toffoli (CNOT/H/S fabric around the T's).
    pub const CLIFFORD_PER_TOFFOLI: f64 = 16.0;

    /// Physical qubits per logical qubit per `d²` (Fowler appendix M): a
    /// distance-`d` patch takes `PHYS_PER_LOGICAL · d²` physical qubits.
    /// Every footprint of the estimator reads it.
    pub const PHYS_PER_LOGICAL: f64 = 12.5;

    /// Toffoli-level parallelism of the wide modular adders: `n/64`
    /// parallel T consumers, floor of 2.5 for narrow instances.
    pub fn parallelism(n_bits: u32) -> f64 {
        (n_bits as f64 / 64.0).max(2.5)
    }

    /// Logical qubits per distillation-factory level (compact pipelined
    /// block).
    pub const FACTORY_QUBITS_PER_LEVEL: f64 = 16.0;
}

/// Fully sized Shor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShorEstimate {
    /// Modulus width in bits.
    pub n_bits: u32,
    /// Physical error rate assumed.
    pub p: f64,
    /// Code distance.
    pub distance: usize,
    /// Algorithmic logical qubits.
    pub logical_qubits: f64,
    /// Total logical gates (Cliffords + T).
    pub logical_gates: f64,
    /// T-gate count.
    pub t_count: f64,
    /// Distillation recursion levels.
    pub distillation_levels: u32,
    /// Parallel T-factories.
    pub factories: f64,
    /// Total physical qubits (algorithm + factories).
    pub physical_qubits: f64,
}

impl ShorEstimate {
    /// Sizes an `n_bits` factoring instance at physical error rate `p`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` is zero or `p` is not below threshold.
    pub fn new(n_bits: u32, p: f64) -> ShorEstimate {
        assert!(n_bits > 0, "modulus width must be positive");
        let logical_qubits = constants::logical_qubits(n_bits);
        let toffolis = constants::toffoli_count(n_bits);
        let t_count = toffolis * constants::T_PER_TOFFOLI;
        let cliffords = toffolis * constants::CLIFFORD_PER_TOFFOLI;
        let logical_gates = t_count + cliffords;

        let d = qure_distance(p);

        // Distillation: a level takes ~10 logical steps; to feed
        // `parallelism × t_fraction` magic states per step the pipeline
        // needs `rate × 10 × levels` factory instances.
        let p_in = (10.0 * p).min(0.1);
        let levels = levels_needed(p_in, 0.5 / t_count).max(1);
        let t_rate = (t_count / logical_gates) * constants::parallelism(n_bits);
        let factories = (t_rate * 10.0 * levels as f64).max(1.0);
        let factory_logical = factories * constants::FACTORY_QUBITS_PER_LEVEL * levels as f64;

        let total_logical = logical_qubits + factory_logical;
        let physical_qubits = total_logical * constants::PHYS_PER_LOGICAL * (d * d) as f64;

        ShorEstimate {
            n_bits,
            p,
            distance: d,
            logical_qubits,
            logical_gates,
            t_count,
            distillation_levels: levels,
            factories,
            physical_qubits,
        }
    }

    /// Baseline (software-managed QECC) instruction bandwidth in bytes/s:
    /// one byte-sized instruction per physical qubit at the 100 MHz
    /// substrate rate (§3.3).
    pub fn baseline_bandwidth(&self) -> f64 {
        quest_core::tech::baseline_bandwidth_bytes_per_s(self.physical_qubits)
    }

    /// Logical instructions expended per distilled magic state.
    pub fn distillation_instrs_per_state(&self) -> f64 {
        let mut instrs = 0.0;
        let mut rounds = 1.0;
        for _ in 0..self.distillation_levels {
            instrs += rounds * INSTRS_PER_LEVEL;
            rounds *= 15.0;
        }
        instrs
    }

    /// This instance as a [`Workload`] catalog entry.
    pub fn as_workload(&self) -> Workload {
        Workload {
            name: "SHOR",
            description: "Shor factoring (parametric)",
            logical_qubits: self.logical_qubits,
            logical_gates: self.logical_gates,
            t_fraction: self.t_count / self.logical_gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_moduli_need_more_of_everything() {
        let s128 = ShorEstimate::new(128, 1e-4);
        let s1024 = ShorEstimate::new(1024, 1e-4);
        assert!(s1024.logical_qubits > s128.logical_qubits);
        assert!(s1024.t_count > 100.0 * s128.t_count);
        assert!(s1024.factories > s128.factories);
        assert!(
            s1024.physical_qubits > 4.0 * s128.physical_qubits,
            "{} vs {}",
            s1024.physical_qubits,
            s128.physical_qubits
        );
    }

    #[test]
    fn shor_1024_is_millions_of_qubits_and_terabytes_per_second() {
        // §1/Figure 2: factoring 1024-bit needs millions of qubits and
        // ~100 TB/s of instruction bandwidth. Accept the right order of
        // magnitude.
        let s = ShorEstimate::new(1024, 1e-4);
        assert!(
            (1e6..1e8).contains(&s.physical_qubits),
            "physical qubits {}",
            s.physical_qubits
        );
        let tb_s = s.baseline_bandwidth() / 1e12;
        assert!((50.0..2000.0).contains(&tb_s), "{tb_s} TB/s");
    }

    #[test]
    fn bandwidth_scales_linearly_with_qubits() {
        let s = ShorEstimate::new(512, 1e-4);
        assert_eq!(s.baseline_bandwidth(), s.physical_qubits * 100e6);
    }

    #[test]
    fn lower_error_rate_shrinks_footprint() {
        let coarse = ShorEstimate::new(512, 1e-3);
        let fine = ShorEstimate::new(512, 1e-5);
        assert!(fine.distance < coarse.distance);
        assert!(fine.physical_qubits < coarse.physical_qubits);
    }

    #[test]
    fn sweep_is_monotone() {
        // Figure 2's x-axis: qubits grow monotonically with modulus width.
        let mut last = 0.0;
        for n in [128u32, 256, 512, 768, 1024] {
            let s = ShorEstimate::new(n, 1e-4);
            assert!(s.physical_qubits > last, "n = {n}");
            last = s.physical_qubits;
        }
    }

    #[test]
    fn workload_conversion_keeps_t_fraction() {
        let s = ShorEstimate::new(256, 1e-4);
        let w = s.as_workload();
        assert!((w.t_fraction - 7.0 / 23.0).abs() < 1e-9);
    }

    #[test]
    fn distillation_depth_is_two_levels_at_paper_operating_point() {
        let s = ShorEstimate::new(1024, 1e-4);
        assert_eq!(s.distillation_levels, 2);
        assert!((s.distillation_instrs_per_state() - 2400.0).abs() < 1.0);
    }
}
