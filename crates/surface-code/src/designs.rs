//! Syndrome-design descriptors.
//!
//! The paper evaluates four error-syndrome designs (§7, Table 2): a
//! Shor-style syndrome (14 instructions per qubit per QECC cycle), a
//! Steane-style syndrome (9 instructions), and the optimized SC-17 and
//! SC-13 codes of Tomita & Svore with 17- and 13-qubit unit cells. The
//! descriptor carries everything the microarchitecture model needs: the
//! syndrome-generation circuit depth, the spatially repeating unit-cell
//! size (Fowler's 25-qubit cell for the classic surface code), and the
//! total µop program length of one unit-cell QECC cycle (Table 2).

use std::fmt;

/// Parameters of one quantum-error-correction syndrome design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyndromeDesign {
    /// Human-readable name.
    pub name: &'static str,
    /// Instructions per qubit in one QECC cycle (syndrome-generation
    /// circuit depth, including preparation and measurement).
    pub cycle_depth: usize,
    /// Number of qubits in the spatially repeating unit cell.
    pub unit_cell_qubits: usize,
    /// Total µops in the unit-cell microcode program (Table 2).
    pub microcode_uops: usize,
}

impl SyndromeDesign {
    /// Steane-style syndrome: 9 instructions per qubit per cycle on the
    /// classic 25-qubit (5×5) Fowler unit cell; 148-µop program.
    pub const STEANE: SyndromeDesign = SyndromeDesign {
        name: "Steane",
        cycle_depth: 9,
        unit_cell_qubits: 25,
        microcode_uops: 148,
    };

    /// Shor-style syndrome: 14 instructions per qubit per cycle; 300-µop
    /// program.
    pub const SHOR: SyndromeDesign = SyndromeDesign {
        name: "Shor",
        cycle_depth: 14,
        unit_cell_qubits: 25,
        microcode_uops: 300,
    };

    /// Tomita–Svore SC-17: 17-qubit unit cell, depth-8 cycle, 136-µop
    /// program.
    pub const SC17: SyndromeDesign = SyndromeDesign {
        name: "SC-17",
        cycle_depth: 8,
        unit_cell_qubits: 17,
        microcode_uops: 136,
    };

    /// Tomita–Svore SC-13: 13-qubit unit cell, depth-7 cycle, 147-µop
    /// program (the unit cell needs extra padding slots; Table 2).
    pub const SC13: SyndromeDesign = SyndromeDesign {
        name: "SC-13",
        cycle_depth: 7,
        unit_cell_qubits: 13,
        microcode_uops: 147,
    };

    /// The four designs evaluated in the paper, in Table 2 order.
    pub const ALL: [SyndromeDesign; 4] = [
        SyndromeDesign::STEANE,
        SyndromeDesign::SHOR,
        SyndromeDesign::SC17,
        SyndromeDesign::SC13,
    ];

    /// Duration of one full QECC cycle given per-instruction latency.
    pub fn cycle_time_s(&self, instruction_latency_s: f64) -> f64 {
        self.cycle_depth as f64 * instruction_latency_s
    }
}

impl fmt::Display for SyndromeDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (depth {}, {}-qubit cell, {} µops)",
            self.name, self.cycle_depth, self.unit_cell_qubits, self.microcode_uops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_program_lengths() {
        assert_eq!(SyndromeDesign::STEANE.microcode_uops, 148);
        assert_eq!(SyndromeDesign::SHOR.microcode_uops, 300);
        assert_eq!(SyndromeDesign::SC17.microcode_uops, 136);
        assert_eq!(SyndromeDesign::SC13.microcode_uops, 147);
    }

    #[test]
    fn paper_cycle_depths() {
        // §7: Shor needs 14 instructions per qubit, Steane 9.
        assert_eq!(SyndromeDesign::SHOR.cycle_depth, 14);
        assert_eq!(SyndromeDesign::STEANE.cycle_depth, 9);
    }

    #[test]
    fn cycle_time_scales_with_depth() {
        let t = 10e-9;
        assert!(SyndromeDesign::SHOR.cycle_time_s(t) > SyndromeDesign::STEANE.cycle_time_s(t));
        assert_eq!(SyndromeDesign::SC17.cycle_time_s(t), 8.0 * t);
    }

    #[test]
    fn all_designs_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            SyndromeDesign::ALL.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 4);
    }
}
