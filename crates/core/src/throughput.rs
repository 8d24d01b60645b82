//! MCE throughput and optimal microcode configuration (Figures 11 & 16,
//! Table 2).
//!
//! The number of qubits an MCE services is the lesser of two limits:
//!
//! * **capacity** — the microcode program must fit in the JJ memory. For
//!   the unit-cell design, the program is replicated into every bank so
//!   each channel can stream independently; a configuration is feasible
//!   only if one bank holds the whole unit-cell program.
//! * **bandwidth** — within the shortest instruction slot of the qubit
//!   technology, the memory must stream one µop per serviced qubit.
//!
//! The *optimal configuration* for a syndrome design (Table 2) is the
//! feasible 4 Kb configuration maximizing serviced qubits.
//!
//! Calibration note (documented deviation): the paper's Table 2 assigns
//! SC-17 the 8-channel configuration. A 512 b bank holds SC-17's 136-µop
//! program only with a 3-bit opcode encoding, which its reduced waveform
//! alphabet (7 waveforms: idle, two preparations, two measurements, two
//! CNOT halves) permits; the wider Steane/Shor/SC-13 alphabets need 4
//! bits. `opcode_bits` captures this per design.

use crate::jj::MemoryConfig;
use crate::microcode::{bandwidth_limited_qubits, MicrocodeDesign};
use crate::tech::TechnologyParams;
use quest_surface::SyndromeDesign;

/// Opcode width in bits for a syndrome design's waveform alphabet.
pub fn opcode_bits(design: &SyndromeDesign) -> f64 {
    if design.name == "SC-17" {
        3.0
    } else {
        4.0
    }
}

/// Returns `true` when the unit-cell program of `design` fits in one bank
/// of `config` (the replication requirement for independent channels).
pub fn program_fits(design: &SyndromeDesign, config: &MemoryConfig) -> bool {
    design.microcode_uops as f64 * opcode_bits(design) <= config.bank_bits() as f64
}

/// Qubits serviced per MCE by the unit-cell design under `config` for a
/// syndrome design and technology; zero when the program does not fit.
pub fn unit_cell_throughput(
    design: &SyndromeDesign,
    config: &MemoryConfig,
    tech: &TechnologyParams,
) -> usize {
    if !program_fits(design, config) {
        return 0;
    }
    bandwidth_limited_qubits(config, tech, opcode_bits(design))
}

/// The optimal 4 Kb configuration for a design/technology (Table 2):
/// the feasible configuration maximizing throughput.
pub fn optimal_config(design: &SyndromeDesign, tech: &TechnologyParams) -> MemoryConfig {
    // Fold instead of max_by_key so the nonempty sweep needs no expect;
    // `>=` keeps max_by_key's last-max-wins tie behavior (Table 2
    // depends on which tied configuration is reported).
    let sweep = MemoryConfig::four_kb_sweep();
    let first = sweep[0];
    sweep.into_iter().skip(1).fold(first, |best, c| {
        if unit_cell_throughput(design, &c, tech) >= unit_cell_throughput(design, &best, tech) {
            c
        } else {
            best
        }
    })
}

/// One row of the regenerated Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Syndrome design.
    pub design: SyndromeDesign,
    /// Optimal microcode configuration.
    pub config: MemoryConfig,
    /// JJ count of that configuration.
    pub jj_count: u64,
    /// Power dissipation in watts.
    pub power_w: f64,
    /// Qubits serviced per MCE at `Projected_F` technology.
    pub qubits_serviced: usize,
}

/// Regenerates Table 2 for all four syndrome designs.
pub fn table2(tech: &TechnologyParams) -> Vec<Table2Row> {
    SyndromeDesign::ALL
        .iter()
        .map(|design| {
            let config = optimal_config(design, tech);
            Table2Row {
                design: *design,
                config,
                jj_count: config.jj_count(),
                power_w: config.power_w(),
                qubits_serviced: unit_cell_throughput(design, &config, tech),
            }
        })
        .collect()
}

/// One point of Figure 11: qubits serviced per MCE at a fixed 4 Kb for a
/// microcode design and channel count (Steane syndrome and its opcode
/// width).
pub fn figure11_point(
    mc_design: MicrocodeDesign,
    channels: usize,
    tech: &TechnologyParams,
) -> usize {
    let config = MemoryConfig::new(channels, 4096 / channels);
    let steane = SyndromeDesign::STEANE;
    crate::microcode::qubits_serviced(mc_design, &config, &steane, tech, opcode_bits(&steane))
}

/// One point of Figure 16: qubits per MCE for a technology × syndrome
/// design, at that design's optimal configuration.
pub fn figure16_point(design: &SyndromeDesign, tech: &TechnologyParams) -> usize {
    let config = optimal_config(design, tech);
    unit_cell_throughput(design, &config, tech)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_optimal_configurations_match_paper() {
        // Table 2: Steane → 4 ch, Shor → 2 ch, SC-17 → 8 ch, SC-13 → 4 ch.
        let tech = TechnologyParams::PROJECTED_F;
        let rows = table2(&tech);
        let channels: Vec<usize> = rows.iter().map(|r| r.config.channels()).collect();
        assert_eq!(channels, vec![4, 2, 8, 4]);
    }

    #[test]
    fn table2_jj_counts_match_paper() {
        let rows = table2(&TechnologyParams::PROJECTED_F);
        let jj: Vec<u64> = rows.iter().map(|r| r.jj_count).collect();
        assert_eq!(jj, vec![170_048, 168_264, 163_472, 170_048]);
    }

    #[test]
    fn table2_power_matches_paper() {
        let rows = table2(&TechnologyParams::PROJECTED_F);
        let p: Vec<f64> = rows.iter().map(|r| r.power_w * 1e6).collect();
        assert!((p[0] - 2.1).abs() < 1e-9);
        assert!((p[1] - 1.1).abs() < 1e-9);
        assert!((p[2] - 5.6).abs() < 1e-9);
        assert!((p[3] - 2.1).abs() < 1e-9);
    }

    #[test]
    fn figure11_unit_cell_scales_superlinearly() {
        let tech = TechnologyParams::PROJECTED_F;
        let one = figure11_point(MicrocodeDesign::UnitCell, 1, &tech);
        let two = figure11_point(MicrocodeDesign::UnitCell, 2, &tech);
        let four = figure11_point(MicrocodeDesign::UnitCell, 4, &tech);
        assert!(
            two as f64 / one as f64 > 2.0,
            "2ch/1ch = {}",
            two as f64 / one as f64
        );
        assert!((four as f64 / one as f64 - 6.0).abs() < 0.2, "4ch/1ch");
    }

    #[test]
    fn figure11_ram_and_fifo_are_capacity_bound() {
        // Adding channels must not increase RAM/FIFO serviced qubits.
        let tech = TechnologyParams::PROJECTED_F;
        for design in [MicrocodeDesign::Ram, MicrocodeDesign::Fifo] {
            let pts: Vec<usize> = [1, 2, 4]
                .into_iter()
                .map(|ch| figure11_point(design, ch, &tech))
                .collect();
            assert_eq!(pts[0], pts[1], "{design}");
            assert_eq!(pts[1], pts[2], "{design}");
        }
    }

    #[test]
    fn figure11_unit_cell_dominates_by_an_order_of_magnitude() {
        let tech = TechnologyParams::PROJECTED_F;
        let ram = figure11_point(MicrocodeDesign::Ram, 4, &tech);
        let uc = figure11_point(MicrocodeDesign::UnitCell, 4, &tech);
        assert!(uc > 30 * ram, "unit-cell {uc} vs RAM {ram}");
    }

    #[test]
    fn figure16_slower_qubits_mean_more_serviced_qubits() {
        // Experimental_S (25 ns slots) allows more streaming time than
        // Projected_D (5 ns slots).
        for design in &SyndromeDesign::ALL {
            let exp = figure16_point(design, &TechnologyParams::EXPERIMENTAL_S);
            let projd = figure16_point(design, &TechnologyParams::PROJECTED_D);
            assert!(exp > projd, "{}", design.name);
        }
    }

    #[test]
    fn shor_program_only_fits_two_channel_banks() {
        let shor = SyndromeDesign::SHOR;
        assert!(!program_fits(&shor, &MemoryConfig::new(8, 512)));
        assert!(!program_fits(&shor, &MemoryConfig::new(4, 1024)));
        assert!(program_fits(&shor, &MemoryConfig::new(2, 2048)));
    }

    #[test]
    fn sc17_compact_opcodes_fit_eight_channels() {
        let sc17 = SyndromeDesign::SC17;
        assert!(program_fits(&sc17, &MemoryConfig::new(8, 512)));
    }
}
