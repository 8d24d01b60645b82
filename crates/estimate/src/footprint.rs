//! Executable-size (instruction working set) model.
//!
//! §2.2 of the paper places cryogenic DRAM at 77 K because "the
//! instruction footprint for quantum algorithms is typically large
//! (10s GB)", and the related work highlights "extremely large
//! executables" as a core toolchain challenge. Hardware-managed QECC
//! shrinks the *static* program as dramatically as it shrinks bandwidth:
//! the baseline executable spells out every physical µop, while QuEST
//! stores logical instructions plus a fixed microcode image.

use crate::bandwidth::BandwidthEstimate;
use quest_core::throughput::opcode_bits;
use quest_isa::LogicalInstr;

/// Static instruction footprint of a workload under each delivery model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// Baseline executable: every physical instruction of every QECC
    /// cycle plus expanded logical instructions, in bytes.
    pub baseline_bytes: f64,
    /// QuEST executable: the logical program (algorithmic +
    /// distillation), in bytes.
    pub quest_bytes: f64,
    /// QuEST + cache executable: algorithmic program plus one distillation
    /// kernel image, in bytes.
    pub quest_cached_bytes: f64,
    /// Per-MCE microcode image (stored once in hardware), in bytes.
    pub microcode_bytes: f64,
}

impl Footprint {
    /// Derives the footprint from a bandwidth analysis: footprint =
    /// stream rate × execution time for each delivery model, with the
    /// QECC microcode image charged separately (it is state, not stream).
    pub fn from_estimate(
        e: &BandwidthEstimate,
        syndrome: &quest_surface::SyndromeDesign,
    ) -> Footprint {
        // Execution time: logical gates issued at the algorithmic rate.
        let exec_time = e.workload.logical_gates / e.algo_rate;
        let baseline_bytes = e.baseline * exec_time;
        let quest_bytes = e.quest_mce * exec_time;
        // Cached: algorithmic stream plus one kernel image.
        let kernel_bytes = e.distillation.instrs_per_state * LogicalInstr::ENCODED_BYTES as f64;
        let quest_cached_bytes = e.quest_cached * exec_time + kernel_bytes;
        let microcode_bytes = syndrome.microcode_uops as f64 * opcode_bits(syndrome) / 8.0;
        Footprint {
            baseline_bytes,
            quest_bytes,
            quest_cached_bytes,
            microcode_bytes,
        }
    }

    /// Shrink factor of the QuEST executable vs. the baseline.
    pub fn shrink(&self) -> f64 {
        self.baseline_bytes / self.quest_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BandwidthEstimate;
    use crate::workloads::Workload;
    use quest_core::TechnologyParams;
    use quest_surface::SyndromeDesign;

    fn fp(w: &Workload) -> Footprint {
        let e = BandwidthEstimate::analyze(
            w,
            1e-4,
            &TechnologyParams::PROJECTED_D,
            &SyndromeDesign::STEANE,
        );
        Footprint::from_estimate(&e, &SyndromeDesign::STEANE)
    }

    #[test]
    fn baseline_executables_are_enormous() {
        // §2.2: tens of gigabytes *at least*; realistic workloads reach
        // petabytes of spelled-out physical instructions.
        let f = fp(&Workload::BWT);
        assert!(
            f.baseline_bytes > 10e9,
            "baseline executable only {} bytes",
            f.baseline_bytes
        );
    }

    #[test]
    fn quest_shrinks_the_executable_by_the_bandwidth_factor() {
        let f = fp(&Workload::GSE);
        assert!(f.shrink() > 1e5, "shrink {}", f.shrink());
        assert!(f.quest_cached_bytes < f.quest_bytes);
    }

    #[test]
    fn microcode_image_is_tiny() {
        let f = fp(&Workload::QLS);
        // 148 4-bit µops = 74 bytes.
        assert_eq!(f.microcode_bytes, 74.0);
        assert!(f.microcode_bytes < 1e-6 * f.quest_bytes);
    }

    #[test]
    fn footprints_scale_with_workload_size() {
        let small = fp(&Workload::BF);
        let large = fp(&Workload::FEMOCO);
        assert!(large.baseline_bytes > 1e6 * small.baseline_bytes / 1e3);
        assert!(large.quest_bytes > small.quest_bytes);
    }
}
