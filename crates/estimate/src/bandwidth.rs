//! Instruction-bandwidth model: baseline vs. QuEST vs. QuEST + cache.
//!
//! The accounting mirrors §7 of the paper:
//!
//! * **baseline** — software-managed QECC streams one byte-sized physical
//!   instruction to every physical qubit at the 100 MHz substrate rate;
//! * **QuEST (MCE)** — QECC is replayed from microcode, so only logical
//!   instructions (algorithmic + magic-state distillation) and
//!   synchronization tokens cross the global bus;
//! * **QuEST + L-cache** — distillation kernels replay from the MCE
//!   instruction caches, leaving the algorithmic stream plus cache/sync
//!   commands.

use crate::distance::qure_distance;
use crate::distillation::DistillationPlan;
use crate::shor::constants::PHYS_PER_LOGICAL;
use crate::workloads::{Workload, LOGICAL_ILP};
use quest_core::tech::TechnologyParams;
use quest_isa::{LogicalInstr, MicroOp};
use quest_surface::SyndromeDesign;

/// Sync-token rate relative to the algorithmic instruction stream (one
/// token per ~100 logical instructions for cache management and logical
/// movement).
pub const SYNC_FRACTION: f64 = 0.01;

/// Complete bandwidth analysis of one workload at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthEstimate {
    /// Workload analysed.
    pub workload: Workload,
    /// Physical error rate.
    pub p: f64,
    /// Chosen code distance.
    pub distance: usize,
    /// Total physical qubits (algorithm + T factories).
    pub physical_qubits: f64,
    /// Distillation pipeline.
    pub distillation: DistillationPlan,
    /// Algorithmic logical instructions per second.
    pub algo_rate: f64,
    /// Logical instructions per second entering the control processor
    /// (algorithmic + distillation).
    pub logical_rate: f64,
    /// Baseline bandwidth (bytes/s).
    pub baseline: f64,
    /// QuEST with hardware QECC (bytes/s).
    pub quest_mce: f64,
    /// QuEST with hardware QECC and logical caching (bytes/s).
    pub quest_cached: f64,
}

impl BandwidthEstimate {
    /// Analyses `workload` at physical error rate `p` under `tech` timing
    /// and the given syndrome design.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below the surface-code threshold.
    pub fn analyze(
        workload: &Workload,
        p: f64,
        tech: &TechnologyParams,
        syndrome: &SyndromeDesign,
    ) -> BandwidthEstimate {
        // --- Footprint -----------------------------------------------------
        let d = qure_distance(p);
        let distillation =
            DistillationPlan::size(p, workload.t_count(), workload.t_rate_per_step());
        let total_logical = workload.logical_qubits + distillation.total_factory_qubits();
        let physical_qubits = total_logical * PHYS_PER_LOGICAL * (d * d) as f64;

        // --- Rates ----------------------------------------------------------
        // Every physical qubit receives `cycle_depth` byte-sized µops per
        // QECC round, continuously (§3.3); one logical time step spans d
        // QECC rounds.
        let qecc_round_time = tech.t_ecc_round;
        let baseline = physical_qubits * syndrome.cycle_depth as f64 / qecc_round_time
            * MicroOp::ENCODED_BYTES as f64;
        let step_time = d as f64 * qecc_round_time;
        let algo_rate = LOGICAL_ILP / step_time; // instructions / s
        let distill_rate = algo_rate * distillation.instruction_ratio(workload.t_fraction);
        let sync_rate = algo_rate * SYNC_FRACTION;

        let logical_bytes = LogicalInstr::ENCODED_BYTES as f64;
        let quest_mce = (algo_rate + distill_rate + sync_rate) * logical_bytes;
        let quest_cached = (algo_rate + sync_rate) * logical_bytes;

        BandwidthEstimate {
            workload: *workload,
            p,
            distance: d,
            physical_qubits,
            distillation,
            algo_rate,
            logical_rate: algo_rate + distill_rate,
            baseline,
            quest_mce,
            quest_cached,
        }
    }

    /// Bandwidth saving of hardware-managed QECC (Figure 14, "MCE").
    pub fn mce_savings(&self) -> f64 {
        self.baseline / self.quest_mce
    }

    /// Bandwidth saving with the logical cache (Figure 14, "MCE+L-cache").
    pub fn cached_savings(&self) -> f64 {
        self.baseline / self.quest_cached
    }

    /// Ratio of QECC physical instructions to the workload's algorithmic
    /// logical instructions (Figure 6): what fraction of the baseline
    /// stream is pure error correction. The baseline rate counts one µop
    /// per physical qubit per instruction slot, so the ratio is the
    /// baseline's µops over algorithmic instructions.
    pub fn qecc_to_logical_ratio(&self) -> f64 {
        self.baseline / MicroOp::ENCODED_BYTES as f64 / self.algo_rate
    }

    /// Ratio of T-factory logical instructions to algorithmic logical
    /// instructions (Figure 13).
    pub fn t_factory_ratio(&self) -> f64 {
        self.distillation
            .instruction_ratio(self.workload.t_fraction)
    }
}

/// Convenience: analyse the full seven-workload suite at the paper's
/// default operating point (`Projected_D`, Steane syndrome, p as given).
pub fn analyze_suite(p: f64) -> Vec<BandwidthEstimate> {
    Workload::ALL
        .iter()
        .map(|w| {
            BandwidthEstimate::analyze(
                w,
                p,
                &TechnologyParams::PROJECTED_D,
                &SyndromeDesign::STEANE,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gse() -> BandwidthEstimate {
        BandwidthEstimate::analyze(
            &Workload::GSE,
            1e-4,
            &TechnologyParams::PROJECTED_D,
            &SyndromeDesign::STEANE,
        )
    }

    #[test]
    fn mce_savings_are_at_least_five_orders() {
        // §7 headline: "Managing QECC instruction in the MCEs reduces the
        // instruction bandwidth by at least five orders of magnitude."
        for e in analyze_suite(1e-4) {
            assert!(
                e.mce_savings() >= 1e5,
                "{}: {:.2e}",
                e.workload.name,
                e.mce_savings()
            );
        }
    }

    #[test]
    fn cache_adds_roughly_three_more_orders() {
        // §5.3: caching distillation kernels buys ~10³× more. Workloads
        // needing two distillation levels gain ~720×; the two smallest
        // suite members need only one level and gain ~38×.
        let mut two_level_gains = Vec::new();
        for e in analyze_suite(1e-4) {
            let extra = e.cached_savings() / e.mce_savings();
            assert!(
                (10.0..1e5).contains(&extra),
                "{}: extra {extra:.2e}",
                e.workload.name
            );
            if e.distillation.levels == 2 {
                two_level_gains.push(extra);
            }
        }
        assert!(!two_level_gains.is_empty());
        for g in two_level_gains {
            assert!((100.0..5000.0).contains(&g), "two-level gain {g}");
        }
    }

    #[test]
    fn total_savings_are_about_eight_orders() {
        // §7: "the QuEST architecture reduces the instruction bandwidth by
        // almost eight orders of magnitude."
        let suite = analyze_suite(1e-4);
        let log_mean: f64 = suite
            .iter()
            .map(|e| e.cached_savings().log10())
            .sum::<f64>()
            / suite.len() as f64;
        assert!(
            (7.0..10.0).contains(&log_mean),
            "mean log10 savings {log_mean}"
        );
    }

    #[test]
    fn qecc_dominates_the_stream() {
        // Figure 6 / abstract: QECC is ≥ 99.999% of the stream, i.e. the
        // ratio exceeds 10⁵, growing with workload footprint. (Our suite
        // spans ~10⁷–10⁸·⁵; the paper's unpublished problem sizes span
        // 10⁴–10⁹ — see EXPERIMENTS.md.)
        let suite = analyze_suite(1e-4);
        for e in &suite {
            let r = e.qecc_to_logical_ratio();
            assert!(
                (1e5..1e10).contains(&r),
                "{}: ratio {r:.2e}",
                e.workload.name
            );
        }
        // The suite must span at least an order of magnitude.
        let ratios: Vec<f64> = suite
            .iter()
            .map(super::BandwidthEstimate::qecc_to_logical_ratio)
            .collect();
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "spread {max:.2e}/{min:.2e}");
    }

    #[test]
    fn savings_insensitive_to_technology_and_syndrome() {
        // §7: savings are nearly configuration-independent (the paper
        // reports a coefficient of variation of 0.0002%). In our model the
        // technology time constants cancel exactly; the syndrome design
        // contributes only its cycle-depth factor (9 vs 14).
        let mut by_tech = Vec::new();
        for tech in &TechnologyParams::ALL {
            let e = BandwidthEstimate::analyze(&Workload::QLS, 1e-4, tech, &SyndromeDesign::STEANE);
            by_tech.push(e.mce_savings());
        }
        for v in &by_tech {
            assert!((v / by_tech[0] - 1.0).abs() < 1e-9, "tech changed savings");
        }
        let steane = BandwidthEstimate::analyze(
            &Workload::QLS,
            1e-4,
            &TechnologyParams::PROJECTED_D,
            &SyndromeDesign::STEANE,
        );
        let shor = BandwidthEstimate::analyze(
            &Workload::QLS,
            1e-4,
            &TechnologyParams::PROJECTED_D,
            &SyndromeDesign::SHOR,
        );
        let ratio = shor.mce_savings() / steane.mce_savings();
        assert!((1.0..2.0).contains(&ratio), "syndrome ratio {ratio}");
    }

    #[test]
    fn error_rate_sensitivity_shape() {
        // Figure 15: lower physical error rate ⇒ smaller code distance ⇒
        // smaller baseline ⇒ smaller savings, while the distillation
        // overhead moves far less than the savings do.
        let w = Workload::SHOR;
        let t = TechnologyParams::PROJECTED_D;
        let s = SyndromeDesign::STEANE;
        let e3 = BandwidthEstimate::analyze(&w, 1e-3, &t, &s);
        let e4 = BandwidthEstimate::analyze(&w, 1e-4, &t, &s);
        let e5 = BandwidthEstimate::analyze(&w, 1e-5, &t, &s);
        assert!(e3.mce_savings() > e4.mce_savings());
        assert!(e4.mce_savings() > e5.mce_savings());
        // Distillation ratio is monotone in p and varies much less than
        // the footprint-driven savings (levels change by at most one).
        let r3 = e3.t_factory_ratio();
        let r5 = e5.t_factory_ratio();
        assert!(r3 >= r5, "distillation ratio not monotone");
        assert!(r3 / r5 < 20.0, "distillation ratio swung {r3}/{r5}");
        let savings_swing = e3.mce_savings() / e5.mce_savings();
        assert!(savings_swing > 5.0, "savings swing {savings_swing}");
    }

    #[test]
    fn distance_and_footprint_are_plausible() {
        let e = gse();
        assert!((9..=41).contains(&e.distance), "distance {}", e.distance);
        assert!(e.physical_qubits > 1e5);
    }
}
