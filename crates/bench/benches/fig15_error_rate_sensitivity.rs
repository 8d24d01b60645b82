//! Figure 15 — sensitivity of the bandwidth savings to the physical qubit
//! error rate.
//!
//! Paper: a reduced error rate lowers the physical-qubit count (smaller
//! code distance), shrinking the baseline bandwidth and hence the savings
//! from hardware-managed QECC, while the magic-state-distillation
//! overhead stays roughly constant (factory count scales sub-linearly in
//! the error rate).

use quest_bench::{header, orders, row, sci};
use quest_core::TechnologyParams;
use quest_estimate::{BandwidthEstimate, Workload};
use quest_surface::{
    FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise, SyndromeDesign, UnionFindDecoder,
};

fn main() {
    header(
        "Figure 15: bandwidth savings vs. physical error rate",
        "savings shrink as the error rate improves; distillation overhead ~constant",
    );
    row(&[
        "workload",
        "error rate",
        "distance",
        "phys qubits",
        "MCE savings",
        "total savings",
        "T-factory ratio",
    ]);
    let tech = TechnologyParams::PROJECTED_D;
    let syn = SyndromeDesign::STEANE;
    let mut per_workload: Vec<Vec<f64>> = Vec::new();
    for w in &Workload::ALL {
        let mut series = Vec::new();
        for p in [1e-3, 1e-4, 1e-5] {
            let e = BandwidthEstimate::analyze(w, p, &tech, &syn);
            row(&[
                w.name,
                &sci(p),
                &e.distance.to_string(),
                &sci(e.physical_qubits),
                &format!("10^{:.1}", orders(e.mce_savings())),
                &format!("10^{:.1}", orders(e.cached_savings())),
                &format!("{:.0}", e.t_factory_ratio()),
            ]);
            series.push(e.mce_savings());
        }
        per_workload.push(series);
    }
    println!();
    println!("check: savings strictly decrease as the error rate improves, for every workload");
    for (w, series) in Workload::ALL.iter().zip(&per_workload) {
        assert!(
            series[0] > series[1] && series[1] > series[2],
            "{}: {series:?}",
            w.name
        );
    }

    // Monte-Carlo grounding for the error-rate sensitivity: the analytic
    // distance formula above rests on logical rates falling with distance
    // below threshold. Re-measure that on the frame fast path (20k shots
    // per point — feasible only because of bit-parallel sampling).
    println!();
    println!(
        "Monte-Carlo check (frame-sampled, 20k shots/point): p_L falls with d below threshold"
    );
    row(&["distance", "p = 4e-3", "p_L (measured)"]);
    let p = 4e-3;
    let noise = MemoryNoise::code_capacity(p);
    let dec = UnionFindDecoder::new();
    let shots = 20_000;
    let mut measured = Vec::new();
    for d in [3usize, 5, 7] {
        let sampler = FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z));
        let rate = sampler
            .run_batch(&noise, &dec, shots, 15 + d as u64)
            .logical_error_rate();
        row(&[&d.to_string(), &sci(p), &format!("{rate:.5}")]);
        measured.push(rate);
    }
    // Monotone within sampling noise: rates this far below threshold sit
    // at a handful of failures per 20k shots, so allow a 3-sigma Poisson
    // slack per step — but the largest code must strictly beat the
    // smallest.
    let shots_f = shots as f64;
    for win in measured.windows(2) {
        let slack = 3.0 * (win[0].max(1.0 / shots_f) / shots_f).sqrt();
        assert!(
            win[1] <= win[0] + slack,
            "logical rate rose with distance beyond sampling noise: {measured:?}"
        );
    }
    assert!(
        measured[2] < measured[0],
        "d=7 must strictly beat d=3 below threshold: {measured:?}"
    );
}
