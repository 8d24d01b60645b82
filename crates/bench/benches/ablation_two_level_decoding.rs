//! Ablation — two-level decoding: how much syndrome traffic the MCE's
//! local lookup decoder keeps off the global bus (§4.2).
//!
//! The local decoder resolves isolated single-qubit errors inside the
//! MCE; only complex patterns escalate to the master controller's global
//! decoder. At realistic error rates, the overwhelming majority of
//! eventful rounds decode locally.

use quest_bench::{header, row};
use quest_runtime::{run_reference, WorkloadSpec};

fn main() {
    header(
        "Ablation: local LUT decoding vs. escalation to the global decoder",
        "isolated single-qubit errors (the common case) never leave the MCE",
    );
    row(&[
        "error rate",
        "distance",
        "cycles",
        "local decodes",
        "escalations",
        "local share",
    ]);
    for (p, d) in [
        (1e-3, 3usize),
        (3e-3, 3),
        (1e-3, 5),
        (3e-3, 5),
        (1e-2, 5), // high enough that multi-error rounds escalate
    ] {
        let cycles = 400u64;
        let run = run_reference(&WorkloadSpec::memory(d, 1, 1, p, 2024, cycles))
            .expect("valid parameters");
        let eventful = run.local_decodes + run.escalations;
        let share = if eventful == 0 {
            1.0
        } else {
            run.local_decodes as f64 / eventful as f64
        };
        row(&[
            &format!("{p:.0e}"),
            &d.to_string(),
            &cycles.to_string(),
            &run.local_decodes.to_string(),
            &run.escalations.to_string(),
            &format!("{:.1}%", share * 100.0),
        ]);
        assert!(
            share >= 0.5,
            "local decoder must handle most eventful rounds (got {share})"
        );
    }
    println!();
    println!("check: the local decoder resolves the majority of eventful rounds at every point");
}
