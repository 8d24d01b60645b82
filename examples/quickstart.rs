//! Quickstart: run an error-corrected memory workload on a simulated
//! QuEST control processor and print the global-bus accounting.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use quest::arch::DeliveryMode;
use quest::estimate::kernels::workload_with_kernel;
use quest::estimate::Workload;
use quest::runtime::{run_reference, WorkloadSpec};

fn main() {
    // A distance-5 surface-code tile with depolarizing noise (p = 1e-3
    // per data qubit per QECC round).
    let distance = 5;
    let p = 1e-3;
    let cycles = 300;

    // Workload-shaped logical traffic: a slice of the QLS benchmark plus
    // one real 15-to-1 distillation kernel, replayed 40x.
    let program = workload_with_kernel(&Workload::QLS, 100);

    println!("QuEST quickstart: d={distance} tile, p={p}, {cycles} QECC cycles\n");

    for mode in DeliveryMode::ALL {
        let spec = WorkloadSpec::delivery_memory(distance, 1, 1, p, 42, cycles, &program, 40, mode);
        let run = run_reference(&spec).expect("valid workload");
        println!("{mode:?}");
        println!("  bus bytes        : {}", run.bus_bytes());
        println!("  logical intact   : {}", run.logical_ok());
        println!(
            "  decoding         : {} local, {} escalated",
            run.local_decodes, run.escalations
        );
        println!("{}", run.bus);
        println!();
    }

    println!(
        "The QECC stream never leaves the MCE under QuEST; with the logical\n\
         instruction cache, neither do the distillation kernels. At scale\n\
         (millions of qubits) this asymmetry is the paper's 10^8 bandwidth saving."
    );
}
