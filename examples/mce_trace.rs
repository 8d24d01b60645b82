//! MCE trace: watch one Micro-coded Control Engine replay its QECC cycle,
//! absorb an injected error through the local lookup decoder, and execute
//! a masked logical operation — slot by slot.
//!
//! ```sh
//! cargo run --example mce_trace
//! ```

use quest::arch::Mce;
use quest::isa::{MicroOp, PhysOpcode, VliwWord};
use quest::stabilizer::{SeedableRng, StdRng, Tableau};
use quest::surface::{RotatedLattice, StabKind};

fn main() {
    let lattice = RotatedLattice::new(3);
    let mut mce = Mce::new(&lattice, 4096);
    let mut substrate = Tableau::new(lattice.num_qubits());
    let mut rng = StdRng::seed_from_u64(99);

    println!(
        "MCE over a d=3 tile: {} data + {} ancilla qubits, {} words per QECC cycle, {} bits of microcode\n",
        lattice.num_data(),
        lattice.num_ancillas(),
        mce.microcode().cycle_len(),
        mce.microcode().storage_bits(),
    );

    // --- One traced QECC cycle ------------------------------------------
    println!("cycle 1 (projection) — VLIW words issued:");
    for slot in 0..mce.microcode().cycle_len() {
        let word = mce.step(&mut substrate, &mut rng);
        println!("  slot {slot}: {word}");
    }

    // --- Inject an error and watch the local decoder fix it -------------
    let victim = lattice.data_index(1, 1);
    println!("\ninjecting X error on data qubit {victim} …");
    substrate.x(victim);
    mce.run_qecc_cycle(&mut substrate, &mut rng);
    let stats = mce.decode_stats(StabKind::Z);
    println!(
        "after one cycle: {} local decode(s), {} escalation(s), Pauli frame = {:?}",
        stats.local_hits,
        stats.escalations,
        mce.decoder(StabKind::Z)
            .frame()
            .collect::<std::collections::BTreeSet<_>>()
    );

    // --- Mask a region and issue a logical µop word ----------------------
    println!("\nmasking region 0 (QECC off for its qubits) and queueing a logical X word …");
    mce.mask_mut().set_region(0, true);
    let mut word = VliwWord::nop(lattice.num_qubits());
    word.set(0, MicroOp::simple(PhysOpcode::X));
    mce.queue_logical_word(word);
    let fired = mce.step(&mut substrate, &mut rng);
    println!("fired: {fired}");
    mce.mask_mut().set_region(0, false);

    println!(
        "\nexecution stats: {:?}\ninstruction pipeline: {}",
        mce.execution_stats(),
        mce.instruction_pipeline()
    );
    println!("\nNote what was absent: not one QECC µop arrived from outside the MCE.");
}
