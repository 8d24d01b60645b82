//! Figure 10 — microcode memory capacity required vs. qubits serviced for
//! the three microcode designs.
//!
//! Paper: RAM scales O(N·log₂N), FIFO scales O(N) (3–4× better), and the
//! unit-cell design is O(1).

use quest_bench::{header, row, sci};
use quest_core::microcode::MicrocodeDesign;
use quest_core::MultiTileSystem;
use quest_surface::{RotatedLattice, SyndromeDesign};

fn main() {
    header(
        "Figure 10: microcode capacity vs. qubits serviced",
        "RAM O(N log N), FIFO O(N) (3–4x better), unit-cell O(1)",
    );
    let steane = SyndromeDesign::STEANE;
    let opcode_bits = 4.0;
    row(&[
        "qubits",
        "RAM (bits)",
        "FIFO (bits)",
        "unit-cell (bits)",
        "RAM/FIFO",
    ]);
    for n in [16usize, 64, 256, 1024, 4096, 16384, 65536] {
        let ram = MicrocodeDesign::Ram.capacity_bits(n, &steane, opcode_bits);
        let fifo = MicrocodeDesign::Fifo.capacity_bits(n, &steane, opcode_bits);
        let uc = MicrocodeDesign::UnitCell.capacity_bits(n, &steane, opcode_bits);
        row(&[
            &n.to_string(),
            &sci(ram),
            &sci(fifo),
            &sci(uc),
            &format!("{:.2}", ram / fifo),
        ]);
    }
    // Shape checks.
    let uc_small = MicrocodeDesign::UnitCell.capacity_bits(16, &steane, opcode_bits);
    let uc_large = MicrocodeDesign::UnitCell.capacity_bits(65536, &steane, opcode_bits);
    assert_eq!(uc_small, uc_large, "unit-cell capacity must be O(1)");
    let ratio_64k = MicrocodeDesign::Ram.capacity_bits(65536, &steane, opcode_bits)
        / MicrocodeDesign::Fifo.capacity_bits(65536, &steane, opcode_bits);
    println!();
    println!(
        "check: unit-cell capacity constant at {uc_small} bits; RAM/FIFO ratio reaches {ratio_64k:.1} (paper: 3–4x)"
    );
    assert!((3.0..=6.0).contains(&ratio_64k));

    // Cross-check: the functional MCE inside a one-tile
    // `MultiTileSystem` stores exactly what the FIFO-style model
    // predicts for its tile.
    let sys = MultiTileSystem::new(3, 1, 0.0).expect("valid parameters");
    let microcode = sys.mce(0).microcode();
    let lattice = RotatedLattice::new(3);
    let tile = SyndromeDesign {
        name: "d3-tile",
        cycle_depth: microcode.cycle_len(),
        unit_cell_qubits: lattice.num_qubits(),
        microcode_uops: microcode.cycle_len() * lattice.num_qubits(),
    };
    let model = MicrocodeDesign::Fifo.capacity_bits(lattice.num_qubits(), &tile, opcode_bits);
    assert_eq!(
        microcode.storage_bits() as f64,
        model,
        "functional replay storage must match the capacity model"
    );
    println!(
        "check: functional d=3 MCE microcode stores {} bits, matching the FIFO capacity model",
        microcode.storage_bits()
    );
}
