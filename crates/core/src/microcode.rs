//! Microcode pipeline: storage designs and the QECC replay engine.
//!
//! §4.4–4.5 of the paper. The microcode memory must deliver one µop to
//! every serviced qubit per instruction slot, in lock step. Three storage
//! designs trade capacity for addressing flexibility:
//!
//! * [`MicrocodeDesign::Ram`] — the baseline: software-buffered QECC
//!   instructions with conventional opcode + address encoding. Capacity
//!   scales `O(N · log₂ N)` per cycle instruction.
//! * [`MicrocodeDesign::Fifo`] — lock-step execution never needs random
//!   access, so address bits are dropped and the memory becomes a FIFO;
//!   capacity scales `O(N)`.
//! * [`MicrocodeDesign::UnitCell`] — the surface code's syndrome circuit
//!   repeats spatially with a small unit cell, so only the unit-cell µops
//!   are stored and a state machine replays them across the tile; capacity
//!   is `O(1)` and the serviced-qubit count becomes bandwidth-limited.
//!
//! [`QeccMicrocode`] is the functional replay engine: it stores the VLIW
//! words of one QECC cycle and streams them forever without any
//! master-controller involvement.

use crate::jj::{MemoryConfig, JJ_CLOCK_HZ};
use crate::tech::TechnologyParams;
use quest_isa::{MicroOp, PhysOpcode, VliwWord};
use quest_surface::decoder::backend::MEMORY_WORD_BITS;
use quest_surface::SyndromeDesign;
use std::fmt;
use std::sync::Arc;

/// The three microcode-memory designs of §4.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicrocodeDesign {
    /// Opcode + address encoding, random access (baseline).
    Ram,
    /// Address-free FIFO streaming.
    Fifo,
    /// Unit-cell program replayed spatially by a state machine.
    UnitCell,
}

impl MicrocodeDesign {
    /// All designs in the order of Figures 10 and 11.
    pub const ALL: [MicrocodeDesign; 3] = [
        MicrocodeDesign::Ram,
        MicrocodeDesign::Fifo,
        MicrocodeDesign::UnitCell,
    ];

    /// µop width in bits when servicing `n` qubits: the RAM design pays
    /// `log₂ N` address bits per µop on top of the opcode.
    pub fn uop_bits(self, n: usize, opcode_bits: f64) -> f64 {
        match self {
            MicrocodeDesign::Ram => opcode_bits + (n.max(2) as f64).log2(),
            MicrocodeDesign::Fifo | MicrocodeDesign::UnitCell => opcode_bits,
        }
    }

    /// Memory capacity in bits required to hold one QECC cycle for `n`
    /// qubits (Figure 10).
    pub fn capacity_bits(self, n: usize, design: &SyndromeDesign, opcode_bits: f64) -> f64 {
        let per_uop = self.uop_bits(n, opcode_bits);
        match self {
            MicrocodeDesign::Ram | MicrocodeDesign::Fifo => {
                n as f64 * design.cycle_depth as f64 * per_uop
            }
            MicrocodeDesign::UnitCell => design.microcode_uops as f64 * per_uop,
        }
    }

    /// Maximum qubits serviceable under the *capacity* constraint alone,
    /// for a memory of `total_bits`.
    pub fn capacity_limited_qubits(
        self,
        total_bits: usize,
        design: &SyndromeDesign,
        opcode_bits: f64,
    ) -> usize {
        match self {
            MicrocodeDesign::UnitCell => {
                // The unit-cell program either fits or it does not; once it
                // fits, capacity places no limit on serviced qubits.
                if self.capacity_bits(0, design, opcode_bits) <= total_bits as f64 {
                    usize::MAX
                } else {
                    0
                }
            }
            _ => {
                // Largest n with capacity_bits(n) <= total_bits (monotone).
                let mut lo = 0usize;
                let mut hi = total_bits; // capacity ≥ n for any design
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if self.capacity_bits(mid, design, opcode_bits) <= total_bits as f64 {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                lo
            }
        }
    }
}

impl fmt::Display for MicrocodeDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MicrocodeDesign::Ram => "RAM",
            MicrocodeDesign::Fifo => "FIFO",
            MicrocodeDesign::UnitCell => "Unit-cell",
        };
        write!(f, "{s}")
    }
}

/// Maximum qubits serviceable under the *bandwidth* constraint: within the
/// shortest instruction slot the memory must stream one µop per qubit
/// (§4.5). Each channel yields one [`MEMORY_WORD_BITS`]-bit word per
/// `read_latency` JJ cycles.
pub fn bandwidth_limited_qubits(
    config: &MemoryConfig,
    tech: &TechnologyParams,
    opcode_bits: f64,
) -> usize {
    let uops_per_word = (MEMORY_WORD_BITS as f64 / opcode_bits).floor();
    let reads_per_slot_per_channel =
        (tech.min_slot() * JJ_CLOCK_HZ / config.read_latency_cycles() as f64).floor();
    (config.channels() as f64 * uops_per_word * reads_per_slot_per_channel) as usize
}

/// Qubits serviced per MCE for a design/configuration (Figure 11): the
/// lesser of the capacity and bandwidth limits.
pub fn qubits_serviced(
    mc_design: MicrocodeDesign,
    config: &MemoryConfig,
    syndrome: &SyndromeDesign,
    tech: &TechnologyParams,
    opcode_bits: f64,
) -> usize {
    let cap = mc_design.capacity_limited_qubits(config.total_bits(), syndrome, opcode_bits);
    let bw = bandwidth_limited_qubits(config, tech, opcode_bits);
    cap.min(bw)
}

/// The functional QECC replay engine: unit-cell VLIW words streamed
/// cyclically (§4.4, Figure 8b/8c). One `QeccMicrocode` drives one MCE
/// tile; the same `M` words repeat forever. The words never change once
/// loaded, so a clone shares them and copies only its cursor.
///
/// # Example
///
/// ```
/// use quest_core::microcode::QeccMicrocode;
/// use quest_isa::{MicroOp, PhysOpcode, VliwWord};
///
/// let words = vec![
///     VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::PrepZ); 4]),
///     VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::MeasZ); 4]),
/// ];
/// let mut mc = QeccMicrocode::new(words);
/// assert_eq!(mc.next_word().get(0).opcode(), PhysOpcode::PrepZ);
/// assert_eq!(mc.next_word().get(0).opcode(), PhysOpcode::MeasZ);
/// assert_eq!(mc.next_word().get(0).opcode(), PhysOpcode::PrepZ); // wrapped
/// ```
#[derive(Debug, Clone)]
pub struct QeccMicrocode {
    words: Arc<[VliwWord]>,
    cursor: usize,
    replays: u64,
}

impl QeccMicrocode {
    /// Loads a QECC cycle program.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or the words have differing widths.
    pub fn new(words: Vec<VliwWord>) -> QeccMicrocode {
        assert!(
            !words.is_empty(),
            "QECC cycle must contain at least one word"
        );
        let width = words[0].len();
        assert!(
            words.iter().all(|w| w.len() == width),
            "all VLIW words must cover the same tile width"
        );
        QeccMicrocode {
            words: words.into(),
            cursor: 0,
            replays: 0,
        }
    }

    /// Tile width (qubits covered by each word).
    pub fn tile_width(&self) -> usize {
        self.words[0].len()
    }

    /// Words per QECC cycle (`M` in Figure 8b).
    pub fn cycle_len(&self) -> usize {
        self.words.len()
    }

    /// Position within the current cycle.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// How many complete QECC cycles have been replayed.
    pub fn completed_cycles(&self) -> u64 {
        self.replays
    }

    /// Returns `true` when the next word starts a new QECC cycle.
    pub fn at_cycle_start(&self) -> bool {
        self.cursor == 0
    }

    /// Streams the next lock-step word, wrapping at the cycle boundary —
    /// the continuous replay of §4.4.
    pub fn next_word(&mut self) -> VliwWord {
        self.advance().clone()
    }

    /// [`QeccMicrocode::next_word`] without the copy: the word is read
    /// in place, as the replay hardware streams it.
    pub fn advance(&mut self) -> &VliwWord {
        let at = self.cursor;
        self.cursor += 1;
        if self.cursor == self.words.len() {
            self.cursor = 0;
            self.replays += 1;
        }
        &self.words[at]
    }

    /// Peeks at word `i` of the cycle without advancing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn word(&self, i: usize) -> &VliwWord {
        &self.words[i]
    }

    /// Total storage in bits using address-free FIFO µop encoding.
    pub fn storage_bits(&self) -> usize {
        self.words.len() * self.tile_width() * PhysOpcode::BITS
    }

    /// Builds the idle program (all-NOP single word) for a tile, used when
    /// a tile boots before its QECC program is installed.
    pub fn idle(tile_width: usize) -> QeccMicrocode {
        QeccMicrocode::new(vec![VliwWord::from_uops(vec![MicroOp::nop(); tile_width])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPCODE_BITS: f64 = PhysOpcode::BITS as f64;

    #[test]
    fn ram_capacity_scales_n_log_n() {
        let steane = SyndromeDesign::STEANE;
        let c100 = MicrocodeDesign::Ram.capacity_bits(100, &steane, OPCODE_BITS);
        let c1000 = MicrocodeDesign::Ram.capacity_bits(1000, &steane, OPCODE_BITS);
        // 10x qubits costs more than 10x capacity (the log factor).
        assert!(c1000 > 10.0 * c100);
        assert!(c1000 < 20.0 * c100);
    }

    #[test]
    fn fifo_capacity_scales_linearly() {
        let steane = SyndromeDesign::STEANE;
        let c100 = MicrocodeDesign::Fifo.capacity_bits(100, &steane, OPCODE_BITS);
        let c1000 = MicrocodeDesign::Fifo.capacity_bits(1000, &steane, OPCODE_BITS);
        assert!((c1000 / c100 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unit_cell_capacity_is_constant() {
        let steane = SyndromeDesign::STEANE;
        let c100 = MicrocodeDesign::UnitCell.capacity_bits(100, &steane, OPCODE_BITS);
        let c1m = MicrocodeDesign::UnitCell.capacity_bits(1_000_000, &steane, OPCODE_BITS);
        assert_eq!(c100, c1m);
        assert_eq!(c100, 148.0 * 4.0);
    }

    #[test]
    fn paper_4kb_capacity_limits() {
        // §4.5: a 4 Kb RAM microcode holds ~48 qubits of QECC instructions;
        // the FIFO design reaches ~120. Our integer model lands within a
        // few qubits of the paper's figures.
        let steane = SyndromeDesign::STEANE;
        let ram = MicrocodeDesign::Ram.capacity_limited_qubits(4096, &steane, OPCODE_BITS);
        let fifo = MicrocodeDesign::Fifo.capacity_limited_qubits(4096, &steane, OPCODE_BITS);
        assert!((40..=55).contains(&ram), "RAM limit {ram} (paper: 48)");
        assert!(
            (105..=125).contains(&fifo),
            "FIFO limit {fifo} (paper: 120)"
        );
        let uc = MicrocodeDesign::UnitCell.capacity_limited_qubits(4096, &steane, OPCODE_BITS);
        assert_eq!(uc, usize::MAX);
    }

    #[test]
    fn fifo_improves_on_ram_3_to_4x() {
        // §4.5: "This improves the scalability by 3 to 4 times".
        let steane = SyndromeDesign::STEANE;
        for bits in [4096usize, 16384, 65536] {
            let ram = MicrocodeDesign::Ram.capacity_limited_qubits(bits, &steane, OPCODE_BITS);
            let fifo = MicrocodeDesign::Fifo.capacity_limited_qubits(bits, &steane, OPCODE_BITS);
            let ratio = fifo as f64 / ram as f64;
            assert!((2.0..=4.5).contains(&ratio), "ratio {ratio} at {bits} bits");
        }
    }

    #[test]
    fn bandwidth_super_linear_in_channels() {
        // §4.5: four channels deliver 6× the one-channel bandwidth.
        let tech = TechnologyParams::PROJECTED_F; // 10 ns slot
        let one = bandwidth_limited_qubits(&MemoryConfig::new(1, 4096), &tech, OPCODE_BITS);
        let four = bandwidth_limited_qubits(&MemoryConfig::new(4, 1024), &tech, OPCODE_BITS);
        assert_eq!(one, 264); // 8 µops/word × ⌊100/3⌋ reads
        assert_eq!(four, 1600);
        assert!((four as f64 / one as f64) > 5.0);
    }

    #[test]
    fn serviced_qubits_combined_limits() {
        // Unit-cell + 4-channel services far more qubits than RAM.
        let tech = TechnologyParams::PROJECTED_F;
        let cfg = MemoryConfig::new(4, 1024);
        let steane = SyndromeDesign::STEANE;
        let uc = qubits_serviced(MicrocodeDesign::UnitCell, &cfg, &steane, &tech, OPCODE_BITS);
        let ram = qubits_serviced(MicrocodeDesign::Ram, &cfg, &steane, &tech, OPCODE_BITS);
        assert!(uc >= 30 * ram, "unit-cell {uc} vs RAM {ram}");
    }

    #[test]
    fn replay_engine_wraps_and_counts() {
        let words = vec![
            VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::PrepZ); 2]),
            VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::H); 2]),
            VliwWord::from_uops(vec![MicroOp::simple(PhysOpcode::MeasZ); 2]),
        ];
        let mut mc = QeccMicrocode::new(words);
        assert_eq!(mc.cycle_len(), 3);
        for _ in 0..7 {
            mc.next_word();
        }
        assert_eq!(mc.completed_cycles(), 2);
        assert_eq!(mc.cursor(), 1);
        assert!(!mc.at_cycle_start());
    }

    #[test]
    fn storage_accounting() {
        let mc = QeccMicrocode::idle(10);
        assert_eq!(mc.storage_bits(), 10 * 4);
        assert_eq!(mc.tile_width(), 10);
    }

    #[test]
    #[should_panic(expected = "same tile width")]
    fn mismatched_word_widths_panic() {
        QeccMicrocode::new(vec![VliwWord::nop(2), VliwWord::nop(3)]);
    }
}
