//! Josephson-junction (JJ) technology model for the microcode memory.
//!
//! §4.5: JJ logic is ~1000× more power-efficient than CMOS at 4 K but
//! offers very limited memory density, which caps the microcode capacity
//! per MCE. This module models channelized RQL-style pipelined storage:
//! JJ count, read latency in 10 GHz clock cycles, and power, calibrated to
//! the paper's anchor points (footnote 6 and Table 2, from Dorojevets et
//! al.). The per-bit and per-channel JJ prices, the read latency and the
//! word width are the SFQ memory price `quest_surface::decoder::backend`
//! defines for the decoder hardware; this model reads them.

use quest_surface::decoder::backend::{
    read_latency_cycles, JJ_PER_BIT, JJ_PER_CHANNEL, MEMORY_WORD_BITS,
};
use std::fmt;

/// JJ logic clock frequency (§2.2: JJ gates clocked at 10 GHz).
pub const JJ_CLOCK_HZ: f64 = 10e9;

/// A channelized microcode memory configuration: `channels` independent
/// banks of `bank_bits` each.
///
/// # Example
///
/// ```
/// use quest_core::jj::MemoryConfig;
///
/// let four_channel = MemoryConfig::new(4, 1024);
/// assert_eq!(four_channel.total_bits(), 4096);
/// assert_eq!(four_channel.read_latency_cycles(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryConfig {
    channels: usize,
    bank_bits: usize,
}

impl MemoryConfig {
    /// Builds a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `bank_bits` is zero.
    pub fn new(channels: usize, bank_bits: usize) -> MemoryConfig {
        assert!(channels > 0, "need at least one channel");
        assert!(bank_bits > 0, "banks must have nonzero capacity");
        MemoryConfig {
            channels,
            bank_bits,
        }
    }

    /// The four 4 Kb configurations evaluated in §4.5 and Table 2.
    pub fn four_kb_sweep() -> [MemoryConfig; 4] {
        [
            MemoryConfig::new(1, 4096),
            MemoryConfig::new(2, 2048),
            MemoryConfig::new(4, 1024),
            MemoryConfig::new(8, 512),
        ]
    }

    /// Number of independent channels (banks with one read port each).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Capacity of one bank in bits.
    pub fn bank_bits(&self) -> usize {
        self.bank_bits
    }

    /// Total capacity in bits.
    pub fn total_bits(&self) -> usize {
        self.channels * self.bank_bits
    }

    /// Read latency in JJ clock cycles: one bank's
    /// [`read_latency_cycles`].
    pub fn read_latency_cycles(&self) -> usize {
        read_latency_cycles(self.bank_bits as u64) as usize
    }

    /// Aggregate read bandwidth in bits/second: every channel streams one
    /// [`MEMORY_WORD_BITS`]-bit word per `read_latency` cycles.
    pub fn bandwidth_bits_per_s(&self) -> f64 {
        self.channels as f64 * MEMORY_WORD_BITS as f64 * JJ_CLOCK_HZ
            / self.read_latency_cycles() as f64
    }

    /// JJ count for the configuration. The four paper configurations use
    /// the exact Table-2 / footnote-6 values; other configurations are
    /// priced at [`JJ_PER_BIT`] (41) JJs per bit plus [`JJ_PER_CHANNEL`]
    /// (500) per channel.
    pub fn jj_count(&self) -> u64 {
        match (self.channels, self.bank_bits) {
            (1, 4096) => 170_000, // footnote 6
            (2, 2048) => 168_264, // Table 2 (Shor row)
            (4, 1024) => 170_048, // Table 2 (Steane / SC-13 rows)
            (8, 512) => 163_472,  // Table 2 (SC-17 row)
            _ => self.total_bits() as u64 * JJ_PER_BIT + self.channels as u64 * JJ_PER_CHANNEL,
        }
    }

    /// Power dissipation in watts. Paper anchor points for the 4 Kb
    /// configurations; other configurations scale with access rate.
    pub fn power_w(&self) -> f64 {
        match (self.channels, self.bank_bits) {
            (1, 4096) => 10e-6, // footnote 6
            (2, 2048) => 1.1e-6,
            (4, 1024) => 2.1e-6,
            (8, 512) => 5.6e-6,
            _ => {
                // Access-rate-proportional dynamic power.
                let accesses_per_s =
                    self.channels as f64 * JJ_CLOCK_HZ / self.read_latency_cycles() as f64;
                accesses_per_s * 1.1e-16 + self.total_bits() as f64 * 5e-11
            }
        }
    }
}

impl fmt::Display for MemoryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bank = if self.bank_bits.is_multiple_of(1024) {
            format!("{}Kb", self.bank_bits / 1024)
        } else {
            format!("{}b", self.bank_bits)
        };
        write!(
            f,
            "{} Channel = {} x {}",
            self.channels, bank, self.channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configs_total_4kb() {
        for c in MemoryConfig::four_kb_sweep() {
            assert_eq!(c.total_bits(), 4096);
        }
    }

    #[test]
    fn latency_anchors_from_paper() {
        // §4.5: one-channel 4 Kb reads in 3 cycles; four-channel 1 Kb in 2.
        assert_eq!(MemoryConfig::new(1, 4096).read_latency_cycles(), 3);
        assert_eq!(MemoryConfig::new(4, 1024).read_latency_cycles(), 2);
        assert_eq!(MemoryConfig::new(8, 512).read_latency_cycles(), 1);
    }

    #[test]
    fn latency_steps_at_the_bank_size_thresholds() {
        let latency = |bank_bits| MemoryConfig::new(1, bank_bits).read_latency_cycles();
        assert_eq!(
            [512, 513, 2048, 2049].map(latency),
            [1, 2, 2, 3],
            "latency at 512 / 513 / 2048 / 2049 bits"
        );
    }

    #[test]
    fn one_bank_prices_as_the_decoders_table_bank() {
        use quest_surface::decoder::{DecoderChoice, TableDecoder};
        use quest_surface::{DecodingGraph, RotatedLattice, StabKind};
        for d in [3, 5] {
            let graph = DecodingGraph::new(&RotatedLattice::new(d), StabKind::Z, 1);
            // A single-round Z graph faults every data qubit.
            let bank_bits = TableDecoder::build(&graph).storage_bits(d * d);
            let mut engine = DecoderChoice::Table.backend();
            let _ = engine.decode(&graph, &[]);
            let bank = MemoryConfig::new(1, bank_bits);
            assert_eq!(
                engine.cost().cycles,
                bank.read_latency_cycles() as u64,
                "d = {d}"
            );
            assert_eq!(engine.cost().jj_count, bank.jj_count(), "d = {d}");
        }
    }

    #[test]
    fn four_channel_bandwidth_is_6x_one_channel() {
        // §4.5: "the bandwidth improves by 6x".
        let one = MemoryConfig::new(1, 4096).bandwidth_bits_per_s();
        let four = MemoryConfig::new(4, 1024).bandwidth_bits_per_s();
        assert!((four / one - 6.0).abs() < 1e-9, "ratio = {}", four / one);
    }

    #[test]
    fn table2_jj_counts() {
        assert_eq!(MemoryConfig::new(4, 1024).jj_count(), 170_048);
        assert_eq!(MemoryConfig::new(2, 2048).jj_count(), 168_264);
        assert_eq!(MemoryConfig::new(8, 512).jj_count(), 163_472);
    }

    #[test]
    fn table2_power() {
        assert_eq!(MemoryConfig::new(4, 1024).power_w(), 2.1e-6);
        assert_eq!(MemoryConfig::new(2, 2048).power_w(), 1.1e-6);
        assert_eq!(MemoryConfig::new(8, 512).power_w(), 5.6e-6);
    }

    #[test]
    fn approximate_model_is_sane_for_other_configs() {
        let c = MemoryConfig::new(2, 1024);
        assert!(c.jj_count() > 50_000 && c.jj_count() < 200_000);
        assert!(c.power_w() > 0.0 && c.power_w() < 20e-6);
        // 3000 bits at 41 JJ/bit plus 3 channels at 500.
        assert_eq!(MemoryConfig::new(3, 1000).jj_count(), 124_500);
    }

    #[test]
    fn display_matches_table2_style() {
        assert_eq!(
            MemoryConfig::new(4, 1024).to_string(),
            "4 Channel = 1Kb x 4"
        );
        assert_eq!(
            MemoryConfig::new(8, 512).to_string(),
            "8 Channel = 512b x 8"
        );
    }
}
