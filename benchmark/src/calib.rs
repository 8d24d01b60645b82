//! The machine-speed reference kernel behind `work_per_calib`.
//!
//! The sandbox's cores run up to 30 % slower for minutes at a time
//! (neighbours, not preemption: process CPU time tracks wall time), so
//! identical passes drift together. This fixed kernel is timed right
//! before and right after every pass; dividing a pass's throughput by
//! the kernel's speed at that moment cancels the part of the drift the
//! two share. The kernel is defined once and must never change: every
//! `work_per_calib` ever reported is in units of it.

use std::hint::black_box;
use std::time::Instant;

/// 256 KiB of `u64`s: fits L2, spills L1, like the sampler's planes.
const WORDS: usize = 32 * 1024;
/// Sweeps over the buffer per kernel run; sized for ≈25 ms.
const SWEEPS: usize = 300;

/// The calibration kernel and its buffer.
pub struct Calibrator {
    buffer: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buffer: vec![0; WORDS],
        }
    }

    /// Runs the kernel once and returns its wall-clock seconds:
    /// SplitMix64 draws xored into the buffer with a running popcount.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut ones = 0u64;
        for _ in 0..SWEEPS {
            for word in &mut self.buffer {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word ^= z ^ (z >> 31);
                ones += u64::from(word.count_ones());
            }
        }
        black_box(ones);
        started.elapsed().as_secs_f64()
    }
}
