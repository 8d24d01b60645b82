//! Pauli noise channels.
//!
//! The paper's error model (§3.1, §6.2) is a physical error rate per QECC
//! cycle on superconducting qubits. Because Pauli errors commute through
//! Clifford circuits, injecting random single-qubit Paulis between syndrome
//! rounds reproduces the standard circuit-level/phenomenological noise models
//! used in surface-code studies.

use crate::pauli::{Pauli, PauliString};
use crate::tableau::Tableau;
use rand::Rng;

/// A stochastic single-qubit Pauli channel applied independently per qubit.
pub trait NoiseChannel {
    /// Samples the error applied to one qubit.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli;

    /// Samples an error layer over `n` qubits as a [`PauliString`].
    fn sample_layer<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> PauliString {
        let mut layer = PauliString::identity(n);
        for q in 0..n {
            layer.set(q, self.sample(rng));
        }
        layer
    }

    /// Applies one sampled error layer directly to a tableau, returning the
    /// layer that was applied (for diagnostics and decoder validation).
    fn apply_layer<R: Rng + ?Sized>(&self, t: &mut Tableau, rng: &mut R) -> PauliString {
        let layer = self.sample_layer(t.num_qubits(), rng);
        t.pauli_string(&layer);
        layer
    }
}

/// Independent X/Y/Z error probabilities per qubit.
///
/// # Example
///
/// ```
/// use quest_stabilizer::{NoiseChannel, PauliChannel};
///
/// let depolarizing = PauliChannel::depolarizing(3e-3);
/// assert!((depolarizing.total_error_probability() - 3e-3).abs() < 1e-12);
/// let bitflip = PauliChannel::bit_flip(1e-2);
/// assert_eq!(bitflip.total_error_probability(), 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauliChannel {
    px: f64,
    py: f64,
    pz: f64,
    /// `⌈p·2⁵³⌉` for `p` = `px`, `px + py` and `px + py + pz`: the
    /// thresholds [`NoiseChannel::sample`] compares a draw's 53 bits with.
    thresholds: [u64; 3],
}

/// `⌈p·2⁵³⌉`, exactly: scaling by a power of two is exact, and so is the
/// ceiling of a value no larger than `2⁵³`. A uniform draw `m·2⁻⁵³` (`m`
/// its top 53 bits) is below `p` exactly when `m` is below this.
pub(crate) fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl PauliChannel {
    /// Channel with explicit X/Y/Z probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or the sum exceeds 1.
    pub fn new(px: f64, py: f64, pz: f64) -> PauliChannel {
        assert!(px >= 0.0 && py >= 0.0 && pz >= 0.0, "negative probability");
        assert!(px + py + pz <= 1.0, "probabilities sum to more than 1");
        PauliChannel {
            px,
            py,
            pz,
            thresholds: [px, px + py, px + py + pz].map(threshold),
        }
    }

    /// Symmetric depolarizing channel with total error probability `p`
    /// (each Pauli with probability `p/3`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn depolarizing(p: f64) -> PauliChannel {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        PauliChannel::new(p / 3.0, p / 3.0, p / 3.0)
    }

    /// Pure bit-flip channel.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bit_flip(p: f64) -> PauliChannel {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        PauliChannel::new(p, 0.0, 0.0)
    }

    /// Pure phase-flip channel.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn phase_flip(p: f64) -> PauliChannel {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        PauliChannel::new(0.0, 0.0, p)
    }

    /// The noiseless channel.
    pub fn noiseless() -> PauliChannel {
        PauliChannel::new(0.0, 0.0, 0.0)
    }

    /// Probability that *some* error occurs on a qubit.
    pub fn total_error_probability(&self) -> f64 {
        self.px + self.py + self.pz
    }

    /// X-error probability.
    pub fn px(&self) -> f64 {
        self.px
    }

    /// Y-error probability.
    pub fn py(&self) -> f64 {
        self.py
    }

    /// Z-error probability.
    pub fn pz(&self) -> f64 {
        self.pz
    }
}

impl NoiseChannel for PauliChannel {
    /// One draw, none when the channel is noiseless. The draw is the
    /// `u = m·2⁻⁵³` of `rng.gen::<f64>()`, `m` its top 53 bits, and the
    /// error the first of X, Y, Z whose cumulative probability (`px`,
    /// `px + py`, `px + py + pz`, summed in `f64`) exceeds `u`. Since
    /// `m·2⁻⁵³ < p` exactly when the integer `m` is below `⌈p·2⁵³⌉`, the
    /// channel compares `m` with those integers instead: the same error
    /// for every draw, and in the common case (no error) one comparison.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        let [x, xy, total] = self.thresholds;
        if total == 0 {
            return Pauli::I;
        }
        let m = rng.next_u64() >> 11;
        if m >= total {
            Pauli::I
        } else if m < x {
            Pauli::X
        } else if m < xy {
            Pauli::Y
        } else {
            Pauli::Z
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_channel_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let ch = PauliChannel::noiseless();
        for _ in 0..100 {
            assert_eq!(ch.sample(&mut rng), Pauli::I);
        }
    }

    #[test]
    fn bit_flip_only_produces_x() {
        let mut rng = StdRng::seed_from_u64(2);
        let ch = PauliChannel::bit_flip(0.5);
        let mut seen_x = false;
        for _ in 0..200 {
            match ch.sample(&mut rng) {
                Pauli::X => seen_x = true,
                Pauli::I => {}
                other => panic!("unexpected {other}"),
            }
        }
        assert!(seen_x);
    }

    #[test]
    fn depolarizing_rate_is_approximately_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = 0.2;
        let ch = PauliChannel::depolarizing(p);
        let n = 20_000;
        let errors = (0..n).filter(|_| ch.sample(&mut rng) != Pauli::I).count();
        let rate = errors as f64 / n as f64;
        assert!((rate - p).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn layer_has_correct_length() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = PauliChannel::depolarizing(0.3).sample_layer(17, &mut rng);
        assert_eq!(layer.len(), 17);
    }

    #[test]
    fn apply_layer_reports_what_it_did() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tableau::new(8);
        let layer = PauliChannel::bit_flip(1.0).apply_layer(&mut t, &mut rng);
        // With p = 1 every qubit gets an X and measures 1.
        assert_eq!(layer.weight(), 8);
        for q in 0..8 {
            assert!(t.measure(q, &mut rng).value);
        }
    }

    /// Returns one fixed word on every draw, and counts the draws.
    struct Fixed {
        word: u64,
        draws: u32,
    }

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.word as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.word
        }
    }

    /// What `sample` answers for the draw `k` by the `f64` chain: `u` is
    /// `rng.gen::<f64>()` for a generator that returns `k`.
    fn by_floats(ch: &PauliChannel, k: u64) -> Pauli {
        let total = ch.total_error_probability();
        if total == 0.0 {
            return Pauli::I;
        }
        let u = (k >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < ch.px() {
            Pauli::X
        } else if u < ch.px() + ch.py() {
            Pauli::Y
        } else if u < total {
            Pauli::Z
        } else {
            Pauli::I
        }
    }

    /// `sample` on the draw `k` against the `f64` chain: the same error,
    /// from exactly one draw (none from a noiseless channel).
    fn check(ch: &PauliChannel, k: u64) -> Result<(), String> {
        let mut rng = Fixed { word: k, draws: 0 };
        let got = ch.sample(&mut rng);
        let want = by_floats(ch, k);
        let draws = u32::from(ch.total_error_probability() > 0.0);
        match (got == want, rng.draws == draws) {
            (true, true) => Ok(()),
            _ => Err(format!(
                "{ch:?}, draw {k:#x}: {got} in {} draws, the f64 chain {want} in {draws}",
                rng.draws
            )),
        }
    }

    /// The draws whose top 53 bits sit one below, at and one above each
    /// threshold of `ch`, with the low 11 bits clear and set.
    fn around_thresholds(ch: &PauliChannel) -> impl Iterator<Item = u64> {
        ch.thresholds
            .into_iter()
            .flat_map(|t| [t.wrapping_sub(1), t, t + 1])
            .filter(|&m| m < 1 << 53)
            .flat_map(|m| [m << 11, m << 11 | 0x7ff])
    }

    #[test]
    fn integer_thresholds_answer_as_the_f64_chain() {
        let mut channels = Vec::new();
        for p in [0.0, 1.0, 1.0 / (1u64 << 53) as f64, 1e-300, 1.0 / 3.0] {
            channels.extend([
                PauliChannel::bit_flip(p),
                PauliChannel::phase_flip(p),
                PauliChannel::new(0.0, p, 0.0),
                PauliChannel::depolarizing(p),
            ]);
        }
        for p in [1e-3, 5e-3, 1e-2, 2e-2] {
            channels.extend([
                PauliChannel::depolarizing(p),
                PauliChannel::bit_flip(p / 3.0),
            ]);
        }
        for ch in &channels {
            for k in around_thresholds(ch).chain([0, u64::MAX]) {
                check(ch, k).unwrap();
            }
        }
        // The accessors the sweep path reads keep the values they were
        // built from.
        let ch = PauliChannel::depolarizing(2e-2);
        assert_eq!(
            (ch.px(), ch.py(), ch.pz()),
            (2e-2 / 3.0, 2e-2 / 3.0, 2e-2 / 3.0)
        );
        assert_eq!(
            ch.total_error_probability(),
            2e-2 / 3.0 + 2e-2 / 3.0 + 2e-2 / 3.0
        );
    }

    proptest::proptest! {
        #[test]
        fn any_channel_answers_any_draw_as_the_f64_chain(
            mantissas in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            exponents in (0i32..60, 0i32..60, 0i32..60),
            k in proptest::prelude::any::<u64>(),
        ) {
            // Spread over many magnitudes, down to 2⁻⁶⁰.
            let ((mx, my, mz), (ex, ey, ez)) = (mantissas, exponents);
            let (px, py, pz) = (mx * 2f64.powi(-ex), my * 2f64.powi(-ey), mz * 2f64.powi(-ez));
            proptest::prop_assume!(px + py + pz <= 1.0);
            let ch = PauliChannel::new(px, py, pz);
            for k in around_thresholds(&ch).chain([k]) {
                check(&ch, k).map_err(proptest::TestCaseError::fail)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to more than 1")]
    fn overfull_channel_panics() {
        PauliChannel::new(0.5, 0.4, 0.2);
    }
}
