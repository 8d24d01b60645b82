//! Dense state-vector simulator for small qubit counts, kept as a test
//! oracle: `cross_validation.rs` runs random Clifford circuits on it and
//! on the tableau and compares outcome determinism and values, and
//! `t_gadget.rs` models the non-Clifford T gate of magic-state
//! distillation on it. No library code uses it.

// Each test binary that includes this module uses a different subset of it.
#![allow(dead_code)]

use quest_stabilizer::{Circuit, Gate};
use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Minimal complex number (avoids an external dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Builds a complex number from parts.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// `e^{iθ}`.
    pub fn from_polar_unit(theta: f64) -> Complex {
        Complex::new(theta.cos(), theta.sin())
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.4}{:+.4}i", self.re, self.im)
    }
}

/// Maximum qubit count accepted by [`StateVector::new`]; `2^24` amplitudes
/// (256 MiB) is already past anything this repository needs.
pub const MAX_QUBITS: usize = 24;

/// Dense `2^n`-amplitude state-vector simulator.
#[derive(Debug, Clone)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// Creates the `|0…0⟩` state on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than [`MAX_QUBITS`].
    pub fn new(n: usize) -> StateVector {
        assert!(n > 0, "state vector needs at least one qubit");
        assert!(
            n <= MAX_QUBITS,
            "state vector limited to {MAX_QUBITS} qubits"
        );
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// Amplitude of basis state `idx` (bit `q` of `idx` is qubit `q`).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 2^n`.
    pub fn amplitude(&self, idx: usize) -> Complex {
        self.amps[idx]
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
    }

    /// Applies an arbitrary single-qubit unitary given by its 2×2 matrix
    /// `[[a, b], [c, d]]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn apply_1q(&mut self, q: usize, a: Complex, b: Complex, c: Complex, d: Complex) {
        self.check_qubit(q);
        let mask = 1usize << q;
        for i in 0..self.amps.len() {
            if i & mask == 0 {
                let j = i | mask;
                let (v0, v1) = (self.amps[i], self.amps[j]);
                self.amps[i] = a * v0 + b * v1;
                self.amps[j] = c * v0 + d * v1;
            }
        }
    }

    /// Hadamard gate.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn h(&mut self, q: usize) {
        let s = Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        self.apply_1q(q, s, s, s, -s);
    }

    /// Pauli X.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn x(&mut self, q: usize) {
        self.apply_1q(q, Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO);
    }

    /// Pauli Y.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn y(&mut self, q: usize) {
        self.apply_1q(q, Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO);
    }

    /// Pauli Z.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn z(&mut self, q: usize) {
        self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE);
    }

    /// Phase gate `S`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s(&mut self, q: usize) {
        self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::I);
    }

    /// Inverse phase gate `S†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s_dagger(&mut self, q: usize) {
        self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::I);
    }

    /// T gate (`π/8` rotation, the non-Clifford gate requiring magic
    /// states in the fault-tolerant model).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn t(&mut self, q: usize) {
        let phase = Complex::from_polar_unit(std::f64::consts::FRAC_PI_4);
        self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, phase);
    }

    /// Inverse T gate.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn t_dagger(&mut self, q: usize) {
        let phase = Complex::from_polar_unit(-std::f64::consts::FRAC_PI_4);
        self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, phase);
    }

    /// CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT control and target must differ");
        let cm = 1usize << c;
        let tm = 1usize << t;
        for i in 0..self.amps.len() {
            if i & cm != 0 && i & tm == 0 {
                self.amps.swap(i, i | tm);
            }
        }
    }

    /// Controlled-Z between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "CZ qubits must differ");
        let am = 1usize << a;
        let bm = 1usize << b;
        for i in 0..self.amps.len() {
            if i & am != 0 && i & bm != 0 {
                self.amps[i] = -self.amps[i];
            }
        }
    }

    /// Swap gate.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Probability that measuring qubit `q` yields 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn prob_one(&self, q: usize) -> f64 {
        self.check_qubit(q);
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Measures qubit `q` in the Z basis, collapsing the state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
        outcome
    }

    /// Resets qubit `q` to `|0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            self.x(q);
        }
    }

    fn collapse(&mut self, q: usize, outcome: bool, prob: f64) {
        let mask = 1usize << q;
        let norm = 1.0 / prob.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i & mask != 0) == outcome {
                *a = *a * norm;
            } else {
                *a = Complex::ZERO;
            }
        }
    }

    /// Applies a Clifford [`Gate`]; measurement outcomes are appended to
    /// `results` as booleans.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits.
    pub fn apply_gate<R: Rng + ?Sized>(&mut self, g: Gate, rng: &mut R, results: &mut Vec<bool>) {
        match g {
            Gate::I(_) => {}
            Gate::X(q) => self.x(q),
            Gate::Y(q) => self.y(q),
            Gate::Z(q) => self.z(q),
            Gate::H(q) => self.h(q),
            Gate::S(q) => self.s(q),
            Gate::Sdg(q) => self.s_dagger(q),
            Gate::Cnot(c, t) => self.cnot(c, t),
            Gate::Cz(a, b) => self.cz(a, b),
            Gate::Swap(a, b) => self.swap(a, b),
            Gate::PrepZ(q) => self.reset(q, rng),
            Gate::PrepX(q) => {
                self.reset(q, rng);
                self.h(q);
            }
            Gate::MeasZ(q) => results.push(self.measure(q, rng)),
            Gate::MeasX(q) => {
                self.h(q);
                let m = self.measure(q, rng);
                self.h(q);
                results.push(m);
            }
        }
    }

    /// Runs a Clifford circuit, returning measurement outcomes in order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits.
    pub fn run_circuit<R: Rng + ?Sized>(&mut self, c: &Circuit, rng: &mut R) -> Vec<bool> {
        let mut results = Vec::with_capacity(c.num_measurements());
        for &g in c {
            self.apply_gate(g, rng, &mut results);
        }
        results
    }

    /// Fidelity `|⟨self|other⟩|²` between two states.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        let mut inner = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            inner += a.conj() * *b;
        }
        inner.norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    #[test]
    fn fresh_state_is_all_zero() {
        let sv = StateVector::new(3);
        assert!((sv.amplitude(0).norm_sqr() - 1.0).abs() < EPS);
        for q in 0..3 {
            assert!(sv.prob_one(q) < EPS);
        }
    }

    #[test]
    fn x_excites() {
        let mut sv = StateVector::new(2);
        sv.x(1);
        assert!((sv.prob_one(1) - 1.0).abs() < EPS);
        assert!(sv.prob_one(0) < EPS);
    }

    #[test]
    fn hh_is_identity() {
        let mut sv = StateVector::new(1);
        sv.h(0);
        sv.h(0);
        assert!((sv.amplitude(0).norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn t_squared_is_s() {
        let mut a = StateVector::new(1);
        a.h(0);
        a.t(0);
        a.t(0);
        let mut b = StateVector::new(1);
        b.h(0);
        b.s(0);
        assert!((a.fidelity(&b) - 1.0).abs() < EPS);
    }

    #[test]
    fn t_then_t_dagger_cancels() {
        let mut a = StateVector::new(1);
        a.h(0);
        let before = a.clone();
        a.t(0);
        a.t_dagger(0);
        assert!((a.fidelity(&before) - 1.0).abs() < EPS);
    }

    #[test]
    fn bell_measurements_correlate() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sv = StateVector::new(2);
            sv.h(0);
            sv.cnot(0, 1);
            assert!((sv.prob_one(0) - 0.5).abs() < EPS);
            let a = sv.measure(0, &mut rng);
            let b = sv.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cz_phases_correctly() {
        // CZ on |++⟩ then H on the second qubit yields a Bell-like state;
        // check via fidelity with CNOT construction.
        let mut a = StateVector::new(2);
        a.h(0);
        a.h(1);
        a.cz(0, 1);
        a.h(1);
        let mut b = StateVector::new(2);
        b.h(0);
        b.cnot(0, 1);
        assert!((a.fidelity(&b) - 1.0).abs() < EPS);
    }

    #[test]
    fn magic_state_has_expected_amplitudes() {
        // |A⟩ = T H |0⟩ = (|0⟩ + e^{iπ/4}|1⟩)/√2.
        let mut sv = StateVector::new(1);
        sv.h(0);
        sv.t(0);
        let a0 = sv.amplitude(0);
        let a1 = sv.amplitude(1);
        assert!((a0.norm_sqr() - 0.5).abs() < EPS);
        assert!((a1.norm_sqr() - 0.5).abs() < EPS);
        let expected =
            Complex::from_polar_unit(std::f64::consts::FRAC_PI_4) * std::f64::consts::FRAC_1_SQRT_2;
        assert!((a1 - expected).norm_sqr() < EPS);
    }

    #[test]
    fn reset_restores_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.cnot(0, 1);
        sv.reset(0, &mut rng);
        assert!(sv.prob_one(0) < EPS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_qubit_panics() {
        let mut sv = StateVector::new(1);
        sv.h(3);
    }
}
