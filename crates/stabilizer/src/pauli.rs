//! Single- and multi-qubit Pauli operators.
//!
//! [`Pauli`] is the four-element single-qubit Pauli group modulo phase;
//! [`PauliString`] is an n-qubit Pauli operator with a global sign. Pauli
//! strings are used to describe injected errors, logical operators of the
//! surface code, and decoder corrections.

use std::fmt;
use std::ops::Mul;

/// A single-qubit Pauli operator (phase is tracked separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Pauli {
    /// The identity operator.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip (`Y = iXZ`).
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four Paulis, in the conventional `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The three non-identity Paulis.
    pub const ERRORS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns `true` when the operator has an X component (X or Y).
    ///
    /// ```
    /// use quest_stabilizer::Pauli;
    /// assert!(Pauli::Y.has_x());
    /// assert!(!Pauli::Z.has_x());
    /// ```
    pub fn has_x(self) -> bool {
        matches!(self, Pauli::X | Pauli::Y)
    }

    /// Returns `true` when the operator has a Z component (Z or Y).
    pub fn has_z(self) -> bool {
        matches!(self, Pauli::Z | Pauli::Y)
    }

    /// Builds a Pauli from its X/Z components.
    ///
    /// ```
    /// use quest_stabilizer::Pauli;
    /// assert_eq!(Pauli::from_xz(true, true), Pauli::Y);
    /// ```
    pub fn from_xz(x: bool, z: bool) -> Pauli {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Returns `true` when `self` commutes with `other`.
    ///
    /// Two single-qubit Paulis anticommute exactly when they are distinct
    /// non-identity operators.
    ///
    /// ```
    /// use quest_stabilizer::Pauli;
    /// assert!(Pauli::X.commutes_with(Pauli::X));
    /// assert!(!Pauli::X.commutes_with(Pauli::Z));
    /// ```
    pub fn commutes_with(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }
}

impl Mul for Pauli {
    type Output = Pauli;

    /// Pauli multiplication modulo phase: `X * Z = Y`, etc.
    fn mul(self, rhs: Pauli) -> Pauli {
        Pauli::from_xz(self.has_x() ^ rhs.has_x(), self.has_z() ^ rhs.has_z())
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// An n-qubit Pauli operator with a `±1` sign.
///
/// The string is stored densely; index `q` is the Pauli acting on qubit `q`.
///
/// # Example
///
/// ```
/// use quest_stabilizer::{Pauli, PauliString};
///
/// let mut p = PauliString::identity(3);
/// p.set(0, Pauli::X);
/// p.set(2, Pauli::Z);
/// assert_eq!(p.to_string(), "+XIZ");
/// assert_eq!(p.weight(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    ops: Vec<Pauli>,
    negative: bool,
}

impl PauliString {
    /// The identity operator on `n` qubits.
    pub fn identity(n: usize) -> PauliString {
        PauliString {
            ops: vec![Pauli::I; n],
            negative: false,
        }
    }

    /// Builds a Pauli string from `(qubit, Pauli)` pairs; all other qubits
    /// get the identity.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of bounds.
    pub fn from_sparse(n: usize, terms: &[(usize, Pauli)]) -> PauliString {
        let mut s = PauliString::identity(n);
        for &(q, p) in terms {
            s.set(q, s.get(q) * p);
        }
        s
    }

    /// Number of qubits the string is defined on.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` for a zero-qubit string.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The Pauli acting on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn get(&self, q: usize) -> Pauli {
        self.ops[q]
    }

    /// Sets the Pauli acting on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn set(&mut self, q: usize, p: Pauli) {
        self.ops[q] = p;
    }

    /// The `±1` sign of the operator (`true` means negative).
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Flips the sign of the operator.
    pub fn negate(&mut self) {
        self.negative = !self.negative;
    }

    /// Number of non-identity sites.
    pub fn weight(&self) -> usize {
        self.ops.iter().filter(|&&p| p != Pauli::I).count()
    }

    /// Returns `true` when `self` commutes with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let anticommuting_sites = self
            .ops
            .iter()
            .zip(&other.ops)
            .filter(|(a, b)| !a.commutes_with(**b))
            .count();
        anticommuting_sites % 2 == 0
    }

    /// Multiplies `other` into `self`, tracking the sign but discarding any
    /// residual `±i` phase (which cannot occur for commuting products of
    /// Hermitian operators used in this crate).
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths.
    pub fn mul_assign(&mut self, other: &PauliString) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        // Track the power of i accumulated by per-site multiplication:
        // X*Z = -iY, Z*X = iY, etc. We count i-exponent mod 4.
        let mut i_exp: u32 = 0;
        for (a, &b) in self.ops.iter_mut().zip(&other.ops) {
            i_exp = (i_exp + pauli_mul_i_exp(*a, b)) % 4;
            *a = *a * b;
        }
        debug_assert!(
            i_exp.is_multiple_of(2),
            "product of the two Pauli strings is not Hermitian"
        );
        if i_exp == 2 {
            self.negate();
        }
        if other.negative {
            self.negate();
        }
    }

    /// Iterates over `(qubit, Pauli)` pairs for every non-identity site.
    pub fn iter_support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != Pauli::I)
            .map(|(q, &p)| (q, p))
    }
}

/// Exponent of `i` produced when multiplying single-qubit Paulis `a * b`.
fn pauli_mul_i_exp(a: Pauli, b: Pauli) -> u32 {
    use Pauli::*;
    match (a, b) {
        (X, Y) | (Y, Z) | (Z, X) => 1, // e.g. X*Y = iZ
        (Y, X) | (Z, Y) | (X, Z) => 3, // e.g. Y*X = -iZ
        _ => 0,
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.negative { '-' } else { '+' })?;
        for p in &self.ops {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_multiplication_table() {
        use Pauli::*;
        assert_eq!(X * X, I);
        assert_eq!(X * Z, Y);
        assert_eq!(Z * X, Y);
        assert_eq!(Y * X, Z);
        assert_eq!(Y * Z, X);
        assert_eq!(I * Y, Y);
    }

    #[test]
    fn commutation_rules() {
        use Pauli::*;
        for p in Pauli::ALL {
            assert!(p.commutes_with(I));
            assert!(p.commutes_with(p));
        }
        assert!(!X.commutes_with(Z));
        assert!(!X.commutes_with(Y));
        assert!(!Y.commutes_with(Z));
    }

    #[test]
    fn from_xz_round_trips() {
        for p in Pauli::ALL {
            assert_eq!(Pauli::from_xz(p.has_x(), p.has_z()), p);
        }
    }

    #[test]
    fn string_weight_and_display() {
        let p = PauliString::from_sparse(4, &[(1, Pauli::X), (3, Pauli::Y)]);
        assert_eq!(p.weight(), 2);
        assert_eq!(p.to_string(), "+IXIY");
    }

    #[test]
    fn string_commutation_counts_anticommuting_sites() {
        let xx = PauliString::from_sparse(2, &[(0, Pauli::X), (1, Pauli::X)]);
        let zz = PauliString::from_sparse(2, &[(0, Pauli::Z), (1, Pauli::Z)]);
        let zi = PauliString::from_sparse(2, &[(0, Pauli::Z)]);
        // XX and ZZ anticommute on both sites -> commute overall.
        assert!(xx.commutes_with(&zz));
        // XX and ZI anticommute on one site -> anticommute overall.
        assert!(!xx.commutes_with(&zi));
    }

    #[test]
    fn string_multiplication_tracks_sign() {
        // (XX) * (ZZ): per-site X*Z = -iY, so (-i)^2 = -1 and the result is -YY.
        let xx = PauliString::from_sparse(2, &[(0, Pauli::X), (1, Pauli::X)]);
        let zz = PauliString::from_sparse(2, &[(0, Pauli::Z), (1, Pauli::Z)]);
        let mut prod = xx.clone();
        prod.mul_assign(&zz);
        assert_eq!(prod.get(0), Pauli::Y);
        assert_eq!(prod.get(1), Pauli::Y);
        assert!(prod.is_negative());
        // Multiplying again by ZZ returns to +XX.
        prod.mul_assign(&zz);
        assert_eq!(prod, xx);
    }

    #[test]
    fn sparse_builder_multiplies_repeated_sites() {
        let p = PauliString::from_sparse(1, &[(0, Pauli::X), (0, Pauli::Z)]);
        assert_eq!(p.get(0), Pauli::Y);
    }
}
