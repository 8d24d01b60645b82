//! Rotated surface-code lattice geometry.
//!
//! A distance-`d` rotated surface code uses `d²` data qubits on a square
//! grid and `d² − 1` ancilla qubits, one per stabilizer plaquette. X-type
//! boundaries run along the top and bottom, Z-type boundaries along the left
//! and right. Logical X is a vertical column of physical X operators;
//! logical Z is a horizontal row of physical Z operators.
//!
//! Qubit numbering for simulation: data qubits are `0 .. d²` (row-major),
//! ancillas follow at `d² ..`.

use quest_stabilizer::{Pauli, PauliString};
use std::fmt;

/// Stabilizer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StabKind {
    /// X-type stabilizer (detects Z errors).
    X,
    /// Z-type stabilizer (detects X errors).
    Z,
}

impl StabKind {
    /// The opposite stabilizer type.
    pub fn other(self) -> StabKind {
        match self {
            StabKind::X => StabKind::Z,
            StabKind::Z => StabKind::X,
        }
    }

    /// The Pauli error type detected by this stabilizer type.
    pub fn detects(self) -> Pauli {
        match self {
            StabKind::X => Pauli::Z,
            StabKind::Z => Pauli::X,
        }
    }
}

impl fmt::Display for StabKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabKind::X => write!(f, "X"),
            StabKind::Z => write!(f, "Z"),
        }
    }
}

/// One stabilizer plaquette and its ancilla qubit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaquette {
    /// Plaquette row in `0..=d`.
    pub row: usize,
    /// Plaquette column in `0..=d`.
    pub col: usize,
    /// Stabilizer type.
    pub kind: StabKind,
    /// Data-qubit indices in geometric order `[NW, NE, SW, SE]`; boundary
    /// plaquettes omit the missing corners.
    pub data: Vec<usize>,
    /// Simulation index of the ancilla qubit.
    pub ancilla: usize,
}

/// Data qubits of a plaquette by geometric corner, `None` when outside the
/// lattice. Order: NW, NE, SW, SE.
pub type Corners = [Option<usize>; 4];

/// Distance-`d` rotated surface-code lattice.
///
/// # Example
///
/// ```
/// use quest_surface::RotatedLattice;
///
/// let lat = RotatedLattice::new(3);
/// assert_eq!(lat.num_data(), 9);
/// assert_eq!(lat.num_ancillas(), 8);
/// assert_eq!(lat.num_qubits(), 17);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotatedLattice {
    d: usize,
    plaquettes: Vec<Plaquette>,
}

impl RotatedLattice {
    /// Builds the lattice for odd code distance `d ≥ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even or less than 3.
    pub fn new(d: usize) -> RotatedLattice {
        assert!(d >= 3, "code distance must be at least 3");
        assert!(d % 2 == 1, "code distance must be odd");
        let mut plaquettes = Vec::new();
        let mut ancilla = d * d;
        for row in 0..=d {
            for col in 0..=d {
                // X plaquettes sit on odd-parity corners so that the kept
                // boundary stabilizers land on the top/bottom edges.
                let kind = if (row + col) % 2 == 1 {
                    StabKind::X
                } else {
                    StabKind::Z
                };
                let corners = Self::corner_data(d, row, col);
                let data: Vec<usize> = corners.iter().flatten().copied().collect();
                let keep = match data.len() {
                    4 => true,
                    2 => match kind {
                        // Weight-2 X stabilizers only on the top/bottom edge.
                        StabKind::X => row == 0 || row == d,
                        // Weight-2 Z stabilizers only on the left/right edge.
                        StabKind::Z => col == 0 || col == d,
                    },
                    _ => false,
                };
                if keep {
                    plaquettes.push(Plaquette {
                        row,
                        col,
                        kind,
                        data,
                        ancilla,
                    });
                    ancilla += 1;
                }
            }
        }
        RotatedLattice { d, plaquettes }
    }

    /// Data-qubit indices at the four corners of plaquette `(row, col)`,
    /// `None` where the corner falls outside the `d × d` data grid.
    fn corner_data(d: usize, row: usize, col: usize) -> Corners {
        let at = |r: isize, c: isize| -> Option<usize> {
            if r >= 0 && c >= 0 && (r as usize) < d && (c as usize) < d {
                Some(r as usize * d + c as usize)
            } else {
                None
            }
        };
        let (r, c) = (row as isize, col as isize);
        [
            at(r - 1, c - 1), // NW
            at(r - 1, c),     // NE
            at(r, c - 1),     // SW
            at(r, c),         // SE
        ]
    }

    /// Code distance.
    pub fn distance(&self) -> usize {
        self.d
    }

    /// Number of data qubits (`d²`).
    pub fn num_data(&self) -> usize {
        self.d * self.d
    }

    /// Number of ancilla qubits (`d² − 1`).
    pub fn num_ancillas(&self) -> usize {
        self.plaquettes.len()
    }

    /// Total simulated qubits (data + ancilla).
    pub fn num_qubits(&self) -> usize {
        self.num_data() + self.num_ancillas()
    }

    /// All plaquettes in ancilla-index order.
    pub fn plaquettes(&self) -> &[Plaquette] {
        &self.plaquettes
    }

    /// Plaquettes of one stabilizer type, in ancilla-index order.
    pub fn plaquettes_of(&self, kind: StabKind) -> impl Iterator<Item = &Plaquette> {
        self.plaquettes.iter().filter(move |p| p.kind == kind)
    }

    /// Corner layout (with gaps) for a plaquette, used by the CNOT
    /// scheduler.
    pub fn corners(&self, p: &Plaquette) -> Corners {
        Self::corner_data(self.d, p.row, p.col)
    }

    /// Simulation index of data qubit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the `d × d` grid.
    pub fn data_index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.d && col < self.d, "data coordinate out of range");
        row * self.d + col
    }

    /// The plaquettes (of the given type) containing a data qubit. Every
    /// data qubit belongs to one or two plaquettes of each type.
    pub fn stabilizers_on(&self, data: usize, kind: StabKind) -> Vec<&Plaquette> {
        self.plaquettes
            .iter()
            .filter(|p| p.kind == kind && p.data.contains(&data))
            .collect()
    }

    /// Logical X operator: physical X on the left-most column of data
    /// qubits (connecting the two X-type boundaries).
    pub fn logical_x(&self) -> PauliString {
        let mut p = PauliString::identity(self.num_qubits());
        for row in 0..self.d {
            p.set(self.data_index(row, 0), Pauli::X);
        }
        p
    }

    /// Logical Z operator: physical Z on the top row of data qubits
    /// (connecting the two Z-type boundaries).
    pub fn logical_z(&self) -> PauliString {
        let mut p = PauliString::identity(self.num_qubits());
        for col in 0..self.d {
            p.set(self.data_index(0, col), Pauli::Z);
        }
        p
    }

    /// The stabilizer of a plaquette as a signed Pauli string over all
    /// simulated qubits.
    pub fn stabilizer_operator(&self, p: &Plaquette) -> PauliString {
        let pauli = match p.kind {
            StabKind::X => Pauli::X,
            StabKind::Z => Pauli::Z,
        };
        let mut s = PauliString::identity(self.num_qubits());
        for &q in &p.data {
            s.set(q, pauli);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3_counts() {
        let lat = RotatedLattice::new(3);
        assert_eq!(lat.num_data(), 9);
        assert_eq!(lat.num_ancillas(), 8);
        let x = lat.plaquettes_of(StabKind::X).count();
        let z = lat.plaquettes_of(StabKind::Z).count();
        assert_eq!(x, 4);
        assert_eq!(z, 4);
    }

    #[test]
    fn d5_counts() {
        let lat = RotatedLattice::new(5);
        assert_eq!(lat.num_data(), 25);
        assert_eq!(lat.num_ancillas(), 24);
        assert_eq!(lat.plaquettes_of(StabKind::X).count(), 12);
        assert_eq!(lat.plaquettes_of(StabKind::Z).count(), 12);
    }

    #[test]
    fn plaquette_weights_are_2_or_4() {
        for d in [3, 5, 7] {
            let lat = RotatedLattice::new(d);
            for p in lat.plaquettes() {
                assert!(p.data.len() == 2 || p.data.len() == 4);
            }
        }
    }

    #[test]
    fn weight_two_plaquettes_sit_on_correct_boundaries() {
        let lat = RotatedLattice::new(5);
        for p in lat.plaquettes() {
            if p.data.len() == 2 {
                match p.kind {
                    StabKind::X => assert!(p.row == 0 || p.row == 5),
                    StabKind::Z => assert!(p.col == 0 || p.col == 5),
                }
            }
        }
    }

    #[test]
    fn stabilizers_commute_pairwise() {
        let lat = RotatedLattice::new(5);
        let ops: Vec<_> = lat
            .plaquettes()
            .iter()
            .map(|p| lat.stabilizer_operator(p))
            .collect();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert!(a.commutes_with(b));
            }
        }
    }

    #[test]
    fn logicals_commute_with_stabilizers_and_anticommute_with_each_other() {
        for d in [3, 5] {
            let lat = RotatedLattice::new(d);
            let lx = lat.logical_x();
            let lz = lat.logical_z();
            for p in lat.plaquettes() {
                let s = lat.stabilizer_operator(p);
                assert!(lx.commutes_with(&s), "d={d} X_L vs {:?}", (p.row, p.col));
                assert!(lz.commutes_with(&s), "d={d} Z_L vs {:?}", (p.row, p.col));
            }
            assert!(!lx.commutes_with(&lz));
            assert_eq!(lx.weight(), d);
            assert_eq!(lz.weight(), d);
        }
    }

    #[test]
    fn every_data_qubit_in_one_or_two_stabilizers_of_each_kind() {
        for d in [3, 5, 7] {
            let lat = RotatedLattice::new(d);
            for q in 0..lat.num_data() {
                for kind in [StabKind::X, StabKind::Z] {
                    let n = lat.stabilizers_on(q, kind).len();
                    assert!(
                        n == 1 || n == 2,
                        "d={d} data {q} is in {n} {kind} stabilizers"
                    );
                }
            }
        }
    }

    #[test]
    fn ancilla_indices_are_contiguous_after_data() {
        let lat = RotatedLattice::new(3);
        let mut indices: Vec<_> = lat.plaquettes().iter().map(|p| p.ancilla).collect();
        indices.sort_unstable();
        let expected: Vec<_> = (9..17).collect();
        assert_eq!(indices, expected);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_distance_panics() {
        RotatedLattice::new(4);
    }

    #[test]
    fn stab_kind_helpers() {
        assert_eq!(StabKind::X.other(), StabKind::Z);
        assert_eq!(StabKind::Z.detects(), Pauli::X);
        assert_eq!(StabKind::X.detects(), Pauli::Z);
    }
}
