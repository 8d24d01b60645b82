//! Tile geometry: mapping between MCE qubit slots and lattice positions.
//!
//! The prime-line execution unit addresses qubits by their position on the
//! physical substrate; two-qubit µops name their partner by a coupling
//! *direction* (the switch matrix energizes one of four diagonal couplers).
//! `TileGeometry` resolves those directions back to qubit indices so the
//! execution unit can reconstruct the gates a VLIW word encodes.
//!
//! For the rotated surface code, data qubit `(r, c)` sits at grid
//! coordinate `(2r+1, 2c+1)` and the ancilla of plaquette `(pr, pc)` at
//! `(2pr, 2pc)`; diagonal neighbours are at offset `(±1, ±1)`.

use quest_isa::Direction;
use quest_surface::RotatedLattice;

/// Grid coordinates and neighbour resolution for an MCE tile.
#[derive(Debug, Clone)]
pub struct TileGeometry {
    coords: Vec<(i32, i32)>,
    /// Per qubit, its neighbour in each [`Direction`] (by encoding): the
    /// execution unit resolves one per CNOT, every slot of every cycle.
    neighbors: Vec<[Option<usize>; 4]>,
}

/// Grid offset of a coupling direction.
fn offset(dir: Direction) -> (i32, i32) {
    match dir {
        Direction::Nw => (-1, -1),
        Direction::Ne => (-1, 1),
        Direction::Sw => (1, -1),
        Direction::Se => (1, 1),
    }
}

impl TileGeometry {
    /// Builds the geometry of a rotated-surface-code tile.
    pub fn from_lattice(lattice: &RotatedLattice) -> TileGeometry {
        let d = lattice.distance();
        let mut coords = vec![(0, 0); lattice.num_qubits()];
        for r in 0..d {
            for c in 0..d {
                coords[lattice.data_index(r, c)] = (2 * r as i32 + 1, 2 * c as i32 + 1);
            }
        }
        for p in lattice.plaquettes() {
            coords[p.ancilla] = (2 * p.row as i32, 2 * p.col as i32);
        }
        // Every coordinate lies in `0..=2d`: the qubit at each grid
        // position, row-major.
        let side = 2 * d as i32 + 1;
        let cell = |r: i32, c: i32| {
            ((0..side).contains(&r) && (0..side).contains(&c)).then(|| (r * side + c) as usize)
        };
        let mut grid = vec![None; (side * side) as usize];
        for (q, &(r, c)) in coords.iter().enumerate() {
            if let Some(at) = cell(r, c) {
                grid[at] = Some(q);
            }
        }
        let neighbors = coords
            .iter()
            .map(|&(r, c)| {
                Direction::ALL.map(|dir| {
                    let (dr, dc) = offset(dir);
                    cell(r + dr, c + dc).and_then(|at| grid[at])
                })
            })
            .collect();
        TileGeometry { coords, neighbors }
    }

    /// Number of qubits in the tile.
    pub fn num_qubits(&self) -> usize {
        self.coords.len()
    }

    /// Grid coordinate of a qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn coord(&self, q: usize) -> (i32, i32) {
        self.coords[q]
    }

    /// The diagonal neighbour of qubit `q` in direction `dir`, if that
    /// position holds a qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbor(&self, q: usize, dir: Direction) -> Option<usize> {
        self.neighbors[q][dir as usize]
    }

    /// Direction from qubit `a` to adjacent qubit `b`, if they are
    /// diagonal neighbours.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn direction_between(&self, a: usize, b: usize) -> Option<Direction> {
        let (ar, ac) = self.coords[a];
        let (br, bc) = self.coords[b];
        match (br - ar, bc - ac) {
            (-1, -1) => Some(Direction::Nw),
            (-1, 1) => Some(Direction::Ne),
            (1, -1) => Some(Direction::Sw),
            (1, 1) => Some(Direction::Se),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_surface::StabKind;

    #[test]
    fn coordinates_are_unique() {
        let lat = RotatedLattice::new(5);
        let g = TileGeometry::from_lattice(&lat);
        let mut seen = std::collections::HashSet::new();
        for q in 0..g.num_qubits() {
            assert!(seen.insert(g.coord(q)), "duplicate coordinate");
        }
    }

    #[test]
    fn ancilla_neighbours_are_its_plaquette_data() {
        let lat = RotatedLattice::new(3);
        let g = TileGeometry::from_lattice(&lat);
        for p in lat.plaquettes() {
            let mut found = Vec::new();
            for dir in Direction::ALL {
                if let Some(n) = g.neighbor(p.ancilla, dir) {
                    if n < lat.num_data() {
                        found.push(n);
                    }
                }
            }
            found.sort_unstable();
            let mut expected = p.data.clone();
            expected.sort_unstable();
            assert_eq!(found, expected, "plaquette ({}, {})", p.row, p.col);
        }
    }

    #[test]
    fn direction_between_is_inverse_of_neighbor() {
        let lat = RotatedLattice::new(3);
        let g = TileGeometry::from_lattice(&lat);
        for q in 0..g.num_qubits() {
            for dir in Direction::ALL {
                if let Some(n) = g.neighbor(q, dir) {
                    assert_eq!(g.direction_between(q, n), Some(dir));
                    assert_eq!(g.direction_between(n, q), Some(dir.opposite()));
                }
            }
        }
    }

    #[test]
    fn non_adjacent_qubits_have_no_direction() {
        let lat = RotatedLattice::new(3);
        let g = TileGeometry::from_lattice(&lat);
        // Two data qubits in the same row are 2 grid columns apart.
        let a = lat.data_index(0, 0);
        let b = lat.data_index(0, 1);
        assert_eq!(g.direction_between(a, b), None);
    }

    #[test]
    fn x_ancillas_touch_their_scheduled_corners() {
        let lat = RotatedLattice::new(5);
        let g = TileGeometry::from_lattice(&lat);
        for p in lat.plaquettes_of(StabKind::X) {
            let corners = lat.corners(p);
            let dirs = [Direction::Nw, Direction::Ne, Direction::Sw, Direction::Se];
            for (dir, corner) in dirs.into_iter().zip(corners) {
                assert_eq!(g.neighbor(p.ancilla, dir), corner);
            }
        }
    }
}
