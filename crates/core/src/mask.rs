//! QECC mask table.
//!
//! §4.4/§5.1: each qubit has a mask bit selecting whether its µop comes
//! from the QECC-µop table or the logical-µop table. Masking the error
//! correction over a region of qubits is how logical qubits are created,
//! moved and braided. §4.5 additionally observes that logical instructions
//! operate at a granularity of `d²` physical qubits, so mask bits can be
//! *coalesced* over pre-defined regions, shrinking the table from `N` bits
//! to `N/d²` bits.

use std::fmt;

/// Per-qubit mask with optional region coalescing.
///
/// # Example
///
/// ```
/// use quest_core::mask::MaskTable;
///
/// // 18 qubits in regions of 9 (d = 3 ⇒ d² = 9).
/// let mut m = MaskTable::coalesced(18, 9);
/// assert_eq!(m.storage_bits(), 2);
/// m.set_region(1, true);
/// assert!(m.is_masked(9));
/// assert!(!m.is_masked(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskTable {
    num_qubits: usize,
    region_size: usize,
    regions: Vec<bool>,
    /// Each qubit's region, tabulated: the MCE tests mask bits on every
    /// slot of every cycle, and `qubit / region_size` is a hardware
    /// divide by a number the compiler cannot see.
    region_of: Vec<u32>,
}

impl MaskTable {
    /// One mask bit per qubit (the unoptimized design).
    pub fn per_qubit(num_qubits: usize) -> MaskTable {
        MaskTable::coalesced(num_qubits, 1)
    }

    /// Coalesced mask: one bit per `region_size` consecutive qubits.
    ///
    /// # Panics
    ///
    /// Panics if `region_size` is zero or `num_qubits` is zero.
    pub fn coalesced(num_qubits: usize, region_size: usize) -> MaskTable {
        assert!(num_qubits > 0, "mask needs at least one qubit");
        assert!(region_size > 0, "region size must be nonzero");
        let regions = num_qubits.div_ceil(region_size);
        assert!(
            u32::try_from(regions).is_ok(),
            "more regions than a mask index holds"
        );
        MaskTable {
            num_qubits,
            region_size,
            regions: vec![false; regions],
            region_of: (0..num_qubits).map(|q| (q / region_size) as u32).collect(),
        }
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Region granularity in qubits.
    pub fn region_size(&self) -> usize {
        self.region_size
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Storage cost in bits — the paper's `N/d²` saving.
    pub fn storage_bits(&self) -> usize {
        self.regions.len()
    }

    /// The region a qubit belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn region_of(&self, qubit: usize) -> usize {
        assert!(qubit < self.num_qubits, "qubit out of range");
        self.region_of[qubit] as usize
    }

    /// Masks or unmasks a whole region (a logical-qubit boundary move is a
    /// sequence of such writes, §5.1).
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn set_region(&mut self, region: usize, masked: bool) {
        self.regions[region] = masked;
    }

    /// Returns `true` when QECC is disabled for this qubit (its µop comes
    /// from the logical table instead).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn is_masked(&self, qubit: usize) -> bool {
        self.regions[self.region_of(qubit)]
    }

    /// Returns `true` when a region is masked.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn region_masked(&self, region: usize) -> bool {
        self.regions[region]
    }

    /// Returns `true` when any region is masked.
    pub fn any_masked(&self) -> bool {
        self.regions.contains(&true)
    }

    /// Number of masked qubits.
    pub fn masked_count(&self) -> usize {
        (0..self.num_qubits).filter(|&q| self.is_masked(q)).count()
    }

    /// Clears every mask bit (QECC everywhere).
    pub fn clear(&mut self) {
        self.regions.iter_mut().for_each(|r| *r = false);
    }
}

impl fmt::Display for MaskTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mask[{} qubits / {} regions of {}]",
            self.num_qubits,
            self.regions.len(),
            self.region_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_qubit_mask_storage_is_n() {
        let m = MaskTable::per_qubit(100);
        assert_eq!(m.storage_bits(), 100);
        assert_eq!(m.region_size(), 1);
    }

    #[test]
    fn coalescing_divides_storage_by_d_squared() {
        // Paper: N physical qubits need only N/d² coalesced mask bits.
        let d = 5;
        let n = 10_000;
        let m = MaskTable::coalesced(n, d * d);
        assert_eq!(m.storage_bits(), n / (d * d));
    }

    #[test]
    fn region_masking_covers_member_qubits_exactly() {
        let mut m = MaskTable::coalesced(30, 10);
        assert!(!m.any_masked());
        m.set_region(2, true);
        for q in 0..30 {
            assert_eq!(m.is_masked(q), q >= 20, "qubit {q}");
        }
        assert_eq!(m.masked_count(), 10);
        assert!(m.any_masked());
        m.clear();
        assert_eq!(m.masked_count(), 0);
        assert!(!m.any_masked());
    }

    #[test]
    fn ragged_final_region() {
        let m = MaskTable::coalesced(25, 10);
        assert_eq!(m.num_regions(), 3);
        assert_eq!(m.region_of(24), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        MaskTable::per_qubit(5).is_masked(5);
    }
}
