//! Bit-plane storage: `n` qubit planes × `shots` shot bits, packed into
//! [`FrameWord`]s.
//!
//! [`FramePlanes`] records the *exact* requested shot count alongside the
//! word-rounded capacity. Earlier revisions rounded `shots` up to a whole
//! word and let downstream reports count the padded shots; now the padding
//! is explicit: [`FramePlanes::shots`] is what the caller asked for,
//! [`FramePlanes::capacity`] is what the words hold, and
//! [`FramePlanes::tail_mask`] selects the live bits of the final word so
//! consumers can zero dead lanes before counting anything.

use super::word::FrameWord;

/// `n` bit-planes of `shots` bits each, qubit-major
/// (`bits[q * words + w]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePlanes<W: FrameWord> {
    n: usize,
    shots: usize,
    words: usize,
    bits: Vec<W>,
}

impl<W: FrameWord> FramePlanes<W> {
    /// All-zero planes for `n` qubits × `shots` shots. Capacity rounds up
    /// to a whole word; the exact `shots` is kept for tail masking.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shots` is zero.
    #[must_use]
    pub fn new(n: usize, shots: usize) -> FramePlanes<W> {
        assert!(n > 0, "need at least one plane");
        assert!(shots > 0, "need at least one shot");
        let words = shots.div_ceil(W::BITS);
        FramePlanes {
            n,
            shots,
            words,
            bits: vec![W::ZERO; n * words],
        }
    }

    /// Number of planes (qubits).
    #[must_use]
    pub fn num_planes(&self) -> usize {
        self.n
    }

    /// Exact shot count requested at construction.
    #[must_use]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Words per plane.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Shot capacity (`words * W::BITS`, a multiple of the word width).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.words * W::BITS
    }

    /// Live 64-shot blocks (`ceil(shots / 64)`).
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.shots.div_ceil(64)
    }

    /// Mask of live bits in the final word of every plane; all other
    /// words are fully live.
    #[must_use]
    pub fn tail_mask(&self) -> W {
        let live = self.shots - (self.words - 1) * W::BITS;
        W::low_mask(live)
    }

    #[inline]
    fn check_plane(&self, q: usize) {
        assert!(q < self.n, "plane index {q} out of range (n = {})", self.n);
    }

    /// Plane `q` as a word slice.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    #[must_use]
    pub fn plane(&self, q: usize) -> &[W] {
        self.check_plane(q);
        &self.bits[q * self.words..(q + 1) * self.words]
    }

    /// Mutable plane `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn plane_mut(&mut self, q: usize) -> &mut [W] {
        self.check_plane(q);
        &mut self.bits[q * self.words..(q + 1) * self.words]
    }

    /// Zeroes every plane, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = W::ZERO);
    }

    /// Zeroes plane `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn zero_plane(&mut self, q: usize) {
        self.plane_mut(q).iter_mut().for_each(|w| *w = W::ZERO);
    }

    /// Inverts plane `q` (all capacity bits, dead tail included; mask at
    /// readout).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn not_plane(&mut self, q: usize) {
        self.plane_mut(q).iter_mut().for_each(|w| *w = w.not());
    }

    /// `dst ^= src`, word-wise over whole planes.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `src == dst`.
    pub fn xor_from(&mut self, src: usize, dst: usize) {
        self.check_plane(src);
        self.check_plane(dst);
        assert_ne!(src, dst, "source and destination planes must differ");
        for w in 0..self.words {
            let s = self.bits[src * self.words + w];
            let d = &mut self.bits[dst * self.words + w];
            *d = d.xor(s);
        }
    }

    /// Exchanges planes `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn swap_planes(&mut self, a: usize, b: usize) {
        self.check_plane(a);
        self.check_plane(b);
        assert_ne!(a, b, "swapped planes must differ");
        for w in 0..self.words {
            self.bits.swap(a * self.words + w, b * self.words + w);
        }
    }

    #[inline]
    fn bit_coords(&self, q: usize, shot: usize) -> (usize, usize, u64) {
        self.check_plane(q);
        assert!(shot < self.shots, "shot index out of range");
        let word = shot / W::BITS;
        let lane = (shot % W::BITS) / 64;
        let mask = 1u64 << (shot % 64);
        (q * self.words + word, lane, mask)
    }

    /// Bit at `(q, shot)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `shot` is out of bounds.
    #[must_use]
    pub fn get(&self, q: usize, shot: usize) -> bool {
        let (idx, lane, mask) = self.bit_coords(q, shot);
        self.bits[idx].lane(lane) & mask != 0
    }

    /// Sets the bit at `(q, shot)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `shot` is out of bounds.
    pub fn set(&mut self, q: usize, shot: usize, value: bool) {
        let (idx, lane, mask) = self.bit_coords(q, shot);
        let lane = self.bits[idx].lane_mut(lane);
        *lane = (*lane & !mask) | if value { mask } else { 0 };
    }

    /// XORs `value` into the bit at `(q, shot)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `shot` is out of bounds.
    pub fn toggle(&mut self, q: usize, shot: usize, value: bool) {
        if value {
            let (idx, lane, mask) = self.bit_coords(q, shot);
            *self.bits[idx].lane_mut(lane) ^= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::word::W512;
    use super::*;

    fn exercise_round_trip<W: FrameWord>() {
        // A non-multiple-of-64 shot count: exact count preserved, capacity
        // rounded, tail mask covers exactly the live bits.
        let shots = 100;
        let mut p: FramePlanes<W> = FramePlanes::new(3, shots);
        assert_eq!(p.shots(), shots);
        assert_eq!(p.capacity(), shots.div_ceil(W::BITS) * W::BITS);
        assert_eq!(p.blocks(), 2);
        let live_in_tail = shots - (p.words() - 1) * W::BITS;
        assert_eq!(p.tail_mask().count_ones() as usize, live_in_tail);

        for shot in [0, 63, 64, shots - 1] {
            p.set(1, shot, true);
            assert!(p.get(1, shot));
            assert!(!p.get(0, shot));
            p.toggle(1, shot, true);
            assert!(!p.get(1, shot));
        }
    }

    #[test]
    fn round_trip_all_widths() {
        exercise_round_trip::<u64>();
        exercise_round_trip::<W512>();
    }

    #[test]
    fn xor_from_and_swap() {
        let mut p: FramePlanes<W512> = FramePlanes::new(2, 256);
        p.set(0, 7, true);
        p.set(0, 200, true);
        p.xor_from(0, 1);
        assert!(p.get(1, 7) && p.get(1, 200));
        p.set(1, 9, true);
        p.swap_planes(0, 1);
        assert!(p.get(0, 9));
        assert!(!p.get(1, 9));
        assert!(p.get(0, 7) && p.get(1, 7));
    }

    #[test]
    #[should_panic(expected = "shot index out of range")]
    fn exact_shot_bound_is_enforced() {
        // Capacity rounds to 64 but only 10 shots are live.
        let p: FramePlanes<u64> = FramePlanes::new(1, 10);
        let _ = p.get(0, 10);
    }
}
