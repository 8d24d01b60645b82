//! Aaronson–Gottesman stabilizer tableau simulator, stored qubit-major.
//!
//! The tableau tracks `2n` Pauli generators — `n` destabilizers and `n`
//! stabilizers, the standard CHP construction of Aaronson & Gottesman,
//! *Improved simulation of stabilizer circuits* (2004) — but stores them
//! transposed: one *column* per qubit, holding that qubit's X bits (and,
//! in a second matrix, Z bits) of every generator. A column is
//! `2·⌈n/64⌉` words: the destabilizers' bits in the first half, the
//! stabilizers' in the second, generator `i` at bit `i % 64` of word
//! `i / 64` of its half. The signs are one more such column. Bits past
//! generator `n − 1` in either half are always zero.
//!
//! A Clifford gate touches one or two qubits and *every* generator, so
//! in this layout it is a handful of word operations per column word —
//! O(n/64) — instead of a bit access per generator: CNOT is
//! `r ^= xc & zt & !(xt ^ zc); xt ^= xc; zc ^= zt` over the columns of
//! its control and target.
//!
//! Measurement of qubit `q` looks for a stabilizer with an X bit at `q`.
//!
//! * If one exists (random outcome) it is multiplied into every other
//!   generator with an X bit at `q`, all of them at once: the generators
//!   to update are a row mask (column `q` of the X matrix), and for each
//!   qubit column the pivot's Pauli there is broadcast against the whole
//!   column. The phase exponent of each product, a sum of ±1 over the
//!   columns taken mod 4, is carried in two bit-planes (`lo`, `hi`) with
//!   one bit per generator; `hi` is the new sign. Row mask and planes
//!   live in a scratch buffer allocated with the tableau, so measuring
//!   never allocates.
//! * Otherwise (deterministic outcome) the result is the sign of the
//!   product of the stabilizers selected by the destabilizers' X bits at
//!   `q`. Only that sign is needed, so nothing is written: each column
//!   contributes the phase of the ordered product of its selected
//!   single-qubit Paulis, computed with popcounts and a prefix parity —
//!   an O(n·⌈n/64⌉) scan that reads only the words holding selected
//!   stabilizers, and in which a column where none of them has an X
//!   costs one AND per word.

use crate::pauli::{Pauli, PauliString};
use rand::Rng;

const WORD_BITS: usize = 64;

/// Outcome of a single-qubit measurement in the computational basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement {
    /// The measured bit.
    pub value: bool,
    /// `true` when the outcome was fully determined by the state (no
    /// randomness was consumed).
    pub deterministic: bool,
}

/// CHP-style stabilizer tableau over `n` qubits.
///
/// Newly constructed tableaus hold the all-zeros state `|0…0⟩`. Two
/// tableaus are equal when they hold the same generators with the same
/// signs.
///
/// # Example
///
/// ```
/// use quest_stabilizer::{Tableau, StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut t = Tableau::new(3);
/// t.h(0);
/// t.cnot(0, 1);
/// t.cnot(1, 2);
/// // GHZ state: all three measurements agree.
/// let m0 = t.measure(0, &mut rng).value;
/// assert_eq!(t.measure(1, &mut rng).value, m0);
/// assert_eq!(t.measure(2, &mut rng).value, m0);
/// ```
#[derive(Debug)]
pub struct Tableau {
    n: usize,
    /// Words per half-column, `⌈n/64⌉`.
    words: usize,
    /// X bits, one `2 * words`-word column per qubit, flattened.
    x: Vec<u64>,
    /// Z bits with the same layout.
    z: Vec<u64>,
    /// Sign bits (set = −1), one column.
    r: Vec<u64>,
    /// Row mask and the two phase planes of a random-outcome
    /// measurement, three columns. Holds no state between calls.
    scratch: Vec<u64>,
}

impl PartialEq for Tableau {
    fn eq(&self, other: &Tableau) -> bool {
        self.n == other.n && self.x == other.x && self.z == other.z && self.r == other.r
    }
}

impl Eq for Tableau {}

impl Clone for Tableau {
    fn clone(&self) -> Tableau {
        Tableau {
            n: self.n,
            words: self.words,
            x: self.x.clone(),
            z: self.z.clone(),
            r: self.r.clone(),
            scratch: self.scratch.clone(),
        }
    }

    /// Copies `source` into the buffers this tableau already owns.
    fn clone_from(&mut self, source: &Tableau) {
        self.n = source.n;
        self.words = source.words;
        self.x.clone_from(&source.x);
        self.z.clone_from(&source.z);
        self.r.clone_from(&source.r);
        self.scratch.clone_from(&source.scratch);
    }
}

/// Column `q` of a flattened matrix of `len`-word columns.
#[inline]
fn column(m: &[u64], len: usize, q: usize) -> &[u64] {
    &m[q * len..][..len]
}

#[inline]
fn column_mut(m: &mut [u64], len: usize, q: usize) -> &mut [u64] {
    &mut m[q * len..][..len]
}

/// Columns `a` (read) and `b` (written) of one matrix, `a != b`.
#[inline]
fn column_pair(m: &mut [u64], len: usize, a: usize, b: usize) -> (&[u64], &mut [u64]) {
    if a < b {
        let (lo, hi) = m.split_at_mut(b * len);
        (&lo[a * len..][..len], &mut hi[..len])
    } else {
        let (lo, hi) = m.split_at_mut(a * len);
        (&hi[..len], &mut lo[b * len..][..len])
    }
}

/// ORs `src` into `dst` moved up by `shift` bits. Every set bit of `src`
/// must land inside `dst`.
pub(crate) fn or_shifted(dst: &mut [u64], src: &[u64], shift: usize) {
    let (word, bit) = (shift / WORD_BITS, shift % WORD_BITS);
    for (k, &v) in src.iter().enumerate().filter(|&(_, &v)| v != 0) {
        dst[word + k] |= v << bit;
        let carry = if bit == 0 { 0 } else { v >> (WORD_BITS - bit) };
        if carry != 0 {
            dst[word + k + 1] |= carry;
        }
    }
}

/// All ones when `bit` is nonzero, else zero.
#[inline]
fn broadcast(bit: u64) -> u64 {
    if bit != 0 {
        u64::MAX
    } else {
        0
    }
}

impl Tableau {
    /// Creates a tableau for `n` qubits in the `|0…0⟩` state.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Tableau {
        assert!(n > 0, "tableau needs at least one qubit");
        let words = n.div_ceil(WORD_BITS);
        let len = 2 * words;
        let mut t = Tableau {
            n,
            words,
            x: vec![0; n * len],
            z: vec![0; n * len],
            r: vec![0; len],
            scratch: vec![0; 3 * len],
        };
        t.reset_all();
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Reinitialises the tableau to the `|0…0⟩` state in place, keeping
    /// its allocations. Running many shots through one tableau via
    /// `reset_all` avoids reallocating the `O(n²)` bit-matrices per shot.
    /// (Named `reset_all` because [`Tableau::reset`] is the single-qubit
    /// reset operation.)
    pub fn reset_all(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.r.fill(0);
        let (words, len) = (self.words, self.col_words());
        for q in 0..self.n {
            let (k, bit) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            self.x[q * len + k] = bit; // destabilizer q = X_q
            self.z[q * len + words + k] = bit; // stabilizer q = Z_q
        }
    }

    /// Appends `other`'s qubits after this tableau's own, leaving the
    /// tensor product of the two states: qubit `q` of `other` becomes
    /// qubit `num_qubits() + q`, and its generator `i` becomes generator
    /// `num_qubits() + i` of the same half, acting as the identity on
    /// the qubits that were already here (as the old generators do on
    /// the new qubits). Signs carry over.
    ///
    /// Two registers that have never interacted can be simulated apart,
    /// each measurement scanning only its own generators, and joined
    /// the first time a gate spans them.
    ///
    /// # Example
    ///
    /// ```
    /// use quest_stabilizer::Tableau;
    ///
    /// let mut joined = Tableau::new(1);
    /// joined.x(0);
    /// let mut other = Tableau::new(2);
    /// other.h(0);
    /// joined.append(&other);
    ///
    /// let mut whole = Tableau::new(3);
    /// whole.x(0);
    /// whole.h(1);
    /// assert_eq!(joined, whole);
    /// ```
    pub fn append(&mut self, other: &Tableau) {
        let n = self.n + other.n;
        let words = n.div_ceil(WORD_BITS);
        let len = 2 * words;
        // Both halves of a `src` column move up by `shift` generators.
        let place = |dst: &mut [u64], src: &[u64], src_words: usize, shift: usize| {
            or_shifted(&mut dst[..words], &src[..src_words], shift);
            or_shifted(&mut dst[words..], &src[src_words..], shift);
        };
        let widen = |own: &[u64], theirs: &[u64]| {
            let mut m = vec![0u64; n * len];
            let (kept, added) = m.split_at_mut(self.n * len);
            for (dst, src) in kept
                .chunks_exact_mut(len)
                .zip(own.chunks_exact(self.col_words()))
            {
                place(dst, src, self.words, 0);
            }
            for (dst, src) in added
                .chunks_exact_mut(len)
                .zip(theirs.chunks_exact(other.col_words()))
            {
                place(dst, src, other.words, self.n);
            }
            m
        };
        let (x, z) = (widen(&self.x, &other.x), widen(&self.z, &other.z));
        let mut r = vec![0u64; len];
        place(&mut r, &self.r, self.words, 0);
        place(&mut r, &other.r, other.words, self.n);
        *self = Tableau {
            n,
            words,
            x,
            z,
            r,
            scratch: vec![0; 3 * len],
        };
    }

    /// Words per column: a destabilizer half and a stabilizer half.
    #[inline]
    fn col_words(&self) -> usize {
        2 * self.words
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
    }

    /// Applies a Hadamard gate to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn h(&mut self, q: usize) {
        self.check_qubit(q);
        let len = self.col_words();
        let x = column_mut(&mut self.x, len, q);
        let z = column_mut(&mut self.z, len, q);
        let r = &mut self.r[..len];
        for k in 0..len {
            // Phase flips when the generator acts as Y on q.
            r[k] ^= x[k] & z[k];
            std::mem::swap(&mut x[k], &mut z[k]);
        }
    }

    /// Applies a phase gate `S = diag(1, i)` to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s(&mut self, q: usize) {
        self.check_qubit(q);
        let len = self.col_words();
        let x = column(&self.x, len, q);
        let z = column_mut(&mut self.z, len, q);
        let r = &mut self.r[..len];
        for k in 0..len {
            r[k] ^= x[k] & z[k];
            z[k] ^= x[k];
        }
    }

    /// Applies the inverse phase gate `S† = S³`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s_dagger(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// Applies a Pauli X (bit flip) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn x(&mut self, q: usize) {
        self.check_qubit(q);
        let len = self.col_words();
        let z = column(&self.z, len, q);
        let r = &mut self.r[..len];
        for k in 0..len {
            r[k] ^= z[k];
        }
    }

    /// Applies a Pauli Z (phase flip) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn z(&mut self, q: usize) {
        self.check_qubit(q);
        let len = self.col_words();
        let x = column(&self.x, len, q);
        let r = &mut self.r[..len];
        for k in 0..len {
            r[k] ^= x[k];
        }
    }

    /// Applies a Pauli Y to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn y(&mut self, q: usize) {
        self.check_qubit(q);
        let len = self.col_words();
        let x = column(&self.x, len, q);
        let z = column(&self.z, len, q);
        let r = &mut self.r[..len];
        for k in 0..len {
            r[k] ^= x[k] ^ z[k];
        }
    }

    /// Applies a Pauli operator to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.x(q),
            Pauli::Y => self.y(q),
            Pauli::Z => self.z(q),
        }
    }

    /// Applies a whole Pauli string as an error/correction layer.
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from the qubit count.
    pub fn pauli_string(&mut self, p: &PauliString) {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        for (q, op) in p.iter_support() {
            self.pauli(q, op);
        }
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT control and target must differ");
        let len = self.col_words();
        let (xc, xt) = column_pair(&mut self.x, len, c, t);
        let (zt, zc) = column_pair(&mut self.z, len, t, c);
        let r = &mut self.r[..len];
        for k in 0..len {
            r[k] ^= xc[k] & zt[k] & !(xt[k] ^ zc[k]);
            xt[k] ^= xc[k];
            zc[k] ^= zt[k];
        }
    }

    /// Applies a controlled-Z between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// Swaps qubits `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Measures qubit `q` in the computational (Z) basis.
    ///
    /// Random outcomes draw one bit from `rng`; deterministic outcomes draw
    /// nothing and report [`Measurement::deterministic`] = `true`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.check_qubit(q);
        match self.pivot(q) {
            Some((word, bit)) => {
                let value: bool = rng.gen();
                self.collapse(q, word, bit, value);
                Measurement {
                    value,
                    deterministic: false,
                }
            }
            None => Measurement {
                value: self.deterministic_outcome(q),
                deterministic: true,
            },
        }
    }

    /// Measures qubit `q` in the X basis (conjugating by Hadamards).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn measure_x<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.h(q);
        let m = self.measure(q, rng);
        self.h(q);
        m
    }

    /// [`Tableau::measure`] with a random outcome forced to `false`
    /// instead of drawn. When the outcome was random, the stabilizer the
    /// collapse pivoted on — it anticommutes with `Z_q` and stabilized the
    /// state measured — is appended to `pivot` without its sign:
    /// `⌈n/64⌉` words of X bits, then as many of Z bits, one bit per
    /// qubit.
    pub(crate) fn measure_forced(&mut self, q: usize, pivot: &mut Vec<u64>) -> Measurement {
        self.check_qubit(q);
        let Some((word, bit)) = self.pivot(q) else {
            return Measurement {
                value: self.deterministic_outcome(q),
                deterministic: true,
            };
        };
        let (len, shift) = (self.col_words(), bit.trailing_zeros());
        for m in [&self.x, &self.z] {
            // One word of the pivot from each run of 64 columns.
            pivot.extend(m.chunks(WORD_BITS * len).map(|columns| {
                let bits = columns.chunks_exact(len).enumerate();
                bits.fold(0, |acc, (j, column)| acc | (column[word] >> shift & 1) << j)
            }));
        }
        self.collapse(q, word, bit, false);
        Measurement {
            value: false,
            deterministic: false,
        }
    }

    /// Resets qubit `q` to `|0⟩` (measure, then flip if needed).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng).value {
            self.x(q);
        }
    }

    /// Resets qubit `q` to `|+⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn reset_plus<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.reset(q, rng);
        self.h(q);
    }

    /// Returns the probability that measuring qubit `q` yields 1, which for
    /// stabilizer states is always 0, ½, or 1.
    ///
    /// Unlike [`Tableau::measure`] this does not disturb the state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn prob_one(&self, q: usize) -> f64 {
        self.check_qubit(q);
        if self.pivot(q).is_some() {
            0.5
        } else if self.deterministic_outcome(q) {
            1.0
        } else {
            0.0
        }
    }

    /// The lowest-indexed stabilizer with an X bit at `q` (it
    /// anticommutes with `Z_q`), as its word within a column and its bit
    /// mask within that word.
    fn pivot(&self, q: usize) -> Option<(usize, u64)> {
        let stab_x = &column(&self.x, self.col_words(), q)[self.words..];
        let k = stab_x.iter().position(|&v| v != 0)?;
        Some((self.words + k, stab_x[k] & stab_x[k].wrapping_neg()))
    }

    /// Random-outcome update for a measurement of `q` whose pivot
    /// stabilizer sits at bit `bit` of column word `word`: multiplies the
    /// pivot into every other generator with an X bit at `q`, moves it to
    /// its destabilizer slot and installs `±Z_q` (sign `value`) in its
    /// place.
    fn collapse(&mut self, q: usize, word: usize, bit: u64, value: bool) {
        let len = self.col_words();
        let destab_word = word - self.words;
        let (rows, planes) = self.scratch.split_at_mut(len);
        let (lo, hi) = planes.split_at_mut(len);
        let hi = &mut hi[..len];
        let r = &mut self.r[..len];

        rows.copy_from_slice(column(&self.x, len, q));
        rows[word] &= !bit;
        // Phase exponent of `generator · pivot`, mod 4, as `2·hi + lo`:
        // it starts at twice the XOR of the two signs.
        let pivot_sign = broadcast(r[word] & bit);
        for k in 0..len {
            lo[k] = 0;
            hi[k] = r[k] ^ pivot_sign;
        }
        for (xj, zj) in self
            .x
            .chunks_exact_mut(len)
            .zip(self.z.chunks_exact_mut(len))
        {
            let x2 = broadcast(xj[word] & bit);
            let z2 = broadcast(zj[word] & bit);
            if x2 | z2 == 0 {
                // The pivot is the identity here: nothing to multiply, and
                // its destabilizer slot only needs clearing.
                xj[destab_word] &= !bit;
                zj[destab_word] &= !bit;
                continue;
            }
            for k in 0..len {
                let (x1, z1) = (xj[k], zj[k]);
                let (y1, x_only, z_only) = (x1 & z1, x1 & !z1, !x1 & z1);
                // Per-qubit exponent g(x1,z1,x2,z2) ∈ {−1, 0, +1} of
                // Aaronson–Gottesman, split into its +1 and −1 cases:
                //   Y · P: z2 − x2;  X · P: z2·(2·x2 − 1);
                //   Z · P: x2·(1 − 2·z2).
                let plus = (y1 & z2 & !x2) | (x_only & z2 & x2) | (z_only & x2 & !z2);
                let minus = (y1 & x2 & !z2) | (x_only & z2 & !x2) | (z_only & x2 & z2);
                let (plus, minus) = (plus & rows[k], minus & rows[k]);
                hi[k] ^= (lo[k] & plus) | (!lo[k] & minus);
                lo[k] ^= plus | minus;
                xj[k] = x1 ^ (x2 & rows[k]);
                zj[k] = z1 ^ (z2 & rows[k]);
            }
            // The old pivot becomes its destabilizer; its stabilizer slot
            // is cleared for ±Z_q.
            xj[destab_word] = (xj[destab_word] & !bit) | (x2 & bit);
            zj[destab_word] = (zj[destab_word] & !bit) | (z2 & bit);
            xj[word] &= !bit;
            zj[word] &= !bit;
        }
        // Stabilizer products are Hermitian (lo = 0); a destabilizer may
        // pick up an irrelevant ±i, which is folded into the sign bit
        // exactly as Aaronson–Gottesman's CHP does.
        for k in 0..len {
            r[k] ^= (r[k] ^ hi[k]) & rows[k];
        }
        r[destab_word] = (r[destab_word] & !bit) | (pivot_sign & bit);
        r[word] = (r[word] & !bit) | (broadcast(value as u64) & bit);
        column_mut(&mut self.z, len, q)[word] |= bit;
    }

    /// Outcome of measuring `q` when no stabilizer anticommutes with
    /// `Z_q`: the sign of the product, in index order, of the stabilizers
    /// `i` whose destabilizer has an X bit at `q`. The whole product is
    /// `±Z_q`, which has no Y, so its sign is bit 1 of the exponent.
    fn deterministic_outcome(&self, q: usize) -> bool {
        let selected = &column(&self.x, self.col_words(), q)[..self.words];
        self.product_exponent(selected) & 2 != 0
    }

    /// Phase exponent of the product, in index order, of the stabilizers
    /// whose bit is set in `selected` (`⌈n/64⌉` words).
    ///
    /// Writing a Pauli as `i^{xz} X^x Z^z`, the ordered product of one
    /// column's selected Paulis is `i^e X^{x_⊕} Z^{z_⊕}` with
    /// `e = #Y + 2·#{i < j : z_i x_j} (mod 4)`. The exponents of all
    /// columns and twice the number of negative signs add up to the value
    /// returned; the product is Hermitian, so once the result's own Ys
    /// are taken off what is left is 0 or 2 mod 4.
    fn product_exponent(&self, selected: &[u64]) -> u32 {
        let (words, len) = (self.words, self.col_words());
        // Only the words holding selected stabilizers are read: those of
        // one tile of a substrate holding several sit next to each other.
        let first = selected.iter().position(|&v| v != 0).unwrap_or(0);
        let end = selected
            .iter()
            .rposition(|&v| v != 0)
            .map_or(first, |k| k + 1);
        let span = end - first;
        let selected = &selected[first..][..span];
        let stab_r = &self.r[words + first..][..span];
        let mut exponent = 0u32;
        for k in 0..span {
            exponent += 2 * (stab_r[k] & selected[k]).count_ones();
        }
        for (xj, zj) in self.x.chunks_exact(len).zip(self.z.chunks_exact(len)) {
            // No selected X in this column: no Y and no Z-before-X pair.
            let xs = &xj[words + first..][..span];
            let mut any_x = 0u64;
            for k in 0..span {
                any_x |= xs[k] & selected[k];
            }
            if any_x == 0 {
                continue;
            }
            let zs = &zj[words + first..][..span];
            // `before`: all ones when an odd number of selected Z bits
            // sit in earlier words of this column.
            let mut before = 0u64;
            for k in 0..span {
                let (xv, zv) = (xs[k] & selected[k], zs[k] & selected[k]);
                // Bit i of `prefix`: parity of zv's bits 0..=i.
                let mut prefix = zv;
                for shift in [1, 2, 4, 8, 16, 32] {
                    prefix ^= prefix << shift;
                }
                let z_before = (prefix << 1) ^ before;
                exponent += (xv & zv).count_ones() + 2 * (xv & z_before).count_ones();
                before ^= broadcast(prefix >> 63);
            }
        }
        exponent
    }

    /// Returns `true` when `other` holds the same state, whichever
    /// generators either tableau describes it with: every stabilizer
    /// generator of `self`, sign included, is in the group `other`'s
    /// stabilizers generate (both groups have `2^n` elements, so that is
    /// equality). [`PartialEq`] compares generator by generator and is
    /// the stricter test.
    ///
    /// All `2n` commutation tests of one generator against `other` are
    /// one XOR of `other`'s columns — its Z column where the generator
    /// has an X, its X column where it has a Z. The stabilizer half must
    /// come out zero (the generator commutes with the whole group, so it
    /// or its negative is in it); the destabilizer half selects the
    /// stabilizers of `other` whose product that is, and the sign of the
    /// product is read as a deterministic measurement's is.
    ///
    /// # Example
    ///
    /// ```
    /// use quest_stabilizer::Tableau;
    ///
    /// // One Bell pair, written with different generators.
    /// let mut a = Tableau::new(2);
    /// a.h(0);
    /// a.cnot(0, 1);
    /// let mut b = Tableau::new(2);
    /// b.h(1);
    /// b.cnot(1, 0);
    /// assert!(a != b && a.same_state(&b));
    /// b.z(0);
    /// assert!(!a.same_state(&b));
    /// ```
    pub fn same_state(&self, other: &Tableau) -> bool {
        if self.n != other.n {
            return false;
        }
        if self == other {
            return true;
        }
        let (words, len) = (self.words, self.col_words());
        let mut anticommuting = vec![0u64; len];
        (0..self.n).all(|i| {
            let (k, shift) = (words + i / WORD_BITS, i % WORD_BITS);
            anticommuting.fill(0);
            let mut ys = 0;
            for q in 0..self.n {
                let has_x = self.x[q * len + k] >> shift & 1 == 1;
                let has_z = self.z[q * len + k] >> shift & 1 == 1;
                for (has, m) in [(has_x, &other.z), (has_z, &other.x)] {
                    if has {
                        for (acc, &v) in anticommuting.iter_mut().zip(column(m, len, q)) {
                            *acc ^= v;
                        }
                    }
                }
                ys += u32::from(has_x && has_z);
            }
            let (destabilizers, stabilizers) = anticommuting.split_at(words);
            let negative = (self.r[k] >> shift & 1) as u32;
            stabilizers.iter().all(|&v| v == 0)
                && other.product_exponent(destabilizers).wrapping_sub(ys) & 3 == 2 * negative
        })
    }

    /// Returns stabilizer `i` (for `i < n`) as a signed Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn stabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n, "stabilizer index out of range");
        self.generator(self.words, i)
    }

    /// Returns destabilizer `i` (for `i < n`) as a signed Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn destabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n, "destabilizer index out of range");
        self.generator(0, i)
    }

    /// Returns `true` when the signed Pauli operator `p` stabilizes the
    /// current state (i.e. `p |ψ⟩ = |ψ⟩`).
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from the qubit count.
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        // p must commute with every stabilizer generator...
        for i in 0..self.n {
            if !self.stabilizer(i).commutes_with(p) {
                return false;
            }
        }
        // ...and be generated by them with matching sign. Reduce p against
        // the stabilizer set using destabilizer pivots: stabilizer row i is
        // the unique generator anticommuting with destabilizer i.
        let mut acc = PauliString::identity(self.n);
        for i in 0..self.n {
            if !self.destabilizer(i).commutes_with(p) {
                acc.mul_assign(&self.stabilizer(i));
            }
        }
        // The accumulated product must equal p exactly (including sign).
        for q in 0..self.n {
            if acc.get(q) != p.get(q) {
                return false;
            }
        }
        acc.is_negative() == p.is_negative()
    }

    /// Generator `i` of the half starting at column word `half` (0 for
    /// destabilizers, `words` for stabilizers), gathered across columns.
    fn generator(&self, half: usize, i: usize) -> PauliString {
        let len = self.col_words();
        let (k, shift) = (half + i / WORD_BITS, i % WORD_BITS);
        let mut p = PauliString::identity(self.n);
        for q in 0..self.n {
            let x = self.x[q * len + k] >> shift & 1 == 1;
            let z = self.z[q * len + k] >> shift & 1 == 1;
            p.set(q, Pauli::from_xz(x, z));
        }
        if self.r[k] >> shift & 1 == 1 {
            p.negate();
        }
        p
    }

    /// Address and capacity of each buffer the tableau owns.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(*const u64, usize); 4] {
        [&self.x, &self.z, &self.r, &self.scratch].map(|v| (v.as_ptr(), v.capacity()))
    }

    /// Checks internal invariants: stabilizers commute pairwise, destabilizer
    /// `i` anticommutes with stabilizer `i` only. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let stabilizers: Vec<PauliString> = (0..self.n).map(|i| self.stabilizer(i)).collect();
        for i in 0..self.n {
            let di = self.destabilizer(i);
            for (j, sj) in stabilizers.iter().enumerate() {
                assert!(
                    stabilizers[i].commutes_with(sj),
                    "stabilizers {i},{j} anticommute"
                );
                if i == j {
                    assert!(
                        !di.commutes_with(sj),
                        "destabilizer {i} commutes with its stabilizer"
                    );
                } else {
                    assert!(
                        di.commutes_with(sj),
                        "destabilizer {i} anticommutes with stabilizer {j}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame_block::{fire_gates, Outcomes, SimGate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn fresh_state_measures_zero_deterministically() {
        let mut t = Tableau::new(5);
        let mut rng = rng();
        for q in 0..5 {
            let m = t.measure(q, &mut rng);
            assert!(!m.value);
            assert!(m.deterministic);
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = Tableau::new(3);
        let mut rng = rng();
        t.x(1);
        assert!(!t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
        assert!(!t.measure(2, &mut rng).value);
    }

    #[test]
    fn hadamard_gives_random_then_repeatable_outcome() {
        let mut rng = rng();
        let mut ones = 0;
        for seed in 0..64 {
            let mut t = Tableau::new(1);
            t.h(0);
            let mut local = StdRng::seed_from_u64(seed);
            let m1 = t.measure(0, &mut local);
            assert!(!m1.deterministic);
            // Second measurement must repeat the first, deterministically.
            let m2 = t.measure(0, &mut rng);
            assert!(m2.deterministic);
            assert_eq!(m1.value, m2.value);
            ones += m1.value as u32;
        }
        // Both outcomes occur across seeds.
        assert!(ones > 10 && ones < 54, "ones = {ones}");
    }

    #[test]
    fn bell_pair_is_correlated() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            let a = t.measure(0, &mut rng);
            let b = t.measure(1, &mut rng);
            assert!(!a.deterministic);
            assert!(b.deterministic);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn ghz_stabilizers() {
        let mut t = Tableau::new(3);
        t.h(0);
        t.cnot(0, 1);
        t.cnot(1, 2);
        // XXX stabilizes GHZ.
        let xxx = PauliString::from_sparse(3, &[(0, Pauli::X), (1, Pauli::X), (2, Pauli::X)]);
        assert!(t.is_stabilized_by(&xxx));
        // ZZI stabilizes GHZ.
        let zzi = PauliString::from_sparse(3, &[(0, Pauli::Z), (1, Pauli::Z)]);
        assert!(t.is_stabilized_by(&zzi));
        // ZII does not.
        let zii = PauliString::from_sparse(3, &[(0, Pauli::Z)]);
        assert!(!t.is_stabilized_by(&zii));
        // -XXX does not (wrong sign).
        let mut neg = xxx.clone();
        neg.negate();
        assert!(!t.is_stabilized_by(&neg));
    }

    #[test]
    fn s_gate_turns_x_into_y() {
        // S X S† = Y, so H then S gives a state stabilized by Y.
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        let y = PauliString::from_sparse(1, &[(0, Pauli::Y)]);
        assert!(t.is_stabilized_by(&y));
    }

    #[test]
    fn s_dagger_inverts_s() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cnot(0, 1);
        let before = t.clone();
        t.s(1);
        t.s_dagger(1);
        assert_eq!(t, before);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = Tableau::new(2);
        a.h(0);
        a.h(1);
        let mut b = a.clone();
        a.cz(0, 1);
        b.cz(1, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::new(2);
        let mut rng = rng();
        t.x(0);
        t.swap(0, 1);
        assert!(!t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
    }

    #[test]
    fn reset_forces_zero() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            t.reset(0, &mut rng);
            let m = t.measure(0, &mut rng);
            assert!(m.deterministic);
            assert!(!m.value);
        }
    }

    #[test]
    fn reset_plus_is_stabilized_by_x() {
        let mut rng = rng();
        let mut t = Tableau::new(1);
        t.x(0);
        t.reset_plus(0, &mut rng);
        let x = PauliString::from_sparse(1, &[(0, Pauli::X)]);
        assert!(t.is_stabilized_by(&x));
    }

    #[test]
    fn prob_one_reports_without_disturbing() {
        let mut t = Tableau::new(2);
        t.h(0);
        assert_eq!(t.prob_one(0), 0.5);
        assert_eq!(t.prob_one(1), 0.0);
        t.x(1);
        assert_eq!(t.prob_one(1), 1.0);
        // prob_one(0) did not collapse qubit 0.
        assert_eq!(t.prob_one(0), 0.5);
    }

    #[test]
    fn measure_x_detects_plus_state() {
        let mut rng = rng();
        let mut t = Tableau::new(1);
        t.h(0);
        let m = t.measure_x(0, &mut rng);
        assert!(m.deterministic);
        assert!(!m.value);
        t.z(0); // |+⟩ -> |−⟩
        let m = t.measure_x(0, &mut rng);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    fn invariants_hold_after_random_circuit() {
        let mut rng = rng();
        // 70 qubits forces multi-word rows.
        let mut t = Tableau::new(70);
        for step in 0..500 {
            match step % 5 {
                0 => t.h(rng.gen_range(0..70)),
                1 => t.s(rng.gen_range(0..70)),
                2 => {
                    let c = rng.gen_range(0..70);
                    let mut tq = rng.gen_range(0..70);
                    if tq == c {
                        tq = (tq + 1) % 70;
                    }
                    t.cnot(c, tq);
                }
                3 => t.x(rng.gen_range(0..70)),
                _ => {
                    let q = rng.gen_range(0..70);
                    t.measure(q, &mut rng);
                }
            }
        }
        t.check_invariants();
    }

    #[test]
    fn pauli_errors_commute_through_cnot_as_expected() {
        // X on control propagates to X on both qubits through CNOT.
        let mut rng = rng();
        let mut t = Tableau::new(2);
        t.x(0);
        t.cnot(0, 1);
        assert!(t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut t = Tableau::new(2);
        t.h(2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cnot_same_qubit_panics() {
        let mut t = Tableau::new(2);
        t.cnot(1, 1);
    }

    #[test]
    fn reset_all_restores_the_fresh_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tableau::new(3);
        t.h(0);
        t.cnot(0, 1);
        t.s(2);
        let _ = t.measure(0, &mut rng);
        t.reset_all();
        assert_eq!(t, Tableau::new(3));
        // A reused tableau behaves exactly like a fresh one.
        t.x(1);
        assert!(t.measure(1, &mut rng).value);
        assert!(!t.measure(0, &mut rng).value);
    }

    /// One syndrome-extraction round over the bulk of a d = 5 rotated
    /// surface code, as one gate list: 25 data qubits on a 5×5 grid and
    /// one ancilla per 2×2 plaquette, X and Z checks alternating.
    /// (`SyndromeCircuit` lives downstream of this crate.)
    pub(crate) fn d5_bulk_gates() -> Arc<[SimGate]> {
        let mut gates = Vec::new();
        for row in 0..4 {
            for col in 0..4 {
                let ancilla = 25 + 4 * row + col;
                let corner = 5 * row + col;
                let data = [corner, corner + 1, corner + 5, corner + 6];
                if (row + col) % 2 == 0 {
                    gates.push(SimGate::ResetPlus(ancilla));
                    gates.extend(data.map(|d| SimGate::Cnot(ancilla, d)));
                    gates.push(SimGate::MeasureX(ancilla));
                } else {
                    gates.push(SimGate::Reset(ancilla));
                    gates.extend(data.map(|d| SimGate::Cnot(d, ancilla)));
                    gates.push(SimGate::Measure(ancilla));
                }
            }
        }
        gates.into()
    }

    /// [`d5_bulk_gates`] fired gate by gate.
    fn d5_bulk_round(t: &mut Tableau, rng: &mut StdRng) {
        fire_gates(t, 0, &d5_bulk_gates(), rng, &mut Outcomes::new());
    }

    #[test]
    fn buffers_never_grow_after_the_first_cycle() {
        let buffers = Tableau::buffers;
        let mut rng = rng();
        let mut t = Tableau::new(41);
        d5_bulk_round(&mut t, &mut rng);
        let warm = buffers(&t);
        for _ in 0..20 {
            t.pauli(rng.gen_range(0..25), Pauli::Y);
            d5_bulk_round(&mut t, &mut rng);
            assert_eq!(buffers(&t), warm, "a tableau buffer moved or grew");
        }
        t.check_invariants();
    }
}
