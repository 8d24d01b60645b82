//! Differential test of [`Tableau`] against a naive CHP reference.
//!
//! The reference keeps one `Vec<bool>` row per generator and applies
//! Aaronson–Gottesman's update rules one row and one qubit at a time. The
//! tableau stores the same generators qubit-major in 64-bit words, so the
//! sizes straddle the word boundary: one word exactly (64), one bit short
//! (63), one bit over (65), three words (130) and the degenerate single
//! qubit. After every measurement the two must agree on the outcome, on
//! whether it was deterministic, on how many words were drawn from the
//! RNG, and on every stabilizer and destabilizer, signs included.
//!
//! [`Tableau::append`] is held to the same reference: two registers are
//! driven apart, joined (the reference by writing the block-diagonal rows
//! out bit by bit), compared generator by generator, and driven on as one
//! register with gates that span the seam.

use proptest::prelude::*;
use quest_stabilizer::{Pauli, PauliString, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Row-major CHP with no bit packing: `2n` generator rows (destabilizers
/// first) plus the scratch row of the deterministic branch.
struct NaiveChp {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl NaiveChp {
    fn new(n: usize) -> NaiveChp {
        let mut t = NaiveChp {
            n,
            x: vec![vec![false; n]; 2 * n + 1],
            z: vec![vec![false; n]; 2 * n + 1],
            r: vec![false; 2 * n + 1],
        };
        for i in 0..n {
            t.x[i][i] = true;
            t.z[n + i][i] = true;
        }
        t
    }

    /// The tensor product `a ⊗ b`: `b`'s qubits after `a`'s, and in each
    /// half `b`'s generators after `a`'s.
    fn tensor(a: &NaiveChp, b: &NaiveChp) -> NaiveChp {
        let n = a.n + b.n;
        let mut t = NaiveChp {
            n,
            x: vec![vec![false; n]; 2 * n + 1],
            z: vec![vec![false; n]; 2 * n + 1],
            r: vec![false; 2 * n + 1],
        };
        for (part, first) in [(a, 0), (b, a.n)] {
            for half in 0..2 {
                for i in 0..part.n {
                    let (src, dst) = (half * part.n + i, half * n + first + i);
                    t.x[dst][first..first + part.n].copy_from_slice(&part.x[src][..part.n]);
                    t.z[dst][first..first + part.n].copy_from_slice(&part.z[src][..part.n]);
                    t.r[dst] = part.r[src];
                }
            }
        }
        t
    }

    fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q] && self.z[row][q];
            std::mem::swap(&mut self.x[row][q], &mut self.z[row][q]);
        }
    }

    fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q] && self.z[row][q];
            self.z[row][q] ^= self.x[row][q];
        }
    }

    fn cnot(&mut self, c: usize, t: usize) {
        for row in 0..2 * self.n {
            let (xc, zc, xt, zt) = (
                self.x[row][c],
                self.z[row][c],
                self.x[row][t],
                self.z[row][t],
            );
            self.r[row] ^= xc && zt && (xt == zc);
            self.x[row][t] = xt ^ xc;
            self.z[row][c] = zc ^ zt;
        }
    }

    fn pauli(&mut self, q: usize, p: Pauli) {
        for row in 0..2 * self.n {
            // A generator's sign flips when it anticommutes with `p` on q.
            self.r[row] ^= (p.has_x() && self.z[row][q]) ^ (p.has_z() && self.x[row][q]);
        }
    }

    /// `dst := dst · src`, the sign taken from the phase exponent mod 4
    /// (an odd exponent on a destabilizer folds to its upper bit, as CHP
    /// does).
    fn row_mul(&mut self, dst: usize, src: usize) {
        let mut exponent = 2 * (self.r[dst] as i32 + self.r[src] as i32);
        for q in 0..self.n {
            let (x1, z1, x2, z2) = (
                self.x[dst][q],
                self.z[dst][q],
                self.x[src][q] as i32,
                self.z[src][q] as i32,
            );
            exponent += match (x1, z1) {
                (false, false) => 0,
                (true, true) => z2 - x2,
                (true, false) => z2 * (2 * x2 - 1),
                (false, true) => x2 * (1 - 2 * z2),
            };
            self.x[dst][q] ^= x2 == 1;
            self.z[dst][q] ^= z2 == 1;
        }
        self.r[dst] = exponent.rem_euclid(4) >= 2;
    }

    /// `(value, deterministic)`.
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> (bool, bool) {
        let n = self.n;
        match (n..2 * n).find(|&row| self.x[row][q]) {
            Some(p) => {
                for row in 0..2 * n {
                    if row != p && self.x[row][q] {
                        self.row_mul(row, p);
                    }
                }
                self.x[p - n] = self.x[p].clone();
                self.z[p - n] = self.z[p].clone();
                self.r[p - n] = self.r[p];
                self.x[p].fill(false);
                self.z[p].fill(false);
                self.z[p][q] = true;
                let value: bool = rng.gen();
                self.r[p] = value;
                (value, false)
            }
            None => {
                let scratch = 2 * n;
                self.x[scratch].fill(false);
                self.z[scratch].fill(false);
                self.r[scratch] = false;
                for i in 0..n {
                    if self.x[i][q] {
                        self.row_mul(scratch, n + i);
                    }
                }
                (self.r[scratch], true)
            }
        }
    }

    fn row(&self, row: usize) -> PauliString {
        let mut p = PauliString::identity(self.n);
        for q in 0..self.n {
            p.set(q, Pauli::from_xz(self.x[row][q], self.z[row][q]));
        }
        if self.r[row] {
            p.negate();
        }
        p
    }
}

/// Counts the words drawn from the generator it wraps.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn new(seed: u64) -> CountingRng {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// One drawn operation: a kind and two raw operands, reduced modulo the
/// qubit count on replay so one strategy serves every size.
type Op = (u8, usize, usize);

const KINDS: u8 = 10;

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0..KINDS, 0..1usize << 16, 0..1usize << 16), 0..160)
}

/// The two simulators side by side, fed the same seed.
struct Pair {
    n: usize,
    fast: Tableau,
    naive: NaiveChp,
    fast_rng: CountingRng,
    naive_rng: CountingRng,
}

impl Pair {
    fn h(&mut self, q: usize) {
        self.fast.h(q);
        self.naive.h(q);
    }

    fn s(&mut self, q: usize) {
        self.fast.s(q);
        self.naive.s(q);
    }

    fn cnot(&mut self, c: usize, t: usize) {
        self.fast.cnot(c, t);
        self.naive.cnot(c, t);
    }

    /// Measures `q` on both; outcome, determinism and RNG position must
    /// agree.
    fn measure(&mut self, q: usize, step: usize) -> Result<bool, TestCaseError> {
        let m = self.fast.measure(q, &mut self.fast_rng);
        let (value, deterministic) = self.naive.measure(q, &mut self.naive_rng);
        prop_assert_eq!(m.value, value, "step {}: outcome of qubit {}", step, q);
        prop_assert_eq!(m.deterministic, deterministic, "step {}: qubit {}", step, q);
        prop_assert_eq!(
            self.fast_rng.draws,
            self.naive_rng.draws,
            "step {}: RNG draws",
            step
        );
        Ok(value)
    }

    /// Every generator, signs included, must agree.
    fn compare_generators(&self, step: usize) -> Result<(), TestCaseError> {
        for i in 0..self.n {
            prop_assert_eq!(
                self.fast.destabilizer(i),
                self.naive.row(i),
                "step {}: destabilizer {}",
                step,
                i
            );
            prop_assert_eq!(
                self.fast.stabilizer(i),
                self.naive.row(self.n + i),
                "step {}: stabilizer {}",
                step,
                i
            );
        }
        Ok(())
    }
}

/// State preparations that make the later measurements interesting.
#[derive(Debug, Clone, Copy)]
enum Prelude {
    None,
    /// A GHZ-like chain over every qubit: generators span all words and
    /// random outcomes are common.
    Chain,
    /// Qubit `a` stays `|0⟩` but its stabilizer becomes `Z_a Y_b` next to
    /// `Y_b`, with `b = n − 1 − a` in another word: measuring `a` is
    /// deterministic and multiplies stabilizers with Y parts from
    /// different words.
    FoldedPairs,
}

impl Pair {
    fn new(n: usize, seed: u64) -> Pair {
        Pair {
            n,
            fast: Tableau::new(n),
            naive: NaiveChp::new(n),
            fast_rng: CountingRng::new(seed),
            naive_rng: CountingRng::new(seed),
        }
    }

    fn prepare(&mut self, prelude: Prelude) {
        let n = self.n;
        match prelude {
            Prelude::None => {}
            Prelude::Chain => {
                for q in (0..n).step_by(3) {
                    self.h(q);
                }
                for q in 1..n {
                    self.cnot(q - 1, q);
                }
            }
            Prelude::FoldedPairs => {
                for a in 0..n / 2 {
                    let b = n - 1 - a;
                    self.h(b);
                    self.h(a);
                    self.cnot(a, b);
                    self.h(a);
                    self.s(b);
                }
            }
        }
    }

    /// Replays `ops` on both simulators, comparing outcomes and
    /// generators after every measurement. `dense` confines the drawn
    /// operations to eight qubits spread evenly over the register, so
    /// that each sees enough gates to leave deterministic outcomes that
    /// are products of several stabilizers with X and Y parts.
    fn drive(&mut self, dense: bool, ops: &[Op]) -> Result<(), TestCaseError> {
        let n = self.n;
        let qubit = |raw: usize| {
            if dense && n > 8 {
                (raw % 8) * (n - 1) / 7
            } else {
                raw % n
            }
        };
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let q = qubit(a);
            match kind {
                0 => self.h(q),
                1 => self.s(q),
                2 | 3 if n > 1 => {
                    let t = match qubit(b) {
                        t if t == q => (q + 1) % n,
                        t => t,
                    };
                    self.cnot(q, t);
                }
                4 => {
                    self.fast.x(q);
                    self.naive.pauli(q, Pauli::X);
                }
                5 => {
                    self.fast.y(q);
                    self.naive.pauli(q, Pauli::Y);
                }
                6 => {
                    self.fast.z(q);
                    self.naive.pauli(q, Pauli::Z);
                }
                7 | 8 => {
                    self.measure(q, step)?;
                    self.compare_generators(step)?;
                }
                9 => {
                    self.fast.reset(q, &mut self.fast_rng);
                    if self.naive.measure(q, &mut self.naive_rng).0 {
                        self.naive.pauli(q, Pauli::X);
                    }
                    self.compare_generators(step)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Measures every qubit and compares the generators once more.
    fn measure_all(&mut self, step: usize) -> Result<(), TestCaseError> {
        for q in 0..self.n {
            self.measure(q, step + q)?;
        }
        self.compare_generators(step + self.n)
    }

    /// `self ⊗ other`, the fast side by [`Tableau::append`]. Both sides
    /// go on drawing from `self`'s generators.
    fn join(mut self, other: &Pair, step: usize) -> Result<Pair, TestCaseError> {
        self.fast.append(&other.fast);
        self.naive = NaiveChp::tensor(&self.naive, &other.naive);
        self.n += other.n;
        prop_assert_eq!(self.fast.num_qubits(), self.n);
        self.compare_generators(step)?;
        Ok(self)
    }
}

fn replay(
    n: usize,
    prelude: Prelude,
    dense: bool,
    ops: &[Op],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut pair = Pair::new(n, seed);
    pair.prepare(prelude);
    pair.drive(dense, ops)?;
    pair.measure_all(ops.len())
}

/// Drives one register per entry of `sizes` through its own third of
/// `ops`, joins them left to right (a second join appends to a register
/// that is itself a join), and drives the joined register through the
/// last third: its CNOTs land on either side of a seam as often as not.
fn replay_joined(
    sizes: &[usize],
    prelude: Prelude,
    dense: bool,
    ops: &[Op],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (apart, together) = ops.split_at(2 * ops.len() / 3);
    let share = apart.len().div_ceil(sizes.len()).max(1);
    let mut parts = sizes.iter().zip(0u64..).map(|(&n, i)| {
        let mut part = Pair::new(n, seed ^ i);
        part.prepare(prelude);
        let ops = apart.chunks(share).nth(i as usize).unwrap_or(&[]);
        part.drive(dense, ops).map(|()| part)
    });
    let mut joined = parts.next().expect("at least one register")?;
    for part in parts {
        joined = joined.join(&part?, apart.len())?;
        joined.fast.check_invariants();
    }
    joined.drive(dense, together)?;
    joined.measure_all(ops.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_naive_chp_across_word_boundaries(
        ops in ops(),
        prelude in prop_oneof![
            Just(Prelude::None),
            Just(Prelude::Chain),
            Just(Prelude::FoldedPairs),
        ],
        dense in any::<bool>(),
        seed in 0u64..1 << 32,
    ) {
        for n in [1usize, 63, 64, 65, 130] {
            replay(n, prelude, dense, &ops, seed)?;
        }
    }

    /// Block sizes whose seams fall inside a word (17 + 17, 49 + 49,
    /// 63 + 2), on a word boundary (64 + 64), and that widen the columns
    /// by one word or two (49 + 98, three tiles of 49).
    #[test]
    fn append_matches_the_naive_tensor_product(
        ops in ops(),
        prelude in prop_oneof![
            Just(Prelude::None),
            Just(Prelude::Chain),
            Just(Prelude::FoldedPairs),
        ],
        dense in any::<bool>(),
        seed in 0u64..1 << 32,
    ) {
        for sizes in [
            &[17usize, 17][..],
            &[49, 49],
            &[63, 2],
            &[1, 64],
            &[64, 64],
            &[49, 98],
            &[49, 49, 49],
        ] {
            replay_joined(sizes, prelude, dense, &ops, seed)?;
        }
    }
}
