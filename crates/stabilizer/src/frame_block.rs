//! A stabilizer register whose repeating cycles cost a Pauli frame, not
//! a tableau.
//!
//! [`FrameBlock`] holds a state as `F·|ref⟩`: a *reference* [`Tableau`]
//! that only ever sees Cliffords and measurements, every random outcome
//! forced to `false`, and a bit-packed Pauli frame `F` (one X bit and one
//! Z bit per qubit) that absorbs every Pauli — noise, program `x/y/z`,
//! the conditional flip of a reset — and is conjugated by every Clifford.
//!
//! A measurement of `Z_q` reads the reference and corrects by the frame,
//! on two identities:
//!
//! * `Π_b F = F Π_{b ⊕ f}` with `f` the frame's X bit at `q`: the frame
//!   flips which projector the reference sees. A deterministic reference
//!   outcome `r` is reported as `r ⊕ f`.
//! * `Π_{¬r}|ref⟩ ∝ g Π_r|ref⟩` for any stabilizer `g` of `|ref⟩` that
//!   anticommutes with `Z_q`: when a random measurement draws `b` and
//!   `b ⊕ f` is not the `false` the reference was collapsed to, the pivot
//!   `g` of that collapse is multiplied into the frame.
//!
//! Whether a measurement is random depends on the stabilizer group
//! without its signs, which Paulis do not touch, so the block reports
//! random exactly when a bare [`Tableau`] fed the same operations would,
//! draws the same one `rng.gen::<bool>()`, and returns the same value:
//! outcomes, `deterministic` flags and RNG positions agree op for op
//! (`tests/frame_block_differential.rs`).
//!
//! # Tapes
//!
//! The point of the split is that the reference of a machine replaying
//! one program forever stops moving. Between one
//! [`cycle_boundary`](StabilizerSim::cycle_boundary) mark and the next
//! the block records a *tape*: every operation that reached the
//! reference, with what the reference answered (random or not, the
//! outcome, the pivot). When a mark closes a tape that equals the
//! previous tape of the same key entry for entry **and** the reference
//! holds the state it held when the tape began
//! ([`Tableau::same_state`] — the generators of a repeating cycle keep
//! changing long after its state has stopped), the tape is *locked*: the
//! cycle maps that state to itself, so from then on the reference stays
//! where it is and each incoming operation is matched against the tape
//! and moves only the frame.
//!
//! Any operation that is not the tape's next entry — a masked region, a
//! logical word, a readout, an [`append`](FrameBlock::append) — replays
//! the matched prefix onto the reference, unlocks every tape of the block
//! and continues on the reference, which is always correct. Paulis are on
//! no tape: they never reach the reference.
//!
//! Marks carry a key so that several programs interleaved on one block
//! (two tiles joined by a transversal gate) keep a tape each. A tape is
//! only ever replayed from the state it was verified on: a replay leaves
//! the reference alone, a verified recording returns to it, and anything
//! else unlocks the whole block.
//!
//! # Trails
//!
//! A tape takes a few cycles on the reference to lock, and every fresh
//! register running the same program pays them again. It need not:
//! from a given reference tableau a given sequence of reference
//! operations yields the same answers, the same pivots and the same
//! tableau, whatever the seed, because the reference sees no Pauli and
//! no drawn bit. A [`Trail`] is that warm-up written down once: for each
//! cycle from a fresh block's first mark until its tape locked, what the
//! reference was asked and answered, and the tableau the cycle left.
//!
//! A block built by [`FrameBlock::fresh`] looks, at its first mark, for
//! a trail of that key starting from its very reference (`==`, generator
//! for generator). If it finds one it *follows* it: each trail cycle is
//! its tape in hand, matched and answered exactly like a locked tape,
//! and the reference is set to the trail's tableau at each mark. After
//! the trail's last cycle that cycle is the block's own locked tape.
//! Anything off the trail — an operation that is not its next entry, a
//! cycle cut short, another key — puts the block where one laying the
//! trail would be at that point (the trail's tableau at the last mark
//! with the matched prefix replayed, the cycle so far on its recording,
//! the cycle before on its tape), and from there it is an ordinary
//! block. A follower therefore draws, answers and holds exactly what a
//! block that never saw the trail would, down to the generators.
//!
//! A fresh block that finds no trail lays one, and
//! [`FrameBlock::take_trail`] hands it over once its tape has locked.
//! Blocks built by [`FrameBlock::new`], clones and appended blocks
//! neither follow nor lay.
//!
//! # Kernels
//!
//! A locked tape still costs a match and a frame update per call. It
//! need not: the cycle it records is a fixed Clifford circuit with fixed
//! reference answers, and what it does to the frame is affine over
//! GF(2) in the frame bits and the bits the cycle draws.
//!
//! * H, S and CNOT permute or XOR frame bits; a Pauli flips one.
//! * A deterministic outcome is `ref ⊕ fx[q]`, and a reset XORs its
//!   outcome into `fx[q]`.
//! * A random entry draws one `rng.gen::<bool>()`, `v`, reports it and
//!   XORs its pivot into the frame when `v ⊕ fx[q] ≠ ref`: affine in
//!   the frame and in `v`.
//!
//! So when a whole cycle arrives as one call
//! ([`StabilizerSim::run_cycle`]) and a locked tape has already served
//! that very gate list call by call, the block compiles the tape once
//! into a *kernel*: one column per input — the X frame bits, then the Z
//! frame bits, of the qubits the gates touch, then one per random entry
//! — plus a constant column, each holding the change to the block's
//! frame and the outcomes. The compiler runs the gate list once over a
//! symbolic frame, each frame bit an affine form over the inputs, with
//! the tape's answers and pivots, and transposes. It then tables the
//! columns by nibbles: for every four consecutive inputs, the 16
//! XOR-sums of their columns, each one column away from a smaller one;
//! only the tables and the constant are kept. Serving a cycle is then
//! drawing the random bits, in entry order (they are the only draws of
//! the cycle), into the input words, gathering the frame bits ahead of
//! them by word shifts at the offset, and XOR-ing the constant and, for
//! each nibble of the inputs, the table row its value picks into the
//! frame and the outcomes — the same sum of the set inputs' columns as
//! one column at a time, with no branch on a set bit. That is the same
//! draws, the same outcomes and the same frame as the call-by-call
//! replay, and the reference stays where it is. A kernel serves only
//! the gate list ([`Arc::ptr_eq`]) and offset it was compiled from, and
//! is dropped when its tape unlocks; anything else — no lock, other
//! gates, a trail cycle — goes call by call.

use crate::pauli::Pauli;
use crate::tableau::{or_shifted, Measurement, Tableau};
use rand::Rng;
use std::sync::Arc;

const WORD_BITS: usize = 64;

/// One call on a [`StabilizerSim`], written down so that a run of calls
/// can be fired as one ([`fire_gates`], [`StabilizerSim::run_cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimGate {
    /// [`StabilizerSim::h`].
    H(usize),
    /// [`StabilizerSim::s`].
    S(usize),
    /// [`StabilizerSim::s_dagger`].
    SDagger(usize),
    /// [`StabilizerSim::x`].
    X(usize),
    /// [`StabilizerSim::y`].
    Y(usize),
    /// [`StabilizerSim::z`].
    Z(usize),
    /// [`StabilizerSim::cnot`], control then target.
    Cnot(usize, usize),
    /// [`StabilizerSim::measure`]; its outcome is reported.
    Measure(usize),
    /// [`StabilizerSim::measure_x`]; its outcome is reported.
    MeasureX(usize),
    /// [`StabilizerSim::reset`].
    Reset(usize),
    /// [`StabilizerSim::reset_plus`].
    ResetPlus(usize),
}

impl SimGate {
    /// The highest qubit the gate acts on.
    fn top(self) -> usize {
        match self {
            SimGate::Cnot(c, t) => c.max(t),
            SimGate::H(q)
            | SimGate::S(q)
            | SimGate::SDagger(q)
            | SimGate::X(q)
            | SimGate::Y(q)
            | SimGate::Z(q)
            | SimGate::Measure(q)
            | SimGate::MeasureX(q)
            | SimGate::Reset(q)
            | SimGate::ResetPlus(q) => q,
        }
    }
}

/// Fires `gates` on `sim` in order, every qubit moved up by `offset`,
/// and appends `(qubit, outcome)` for each measurement that reports one,
/// with the qubit as `gates` lists it. The one firing routine: every
/// call of an MCE on its register goes through here.
pub fn fire_gates<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
    sim: &mut S,
    offset: usize,
    gates: &[SimGate],
    rng: &mut R,
    outcomes: &mut Vec<(usize, bool)>,
) {
    for &gate in gates {
        match gate {
            SimGate::H(q) => sim.h(offset + q),
            SimGate::S(q) => sim.s(offset + q),
            SimGate::SDagger(q) => sim.s_dagger(offset + q),
            SimGate::X(q) => sim.x(offset + q),
            SimGate::Y(q) => sim.y(offset + q),
            SimGate::Z(q) => sim.z(offset + q),
            SimGate::Cnot(c, t) => sim.cnot(offset + c, offset + t),
            SimGate::Measure(q) => outcomes.push((q, sim.measure(offset + q, rng).value)),
            SimGate::MeasureX(q) => outcomes.push((q, sim.measure_x(offset + q, rng).value)),
            SimGate::Reset(q) => sim.reset(offset + q, rng),
            SimGate::ResetPlus(q) => sim.reset_plus(offset + q, rng),
        }
    }
}

/// What an MCE needs of the register under its tile: Clifford gates,
/// Paulis, preparation and measurement on numbered qubits.
///
/// [`Tableau`] implements it by its inherent methods, operation for
/// operation (the provided ones too: the oracle runs exactly what it
/// always ran, and [`StabilizerSim::run_cycle`] keeps its default, one
/// call after another); [`FrameBlock`] implements it with the same
/// outcomes and the same RNG draws, so code written against the trait
/// can be checked on a bare tableau and run on a block.
pub trait StabilizerSim {
    /// Number of qubits.
    fn num_qubits(&self) -> usize;

    /// Hadamard on `q`.
    fn h(&mut self, q: usize);

    /// Phase gate `S = diag(1, i)` on `q`.
    fn s(&mut self, q: usize);

    /// Pauli `p` on `q`.
    fn pauli(&mut self, q: usize, p: Pauli);

    /// CNOT with control `c` and target `t`.
    fn cnot(&mut self, c: usize, t: usize);

    /// Measures `q` in the Z basis; a random outcome is one
    /// `rng.gen::<bool>()`, a deterministic one draws nothing.
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement;

    /// Inverse phase gate `S† = S³` on `q`.
    fn s_dagger(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// Pauli X on `q`.
    fn x(&mut self, q: usize) {
        self.pauli(q, Pauli::X);
    }

    /// Pauli Y on `q`.
    fn y(&mut self, q: usize) {
        self.pauli(q, Pauli::Y);
    }

    /// Pauli Z on `q`.
    fn z(&mut self, q: usize) {
        self.pauli(q, Pauli::Z);
    }

    /// Measures `q` in the X basis (conjugating by Hadamards).
    fn measure_x<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.h(q);
        let m = self.measure(q, rng);
        self.h(q);
        m
    }

    /// Resets `q` to `|0⟩` (measure, then flip if needed).
    fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng).value {
            self.x(q);
        }
    }

    /// Resets `q` to `|+⟩`.
    fn reset_plus<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.reset(q, rng);
        self.h(q);
    }

    /// Marks the start of one round of a program that repeats. `key`
    /// tells apart the programs interleaved on one register. A register
    /// with nothing to gain from the hint ignores it.
    fn cycle_boundary(&mut self, _key: usize) {}

    /// One whole round of a repeating program in one call: the mark
    /// ([`StabilizerSim::cycle_boundary`] with `key`), then `gates` fired
    /// at `offset` by [`fire_gates`], whose outcomes are appended to
    /// `outcomes`. That is the default, and it is what every
    /// implementation must amount to, draw for draw.
    ///
    /// The gate list comes behind an [`Arc`] so that a register may
    /// recognise a list it has seen at O(1) cost: a [`FrameBlock`] whose
    /// tape has locked on the list serves the round from a compiled
    /// kernel ([module docs](self#kernels)). [`Tableau`] keeps the
    /// default: it is the call-by-call oracle the kernel is checked
    /// against.
    fn run_cycle<R: Rng + ?Sized>(
        &mut self,
        key: usize,
        offset: usize,
        gates: &Arc<[SimGate]>,
        rng: &mut R,
        outcomes: &mut Vec<(usize, bool)>,
    ) {
        self.cycle_boundary(key);
        fire_gates(self, offset, gates, rng, outcomes);
    }
}

impl StabilizerSim for Tableau {
    #[inline]
    fn num_qubits(&self) -> usize {
        Tableau::num_qubits(self)
    }
    #[inline]
    fn h(&mut self, q: usize) {
        Tableau::h(self, q);
    }
    #[inline]
    fn s(&mut self, q: usize) {
        Tableau::s(self, q);
    }
    #[inline]
    fn pauli(&mut self, q: usize, p: Pauli) {
        Tableau::pauli(self, q, p);
    }
    #[inline]
    fn cnot(&mut self, c: usize, t: usize) {
        Tableau::cnot(self, c, t);
    }
    #[inline]
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        Tableau::measure(self, q, rng)
    }
    #[inline]
    fn s_dagger(&mut self, q: usize) {
        Tableau::s_dagger(self, q);
    }
    #[inline]
    fn x(&mut self, q: usize) {
        Tableau::x(self, q);
    }
    #[inline]
    fn y(&mut self, q: usize) {
        Tableau::y(self, q);
    }
    #[inline]
    fn z(&mut self, q: usize) {
        Tableau::z(self, q);
    }
    #[inline]
    fn measure_x<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        Tableau::measure_x(self, q, rng)
    }
    #[inline]
    fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        Tableau::reset(self, q, rng);
    }
    #[inline]
    fn reset_plus<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        Tableau::reset_plus(self, q, rng);
    }
}

/// The operations that reach the reference. Everything else is a Pauli
/// (frame only) or composed of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    H,
    S,
    Cnot,
    Measure,
}

/// An operation and its qubits in one word, so that matching a tape
/// entry is one comparison: the operation above two 30-bit qubit
/// indices (the second is a CNOT's target, zero otherwise). A block is
/// never that wide (`FrameBlock::over` checks), so the qubits of a block
/// cannot run into each other or into the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Call(u64);

const QUBIT_BITS: u32 = 30;

impl Call {
    #[inline]
    fn new(op: Op, a: usize, b: usize) -> Call {
        Call((op as u64) << (2 * QUBIT_BITS) | (a as u64) << QUBIT_BITS | b as u64)
    }

    fn op(self) -> Op {
        match self.0 >> (2 * QUBIT_BITS) {
            0 => Op::H,
            1 => Op::S,
            2 => Op::Cnot,
            _ => Op::Measure,
        }
    }

    fn qubits(self) -> (usize, usize) {
        let mask = (1 << QUBIT_BITS) - 1;
        (
            (self.0 >> QUBIT_BITS & mask) as usize,
            (self.0 & mask) as usize,
        )
    }
}

/// One operation on the reference and, for a measurement, what the
/// reference answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    call: Call,
    random: bool,
    outcome: bool,
}

/// The reference operations of one cycle.
#[derive(Debug, Default)]
struct Record {
    entries: Vec<Entry>,
    /// The pivots of the random entries, in order, a frame's worth of
    /// words each.
    pivots: Vec<u64>,
}

impl Clone for Record {
    fn clone(&self) -> Record {
        Record {
            entries: self.entries.clone(),
            pivots: self.pivots.clone(),
        }
    }

    /// Copies `source` into the buffers this record already owns.
    fn clone_from(&mut self, source: &Record) {
        self.entries.clone_from(&source.entries);
        self.pivots.clone_from(&source.pivots);
    }
}

/// One cycle of a trail: what the reference was asked and answered
/// between two marks, and the reference after it.
#[derive(Debug)]
struct Stretch {
    record: Record,
    end: Tableau,
}

/// The longest warm-up a block lays down as a trail. A QECC cycle locks
/// its tape on its fourth mark; a program that takes longer is not worth
/// keeping.
const TRAIL_CYCLES: usize = 8;

/// A fresh block's warm-up, recorded once to be followed by every fresh
/// block that starts from the same reference; see the
/// [module docs](self#trails).
#[derive(Debug)]
pub struct Trail {
    /// The key of every mark on the trail.
    key: usize,
    /// The reference at the first mark.
    start: Tableau,
    /// The cycles from the first mark to the mark that locked the tape;
    /// the last one is the tape that locked.
    cycles: Vec<Stretch>,
}

impl Trail {
    /// Whether the two trails start alike: the same key at the first
    /// mark, over the same reference, generator for generator. A block
    /// follows the first trail that starts where it does, so there is
    /// no use for a second.
    pub fn same_start(&self, other: &Trail) -> bool {
        self.key == other.key && self.start == other.start
    }

    /// Cycles on the trail, the one that locked included.
    pub fn cycles(&self) -> usize {
        self.cycles.len()
    }
}

/// The trails fresh blocks may follow, shared by every block that is
/// offered them.
pub type Trails = Arc<[Arc<Trail>]>;

/// Where a block stands with respect to trails.
#[derive(Debug, Default)]
enum Warmup {
    /// Neither following nor laying one: a block built cold, a clone, an
    /// appended block, or a fresh block past its warm-up.
    #[default]
    Off,
    /// Fresh and before its first mark, with the trails it may follow.
    Fresh(Trails),
    /// On `trail`, whose cycle `cycle` is the tape in hand.
    Following { trail: Arc<Trail>, cycle: usize },
    /// Laying a trail of its own.
    Laying(Trail),
    /// A complete trail, waiting to be taken.
    Laid(Trail),
}

/// The last cycle recorded under one key.
#[derive(Debug, Default)]
struct Tape {
    key: usize,
    record: Record,
    /// A recording has been closed into this tape.
    recorded: bool,
    /// Verified to map the reference's state to itself.
    locked: bool,
    /// The locked tape compiled for the gate list it last served; never
    /// set on an unlocked tape.
    kernel: Option<Kernel>,
    replayed: u64,
    /// Of those, the cycles served by the kernel.
    kernel_cycles: u64,
    /// The bits those kernel cycles drew.
    kernel_draws: u64,
}

/// A locked tape compiled for one gate list at one offset: the cycle's
/// whole effect on the frame and its outcomes as one affine map, tabled
/// by nibbles of its inputs; see the [module docs](self#kernels).
#[derive(Debug)]
struct Kernel {
    /// What it serves, and nothing else.
    gates: Arc<[SimGate]>,
    offset: usize,
    /// Its inputs are the X bits, then the Z bits, of the qubits
    /// `offset..offset + span`, then one drawn bit per random entry.
    span: usize,
    draws: usize,
    /// The qubit of each outcome, as `gates` lists it, in order.
    measured: Box<[usize]>,
    /// Words per column: the block's frame, then a bit per outcome.
    stride: usize,
    /// The constant column: the change with every input clear.
    constant: Box<[u64]>,
    /// For nibble `k` of the inputs (inputs `4k..4k + 4`) and each of
    /// its 16 values `v`, the XOR of the columns of the inputs `v` sets:
    /// `tables[(16 * k + v) * stride..][..stride]`.
    tables: Box<[u64]>,
    /// One application's inputs, packed 64 to a word.
    inputs: Vec<u64>,
    /// One application's sum of columns.
    sum: Vec<u64>,
}

/// XORs `src` into `dst`, word for word.
#[inline]
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// The `len <= 64` bits of `src` from bit `at` on, as the low bits of a
/// word.
#[inline]
fn bits_at(src: &[u64], at: usize, len: usize) -> u64 {
    let (w, b) = (at / WORD_BITS, at % WORD_BITS);
    let high = match src.get(w + 1) {
        Some(&next) if b > 0 => next << (WORD_BITS - b),
        _ => 0,
    };
    (src[w] >> b | high) & (u64::MAX >> (WORD_BITS - len))
}

/// Copies the `len` bits of `src` from bit `from` on into the clear bits
/// of `dst` from bit `to` on.
#[inline]
fn copy_bits(dst: &mut [u64], to: usize, src: &[u64], from: usize, len: usize) {
    for done in (0..len).step_by(WORD_BITS) {
        let bits = bits_at(src, from + done, (len - done).min(WORD_BITS));
        let (w, b) = ((to + done) / WORD_BITS, (to + done) % WORD_BITS);
        dst[w] |= bits << b;
        if b > 0 && bits >> (WORD_BITS - b) != 0 {
            dst[w + 1] |= bits >> (WORD_BITS - b);
        }
    }
}

/// Calls `f` with the position of every set bit of `words`, ascending.
#[inline]
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * WORD_BITS + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The symbolic frame a kernel is compiled on: every frame bit of the
/// block as an affine form over the kernel's inputs, a row of `width`
/// words with the constant at bit 0 and input `k` at bit `1 + k`. A
/// frame bit's row sits where the bit sits in the frame (X bits, then Z
/// bits), so a pivot indexes rows directly.
struct Compiler<'a> {
    rows: Vec<u64>,
    width: usize,
    /// Words in one half of the frame.
    words: usize,
    offset: usize,
    span: usize,
    entries: std::slice::Iter<'a, Entry>,
    pivots: std::slice::ChunksExact<'a, u64>,
    drawn: usize,
    /// The outcome of the last measurement, as a row.
    outcome: Vec<u64>,
}

impl Compiler<'_> {
    fn row(&mut self, bit: usize) -> &mut [u64] {
        &mut self.rows[bit * self.width..][..self.width]
    }

    fn x(&self, q: usize) -> usize {
        q
    }

    fn z(&self, q: usize) -> usize {
        self.words * WORD_BITS + q
    }

    /// `rows[dst] ^= rows[src]`.
    fn xor_rows(&mut self, dst: usize, src: usize) {
        for w in 0..self.width {
            self.rows[dst * self.width + w] ^= self.rows[src * self.width + w];
        }
    }

    /// The tape's next entry, if it is `call`.
    fn next(&mut self, call: Call) -> Option<Entry> {
        self.entries.next().filter(|e| e.call == call).copied()
    }

    fn h(&mut self, q: usize) -> Option<()> {
        self.next(Call::new(Op::H, q, 0))?;
        for w in 0..self.width {
            let (x, z) = (self.x(q) * self.width + w, self.z(q) * self.width + w);
            self.rows.swap(x, z);
        }
        Some(())
    }

    fn s(&mut self, q: usize) -> Option<()> {
        self.next(Call::new(Op::S, q, 0))?;
        self.xor_rows(self.z(q), self.x(q));
        Some(())
    }

    fn cnot(&mut self, c: usize, t: usize) -> Option<()> {
        self.next(Call::new(Op::Cnot, c, t))?;
        self.xor_rows(self.x(t), self.x(c));
        self.xor_rows(self.z(c), self.z(t));
        Some(())
    }

    /// Flips the frame bit at `bit`: a Pauli.
    fn flip(&mut self, bit: usize) {
        self.row(bit)[0] ^= 1;
    }

    /// Measures `q`, leaving the outcome in `self.outcome`; a random
    /// entry's pivot goes into every frame bit it covers when the drawn
    /// bit, seen through the frame, disagrees with the reference.
    fn measure(&mut self, q: usize) -> Option<()> {
        let entry = self.next(Call::new(Op::Measure, q, 0))?;
        let x = self.x(q) * self.width;
        self.outcome.copy_from_slice(&self.rows[x..][..self.width]);
        self.outcome[0] ^= u64::from(entry.outcome);
        if !entry.random {
            return Some(());
        }
        let pivot = self.pivots.next()?;
        // `outcome` is `ref ⊕ fx[q]`: with the drawn bit, the indicator.
        let input = 1 + 2 * self.span + self.drawn;
        self.drawn += 1;
        self.outcome[input / WORD_BITS] ^= 1 << (input % WORD_BITS);
        for_each_bit(pivot, |bit| {
            xor_into(
                &mut self.rows[bit * self.width..][..self.width],
                &self.outcome,
            );
        });
        self.outcome.fill(0);
        self.outcome[input / WORD_BITS] = 1 << (input % WORD_BITS);
        Some(())
    }

    fn reset(&mut self, q: usize) -> Option<()> {
        self.measure(q)?;
        let x = self.x(q) * self.width;
        xor_into(&mut self.rows[x..][..self.width], &self.outcome);
        Some(())
    }
}

impl Kernel {
    /// Compiles `record` for `gates` at `offset` on a block whose frame
    /// halves are `words` words, or `None` if the gates do not make the
    /// calls the record holds, in order and to the end.
    fn compile(
        gates: &Arc<[SimGate]>,
        offset: usize,
        record: &Record,
        words: usize,
    ) -> Option<Kernel> {
        let span = gates.iter().map(|g| g.top() + 1).max()?;
        if offset + span > words * WORD_BITS {
            return None;
        }
        let draws = record.entries.iter().filter(|e| e.random).count();
        let inputs = 1 + 2 * span + draws;
        let width = inputs.div_ceil(WORD_BITS);
        let frame_bits = 2 * words * WORD_BITS;
        // The input bit of a tile frame bit: its own value.
        let input_of = |bit: usize| {
            let (half, q) = (bit / (words * WORD_BITS), bit % (words * WORD_BITS));
            (offset..offset + span)
                .contains(&q)
                .then(|| 1 + half * span + q - offset)
        };
        let mut rows = vec![0; frame_bits * width];
        for bit in 0..frame_bits {
            if let Some(input) = input_of(bit) {
                rows[bit * width + input / WORD_BITS] |= 1 << (input % WORD_BITS);
            }
        }
        let mut c = Compiler {
            rows,
            width,
            words,
            offset,
            span,
            entries: record.entries.iter(),
            pivots: record.pivots.chunks_exact(2 * words),
            drawn: 0,
            outcome: vec![0; width],
        };
        // The reported outcomes' rows, one after the other.
        let (mut measured, mut outcomes) = (Vec::new(), Vec::new());
        for &gate in gates.iter() {
            match gate {
                SimGate::H(q) => c.h(c.offset + q)?,
                SimGate::S(q) => c.s(c.offset + q)?,
                SimGate::SDagger(q) => {
                    for _ in 0..3 {
                        c.s(c.offset + q)?;
                    }
                }
                SimGate::X(q) => c.flip(c.x(c.offset + q)),
                SimGate::Y(q) => {
                    c.flip(c.x(c.offset + q));
                    c.flip(c.z(c.offset + q));
                }
                SimGate::Z(q) => c.flip(c.z(c.offset + q)),
                SimGate::Cnot(a, b) => c.cnot(c.offset + a, c.offset + b)?,
                SimGate::Measure(q) => {
                    c.measure(c.offset + q)?;
                    outcomes.extend_from_slice(&c.outcome);
                    measured.push(q);
                }
                SimGate::MeasureX(q) => {
                    c.h(c.offset + q)?;
                    c.measure(c.offset + q)?;
                    outcomes.extend_from_slice(&c.outcome);
                    c.h(c.offset + q)?;
                    measured.push(q);
                }
                SimGate::Reset(q) => c.reset(c.offset + q)?,
                SimGate::ResetPlus(q) => {
                    c.reset(c.offset + q)?;
                    c.h(c.offset + q)?;
                }
            }
        }
        if c.entries.next().is_some() || c.drawn != draws {
            return None;
        }
        // Transpose: a frame bit's change (its row less its own input)
        // and each outcome go into the columns of the inputs they read.
        let stride = 2 * words + measured.len().div_ceil(WORD_BITS);
        let mut columns = vec![0; inputs * stride].into_boxed_slice();
        for bit in 0..frame_bits {
            let row = &mut c.rows[bit * width..][..width];
            if let Some(input) = input_of(bit) {
                row[input / WORD_BITS] ^= 1 << (input % WORD_BITS);
            }
            for_each_bit(row, |input| {
                columns[input * stride + bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
            });
        }
        for (i, row) in outcomes.chunks_exact(width).enumerate() {
            let at = frame_bits + i;
            for_each_bit(row, |input| {
                columns[input * stride + at / WORD_BITS] |= 1 << (at % WORD_BITS);
            });
        }
        // Each nibble's 16 sums, each from a smaller one and one column;
        // an input past the last is a zero column.
        let (constant, columns) = columns.split_at(stride);
        let nibbles = (inputs - 1).div_ceil(4);
        let mut tables = vec![0; nibbles * 16 * stride].into_boxed_slice();
        for k in 0..nibbles {
            let table = &mut tables[16 * k * stride..][..16 * stride];
            for v in 1..16usize {
                let input = 4 * k + v.trailing_zeros() as usize;
                let (done, entry) = table.split_at_mut(v * stride);
                let entry = &mut entry[..stride];
                entry.copy_from_slice(&done[(v & (v - 1)) * stride..][..stride]);
                if let Some(column) = columns.get(input * stride..(input + 1) * stride) {
                    xor_into(entry, column);
                }
            }
        }
        Some(Kernel {
            gates: Arc::clone(gates),
            offset,
            span,
            draws,
            measured: measured.into(),
            stride,
            constant: constant.into(),
            tables,
            inputs: vec![0; (inputs - 1).div_ceil(WORD_BITS)],
            sum: vec![0; stride],
        })
    }

    /// Whether this kernel was compiled for `gates` at `offset`.
    #[inline]
    fn serves(&self, offset: usize, gates: &Arc<[SimGate]>) -> bool {
        self.offset == offset && Arc::ptr_eq(&self.gates, gates)
    }

    /// The column of input `input`: the entry of its bit alone in its
    /// nibble's table.
    #[cfg(test)]
    fn column(&self, input: usize) -> &[u64] {
        let entry = 16 * (input / 4) + (1 << (input % 4));
        &self.tables[entry * self.stride..][..self.stride]
    }

    /// Serves one cycle: moves `frame` and appends the outcomes.
    #[inline]
    fn apply<R: Rng + ?Sized>(
        &mut self,
        frame: &mut [u64],
        rng: &mut R,
        outcomes: &mut Vec<(usize, bool)>,
    ) {
        let Kernel {
            offset,
            span,
            draws,
            ref measured,
            stride,
            ref constant,
            ref tables,
            ref mut inputs,
            ref mut sum,
            ..
        } = *self;
        inputs.fill(0);
        // The random entries draw first, in entry order: nothing else in
        // the cycle draws.
        for j in 2 * span..2 * span + draws {
            inputs[j / WORD_BITS] |= u64::from(rng.gen::<bool>()) << (j % WORD_BITS);
        }
        let words = frame.len() / 2;
        let (x, z) = frame.split_at(words);
        copy_bits(inputs, 0, x, offset, span);
        copy_bits(inputs, span, z, offset, span);
        sum.copy_from_slice(constant);
        for (k, table) in tables.chunks_exact(16 * stride).enumerate() {
            let v = (inputs[k / 16] >> (4 * (k % 16)) & 15) as usize;
            xor_into(sum, &table[v * stride..][..stride]);
        }
        xor_into(frame, sum);
        let at = frame.len();
        outcomes.extend(measured.iter().enumerate().map(|(i, &q)| {
            let bit = at * WORD_BITS + i;
            (q, sum[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1)
        }));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The reference is live and nothing is recorded: before the first
    /// mark, and from a deviation to the next mark.
    Direct,
    /// The reference is live and `recording` takes every operation.
    Recording,
    /// The reference stays at the state of the last mark; operations are
    /// matched against `tapes[slot]` from `cursor` on.
    Replaying,
}

/// A register of qubits held as a Pauli frame over a reference
/// [`Tableau`]; see the [module docs](self).
///
/// Cloning keeps the state (reference and frame) and drops the tapes and
/// any trail: a clone re-records and re-locks. Two blocks are equal when
/// they hold the same state.
///
/// # Example
///
/// ```
/// use quest_stabilizer::{FrameBlock, Pauli, SeedableRng, StabilizerSim, StdRng, Tableau};
///
/// // Five rounds of a two-qubit parity check with an error in between:
/// // the block and a bare tableau agree on every outcome.
/// let (mut block, mut bare) = (FrameBlock::new(3), Tableau::new(3));
/// let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
/// fn round<S: StabilizerSim>(s: &mut S, rng: &mut StdRng) -> bool {
///     s.cycle_boundary(0);
///     s.reset(2, rng);
///     s.cnot(0, 2);
///     s.cnot(1, 2);
///     s.measure(2, rng).value
/// }
/// for cycle in 0..5 {
///     if cycle == 3 {
///         block.pauli(1, Pauli::X);
///         StabilizerSim::pauli(&mut bare, 1, Pauli::X);
///     }
///     assert_eq!(round(&mut block, &mut rng_a), round(&mut bare, &mut rng_b));
/// }
/// assert!(block.replayed_cycles(0) > 0);
/// ```
#[derive(Debug)]
pub struct FrameBlock {
    reference: Tableau,
    /// `words` words of X bits, then as many of Z bits.
    frame: Vec<u64>,
    /// `⌈n/64⌉`.
    words: usize,
    mode: Mode,
    /// The tape of the cycle in progress (recording or replaying).
    slot: usize,
    /// Next entry of `tapes[slot]` to match, and the start of the next
    /// random entry's pivot.
    cursor: usize,
    pivot_cursor: usize,
    /// One tape per key seen, in order of first appearance.
    tapes: Vec<Tape>,
    /// The cycle being recorded; swapped into its tape at the next mark.
    /// Outside a recording, `pivots` is scratch.
    recording: Record,
    /// The reference as it was when the recording began; taken only when
    /// its tape holds an earlier recording to compare this one with.
    snapshot: Tableau,
    warmup: Warmup,
}

impl Clone for FrameBlock {
    fn clone(&self) -> FrameBlock {
        FrameBlock::over(self.materialised_reference(), self.frame.clone())
    }
}

impl PartialEq for FrameBlock {
    fn eq(&self, other: &FrameBlock) -> bool {
        self.to_tableau().same_state(&other.to_tableau())
    }
}

impl Eq for FrameBlock {}

/// Applies the reference side of `entries` to `reference`.
fn replay(reference: &mut Tableau, entries: &[Entry], scratch: &mut Vec<u64>) {
    for e in entries {
        let (a, b) = e.call.qubits();
        match e.call.op() {
            Op::H => reference.h(a),
            Op::S => reference.s(a),
            Op::Cnot => reference.cnot(a, b),
            Op::Measure => {
                scratch.clear();
                reference.measure_forced(a, scratch);
            }
        }
    }
}

impl FrameBlock {
    /// A block of `n` qubits in `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> FrameBlock {
        let words = n.div_ceil(WORD_BITS);
        FrameBlock::over(Tableau::new(n), vec![0; 2 * words])
    }

    /// A block with no history over a reference and a frame. What a
    /// first cycle writes is allocated here, by whoever builds the block,
    /// not on the cycle path by whoever runs it: a syndrome-extraction
    /// cycle is three to four operations per qubit and measures about
    /// every other qubit at random (longer cycles grow the buffers).
    fn over(reference: Tableau, frame: Vec<u64>) -> FrameBlock {
        let n = reference.num_qubits();
        assert!(n >> QUBIT_BITS == 0, "a block of 2^30 qubits or more");
        FrameBlock {
            words: frame.len() / 2,
            snapshot: reference.clone(),
            reference,
            recording: Record {
                entries: Vec::with_capacity(4 * n),
                pivots: Vec::with_capacity(n.div_ceil(2) * frame.len()),
            },
            frame,
            mode: Mode::Direct,
            slot: 0,
            cursor: 0,
            pivot_cursor: 0,
            tapes: Vec::new(),
            warmup: Warmup::Off,
        }
    }

    /// A block of `n` qubits in `|0…0⟩` that, at its first mark, follows
    /// the first of `trails` starting from its reference under that key,
    /// or lays a trail of its own if none does; see the
    /// [module docs](self#trails). What it answers is what a block from
    /// [`FrameBlock::new`] would answer.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fresh(n: usize, trails: Trails) -> FrameBlock {
        FrameBlock {
            warmup: Warmup::Fresh(trails),
            ..FrameBlock::new(n)
        }
    }

    /// The trail this block laid, once its tape has locked; a block
    /// gives it up once.
    pub fn take_trail(&mut self) -> Option<Trail> {
        match std::mem::take(&mut self.warmup) {
            Warmup::Laid(trail) => Some(trail),
            other => {
                self.warmup = other;
                None
            }
        }
    }

    /// Cycles of `key` served from its tape or from a trail, start to
    /// end, without touching the reference. A benchmark or a test that
    /// means to measure the fast path checks that this moves.
    pub fn replayed_cycles(&self, key: usize) -> u64 {
        self.tapes
            .iter()
            .find(|t| t.key == key)
            .map_or(0, |t| t.replayed)
    }

    /// Of [`FrameBlock::replayed_cycles`], the cycles of `key` served by
    /// a compiled kernel in one pass ([module docs](self#kernels)).
    pub fn kernel_cycles(&self, key: usize) -> u64 {
        self.tapes
            .iter()
            .find(|t| t.key == key)
            .map_or(0, |t| t.kernel_cycles)
    }

    /// The bits the kernel cycles of `key` drew: one per random entry of
    /// each cycle's tape.
    #[doc(hidden)]
    pub fn kernel_draws(&self, key: usize) -> u64 {
        self.tapes
            .iter()
            .find(|t| t.key == key)
            .map_or(0, |t| t.kernel_draws)
    }

    /// Appends `other`'s qubits after this block's own, leaving the
    /// tensor product of the two states ([`Tableau::append`]). Tapes were
    /// recorded on the narrower registers and are dropped; the replay
    /// counts stay, `other`'s under its keys moved up by this block's
    /// width.
    pub fn append(&mut self, other: &FrameBlock) {
        let shift = self.reference.num_qubits();
        let mut reference = self.materialised_reference();
        reference.append(&other.materialised_reference());
        let words = reference.num_qubits().div_ceil(WORD_BITS);
        let mut frame = vec![0u64; 2 * words];
        for (half, dst) in frame.chunks_exact_mut(words).enumerate() {
            dst[..self.words].copy_from_slice(&self.frame[half * self.words..][..self.words]);
            or_shifted(
                dst,
                &other.frame[half * other.words..][..other.words],
                shift,
            );
        }
        let count_of = |tape: &Tape, shift: usize| Tape {
            key: tape.key + shift,
            replayed: tape.replayed,
            kernel_cycles: tape.kernel_cycles,
            kernel_draws: tape.kernel_draws,
            ..Tape::default()
        };
        let kept = self.tapes.iter().map(|t| count_of(t, 0));
        let moved = other.tapes.iter().map(|t| count_of(t, shift));
        *self = FrameBlock {
            tapes: kept.chain(moved).collect(),
            ..FrameBlock::over(reference, frame)
        };
    }

    /// The state as one tableau: the reference, brought up to the
    /// operation in hand, with the frame applied to it.
    #[doc(hidden)]
    pub fn to_tableau(&self) -> Tableau {
        let mut t = self.materialised_reference();
        for q in 0..t.num_qubits() {
            let bit =
                |half: usize| self.frame[half * self.words + q / WORD_BITS] >> (q % WORD_BITS) & 1;
            t.pauli(q, Pauli::from_xz(bit(0) == 1, bit(1) == 1));
        }
        t
    }

    /// A copy of the reference with the part of the tape a replay has
    /// matched so far applied to it.
    fn materialised_reference(&self) -> Tableau {
        let mut reference = self.reference.clone();
        if self.mode == Mode::Replaying {
            let matched = &self.tapes[self.slot].record.entries[..self.cursor];
            replay(&mut reference, matched, &mut Vec::new());
        }
        reference
    }

    /// Leaves the tapes: the reference catches up with a replay in
    /// progress, every tape is unlocked (the reference is about to move
    /// off the state they were verified on) and operations go straight
    /// to the reference until the next mark. A block following a trail
    /// rejoins the path of the block that laid it instead.
    #[cold]
    fn deviate(&mut self) {
        if self.mode == Mode::Replaying {
            let matched = &self.tapes[self.slot].record.entries[..self.cursor];
            replay(&mut self.reference, matched, &mut self.recording.pivots);
        }
        match std::mem::take(&mut self.warmup) {
            Warmup::Following { trail, cycle } => return self.rejoin(&trail, cycle),
            other => self.warmup = other,
        }
        for tape in &mut self.tapes {
            tape.locked = false;
            tape.kernel = None;
        }
        self.mode = Mode::Direct;
    }

    /// Puts a block that leaves `trail` in its cycle `cycle`, with the
    /// matched prefix already replayed onto the reference, where the
    /// block that laid the trail was at this point: recording the cycle,
    /// the matched prefix and its pivots on the recording, the trail's
    /// previous cycle (if any) closed into the tape and the reference at
    /// the mark kept to compare the cycle with.
    fn rejoin(&mut self, trail: &Trail, cycle: usize) {
        let stretch = &trail.cycles[cycle].record;
        self.recording.entries.clear();
        self.recording
            .entries
            .extend_from_slice(&stretch.entries[..self.cursor]);
        self.recording.pivots.clear();
        self.recording
            .pivots
            .extend_from_slice(&stretch.pivots[..self.pivot_cursor]);
        let tape = &mut self.tapes[self.slot];
        match cycle.checked_sub(1).map(|before| &trail.cycles[before]) {
            Some(before) => {
                tape.record.clone_from(&before.record);
                self.snapshot.clone_from(&before.end);
            }
            None => tape.record = Record::default(),
        }
        tape.recorded = cycle > 0;
        self.mode = Mode::Recording;
    }

    /// Closes the recording into its tape, locking the tape if the cycle
    /// just recorded is the previous one over again and left the
    /// reference in the state it found it in; says whether it locked.
    /// Pivots are not compared: they follow the reference's generators,
    /// which keep changing, and any stabilizer of the measured state that
    /// anticommutes with `Z_q` serves (two of them differ by a stabilizer
    /// of the collapsed state).
    fn close_recording(&mut self) -> bool {
        let tape = &mut self.tapes[self.slot];
        // A first recording took no snapshot: there was nothing to
        // compare it with.
        let repeats = tape.recorded
            && tape.record.entries == self.recording.entries
            && self.reference.same_state(&self.snapshot);
        std::mem::swap(&mut tape.record, &mut self.recording);
        tape.recorded = true;
        if repeats {
            tape.locked = true;
        } else {
            // The reference may have moved: no tape verified on the old
            // state may be replayed from the new one.
            self.deviate();
        }
        repeats
    }

    /// At its first mark, a fresh block sets out on the first trail
    /// that starts from its reference under `key` (`true`: the mark is
    /// served), or starts laying one.
    fn set_out(&mut self, key: usize) -> bool {
        let Warmup::Fresh(trails) = std::mem::take(&mut self.warmup) else {
            return false;
        };
        let start = trails
            .iter()
            .find(|t| t.key == key && t.start == self.reference);
        let Some(trail) = start else {
            self.warmup = Warmup::Laying(Trail {
                key,
                start: self.reference.clone(),
                cycles: Vec::new(),
            });
            return false;
        };
        self.take_up(Arc::clone(trail), 0);
        true
    }

    /// Makes cycle `cycle` of `trail` the tape in hand.
    fn take_up(&mut self, trail: Arc<Trail>, cycle: usize) {
        let tape = &mut self.tapes[self.slot];
        let record = &trail.cycles[cycle].record;
        tape.record.clone_from(record);
        // A cycle with nothing for the reference is served already.
        tape.replayed += u64::from(record.entries.is_empty());
        (self.cursor, self.pivot_cursor) = (0, 0);
        self.mode = Mode::Replaying;
        self.warmup = Warmup::Following { trail, cycle };
    }

    /// A mark on a trail. The cycle it closes was followed to the end
    /// under the trail's key: the reference takes the tableau that cycle
    /// left, and the block goes on to the trail's next cycle (`true`: the
    /// mark is served) or, past the last, keeps that cycle as its locked
    /// tape. Otherwise the block rejoins the live path. Either way but
    /// the first, the mark is then handled as any other.
    fn follow_on(&mut self, key: usize) -> bool {
        let Warmup::Following { trail, cycle } = std::mem::take(&mut self.warmup) else {
            return false;
        };
        let tape = &mut self.tapes[self.slot];
        if key != trail.key || self.cursor != tape.record.entries.len() {
            self.warmup = Warmup::Following { trail, cycle };
            self.deviate();
            return false;
        }
        self.reference.clone_from(&trail.cycles[cycle].end);
        if cycle + 1 < trail.cycles.len() {
            self.take_up(trail, cycle + 1);
            return true;
        }
        tape.recorded = true;
        tape.locked = true;
        false
    }

    /// Puts the cycle a mark has just closed (`locked`: and locked) on
    /// the trail being laid, and sets the trail aside once it locked. A
    /// mark of another key, or a warm-up too long to be worth keeping,
    /// abandons it.
    fn lay(&mut self, key: usize, locked: bool) {
        let Warmup::Laying(trail) = &mut self.warmup else {
            return;
        };
        if key != trail.key || trail.cycles.len() == TRAIL_CYCLES {
            self.warmup = Warmup::Off;
            return;
        }
        trail.cycles.push(Stretch {
            record: self.tapes[self.slot].record.clone(),
            end: self.reference.clone(),
        });
        if locked {
            if let Warmup::Laying(trail) = std::mem::take(&mut self.warmup) {
                self.warmup = Warmup::Laid(trail);
            }
        }
    }

    /// The tape's answer for one reference operation: its next entry, if
    /// a replay is on and this operation is what the entry recorded.
    /// Anything else during a replay is a deviation, and `None` tells the
    /// caller to put the operation to the reference.
    #[inline]
    fn matched(&mut self, call: Call) -> Option<Entry> {
        if self.mode != Mode::Replaying {
            return None;
        }
        let tape = &mut self.tapes[self.slot];
        match tape.record.entries.get(self.cursor) {
            Some(&e) if e.call == call => {
                self.cursor += 1;
                if self.cursor == tape.record.entries.len() {
                    tape.replayed += 1;
                }
                Some(e)
            }
            _ => {
                self.deviate();
                None
            }
        }
    }

    /// Puts an operation the reference has just taken on the open
    /// recording.
    #[inline]
    fn record(&mut self, call: Call, random: bool, outcome: bool) {
        if self.mode == Mode::Recording {
            self.recording.entries.push(Entry {
                call,
                random,
                outcome,
            });
        }
    }

    /// Word index and mask of qubit `q` within one half of the frame.
    #[inline]
    fn locate(q: usize) -> (usize, u64) {
        (q / WORD_BITS, 1 << (q % WORD_BITS))
    }

    /// XORs `bit` into `frame[k]` if `on`. Frame bits follow measurement
    /// outcomes, so a branch on one is a coin toss to the predictor; the
    /// frame updates select by mask instead.
    #[inline]
    fn flip_if(&mut self, on: bool, k: usize, bit: u64) {
        self.frame[k] ^= bit & u64::from(on).wrapping_neg();
    }
}

impl StabilizerSim for FrameBlock {
    fn num_qubits(&self) -> usize {
        self.reference.num_qubits()
    }

    #[inline]
    fn h(&mut self, q: usize) {
        let call = Call::new(Op::H, q, 0);
        if self.matched(call).is_none() {
            self.reference.h(q);
            self.record(call, false, false);
        }
        let (k, bit) = FrameBlock::locate(q);
        let differ = (self.frame[k] ^ self.frame[self.words + k]) & bit;
        self.frame[k] ^= differ;
        self.frame[self.words + k] ^= differ;
    }

    #[inline]
    fn s(&mut self, q: usize) {
        let call = Call::new(Op::S, q, 0);
        if self.matched(call).is_none() {
            self.reference.s(q);
            self.record(call, false, false);
        }
        let (k, bit) = FrameBlock::locate(q);
        self.frame[self.words + k] ^= self.frame[k] & bit;
    }

    #[inline]
    fn pauli(&mut self, q: usize, p: Pauli) {
        assert!(q < self.num_qubits(), "qubit index {q} out of range");
        let (k, bit) = FrameBlock::locate(q);
        self.flip_if(p.has_x(), k, bit);
        self.flip_if(p.has_z(), self.words + k, bit);
    }

    #[inline]
    fn cnot(&mut self, c: usize, t: usize) {
        let call = Call::new(Op::Cnot, c, t);
        if self.matched(call).is_none() {
            self.reference.cnot(c, t);
            self.record(call, false, false);
        }
        let ((kc, bc), (kt, bt)) = (FrameBlock::locate(c), FrameBlock::locate(t));
        self.flip_if(self.frame[kc] & bc != 0, kt, bt);
        self.flip_if(self.frame[self.words + kt] & bt != 0, self.words + kc, bc);
    }

    #[inline]
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let len = 2 * self.words;
        // What the reference reads, and where the pivot of a random
        // outcome is.
        let call = Call::new(Op::Measure, q, 0);
        let (reference, pivot) = match self.matched(call) {
            Some(e) => {
                let at = self.pivot_cursor;
                if e.random {
                    self.pivot_cursor += len;
                }
                let m = Measurement {
                    value: e.outcome,
                    deterministic: !e.random,
                };
                (m, self.tapes[self.slot].record.pivots.get(at..at + len))
            }
            None => {
                if self.mode != Mode::Recording {
                    self.recording.pivots.clear();
                }
                let at = self.recording.pivots.len();
                let m = self.reference.measure_forced(q, &mut self.recording.pivots);
                self.record(call, !m.deterministic, m.value);
                (m, self.recording.pivots.get(at..at + len))
            }
        };
        let (k, bit) = FrameBlock::locate(q);
        let flipped = self.frame[k] & bit != 0;
        if reference.deterministic {
            return Measurement {
                value: reference.value ^ flipped,
                deterministic: true,
            };
        }
        let value: bool = rng.gen();
        let disagrees = u64::from(value ^ flipped != reference.value).wrapping_neg();
        for (f, p) in self.frame.iter_mut().zip(pivot.unwrap_or_default()) {
            *f ^= p & disagrees;
        }
        Measurement {
            value,
            deterministic: false,
        }
    }

    #[inline]
    fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        let one = self.measure(q, rng).value;
        let (k, bit) = FrameBlock::locate(q);
        self.flip_if(one, k, bit);
    }

    fn cycle_boundary(&mut self, key: usize) {
        if matches!(self.warmup, Warmup::Following { .. }) && self.follow_on(key) {
            return;
        }
        match self.mode {
            Mode::Direct => {}
            Mode::Recording => {
                let locked = self.close_recording();
                self.lay(key, locked);
            }
            // A tape with entries left is a cycle cut short.
            Mode::Replaying => {
                if self.cursor != self.tapes[self.slot].record.entries.len() {
                    self.deviate();
                }
            }
        }
        self.slot = match self.tapes.iter().position(|t| t.key == key) {
            Some(slot) => slot,
            None => {
                self.tapes.push(Tape {
                    key,
                    ..Tape::default()
                });
                self.tapes.len() - 1
            }
        };
        if matches!(self.warmup, Warmup::Fresh(_)) && self.set_out(key) {
            return;
        }
        let tape = &mut self.tapes[self.slot];
        if tape.locked {
            // A cycle with nothing for the reference is served already.
            tape.replayed += u64::from(tape.record.entries.is_empty());
            (self.cursor, self.pivot_cursor) = (0, 0);
            self.mode = Mode::Replaying;
            return;
        }
        // A first recording has nothing to be compared with, so where it
        // started from is not kept either.
        let compared = tape.recorded;
        self.recording.entries.clear();
        self.recording.pivots.clear();
        if compared {
            self.snapshot.clone_from(&self.reference);
        }
        self.mode = Mode::Recording;
    }

    /// The mark, then the cycle from the tape's kernel if it has one for
    /// `gates` at `offset`; otherwise call by call, and a locked tape
    /// that has just served the whole cycle that way is compiled for the
    /// next one.
    fn run_cycle<R: Rng + ?Sized>(
        &mut self,
        key: usize,
        offset: usize,
        gates: &Arc<[SimGate]>,
        rng: &mut R,
        outcomes: &mut Vec<(usize, bool)>,
    ) {
        self.cycle_boundary(key);
        let tape = &mut self.tapes[self.slot];
        if self.mode == Mode::Replaying {
            if let Some(kernel) = tape.kernel.as_mut().filter(|k| k.serves(offset, gates)) {
                kernel.apply(&mut self.frame, rng, outcomes);
                (self.cursor, self.pivot_cursor) =
                    (tape.record.entries.len(), tape.record.pivots.len());
                tape.replayed += 1;
                tape.kernel_cycles += 1;
                tape.kernel_draws += kernel.draws as u64;
                return;
            }
        }
        fire_gates(self, offset, gates, rng, outcomes);
        let tape = &mut self.tapes[self.slot];
        let served = self.mode == Mode::Replaying
            && tape.locked
            && !tape.record.entries.is_empty()
            && self.cursor == tape.record.entries.len();
        if served {
            tape.kernel = Kernel::compile(gates, offset, &tape.record, self.words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::tests::d5_bulk_round;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buffers_never_grow_after_lock_in() {
        // Everything a replayed cycle reads or writes: the frame, the
        // tape with its pivots, the recording it was swapped with, and
        // the two tableaus a recording would be checked against.
        fn buffers(b: &FrameBlock) -> Vec<(*const u64, usize)> {
            let tape = &b.tapes[0];
            let mut all = vec![
                (b.frame.as_ptr(), b.frame.capacity()),
                (
                    tape.record.entries.as_ptr().cast(),
                    tape.record.entries.capacity(),
                ),
                (tape.record.pivots.as_ptr(), tape.record.pivots.capacity()),
                (
                    b.recording.entries.as_ptr().cast(),
                    b.recording.entries.capacity(),
                ),
                (b.recording.pivots.as_ptr(), b.recording.pivots.capacity()),
            ];
            all.extend(b.reference.buffers());
            all.extend(b.snapshot.buffers());
            all
        }
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut block = FrameBlock::new(41);
        let mut cycle = |block: &mut FrameBlock| {
            block.pauli(rng.gen_range(0..25), Pauli::Y);
            block.cycle_boundary(0);
            d5_bulk_round(block, &mut rng);
        };
        while block.replayed_cycles(0) == 0 {
            cycle(&mut block);
        }
        let (warm, reference) = (buffers(&block), block.reference.clone());
        for _ in 0..20 {
            cycle(&mut block);
            assert_eq!(buffers(&block), warm, "a block buffer moved or grew");
        }
        assert_eq!(block.replayed_cycles(0), 21);
        assert_eq!(block.reference, reference, "a replay moved the reference");
        block.to_tableau().check_invariants();
    }

    #[test]
    fn a_kernel_column_reaches_past_its_tile() {
        // The tile sits at offset 1 of five qubits, and its first qubit
        // is entangled with qubit 0, outside it. From these generators
        // the pivot of one of the cycle's random entries carries qubit 0
        // or qubit 4, and so must that entry's column.
        let mut block = FrameBlock::new(5);
        block.s(1);
        block.h(1);
        block.h(2);
        block.cnot(1, 0);
        let gates: Arc<[SimGate]> = kernel_test_cycle().into();
        let mut rng = StdRng::seed_from_u64(1);
        while block.kernel_cycles(1) == 0 {
            block.run_cycle(1, 1, &gates, &mut rng, &mut Vec::new());
        }
        let kernel = block.tapes[0].kernel.as_ref().expect("compiled");
        assert_eq!((kernel.span, kernel.draws), (3, 3));
        let outside = (2 * kernel.span..2 * kernel.span + kernel.draws)
            .map(|input| kernel.column(input))
            .any(|column| (column[0] | column[block.words]) & (1 | 1 << 4) != 0);
        assert!(outside, "no pivot reached past the tile");
    }

    /// A cycle with random entries that locks: tile qubit 1 entangled
    /// with qubit 0 and measured in X, tile qubit 2 prepared in `|+⟩` and
    /// measured in Z.
    fn kernel_test_cycle() -> Vec<SimGate> {
        use SimGate::*;
        vec![Reset(1), Cnot(0, 1), MeasureX(1), ResetPlus(2), Measure(2)]
    }
}
