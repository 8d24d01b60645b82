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
//! # Tapes and kernels
//!
//! The point of the split is that the reference of a machine running
//! one program forever stops moving. Between one
//! [`cycle_boundary`](StabilizerSim::cycle_boundary) mark and the next
//! the block records a *tape*: every operation that reached the
//! reference, with what the reference answered (random or not, the
//! outcome, the pivot). When a mark closes a tape that equals the
//! previous tape of the same key entry for entry **and** the reference
//! holds the state it held when the tape began
//! ([`Tableau::same_state`] — the generators of a repeating cycle keep
//! changing long after its state has stopped), the tape is *locked*: the
//! cycle maps that state to itself, so the reference need not run it
//! again. What the cycle does to the frame is affine over GF(2) in the
//! frame bits and the bits the cycle draws:
//!
//! * H, S and CNOT permute or XOR frame bits; a Pauli flips one.
//! * A deterministic outcome is `ref ⊕ fx[q]`, and a reset XORs its
//!   outcome into `fx[q]`.
//! * A random entry draws one `rng.gen::<bool>()`, `v`, reports it and
//!   XORs its pivot into the frame when `v ⊕ fx[q] ≠ ref`: affine in
//!   the frame and in `v`.
//!
//! So when a whole cycle arrives as one call
//! ([`StabilizerSim::run_cycle`]) at a locked mark, the block compiles
//! the tape for that gate list into a *kernel*: one column per input —
//! the X frame bits, then the Z frame bits, of the qubits the gates
//! touch, then one per random entry — plus a constant column, each
//! holding the change to the block's frame and the outcomes. The
//! compiler runs the gate list once over a symbolic frame, each frame
//! bit an affine form over the inputs, with the tape's answers and
//! pivots, and transposes; it gives up unless the gates make exactly the
//! tape's calls. It then tables the columns by nibbles: for every four
//! consecutive inputs, the 16 XOR-sums of their columns, each one column
//! away from a smaller one; only the tables and the constant are kept.
//! Serving a cycle is then drawing the random bits, in entry order (they
//! are the only draws of the cycle), into the input words, gathering the
//! frame bits ahead of them by word shifts at the offset, and summing the
//! constant and, for each nibble of the inputs, the table row its value
//! picks. The sum is kept in a local band of eight words, which holds a
//! whole column of a single tile up to d = 9; a wider block runs one band
//! after another through the same loop. The frame words of the sum are
//! XOR-ed into the frame, and the rest are the cycle's [`Outcomes`],
//! packed in gate order, written a word at a time. That is the same
//! draws, the same outcomes and the same frame as the gates fired one by
//! one, and the reference stays where it is. A kernel serves only the gate list
//! ([`Arc::ptr_eq`]) and offset it was compiled from; another list at a
//! locked mark is compiled in its turn, and a tape that unlocks drops
//! its kernel.
//!
//! Everything else runs on the live reference: the cycles before a tape
//! locks, which are recorded, and any operation that reaches the
//! reference after a locked mark — a cycle fired call by call, a masked
//! region, a logical word, a readout, gates the tape does not hold. Such
//! an operation unlocks every tape of the block and goes to the
//! reference from the state at the mark, which a kernel cycle leaves it
//! in; an [`append`](FrameBlock::append) drops the tapes. Paulis are on
//! no tape: they never reach the reference.
//!
//! Marks carry a key so that several programs interleaved on one block
//! (two tiles joined by a transversal gate) keep a tape each. A tape is
//! only ever served from the state it was verified on: a kernel leaves
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
//! cycle from a fresh block's first mark until its tape locked, its
//! tape, its kernel and the tableau it left. A trail cycle is a fixed
//! Clifford circuit with fixed answers too, so it is served like a
//! locked one.
//!
//! A block built by [`FrameBlock::fresh`] looks, at its first
//! [`run_cycle`](StabilizerSim::run_cycle), for the first trail of that
//! key starting from its very reference (`==`, generator for generator).
//! If there is one and its first kernel serves the gates, it *follows*
//! it: each trail cycle applies its kernel and sets the reference to the
//! tableau it left, and after the last one the block holds that cycle
//! as its locked tape, with the trail's kernel. Anything off the trail —
//! another gate list or key, a mark or an operation outside `run_cycle`
//! — puts the block where the one laying the trail stood after the last
//! cycle followed (that cycle on its recording, the one before on its
//! tape and its end as the snapshot to compare with), and from there it
//! is an ordinary block. A follower therefore draws, answers and holds
//! exactly what a block that never saw the trail would, down to the
//! generators.
//!
//! A fresh block that finds no trail lays one, each cycle compiled at the
//! mark that closes it for the gates it was fired at, and
//! [`FrameBlock::take_trail`] hands it over once its tape has locked;
//! only whole cycles fired by `run_cycle`, one per mark, go on a trail.
//! Blocks built by [`FrameBlock::new`], clones and appended blocks
//! neither follow nor lay.

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

/// Measurement outcomes in the order their gates fired, packed: outcome
/// `i` is bit `i % 64` of word `i / 64`, and the bits past the last
/// outcome are clear. The one representation of outcomes: [`fire_gates`]
/// pushes them one by one, and a kernel writes a cycle's a word at a
/// time. Which qubit an outcome is of, the gate list says: the `i`-th
/// [`SimGate::Measure`] or [`SimGate::MeasureX`] in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcomes {
    words: Vec<u64>,
    len: usize,
}

impl Outcomes {
    /// No outcomes.
    pub fn new() -> Outcomes {
        Outcomes::default()
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every outcome, keeping the buffer.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one outcome.
    #[inline]
    pub fn push(&mut self, value: bool) {
        let (w, b) = (self.len / WORD_BITS, self.len % WORD_BITS);
        if b == 0 {
            self.words.push(0);
        }
        self.words[w] |= u64::from(value) << b;
        self.len += 1;
    }

    /// The outcomes in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
    }

    /// The packed words, `len().div_ceil(64)` of them.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends the `len` outcomes packed in `words`, whose bits past them
    /// are clear.
    #[inline]
    fn extend_packed(&mut self, words: &[u64], len: usize) {
        let b = self.len % WORD_BITS;
        for &word in &words[..len.div_ceil(WORD_BITS)] {
            match self.words.last_mut() {
                Some(last) if b > 0 => {
                    *last |= word << b;
                    self.words.push(word >> (WORD_BITS - b));
                }
                _ => self.words.push(word),
            }
        }
        self.len += len;
        self.words.truncate(self.len.div_ceil(WORD_BITS));
    }
}

/// Fires `gates` on `sim` in order, every qubit moved up by `offset`,
/// and appends the outcome of each measurement that reports one. The one
/// firing routine: every call of an MCE on its register goes through
/// here.
pub fn fire_gates<S: StabilizerSim + ?Sized, R: Rng + ?Sized>(
    sim: &mut S,
    offset: usize,
    gates: &[SimGate],
    rng: &mut R,
    outcomes: &mut Outcomes,
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
            SimGate::Measure(q) => outcomes.push(sim.measure(offset + q, rng).value),
            SimGate::MeasureX(q) => outcomes.push(sim.measure_x(offset + q, rng).value),
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
    /// `outcomes` as packed bits in gate order. That is the default, and
    /// it is what every implementation must amount to, draw for draw and
    /// bit for bit.
    ///
    /// The gate list comes behind an [`Arc`] so that a register may
    /// recognise a list it has seen at O(1) cost: a [`FrameBlock`] serves
    /// a round at a locked mark from a kernel compiled for the list
    /// ([module docs](self#tapes-and-kernels)), which writes the outcomes
    /// a word at a time, and no round that comes call by call.
    /// [`Tableau`] keeps the default: it is the call-by-call oracle the
    /// kernel is checked against.
    fn run_cycle<R: Rng + ?Sized>(
        &mut self,
        key: usize,
        offset: usize,
        gates: &Arc<[SimGate]>,
        rng: &mut R,
        outcomes: &mut Outcomes,
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

/// An operation and its qubits in one word, so that comparing two tape
/// entries is one comparison: the operation above two 30-bit qubit
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
/// between two marks, the kernel that serves it, and the reference after
/// it.
#[derive(Debug)]
struct Stretch {
    record: Record,
    kernel: Arc<Kernel>,
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
    /// On `trail`, whose cycle `cycle` was the last one served.
    Following { trail: Arc<Trail>, cycle: usize },
    /// Laying a trail of its own, with the gates and offset
    /// [`StabilizerSim::run_cycle`] fired the cycle in progress at.
    Laying {
        trail: Trail,
        fired: Option<(Arc<[SimGate]>, usize)>,
    },
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
    /// The locked tape compiled for the gate list it last served, or the
    /// trail cycle a follower serves; never set on any other tape.
    kernel: Option<Arc<Kernel>>,
    /// Cycles served by a kernel, and locked ones with nothing for the
    /// reference.
    replayed: u64,
    /// The bits the kernel cycles drew.
    kernel_draws: u64,
}

/// A cycle compiled for one gate list at one offset: its whole effect on
/// the frame and its outcomes as one affine map, tabled by nibbles of
/// its inputs; see the [module docs](self#tapes-and-kernels).
#[derive(Debug)]
struct Kernel {
    /// What it serves, and nothing else.
    gates: Arc<[SimGate]>,
    offset: usize,
    /// Its inputs are the X bits, then the Z bits, of the qubits
    /// `offset..offset + span`, then one drawn bit per random entry.
    span: usize,
    draws: usize,
    /// Outcomes reported.
    reports: usize,
    /// Words per column: the block's frame, then a bit per outcome.
    stride: usize,
    /// The constant column: the change with every input clear.
    constant: Box<[u64]>,
    /// Nibbles of the inputs, and for nibble `k` (inputs `4k..4k + 4`)
    /// and each of its 16 values `v`, the XOR of the columns of the
    /// inputs `v` sets: `tables[(16 * k + v) * stride..][..stride]`.
    nibbles: usize,
    tables: Box<[u64]>,
}

/// Words of a kernel's column summed at once, in registers: a column of
/// a single tile up to d = 9 (a frame of six words and 80 outcomes) is one
/// band. The constant and the tables carry `BAND - 1` zero words past
/// their last column, so that a band starting at any column's word can be
/// read whole.
const BAND: usize = 8;

/// The `BAND` words of `words` from `at` on.
#[inline]
fn band(words: &[u64], at: usize) -> [u64; BAND] {
    let mut band = [0; BAND];
    band.copy_from_slice(&words[at..at + BAND]);
    band
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
        let mut outcomes = Vec::new();
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
                }
                SimGate::MeasureX(q) => {
                    c.h(c.offset + q)?;
                    c.measure(c.offset + q)?;
                    outcomes.extend_from_slice(&c.outcome);
                    c.h(c.offset + q)?;
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
        let reports = outcomes.len() / width;
        let stride = 2 * words + reports.div_ceil(WORD_BITS);
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
        let mut tables = vec![0; nibbles * 16 * stride + BAND - 1].into_boxed_slice();
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
            reports,
            stride,
            constant: [constant, &[0; BAND - 1][..]].concat().into(),
            nibbles,
            tables,
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

    /// Serves one cycle: moves `frame` and appends the outcomes. `inputs`
    /// is the caller's scratch, sized here.
    #[inline]
    fn apply<R: Rng + ?Sized>(
        &self,
        frame: &mut [u64],
        inputs: &mut Vec<u64>,
        rng: &mut R,
        outcomes: &mut Outcomes,
    ) {
        let Kernel {
            offset,
            span,
            draws,
            reports,
            stride,
            ref constant,
            nibbles,
            ref tables,
            ..
        } = *self;
        inputs.clear();
        inputs.resize((2 * span + draws).div_ceil(WORD_BITS), 0);
        // The random entries draw first, in entry order: nothing else in
        // the cycle draws.
        for j in 2 * span..2 * span + draws {
            inputs[j / WORD_BITS] |= u64::from(rng.gen::<bool>()) << (j % WORD_BITS);
        }
        let words = frame.len() / 2;
        let (x, z) = frame.split_at(words);
        copy_bits(inputs, 0, x, offset, span);
        copy_bits(inputs, span, z, offset, span);
        // The constant and the row each nibble picks, summed a band at a
        // time. The frame's words of the sum move the frame; the words
        // after them are the outcomes.
        for at in (0..stride).step_by(BAND) {
            let mut sum = band(constant, at);
            let (mut table, mut word) = (at, 0);
            for k in 0..nibbles {
                if k % 16 == 0 {
                    word = inputs[k / 16];
                }
                let row = band(tables, table + (word & 15) as usize * stride);
                for (s, r) in sum.iter_mut().zip(row) {
                    *s ^= r;
                }
                (table, word) = (table + 16 * stride, word >> 4);
            }
            let sum = &sum[..BAND.min(stride - at)];
            let (moves, reported) = sum.split_at(frame.len().saturating_sub(at).min(sum.len()));
            if let Some(moved) = frame.get_mut(at..) {
                xor_into(moved, moves);
            }
            if !reported.is_empty() {
                let done = (at + moves.len() - frame.len()) * WORD_BITS;
                outcomes.extend_packed(reported, (reports - done).min(reported.len() * WORD_BITS));
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The reference is live and nothing is recorded: before the first
    /// mark, and from a deviation to the next mark.
    Direct,
    /// The reference is live and `recording` takes every operation.
    Recording,
    /// The reference holds the state the tape in hand (or the trail
    /// followed) was verified on, and a kernel serves the cycle; an
    /// operation that reaches the reference deviates first.
    Locked,
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
/// use quest_stabilizer::{
///     FrameBlock, Outcomes, Pauli, SeedableRng, SimGate, StabilizerSim, StdRng, Tableau,
/// };
/// use std::sync::Arc;
///
/// // Five rounds of a two-qubit parity check with an error in between:
/// // the block and a bare tableau agree on every outcome.
/// let (mut block, mut bare) = (FrameBlock::new(3), Tableau::new(3));
/// let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
/// use SimGate::{Cnot, Measure, Reset};
/// let round: Arc<[SimGate]> = Arc::new([Reset(2), Cnot(0, 2), Cnot(1, 2), Measure(2)]);
/// for cycle in 0..5 {
///     if cycle == 3 {
///         block.pauli(1, Pauli::X);
///         StabilizerSim::pauli(&mut bare, 1, Pauli::X);
///     }
///     let (mut a, mut b) = (Outcomes::new(), Outcomes::new());
///     block.run_cycle(0, 0, &round, &mut rng_a, &mut a);
///     bare.run_cycle(0, 0, &round, &mut rng_b, &mut b);
///     assert_eq!(a, b);
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
    /// The tape of the cycle in progress.
    slot: usize,
    /// One tape per key seen, in order of first appearance.
    tapes: Vec<Tape>,
    /// The cycle being recorded; swapped into its tape at the next mark.
    /// Outside a recording, `pivots` is scratch.
    recording: Record,
    /// The reference as it was when the recording began; taken only when
    /// its tape holds an earlier recording to compare this one with.
    snapshot: Tableau,
    warmup: Warmup,
    /// A kernel cycle's inputs.
    inputs: Vec<u64>,
}

impl Clone for FrameBlock {
    fn clone(&self) -> FrameBlock {
        FrameBlock::over(self.reference.clone(), self.frame.clone())
    }
}

impl PartialEq for FrameBlock {
    fn eq(&self, other: &FrameBlock) -> bool {
        self.to_tableau().same_state(&other.to_tableau())
    }
}

impl Eq for FrameBlock {}

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
            tapes: Vec::new(),
            warmup: Warmup::Off,
            inputs: Vec::new(),
        }
    }

    /// A block of `n` qubits in `|0…0⟩` that, at its first
    /// [`run_cycle`](StabilizerSim::run_cycle), follows the first of
    /// `trails` starting from its reference under that key and gate
    /// list, or lays a trail of its own if none does; see the
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

    /// Cycles of `key` served by a kernel, from its tape or from a
    /// trail, without touching the reference (and locked cycles with
    /// nothing for the reference at all). A benchmark or a test that
    /// means to measure the fast path checks that this moves.
    pub fn replayed_cycles(&self, key: usize) -> u64 {
        self.tapes
            .iter()
            .find(|t| t.key == key)
            .map_or(0, |t| t.replayed)
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
        let mut reference = self.reference.clone();
        reference.append(&other.reference);
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

    /// The state as one tableau: the reference with the frame applied to
    /// it.
    #[doc(hidden)]
    pub fn to_tableau(&self) -> Tableau {
        let mut t = self.reference.clone();
        for q in 0..t.num_qubits() {
            let bit =
                |half: usize| self.frame[half * self.words + q / WORD_BITS] >> (q % WORD_BITS) & 1;
            t.pauli(q, Pauli::from_xz(bit(0) == 1, bit(1) == 1));
        }
        t
    }

    /// Readies the reference for an operation: at a locked mark the
    /// block deviates first.
    #[inline]
    fn live(&mut self) {
        if self.mode == Mode::Locked {
            self.deviate();
        }
    }

    /// Leaves the tapes: every tape is unlocked (the reference is about
    /// to move off the state they were verified on) and operations go
    /// straight to the reference until the next mark. A block following
    /// a trail rejoins the path of the block that laid it instead.
    #[cold]
    fn deviate(&mut self) {
        if let Warmup::Following { .. } = self.warmup {
            return self.leave_trail();
        }
        for tape in &mut self.tapes {
            tape.locked = false;
            tape.kernel = None;
        }
        self.mode = Mode::Direct;
    }

    /// Ends a warm-up that is not going on a trail: a fresh block or one
    /// laying a trail stops, and a block following one rejoins the live
    /// path.
    fn leave_trail(&mut self) {
        match std::mem::take(&mut self.warmup) {
            Warmup::Following { trail, cycle } => self.rejoin(&trail, cycle),
            Warmup::Laid(trail) => self.warmup = Warmup::Laid(trail),
            Warmup::Off | Warmup::Fresh(_) | Warmup::Laying { .. } => {}
        }
    }

    /// Puts a block that leaves `trail` after serving its cycle `cycle`
    /// where the block that laid the trail was at this point: recording,
    /// with that cycle on the recording, the trail's previous cycle (if
    /// any) closed into the tape and the reference at the mark before
    /// kept to compare the cycle with.
    fn rejoin(&mut self, trail: &Trail, cycle: usize) {
        let tape = &mut self.tapes[self.slot];
        tape.kernel = None;
        if let Some(before) = cycle.checked_sub(1).map(|before| &trail.cycles[before]) {
            tape.record.clone_from(&before.record);
            tape.recorded = true;
            self.snapshot.clone_from(&before.end);
        }
        self.recording.clone_from(&trail.cycles[cycle].record);
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
            // state may be served from the new one.
            self.deviate();
        }
        repeats
    }

    /// The tape of `key`, a new one if the key is new.
    fn slot_of(&mut self, key: usize) -> usize {
        match self.tapes.iter().position(|t| t.key == key) {
            Some(slot) => slot,
            None => {
                self.tapes.push(Tape {
                    key,
                    ..Tape::default()
                });
                self.tapes.len() - 1
            }
        }
    }

    /// A mark: closes the cycle in progress and opens the next one under
    /// `key`, locked if its tape is, recording otherwise.
    fn mark(&mut self, key: usize) {
        if self.mode == Mode::Recording {
            let locked = self.close_recording();
            self.keep_laying(key, locked);
        }
        self.slot = self.slot_of(key);
        let tape = &mut self.tapes[self.slot];
        if tape.locked {
            // A cycle with nothing for the reference is served already.
            tape.replayed += u64::from(tape.record.entries.is_empty());
            self.mode = Mode::Locked;
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

    /// Whether the cycle at a locked mark is served by a kernel: the
    /// tape's, compiled for `gates` at `offset` now if it was not before.
    fn compiled(&mut self, offset: usize, gates: &Arc<[SimGate]>) -> bool {
        let tape = &mut self.tapes[self.slot];
        // A tape with nothing for the reference was served at the mark.
        if self.mode != Mode::Locked || tape.record.entries.is_empty() {
            return false;
        }
        if !tape
            .kernel
            .as_ref()
            .is_some_and(|k| k.serves(offset, gates))
        {
            tape.kernel = Kernel::compile(gates, offset, &tape.record, self.words).map(Arc::new);
        }
        tape.kernel.is_some()
    }

    /// A mark through [`StabilizerSim::run_cycle`] on a fresh block or one
    /// following a trail. A fresh block sets out on the first trail that
    /// starts from its reference under `key`, or starts laying one. On a
    /// trail, the next cycle is served (`true`) if it is `gates` at
    /// `offset` under the trail's key: the tape takes its kernel and the
    /// reference the tableau it leaves. Past the last cycle, that cycle is
    /// the block's locked tape, kernel and all; anything else rejoins the
    /// live path. Either way but the first, the mark is then handled as
    /// any other.
    fn follow(&mut self, key: usize, offset: usize, gates: &Arc<[SimGate]>) -> bool {
        let (trail, next) = match std::mem::take(&mut self.warmup) {
            Warmup::Fresh(trails) => {
                let start = trails
                    .iter()
                    .find(|t| t.key == key && t.start == self.reference);
                match start {
                    Some(trail) => (Arc::clone(trail), 0),
                    None => {
                        let trail = Trail {
                            key,
                            start: self.reference.clone(),
                            cycles: Vec::new(),
                        };
                        self.warmup = Warmup::Laying { trail, fired: None };
                        return false;
                    }
                }
            }
            Warmup::Following { trail, cycle } => (trail, cycle + 1),
            other => {
                self.warmup = other;
                return false;
            }
        };
        match trail.cycles.get(next) {
            Some(stretch) if key == trail.key && stretch.kernel.serves(offset, gates) => {
                self.slot = self.slot_of(key);
                self.tapes[self.slot].kernel = Some(Arc::clone(&stretch.kernel));
                self.reference.clone_from(&stretch.end);
                self.mode = Mode::Locked;
                self.warmup = Warmup::Following { trail, cycle: next };
                return true;
            }
            None if key == trail.key => {
                let tape = &mut self.tapes[self.slot];
                tape.record.clone_from(&trail.cycles[next - 1].record);
                (tape.recorded, tape.locked) = (true, true);
            }
            // A trail that does not start with this cycle: an ordinary
            // block, neither following nor laying.
            _ if next == 0 => {}
            _ => self.rejoin(&trail, next - 1),
        }
        false
    }

    /// Notes the gates and offset the cycle in progress was fired at, on
    /// a block laying a trail: the mark that closes the cycle compiles
    /// it for them.
    fn lay(&mut self, offset: usize, gates: &Arc<[SimGate]>) {
        if let Warmup::Laying { fired, .. } = &mut self.warmup {
            *fired = Some((Arc::clone(gates), offset));
        }
    }

    /// At a mark through [`StabilizerSim::run_cycle`] of the trail's key,
    /// puts the cycle just closed (`locked`: and locked) on the trail
    /// being laid, compiled for the gates it was fired at, with the
    /// reference it leaves, and sets the trail aside once it locked; the
    /// locked tape takes the trail's last kernel. Another key, a cycle
    /// not fired whole by `run_cycle` (it does not compile) or a warm-up
    /// too long to be worth keeping abandons the trail.
    fn keep_laying(&mut self, key: usize, locked: bool) {
        let (mut trail, fired) = match std::mem::take(&mut self.warmup) {
            Warmup::Laying { trail, fired } => (trail, fired),
            other => {
                self.warmup = other;
                return;
            }
        };
        let tape = &mut self.tapes[self.slot];
        let kernel = fired
            .filter(|_| key == trail.key && trail.cycles.len() < TRAIL_CYCLES)
            .and_then(|(gates, offset)| Kernel::compile(&gates, offset, &tape.record, self.words));
        let Some(kernel) = kernel.map(Arc::new) else {
            return;
        };
        if locked {
            tape.kernel = Some(Arc::clone(&kernel));
        }
        trail.cycles.push(Stretch {
            record: tape.record.clone(),
            kernel,
            end: self.reference.clone(),
        });
        self.warmup = match locked {
            true => Warmup::Laid(trail),
            false => Warmup::Laying { trail, fired: None },
        };
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
        self.live();
        self.reference.h(q);
        self.record(Call::new(Op::H, q, 0), false, false);
        let (k, bit) = FrameBlock::locate(q);
        let differ = (self.frame[k] ^ self.frame[self.words + k]) & bit;
        self.frame[k] ^= differ;
        self.frame[self.words + k] ^= differ;
    }

    #[inline]
    fn s(&mut self, q: usize) {
        self.live();
        self.reference.s(q);
        self.record(Call::new(Op::S, q, 0), false, false);
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
        self.live();
        self.reference.cnot(c, t);
        self.record(Call::new(Op::Cnot, c, t), false, false);
        let ((kc, bc), (kt, bt)) = (FrameBlock::locate(c), FrameBlock::locate(t));
        self.flip_if(self.frame[kc] & bc != 0, kt, bt);
        self.flip_if(self.frame[self.words + kt] & bt != 0, self.words + kc, bc);
    }

    #[inline]
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.live();
        if self.mode != Mode::Recording {
            self.recording.pivots.clear();
        }
        // What the reference reads, and where the pivot of a random
        // outcome is.
        let at = self.recording.pivots.len();
        let reference = self.reference.measure_forced(q, &mut self.recording.pivots);
        self.record(
            Call::new(Op::Measure, q, 0),
            !reference.deterministic,
            reference.value,
        );
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
        for (f, p) in self.frame.iter_mut().zip(&self.recording.pivots[at..]) {
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

    /// A mark outside [`StabilizerSim::run_cycle`]: a block on a trail
    /// leaves it, and the cycle it opens is never served by a kernel.
    fn cycle_boundary(&mut self, key: usize) {
        self.leave_trail();
        self.mark(key);
    }

    /// The mark, then the cycle from a kernel: the next trail cycle's on
    /// a trail, or the locked tape's, compiled for `gates` at `offset` if
    /// it was not before. Otherwise the gates are fired on the live
    /// reference (recorded, and laid on a trail being laid).
    fn run_cycle<R: Rng + ?Sized>(
        &mut self,
        key: usize,
        offset: usize,
        gates: &Arc<[SimGate]>,
        rng: &mut R,
        outcomes: &mut Outcomes,
    ) {
        let on_trail = matches!(self.warmup, Warmup::Fresh(_) | Warmup::Following { .. });
        let served = on_trail && self.follow(key, offset, gates) || {
            self.mark(key);
            self.compiled(offset, gates)
        };
        let tape = &mut self.tapes[self.slot];
        match tape.kernel.as_deref().filter(|_| served) {
            Some(kernel) => {
                kernel.apply(&mut self.frame, &mut self.inputs, rng, outcomes);
                tape.replayed += 1;
                tape.kernel_draws += kernel.draws as u64;
            }
            None => {
                fire_gates(self, offset, gates, rng, outcomes);
                self.lay(offset, gates);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::tests::d5_bulk_gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buffers_never_grow_after_lock_in() {
        // Everything a kernel cycle reads or writes: the frame, the
        // kernel's scratch, the tape with its pivots, the recording it was
        // swapped with, and the two tableaus a recording would be checked
        // against.
        fn buffers(b: &FrameBlock) -> Vec<(*const u64, usize)> {
            let tape = &b.tapes[0];
            let mut all = vec![
                (b.frame.as_ptr(), b.frame.capacity()),
                (b.inputs.as_ptr(), b.inputs.capacity()),
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
        let (gates, mut outcomes) = (d5_bulk_gates(), Outcomes::new());
        let mut cycle = |block: &mut FrameBlock| {
            block.pauli(rng.gen_range(0..25), Pauli::Y);
            outcomes.clear();
            block.run_cycle(0, 0, &gates, &mut rng, &mut outcomes);
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
        assert_eq!(block.reference, reference, "a kernel moved the reference");
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
        while block.replayed_cycles(1) == 0 {
            block.run_cycle(1, 1, &gates, &mut rng, &mut Outcomes::new());
        }
        let kernel = block.tapes[0].kernel.as_ref().expect("compiled");
        assert_eq!((kernel.span, kernel.draws), (3, 3));
        let outside = (2 * kernel.span..2 * kernel.span + kernel.draws)
            .map(|input| kernel.column(input))
            .any(|column| (column[0] | column[block.words]) & (1 | 1 << 4) != 0);
        assert!(outside, "no pivot reached past the tile");
    }

    #[test]
    fn a_follower_past_its_trail_holds_the_trails_locked_kernel() {
        let gates: Arc<[SimGate]> = kernel_test_cycle().into();
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = FrameBlock::fresh(5, Arc::new([]));
        let trail = loop {
            layer.run_cycle(1, 1, &gates, &mut rng, &mut Outcomes::new());
            if let Some(trail) = layer.take_trail() {
                break Arc::new(trail);
            }
        };
        let mut follower = FrameBlock::fresh(5, Arc::new([Arc::clone(&trail)]));
        for _ in 0..=trail.cycles() {
            follower.run_cycle(1, 1, &gates, &mut rng, &mut Outcomes::new());
        }
        let locked = &trail.cycles.last().expect("a trail has cycles").kernel;
        let tape = &follower.tapes[0];
        assert!(tape.locked && matches!(follower.warmup, Warmup::Off));
        assert!(Arc::ptr_eq(tape.kernel.as_ref().expect("a kernel"), locked));
        assert_eq!(tape.replayed, trail.cycles() as u64 + 1);
    }

    #[test]
    fn packed_outcomes_append_as_pushed_ones_do() {
        let mut rng = StdRng::seed_from_u64(3);
        for (before, len) in [(0usize, 75usize), (5, 64), (63, 1), (64, 130), (100, 28)] {
            let bits: Vec<bool> = (0..before + len).map(|_| rng.gen()).collect();
            let mut words = vec![0u64; len.div_ceil(WORD_BITS)];
            for (i, &bit) in bits[before..].iter().enumerate() {
                words[i / WORD_BITS] |= u64::from(bit) << (i % WORD_BITS);
            }
            let (mut pushed, mut packed) = (Outcomes::new(), Outcomes::new());
            for &bit in &bits[..before] {
                pushed.push(bit);
                packed.push(bit);
            }
            bits[before..].iter().for_each(|&bit| pushed.push(bit));
            packed.extend_packed(&words, len);
            assert_eq!(packed, pushed, "{before} then {len}");
            assert!(packed.iter().eq(bits.iter().copied()));
        }
    }

    /// A cycle with random entries that locks: tile qubit 1 entangled
    /// with qubit 0 and measured in X, tile qubit 2 prepared in `|+⟩` and
    /// measured in Z.
    fn kernel_test_cycle() -> Vec<SimGate> {
        use SimGate::*;
        vec![Reset(1), Cnot(0, 1), MeasureX(1), ResetPlus(2), Measure(2)]
    }
}
