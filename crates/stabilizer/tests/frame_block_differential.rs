//! Differential test of [`FrameBlock`] against a bare [`Tableau`].
//!
//! Both are fed the same operations and the same seeded RNG. After every
//! operation they must agree on the measurement it returned (value and
//! `deterministic` flag), on how many words were drawn from the RNG, and
//! on the state itself ([`FrameBlock::to_tableau`] against the tableau,
//! by [`Tableau::same_state`]).
//!
//! The streams are built so that tapes lock and then break: a few
//! *cycles* (runs of parity checks) are repeated round after round with
//! Paulis thrown in, each round handed over whole
//! (`StabilizerSim::run_cycle`, one gate list) so that a locked tape
//! serves it from a kernel, and now and then a round deviates from its
//! cycle — an operation inserted, replaced or cut — and is fed one call
//! at a time after its mark, the live path. Registers are also driven
//! apart and appended. The sizes straddle the word boundary as
//! `tableau_differential.rs` does.
//!
//! A kernel must serve a cycle as its calls one by one would: a cycle
//! that draws on every round runs on a kernel, call by call on a block
//! and on a bare tableau, and all three must agree; so must a kernel
//! whose columns are wider than one band of its sum. A block following a
//! warm-up trail must hold what a block that never saw it does,
//! generator for generator, wherever it leaves the trail.
//!
//! [`Tableau::same_state`], which all of this leans on, is checked
//! against its definition first.

use proptest::prelude::*;
use quest_stabilizer::{
    fire_gates, FrameBlock, Measurement, Outcomes, Pauli, SimGate, StabilizerSim, Tableau, Trail,
    Trails,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

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

const H: u8 = 0;
const CNOT: u8 = 7;
const RESET: u8 = 8;
const RESET_PLUS: u8 = 9;
const MEASURE: u8 = 10;
const MEASURE_X: u8 = 11;
const BOUNDARY: u8 = 12;
const KINDS: u8 = 13;

/// Kinds 3..=6 are Paulis: they reach no tape.
fn reaches_the_reference(kind: u8) -> bool {
    !(3..=6).contains(&kind) && kind != BOUNDARY
}

fn apply<S: StabilizerSim>(
    sim: &mut S,
    (kind, a, b): Op,
    rng: &mut CountingRng,
) -> Option<Measurement> {
    let n = sim.num_qubits();
    let q = a % n;
    match kind {
        H => sim.h(q),
        1 => sim.s(q),
        2 => sim.s_dagger(q),
        3 => sim.x(q),
        4 => sim.y(q),
        5 => sim.z(q),
        6 => sim.pauli(q, Pauli::ALL[b % 4]),
        CNOT if n > 1 => {
            let t = match b % n {
                t if t == q => (q + 1) % n,
                t => t,
            };
            sim.cnot(q, t);
        }
        RESET => sim.reset(q, rng),
        RESET_PLUS => sim.reset_plus(q, rng),
        MEASURE => return Some(sim.measure(q, rng)),
        MEASURE_X => return Some(sim.measure_x(q, rng)),
        BOUNDARY => sim.cycle_boundary(b % 3),
        _ => {}
    }
    None
}

fn raw() -> std::ops::Range<usize> {
    0..1 << 16
}

fn any_op() -> impl Strategy<Value = Op> {
    (0..KINDS, raw(), raw())
}

/// One parity check: an ancilla prepared, coupled to a few qubits and
/// measured, in the Z or the X basis. A cycle made of these returns to
/// the state it started from after a round or two, which is what lets
/// its tape lock.
fn check() -> impl Strategy<Value = Vec<Op>> {
    (any::<bool>(), raw(), prop::collection::vec(raw(), 1..5)).prop_map(
        |(x_type, ancilla, data)| {
            let mut ops = vec![(if x_type { RESET_PLUS } else { RESET }, ancilla, 0)];
            for d in data {
                ops.push(if x_type {
                    (CNOT, ancilla, d)
                } else {
                    (CNOT, d, ancilla)
                });
            }
            ops.push((if x_type { MEASURE_X } else { MEASURE }, ancilla, 0));
            ops
        },
    )
}

/// A cycle: some checks, and sometimes a stray operation among them
/// (which may keep the cycle from ever repeating — also a case).
fn cycle() -> impl Strategy<Value = Vec<Op>> {
    (
        prop::collection::vec(check(), 1..5),
        prop::collection::vec((any_op(), raw()), 0..2),
    )
        .prop_map(|(checks, strays)| {
            let mut ops: Vec<Op> = checks.into_iter().flatten().collect();
            for (op, at) in strays {
                if op.0 != BOUNDARY {
                    ops.insert(at % (ops.len() + 1), op);
                }
            }
            ops
        })
}

/// How a round departs from its cycle.
#[derive(Debug, Clone, Copy)]
enum Deviation {
    None,
    /// `op` goes in before position `at`.
    Insert(usize, Op),
    /// `op` takes the place of position `at`.
    Replace(usize, Op),
    /// The round stops before position `at`.
    Cut(usize),
}

/// One round: which cycle, the Paulis to throw in (position, operation)
/// and the deviation.
type Round = (usize, Vec<(usize, Op)>, Deviation);

/// Rounds come in runs of one cycle, so that its tape has the time to
/// lock; most rounds follow their cycle.
fn run_of_rounds() -> impl Strategy<Value = Vec<Round>> {
    let pauli = (raw(), (3u8..7, raw(), raw()));
    let deviation = prop_oneof![
        (0u8..6).prop_map(|_| Deviation::None),
        (raw(), any_op()).prop_map(|(at, op)| Deviation::Insert(at, op)),
        (raw(), any_op()).prop_map(|(at, op)| Deviation::Replace(at, op)),
        raw().prop_map(Deviation::Cut),
    ];
    let pick = prop_oneof![
        Just(Deviation::None),
        Just(Deviation::None),
        Just(Deviation::None),
        deviation
    ];
    (
        0usize..3,
        prop::collection::vec((prop::collection::vec(pauli, 0..4), pick), 1..9),
    )
        .prop_map(|(which, rounds)| {
            rounds
                .into_iter()
                .map(|(paulis, deviation)| (which, paulis, deviation))
                .collect()
        })
}

#[derive(Debug, Clone)]
struct Plan {
    prelude: Vec<Op>,
    cycles: Vec<Vec<Op>>,
    rounds: Vec<Round>,
    /// Whether each cycle keeps to its own third of the register, so
    /// that the three of them have a common fixed point and their tapes
    /// can all be locked at once, as those of joined tiles are.
    disjoint: bool,
    /// Where to split the register into two that are driven apart and
    /// then appended; a multiple of the size means no split.
    split: usize,
    seed: u64,
}

fn plan() -> impl Strategy<Value = Plan> {
    (
        prop::collection::vec(any_op(), 0..12),
        prop::collection::vec(cycle(), 3..4),
        prop::collection::vec(run_of_rounds(), 8..20),
        any::<bool>(),
        raw(),
        0u64..1 << 32,
    )
        .prop_map(|(prelude, cycles, runs, disjoint, split, seed)| Plan {
            prelude,
            cycles,
            rounds: runs.into_iter().flatten().collect(),
            disjoint,
            split,
            seed,
        })
}

/// The gate a drawn operation fires on `n` qubits, as `apply` does it
/// (`None` for an identity or a mark).
fn gate(n: usize, (kind, a, b): Op) -> Option<SimGate> {
    let q = a % n;
    Some(match kind {
        H => SimGate::H(q),
        1 => SimGate::S(q),
        2 => SimGate::SDagger(q),
        3 => SimGate::X(q),
        4 => SimGate::Y(q),
        5 => SimGate::Z(q),
        6 => match Pauli::ALL[b % 4] {
            Pauli::I => return None,
            Pauli::X => SimGate::X(q),
            Pauli::Y => SimGate::Y(q),
            Pauli::Z => SimGate::Z(q),
        },
        CNOT if n > 1 => SimGate::Cnot(
            q,
            match b % n {
                t if t == q => (q + 1) % n,
                t => t,
            },
        ),
        RESET => SimGate::Reset(q),
        RESET_PLUS => SimGate::ResetPlus(q),
        MEASURE => SimGate::Measure(q),
        MEASURE_X => SimGate::MeasureX(q),
        _ => return None,
    })
}

/// What a case exercised, for the coverage floor at the end.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Rounds served by a kernel.
    replayed: u64,
    /// Rounds that deviated from a cycle whose tape was locked at the
    /// mark, by how: an operation inserted, replaced, or the round cut
    /// short.
    inserted: u64,
    replaced: u64,
    cut: u64,
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.replayed += other.replayed;
        self.inserted += other.inserted;
        self.replaced += other.replaced;
        self.cut += other.cut;
    }
}

/// The block and the tableau side by side, fed the same seed.
struct Pair {
    block: FrameBlock,
    bare: Tableau,
    block_rng: CountingRng,
    bare_rng: CountingRng,
    step: usize,
    /// One `Arc` per distinct gate list, so that a round that repeats
    /// one finds the kernel compiled for it.
    lists: Vec<Arc<[SimGate]>>,
    /// Per cycle: whether its last round was served by a kernel, with
    /// nothing since that could have unlocked its tape.
    hot: [bool; 3],
    coverage: Coverage,
}

impl Pair {
    fn new(n: usize, seed: u64) -> Pair {
        Pair {
            block: FrameBlock::new(n),
            bare: Tableau::new(n),
            block_rng: CountingRng::new(seed),
            bare_rng: CountingRng::new(seed),
            step: 0,
            lists: Vec::new(),
            hot: [false; 3],
            coverage: Coverage::default(),
        }
    }

    /// One operation on both, everything compared.
    fn apply(&mut self, op: Op) -> TestCaseResult {
        self.step += 1;
        let got = apply(&mut self.block, op, &mut self.block_rng);
        let want = apply(&mut self.bare, op, &mut self.bare_rng);
        prop_assert_eq!(got, want, "step {}: {:?}", self.step, op);
        self.compare(&format!("{op:?}"))
    }

    /// RNG positions and states compared after `what`.
    fn compare(&self, what: &str) -> TestCaseResult {
        prop_assert_eq!(
            self.block_rng.draws,
            self.bare_rng.draws,
            "step {}: RNG draws after {}",
            self.step,
            what
        );
        prop_assert!(
            self.block.to_tableau().same_state(&self.bare),
            "step {}: states differ after {}",
            self.step,
            what
        );
        Ok(())
    }

    /// One whole round in one call on both, under `key`: the outcomes,
    /// the RNG positions and the states compared. Returns whether the
    /// block served it by a kernel.
    fn run_cycle(&mut self, key: usize, gates: Vec<SimGate>) -> Result<bool, TestCaseError> {
        self.step += 1;
        let gates = match self.lists.iter().find(|list| ***list == *gates) {
            Some(list) => Arc::clone(list),
            None => {
                self.lists.push(gates.into());
                Arc::clone(self.lists.last().expect("just pushed"))
            }
        };
        let served = self.block.replayed_cycles(key);
        let (mut got, mut want) = (Outcomes::new(), Outcomes::new());
        let block_rng = &mut self.block_rng;
        self.block.run_cycle(key, 0, &gates, block_rng, &mut got);
        let bare_rng = &mut self.bare_rng;
        self.bare.run_cycle(key, 0, &gates, bare_rng, &mut want);
        prop_assert_eq!(got, want, "step {}: {:?}", self.step, gates);
        self.compare(&format!("{gates:?}"))?;
        Ok(self.block.replayed_cycles(key) > served)
    }

    fn round(&mut self, plan: &Plan, (which, paulis, deviation): &Round) -> TestCaseResult {
        let n = self.bare.num_qubits();
        // A third of the register, or all of it.
        let (lo, width) = match plan.disjoint && n >= 3 {
            true => (which * (n / 3), n / 3),
            false => (0, n),
        };
        let cycle: Vec<Op> = plan.cycles[*which]
            .iter()
            .map(|&(kind, a, b)| (kind, lo + a % width, lo + b % width))
            .collect();
        let mut ops: Vec<Op> = cycle.clone();
        let at = |raw: usize| raw % (cycle.len() + 1);
        match *deviation {
            Deviation::None => {}
            Deviation::Insert(raw, op) => ops.insert(at(raw), op),
            Deviation::Replace(raw, op) => ops[raw % cycle.len()] = op,
            Deviation::Cut(raw) => ops.truncate(at(raw)),
        }
        // The Paulis thrown in go before the operation they name.
        let mut round = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            round.extend(
                paulis
                    .iter()
                    .filter(|(at, _)| at % ops.len() == i)
                    .map(|p| p.1),
            );
            round.push(op);
        }
        if let Deviation::None = deviation {
            let gates = round.iter().filter_map(|&op| gate(n, op)).collect();
            let served = self.run_cycle(*which, gates)?;
            self.coverage.replayed += u64::from(served);
            // A round that was not served moved the reference, which
            // may have unlocked every tape.
            match served {
                true => self.hot[*which] = true,
                false => self.hot = [false; 3],
            }
            return Ok(());
        }
        // Off the cycle: the mark, then one call at a time. At a locked
        // mark the first operation that reaches the reference unlocks
        // every tape.
        self.apply((BOUNDARY, 0, *which))?;
        let deviates = round.iter().any(|op| reaches_the_reference(op.0));
        if deviates && self.hot[*which] {
            match deviation {
                Deviation::Insert(..) => self.coverage.inserted += 1,
                Deviation::Replace(..) => self.coverage.replaced += 1,
                _ => self.coverage.cut += 1,
            }
        }
        for op in round {
            self.apply(op)?;
        }
        if deviates {
            self.hot = [false; 3];
        }
        Ok(())
    }

    fn drive(&mut self, plan: &Plan, rounds: &[Round]) -> TestCaseResult {
        for &op in &plan.prelude {
            self.apply(op)?;
            if reaches_the_reference(op.0) {
                self.hot = [false; 3];
            }
        }
        for round in rounds {
            self.round(plan, round)?;
        }
        Ok(())
    }

    /// `self ⊗ other`; both sides go on drawing from `self`'s generators.
    fn join(mut self, other: Pair) -> Result<Pair, TestCaseError> {
        self.block.append(&other.block);
        self.bare.append(&other.bare);
        self.hot = [false; 3];
        self.coverage.add(other.coverage);
        prop_assert!(
            self.block.to_tableau().same_state(&self.bare),
            "after append"
        );
        Ok(self)
    }

    /// Measures every qubit, compares the generators' next word, and
    /// hands back what the case covered.
    fn finish(mut self) -> Result<Coverage, TestCaseError> {
        for q in 0..self.bare.num_qubits() {
            self.apply((MEASURE, q, 0))?;
        }
        prop_assert_eq!(self.block_rng.next_u64(), self.bare_rng.next_u64());
        Ok(self.coverage)
    }
}

fn run(n: usize, plan: &Plan) -> Result<Coverage, TestCaseError> {
    let (apart, together) = plan.rounds.split_at(2 * plan.rounds.len() / 3);
    let mut pair = match plan.split % n {
        0 => {
            let mut pair = Pair::new(n, plan.seed);
            pair.drive(plan, apart)?;
            pair
        }
        first => {
            let (a, b) = apart.split_at(apart.len() / 2);
            let mut left = Pair::new(first, plan.seed);
            left.drive(plan, a)?;
            let mut right = Pair::new(n - first, plan.seed ^ 1);
            right.drive(plan, b)?;
            left.join(right)?
        }
    };
    for round in together {
        pair.round(plan, round)?;
    }
    pair.finish()
}

#[test]
fn matches_a_bare_tableau_op_for_op() {
    let mut covered = Coverage::default();
    proptest::run_property(
        "matches_a_bare_tableau_op_for_op",
        &ProptestConfig::with_cases(24),
        |rng| {
            let plan = plan().sample(rng);
            for n in [1usize, 17, 63, 64, 65, 98] {
                match run(n, &plan) {
                    Ok(coverage) => covered.add(coverage),
                    Err(e) => return Err((e, format!("n = {n}, plan = {plan:?}"))),
                }
            }
            Ok(())
        },
    );
    // The comparison means little unless kernels served rounds, and
    // rounds left locked tapes in every way.
    assert!(covered.replayed > 1000, "{covered:?}");
    assert!(covered.inserted > 50, "{covered:?}");
    assert!(covered.replaced > 50, "{covered:?}");
    assert!(covered.cut > 50, "{covered:?}");
}

/// [`Tableau::same_state`] by its definition: every stabilizer generator
/// of one stabilizes the other.
fn same_state_by_definition(a: &Tableau, b: &Tableau) -> bool {
    a.num_qubits() == b.num_qubits()
        && (0..a.num_qubits()).all(|i| b.is_stabilized_by(&a.stabilizer(i)))
}

fn scramble(t: &mut Tableau, ops: &[Op], rng: &mut CountingRng) {
    for &op in ops {
        apply(t, op, rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_state_matches_the_definition(
        ops in prop::collection::vec(any_op(), 0..120),
        tail in prop::collection::vec(any_op(), 0..6),
        n in prop_oneof![Just(1usize), Just(5), Just(17), Just(63), Just(64), Just(65), Just(98)],
        seed in 0u64..1 << 32,
    ) {
        let mut a = Tableau::new(n);
        scramble(&mut a, &ops, &mut CountingRng::new(seed));
        prop_assert!(a.same_state(&a.clone()));

        // A short tail on a copy: usually another state, sometimes not.
        let mut b = a.clone();
        scramble(&mut b, &tail, &mut CountingRng::new(seed ^ 1));
        prop_assert_eq!(a.same_state(&b), same_state_by_definition(&a, &b));
        prop_assert_eq!(b.same_state(&a), same_state_by_definition(&b, &a));

        // The same state reached again through measurements that are all
        // deterministic by then but rewrite nothing, after the generators
        // were mixed by measuring in another basis and back.
        let mut c = a.clone();
        let mut rng = CountingRng::new(seed ^ 2);
        let q = seed as usize % n;
        let first = c.measure(q, &mut rng).value;
        let d = c.clone();
        c.measure_x(q, &mut rng);
        let again = c.measure(q, &mut rng).value;
        if again != first {
            c.x(q);
        }
        prop_assert!(c.same_state(&d));
        prop_assert!(same_state_by_definition(&c, &d));

        // One sign apart.
        let mut e = d.clone();
        e.x(q);
        prop_assert!(!e.same_state(&d));
        prop_assert!(!same_state_by_definition(&e, &d));
    }
}

#[test]
fn same_state_sees_through_generators_but_not_signs() {
    // One GHZ state, built from either end: different generators.
    let mut a = Tableau::new(3);
    a.h(0);
    a.cnot(0, 1);
    a.cnot(1, 2);
    let mut b = Tableau::new(3);
    b.h(2);
    b.cnot(2, 1);
    b.cnot(1, 0);
    assert_ne!(a, b);
    assert!(a.same_state(&b) && b.same_state(&a));
    // XXX → −XXX.
    b.z(1);
    assert!(!a.same_state(&b) && !b.same_state(&a));
    assert!(!a.same_state(&Tableau::new(4)));
}

#[test]
fn a_repeating_cycle_locks_and_a_stray_operation_unlocks_it() {
    use SimGate::*;
    // `ZZ`, then `XX`, of qubits 0 and 1 on ancilla 2.
    let round: Arc<[SimGate]> = Arc::new([
        Reset(2),
        Cnot(0, 2),
        Cnot(1, 2),
        Measure(2),
        ResetPlus(2),
        Cnot(2, 0),
        Cnot(2, 1),
        MeasureX(2),
    ]);
    let (mut block, mut bare) = (FrameBlock::new(3), Tableau::new(3));
    let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
    for cycle in 0..12 {
        if cycle == 6 {
            // Not on the tape: the block falls back to its reference and
            // locks again a few rounds later.
            block.h(0);
            bare.h(0);
        }
        block.pauli(cycle % 2, Pauli::ALL[cycle % 4]);
        bare.pauli(cycle % 2, Pauli::ALL[cycle % 4]);
        let (mut a, mut b) = (Outcomes::new(), Outcomes::new());
        block.run_cycle(7, 0, &round, &mut rng_a, &mut a);
        bare.run_cycle(7, 0, &round, &mut rng_b, &mut b);
        assert_eq!(a, b, "cycle {cycle}");
        let replayed = block.replayed_cycles(7);
        match cycle {
            0..=2 => assert_eq!(replayed, 0, "cycle {cycle}"),
            5 => assert_eq!(replayed, 3),
            6..=8 => assert_eq!(replayed, 3, "cycle {cycle}"),
            11 => assert!(replayed >= 5),
            _ => {}
        }
    }
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    assert_eq!(block.replayed_cycles(0), 0, "no such key");
}

/// The key every mark of the trail tests carries.
const KEY: usize = 0;

/// One round of a small code's syndrome extraction, one reference
/// operation per entry: `XXXX` and `ZZZZ` on four data qubits and `ZZ` on
/// the first two, each measured on an ancilla of its own (`layout`: the
/// data qubits, then the three ancillas). The checks commute, so once
/// `XXXX` has been projected the state repeats and a tape locks.
fn code_round(layout: [usize; 7]) -> Vec<Op> {
    let [d0, d1, d2, d3, ax, az, azz] = layout;
    let data = [d0, d1, d2, d3];
    let mut ops = vec![(RESET, ax, 0), (H, ax, 0)];
    ops.extend(data.map(|d| (CNOT, ax, d)));
    ops.extend([(H, ax, 0), (MEASURE, ax, 0), (RESET, az, 0)]);
    ops.extend(data.map(|d| (CNOT, d, az)));
    ops.extend([
        (MEASURE, az, 0),
        (RESET, azz, 0),
        (CNOT, d0, azz),
        (CNOT, d1, azz),
        (MEASURE, azz, 0),
    ]);
    ops
}

/// A program for trails to be laid and followed on: the operations
/// before the first mark, the round the first mark opens and the round
/// every later mark opens, each also as the one gate list every block
/// running the program hands over.
struct Program {
    n: usize,
    layout: [usize; 7],
    prelude: Vec<Op>,
    first: Vec<Op>,
    rest: Vec<Op>,
    /// `first`, then `rest`; one list if they are the same round.
    gates: [Arc<[SimGate]>; 2],
}

impl Program {
    fn new(n: usize, layout: [usize; 7], prelude: Vec<Op>, first: Vec<Op>) -> Program {
        let rest = code_round(layout);
        let list = |ops: &[Op]| -> Arc<[SimGate]> { list(n, ops).into() };
        let rest_gates = list(&rest);
        let first_gates = match first == rest {
            true => Arc::clone(&rest_gates),
            false => list(&first),
        };
        Program {
            n,
            layout,
            prelude,
            first,
            rest,
            gates: [first_gates, rest_gates],
        }
    }

    /// The data qubits reset, then `code_round` from the first mark on:
    /// the trail starts with the projection.
    fn projecting(n: usize, layout: [usize; 7]) -> Program {
        let prelude = layout[..4].iter().map(|&d| (RESET, d, 0)).collect();
        Program::new(n, layout, prelude, code_round(layout))
    }

    /// The code projected before the first mark, and a first round that
    /// re-reads the `ZZZZ` ancilla (`Program::stray`) before the rounds
    /// settle into `code_round`.
    fn settling(n: usize, layout: [usize; 7]) -> Program {
        let mut prelude: Vec<Op> = layout[..4].iter().map(|&d| (RESET, d, 0)).collect();
        prelude.extend(code_round(layout));
        let mut first = code_round(layout);
        let after_zzzz = first
            .iter()
            .position(|&(kind, q, _)| kind == MEASURE && q == layout[5]);
        first.insert(
            after_zzzz.expect("a ZZZZ readout") + 1,
            (MEASURE, layout[5], 0),
        );
        Program::new(n, layout, prelude, first)
    }

    /// What a round that leaves the trail puts in: the `ZZZZ` ancilla
    /// measured again.
    fn stray(&self) -> Op {
        (MEASURE, self.layout[5], 0)
    }

    /// Round `round`'s operations and gate list.
    fn round(&self, round: usize) -> (&[Op], &Arc<[SimGate]>) {
        match round {
            0 => (&self.first, &self.gates[0]),
            _ => (&self.rest, &self.gates[1]),
        }
    }

    /// Lays the program's trail with a fresh block that has none to
    /// follow, from `prelude`.
    fn lay_trail(&self, prelude: &[Op]) -> Option<Trail> {
        let mut block = FrameBlock::fresh(self.n, Arc::new([]));
        let mut rng = CountingRng::new(1);
        for &op in prelude {
            apply(&mut block, op, &mut rng);
        }
        for round in 0..8 {
            block.run_cycle(KEY, 0, self.round(round).1, &mut rng, &mut Outcomes::new());
            if let Some(trail) = block.take_trail() {
                return Some(trail);
            }
        }
        None
    }
}

/// `ops` as one gate list on `n` qubits.
fn list(n: usize, ops: &[Op]) -> Vec<SimGate> {
    ops.iter().filter_map(|&op| gate(n, op)).collect()
}

/// Where a run of rounds leaves the trail.
#[derive(Debug, Clone, Copy)]
enum Leave {
    /// It never does.
    Never,
    /// The stray operation goes in before entry `.1` of round `.0` (after
    /// the last entry, if `.1` is the round's length), and of every round
    /// after it, each such round one list: the round that left the trail
    /// repeats, so the block may lock onto it.
    Insert(usize, usize),
    /// Round `.0` stops before entry `.1`.
    Cut(usize, usize),
    /// Round `.0` is marked under another key.
    Mark(usize),
    /// Round `.0` is followed, before the next mark, by the stray
    /// operation on its own.
    After(usize),
    /// Round `.0` is fed one call at a time after a mark of its own.
    Calls(usize),
}

/// A block following a trail, a block that never saw one and a bare
/// tableau, fed the same operations under the same seed.
struct Trio {
    follower: FrameBlock,
    cold: FrameBlock,
    bare: Tableau,
    rngs: [CountingRng; 3],
    step: usize,
}

impl Trio {
    /// After each step, RNG positions must equal the tableau's, and the
    /// follower's state must be the cold block's generator for
    /// generator.
    fn compare(&self, what: &dyn std::fmt::Debug) -> TestCaseResult {
        let step = self.step;
        let [a, b, c] = self.rngs.each_ref().map(|r| r.draws);
        prop_assert_eq!(a, c, "step {}: RNG draws after {:?}", step, what);
        prop_assert_eq!(b, c, "step {}: RNG draws after {:?}", step, what);
        prop_assert!(
            self.follower.to_tableau() == self.cold.to_tableau(),
            "step {}: the follower's generators left the cold block's after {:?}",
            step,
            what
        );
        prop_assert!(
            self.cold.to_tableau().same_state(&self.bare),
            "step {}: {:?}",
            step,
            what
        );
        Ok(())
    }

    fn apply(&mut self, op: Op) -> TestCaseResult {
        self.step += 1;
        let [a, b, c] = &mut self.rngs;
        let got = apply(&mut self.follower, op, a);
        let cold = apply(&mut self.cold, op, b);
        let want = apply(&mut self.bare, op, c);
        prop_assert_eq!(got, want, "step {}: {:?}", self.step, op);
        prop_assert_eq!(cold, want, "step {}: {:?}", self.step, op);
        self.compare(&op)
    }

    fn run_cycle(&mut self, key: usize, gates: &Arc<[SimGate]>) -> TestCaseResult {
        self.step += 1;
        let [a, b, c] = &mut self.rngs;
        let mut out = [(); 3].map(|()| Outcomes::new());
        self.follower.run_cycle(key, 0, gates, a, &mut out[0]);
        self.cold.run_cycle(key, 0, gates, b, &mut out[1]);
        self.bare.run_cycle(key, 0, gates, c, &mut out[2]);
        prop_assert_eq!(&out[0], &out[2], "step {}: {:?}", self.step, gates);
        prop_assert_eq!(&out[1], &out[2], "step {}: {:?}", self.step, gates);
        self.compare(gates)
    }
}

/// Seven rounds of `program` on a block following `trails`, a cold block
/// and a bare tableau (a [`Trio`]), leaving the trail as `leave` says,
/// with Paulis between the rounds; then every qubit measured. Returns
/// the cycles the follower replayed beyond the cold block.
fn follow(
    program: &Program,
    prelude: &[Op],
    trails: &Trails,
    leave: Leave,
    seed: u64,
) -> Result<u64, TestCaseError> {
    let n = program.n;
    let mut trio = Trio {
        follower: FrameBlock::fresh(n, Arc::clone(trails)),
        cold: FrameBlock::new(n),
        bare: Tableau::new(n),
        rngs: [0, 1, 2].map(|_| CountingRng::new(seed)),
        step: 0,
    };
    let mut noise = StdRng::seed_from_u64(!seed);
    for &op in prelude {
        trio.apply(op)?;
    }
    // The rounds that take the stray in, as one list each.
    let strayed = |round: usize, at: usize| -> Arc<[SimGate]> {
        let mut ops = program.round(round).0.to_vec();
        ops.insert(at.min(ops.len()), program.stray());
        list(n, &ops).into()
    };
    let strayed = match leave {
        Leave::Insert(0, at) => Some([strayed(0, at), strayed(1, at)]),
        Leave::Insert(r, at) => Some([strayed(r, at)]).map(|[s]| [Arc::clone(&s), s]),
        _ => None,
    };
    for round in 0..7 {
        for _ in 0..noise.gen_range(0..3) {
            let q = noise.gen_range(0..n);
            trio.apply((6, q, noise.gen_range(0..4)))?;
        }
        let (ops, gates) = program.round(round);
        match leave {
            Leave::Insert(r, _) if r <= round => {
                let strayed = strayed.as_ref().expect("strayed rounds");
                trio.run_cycle(KEY, &strayed[usize::from(round > r)])?;
            }
            Leave::Cut(r, at) if r == round => trio.run_cycle(KEY, &list(n, &ops[..at]).into())?,
            Leave::Mark(r) if r == round => trio.run_cycle(KEY + 1, gates)?,
            Leave::After(r) if r == round => {
                trio.run_cycle(KEY, gates)?;
                trio.apply(program.stray())?;
            }
            Leave::Calls(r) if r == round => {
                trio.apply((BOUNDARY, 0, KEY))?;
                for &op in ops {
                    trio.apply(op)?;
                }
            }
            _ => trio.run_cycle(KEY, gates)?,
        }
    }
    for q in 0..n {
        trio.apply((MEASURE, q, 0))?;
    }
    let [a, _, c] = &mut trio.rngs;
    prop_assert_eq!(a.next_u64(), c.next_u64());
    Ok(trio.follower.replayed_cycles(KEY) - trio.cold.replayed_cycles(KEY))
}

#[test]
fn a_follower_draws_answers_and_holds_what_a_cold_block_does() {
    let layouts = [(7, [0, 1, 2, 3, 4, 5, 6]), (70, [0, 31, 63, 64, 69, 5, 40])];
    let programs = layouts
        .into_iter()
        .flat_map(|(n, layout)| [Program::projecting(n, layout), Program::settling(n, layout)]);
    for program in programs {
        let trail = program
            .lay_trail(&program.prelude)
            .expect("the rounds lock a tape");
        // The first round, then two that must repeat.
        let cycles = trail.cycles();
        assert_eq!(cycles, 3);
        let trails: Trails = Arc::new([Arc::new(trail)]);
        let check = |leave: Leave, prelude: &[Op], followed: usize| {
            for seed in 0..2 {
                match follow(&program, prelude, &trails, leave, seed) {
                    Ok(extra) => assert_eq!(extra, followed as u64, "n = {}, {leave:?}", program.n),
                    Err(e) => panic!("n = {}, {leave:?}, seed {seed}: {e:?}", program.n),
                }
            }
        };
        // Seven rounds on the trail and then on the tape it locked: all
        // replayed, against the cold block's four.
        check(Leave::Never, &program.prelude, cycles);
        // A round off the trail is run on the reference from the mark
        // it comes to: the trail cycles before it are what the follower
        // gained.
        for round in 0..=cycles {
            let len = program.round(round).0.len();
            for at in 0..=len {
                check(Leave::Insert(round, at), &program.prelude, round);
            }
            for at in 0..len {
                check(Leave::Cut(round, at), &program.prelude, round);
            }
            check(Leave::Calls(round), &program.prelude, round);
            // A stray after a trail cycle's gates leaves after that cycle.
            check(Leave::After(round), &program.prelude, cycles.min(round + 1));
            if round > 0 {
                check(Leave::Mark(round), &program.prelude, round);
            }
        }
        // The same state from other generators: no trail starts there, so
        // the block lays its own and replays what the cold block does.
        let mut other = program.prelude.clone();
        other.push((CNOT, program.layout[0], program.layout[1]));
        check(Leave::Never, &other, 0);
        let laid = program.lay_trail(&other).expect("the rounds lock a tape");
        assert!(!laid.same_start(&trails[0]));
        assert_eq!(laid.cycles(), cycles);
    }
}

/// Records the `deterministic` flag of every measurement the register it
/// wraps answers; every other call is forwarded as is, and a whole cycle
/// goes call by call (the provided `run_cycle`).
struct Flags<'a, S> {
    inner: &'a mut S,
    flags: Vec<bool>,
}

impl<S: StabilizerSim> StabilizerSim for Flags<'_, S> {
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn h(&mut self, q: usize) {
        self.inner.h(q);
    }
    fn s(&mut self, q: usize) {
        self.inner.s(q);
    }
    fn pauli(&mut self, q: usize, p: Pauli) {
        self.inner.pauli(q, p);
    }
    fn cnot(&mut self, c: usize, t: usize) {
        self.inner.cnot(c, t);
    }
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let m = self.inner.measure(q, rng);
        self.flags.push(m.deterministic);
        m
    }
    fn cycle_boundary(&mut self, key: usize) {
        self.inner.cycle_boundary(key);
    }
}

/// A cycle for a kernel: it locks, draws on every round and runs every
/// kind of gate. Each round it
///
/// * resets tile qubit 1, entangles it with qubit 0 and measures it in X:
///   random, and where qubit 0 is entangled past the tile its pivot may
///   reach there;
/// * prepares tile qubit 5 in `|+⟩` and measures it in Z: random;
/// * measures the `ZZ` parity of tile qubits 2 and 3 on ancilla 4, after
///   an `X` on 2 that flips it every round (a constant the kernel must
///   keep), around gates that amount to the identity.
fn kernel_cycle() -> Vec<SimGate> {
    use SimGate::*;
    vec![
        Reset(1),
        Cnot(0, 1),
        MeasureX(1),
        ResetPlus(5),
        Measure(5),
        S(2),
        SDagger(2),
        H(3),
        H(3),
        X(2),
        Y(3),
        Z(3),
        Reset(4),
        Cnot(2, 4),
        Cnot(3, 4),
        Measure(4),
    ]
}

/// A register for [`kernel_cycle`] at `offset`, and the operations that
/// entangle the tile with qubits outside it first.
struct KernelCase {
    n: usize,
    offset: usize,
    prelude: &'static [Op],
}

const KERNEL_CASES: [KernelCase; 2] = [
    // The tile straddles a word boundary, with qubits outside it on both
    // sides; its qubit 0 is half of a Bell pair with qubit 10.
    KernelCase {
        n: 70,
        offset: 62,
        prelude: &[(H, 10, 0), (CNOT, 10, 62)],
    },
    // From these generators a pivot of the locked cycle carries a qubit
    // outside the tile (`frame_block`'s unit tests check one on the
    // compiled kernel).
    KernelCase {
        n: 8,
        offset: 1,
        prelude: &[(1, 1, 0), (H, 1, 0), (H, 2, 0), (CNOT, 1, 0)],
    },
];

#[test]
fn a_kernel_serves_a_locked_cycle_as_the_calls_would_and_only_its_own_gates() {
    const CYCLES: usize = 60;
    /// The round that brings the same gates in another list, and the one
    /// that brings other gates.
    const COPY_AT: usize = 20;
    const OTHER_AT: usize = 35;
    let gates: Arc<[SimGate]> = kernel_cycle().into();
    let copy: Arc<[SimGate]> = kernel_cycle().into();
    let other: Arc<[SimGate]> = {
        let mut other = kernel_cycle();
        other.insert(6, SimGate::H(2));
        other.insert(7, SimGate::H(2));
        other.into()
    };

    for KernelCase { n, offset, prelude } in KERNEL_CASES {
        for seed in 0..4 {
            let (mut kernel, mut calls, mut bare) =
                (FrameBlock::new(n), FrameBlock::new(n), Tableau::new(n));
            let mut rngs = [0; 3].map(|_| CountingRng::new(seed));
            let mut noise = StdRng::seed_from_u64(seed ^ 0xA5);
            for &op in prelude {
                let [rk, rc, rb] = &mut rngs;
                apply(&mut kernel, op, rk);
                apply(&mut calls, op, rc);
                apply(&mut bare, op, rb);
            }
            for cycle in 0..CYCLES {
                for _ in 0..3 {
                    let (q, p) = (noise.gen_range(0..n), Pauli::ALL[noise.gen_range(0..4)]);
                    kernel.pauli(q, p);
                    calls.pauli(q, p);
                    bare.pauli(q, p);
                }
                let list = match cycle {
                    COPY_AT => &copy,
                    OTHER_AT => &other,
                    _ => &gates,
                };
                let replayed = kernel.replayed_cycles(KEY);
                let draws = rngs.each_ref().map(|r| r.draws);
                assert_eq!(draws, [draws[0]; 3], "RNG positions");
                let [rk, rc, rb] = &mut rngs;
                let mut out = [(); 3].map(|()| Outcomes::new());
                kernel.run_cycle(KEY, offset, list, rk, &mut out[0]);
                let mut flags = [(); 2].map(|()| Vec::new());
                let mut on_calls = Flags {
                    inner: &mut calls,
                    flags: Vec::new(),
                };
                on_calls.cycle_boundary(KEY);
                fire_gates(&mut on_calls, offset, list, rc, &mut out[1]);
                flags[0] = on_calls.flags;
                let mut on_bare = Flags {
                    inner: &mut bare,
                    flags: Vec::new(),
                };
                on_bare.run_cycle(KEY, offset, list, rb, &mut out[2]);
                flags[1] = on_bare.flags;

                let at = format!("n = {n}, seed {seed}, cycle {cycle}");
                assert_eq!(out[0], out[2], "{at}: kernel against the tableau");
                assert_eq!(out[1], out[2], "{at}: calls against the tableau");
                assert_eq!(flags[0], flags[1], "{at}: deterministic flags");
                let random = flags[1].iter().filter(|&&d| !d).count() as u64;
                let drawn = rngs.each_ref().map(|r| r.draws - draws[0]);
                assert_eq!(drawn, [random; 3], "{at}: draws");
                // On a kernel exactly when the tape is locked at the mark:
                // from the end of the warm-up (two or three rounds, by
                // layout) on, the copy's round included (compiled for its
                // own list), but for the other list's round (not on the
                // tape: it deviates) and the one after it (recorded to
                // lock again).
                let on_kernel = kernel.replayed_cycles(KEY) > replayed;
                match cycle {
                    0 | 1 | OTHER_AT => assert!(!on_kernel, "{at}: on a kernel"),
                    c if c == OTHER_AT + 1 => assert!(!on_kernel, "{at}: on a kernel"),
                    2 => {}
                    _ => assert!(on_kernel, "{at}: off the kernel"),
                }
                if on_kernel {
                    assert_eq!(random, 3, "{at}: the locked round draws");
                }
                assert!(kernel.to_tableau().same_state(&bare), "{at}: state");
                assert!(calls.to_tableau().same_state(&bare), "{at}: state");
            }
            let replayed = kernel.replayed_cycles(KEY);
            assert!(replayed >= (CYCLES - 3 - 2) as u64, "{replayed}");
            assert_eq!(kernel.kernel_draws(KEY), 3 * replayed);
            let next = rngs.map(|mut rng| rng.next_u64());
            assert_eq!(next, [next[2]; 3], "n = {n}, seed {seed}: the next draw");
        }
    }
}

/// A cycle on a block wider than one band of a kernel's sum: 72 `ZZ`
/// checks along a chain of data qubits (73 data qubits, the ancillas
/// after them) after [`kernel_cycle`]'s six qubits, which draw on every
/// round. Its 75 outcomes take two words.
fn wide_cycle() -> Vec<SimGate> {
    use SimGate::*;
    const CHECKS: usize = 72;
    let (data, ancillas) = (6, 6 + CHECKS + 1);
    let mut gates = kernel_cycle();
    for check in 0..CHECKS {
        let ancilla = ancillas + check;
        gates.extend([
            Reset(ancilla),
            Cnot(data + check, ancilla),
            Cnot(data + check + 1, ancilla),
            Measure(ancilla),
        ]);
    }
    gates
}

#[test]
fn a_kernel_wider_than_a_band_serves_a_locked_cycle_as_the_tableau_does() {
    // 320 qubits: a kernel column is ten frame words and two of
    // outcomes, twelve words, more than one band of the sum, and the
    // tile sits at an offset that is not a word boundary, its qubit 0 in
    // a Bell pair with qubit 3, outside it.
    const N: usize = 320;
    const OFFSET: usize = 130;
    const CYCLES: usize = 14;
    // The cycle's 151 qubits end at qubit 280.
    let gates: Arc<[SimGate]> = wide_cycle().into();
    for seed in 0..2 {
        let (mut block, mut bare) = (FrameBlock::new(N), Tableau::new(N));
        let mut rngs = [0; 2].map(|_| CountingRng::new(seed));
        let mut noise = StdRng::seed_from_u64(seed ^ 0x5A);
        for op in [(H, 3, 0), (CNOT, 3, OFFSET)] {
            let [rk, rb] = &mut rngs;
            apply(&mut block, op, rk);
            apply(&mut bare, op, rb);
        }
        for cycle in 0..CYCLES {
            // Errors on the tile's data qubits and anywhere else.
            for _ in 0..4 {
                let q = match noise.gen::<bool>() {
                    true => OFFSET + noise.gen_range(0..80),
                    false => noise.gen_range(0..N),
                };
                let p = Pauli::ALL[noise.gen_range(1..4)];
                block.pauli(q, p);
                StabilizerSim::pauli(&mut bare, q, p);
            }
            let replayed = block.replayed_cycles(KEY);
            let [rk, rb] = &mut rngs;
            let mut out = [(); 2].map(|()| Outcomes::new());
            block.run_cycle(KEY, OFFSET, &gates, rk, &mut out[0]);
            bare.run_cycle(KEY, OFFSET, &gates, rb, &mut out[1]);
            let at = format!("seed {seed}, cycle {cycle}");
            assert_eq!(out[1].len(), 75, "{at}");
            assert_eq!(out[0], out[1], "{at}: outcomes");
            assert_eq!(rngs[0].draws, rngs[1].draws, "{at}: RNG position");
            assert!(block.to_tableau().same_state(&bare), "{at}: state");
            if cycle >= 4 {
                assert!(
                    block.replayed_cycles(KEY) > replayed,
                    "{at}: off the kernel"
                );
            }
        }
        assert!(block.kernel_draws(KEY) > 0);
        let next = rngs.map(|mut rng| rng.next_u64());
        assert_eq!(next[0], next[1], "seed {seed}: the next draw");
    }
}
