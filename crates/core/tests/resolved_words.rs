//! A QECC word fired as `Mce::new` resolved it must do exactly what the
//! same word does when it is merged at issue time (latched, resolved and
//! fired by the same routine), and a whole cycle fired as one call, its
//! packed outcomes spread into syndrome words by table, what its words do
//! slot by slot, their outcomes routed one at a time.
//!
//! Three MCEs replay the same noisy cycles at d ∈ {3, 5, 7}, with readout
//! flips, on a bare tableau at offset 0 and behind the other tile of a
//! joined frame block: one issues its QECC words pre-resolved, one has an
//! idle logical word queued before every slot, which sends each slot
//! through the merge path and, with no region masked, fires the QECC word
//! unchanged, and one runs `run_qecc_cycle`. A recording substrate logs
//! every call the MCEs make (with each measurement's answer) and a
//! recording generator every value drawn; the logs, the words `step`
//! returns (the third arm steps no slot), the execution and decode
//! statistics, the decoder frames and the escalations must all agree.

use quest_core::{ExecutionStats, Mce, Substrate, MCE_IBUF_BYTES};
use quest_isa::VliwWord;
use quest_stabilizer::{Measurement, Pauli, SeedableRng, StabilizerSim, StdRng, Tableau};
use quest_surface::{RotatedLattice, StabKind};
use rand::{Rng, RngCore};

/// One call on the substrate, as the MCE made it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Boundary(usize),
    H(usize),
    S(usize),
    Sdg(usize),
    Pauli(usize, Pauli),
    Cnot(usize, usize),
    Measure(usize, Measurement),
    MeasureX(usize, Measurement),
    Reset(usize),
    ResetPlus(usize),
}

/// Forwards every call to the register it wraps and logs it.
struct Recorder<'a, S: StabilizerSim + ?Sized> {
    inner: &'a mut S,
    calls: Vec<Call>,
}

impl<S: StabilizerSim + ?Sized> StabilizerSim for Recorder<'_, S> {
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn h(&mut self, q: usize) {
        self.calls.push(Call::H(q));
        self.inner.h(q);
    }
    fn s(&mut self, q: usize) {
        self.calls.push(Call::S(q));
        self.inner.s(q);
    }
    fn s_dagger(&mut self, q: usize) {
        self.calls.push(Call::Sdg(q));
        self.inner.s_dagger(q);
    }
    fn pauli(&mut self, q: usize, p: Pauli) {
        self.calls.push(Call::Pauli(q, p));
        self.inner.pauli(q, p);
    }
    fn x(&mut self, q: usize) {
        self.pauli(q, Pauli::X);
    }
    fn y(&mut self, q: usize) {
        self.pauli(q, Pauli::Y);
    }
    fn z(&mut self, q: usize) {
        self.pauli(q, Pauli::Z);
    }
    fn cnot(&mut self, c: usize, t: usize) {
        self.calls.push(Call::Cnot(c, t));
        self.inner.cnot(c, t);
    }
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let m = self.inner.measure(q, rng);
        self.calls.push(Call::Measure(q, m));
        m
    }
    fn measure_x<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let m = self.inner.measure_x(q, rng);
        self.calls.push(Call::MeasureX(q, m));
        m
    }
    fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.calls.push(Call::Reset(q));
        self.inner.reset(q, rng);
    }
    fn reset_plus<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.calls.push(Call::ResetPlus(q));
        self.inner.reset_plus(q, rng);
    }
    fn cycle_boundary(&mut self, key: usize) {
        self.calls.push(Call::Boundary(key));
        self.inner.cycle_boundary(key);
    }
}

/// Logs every value drawn from the generator it wraps.
struct RecordingRng {
    inner: StdRng,
    drawn: Vec<u64>,
}

impl RngCore for RecordingRng {
    fn next_u32(&mut self) -> u32 {
        let v = self.inner.next_u32();
        self.drawn.push(u64::from(v));
        v
    }
    fn next_u64(&mut self) -> u64 {
        let v = self.inner.next_u64();
        self.drawn.push(v);
        v
    }
}

const CYCLES: usize = 8;

/// Everything one arm observed.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    calls: Vec<Call>,
    drawn: Vec<u64>,
    words: Vec<VliwWord>,
    stats: ExecutionStats,
    decode: [quest_core::DecodeStats; 2],
    frames: [Vec<usize>; 2],
    escalations: Vec<(StabKind, quest_core::Escalation)>,
}

/// How an arm fires its cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Firing {
    /// Slot by slot, each QECC word pre-resolved.
    Plain,
    /// Slot by slot, an idle logical word queued before every slot.
    Merged,
    /// `run_qecc_cycle`: the whole cycle as one call.
    Cycle,
}

/// Runs `CYCLES` noisy cycles of `mce` on `substrate` as `firing` says.
fn drive<S: StabilizerSim + ?Sized>(mut mce: Mce, substrate: &mut S, firing: Firing) -> Observed {
    let n = mce.lattice().num_qubits();
    let data = mce.lattice().num_data();
    mce.set_measurement_flip(0.05);
    let mut sim = Recorder {
        inner: substrate,
        calls: Vec::new(),
    };
    let mut rng = RecordingRng {
        inner: StdRng::seed_from_u64(2026),
        drawn: Vec::new(),
    };
    // The noise comes from a stream of its own, the same for both arms.
    let mut noise = StdRng::seed_from_u64(7);
    let (mut words, mut escalations) = (Vec::new(), Vec::new());
    for _ in 0..CYCLES {
        for _ in 0..2 {
            let q = mce.substrate_index(noise.gen_range(0..data));
            sim.pauli(q, [Pauli::X, Pauli::Y, Pauli::Z][noise.gen_range(0..3)]);
        }
        if firing == Firing::Cycle {
            mce.run_qecc_cycle(&mut sim, &mut rng);
        }
        for _ in 0..mce.microcode().cycle_len() * usize::from(firing != Firing::Cycle) {
            if firing == Firing::Merged {
                mce.queue_logical_word(VliwWord::nop(n));
            }
            words.push(mce.step(&mut sim, &mut rng));
        }
        assert_eq!(mce.pending_logical_words(), 0);
        escalations.extend(mce.take_escalations());
    }
    Observed {
        calls: sim.calls,
        drawn: rng.drawn,
        words,
        stats: mce.execution_stats(),
        decode: [StabKind::X, StabKind::Z].map(|kind| mce.decode_stats(kind)),
        frames: [StabKind::X, StabKind::Z].map(|kind| mce.decoder(kind).frame().collect()),
        escalations,
    }
}

/// What an arm observed, but for the words `step` returned.
fn stepless(observed: Observed) -> Observed {
    Observed {
        words: Vec::new(),
        ..observed
    }
}

#[test]
fn pre_resolved_words_fire_as_merged_words_do() {
    for d in [3, 5, 7] {
        let lattice = RotatedLattice::new(d);
        let n = lattice.num_qubits();
        let template = Mce::new(&lattice, MCE_IBUF_BYTES);

        // Offset 0, on a bare tableau.
        let arm = |firing| drive(template.clone(), &mut Tableau::new(n), firing);
        let (plain, merged) = (arm(Firing::Plain), arm(Firing::Merged));
        assert_eq!(plain, merged, "d = {d}, offset 0");
        assert_eq!(
            stepless(arm(Firing::Cycle)),
            stepless(plain.clone()),
            "d = {d}, offset 0, one call"
        );
        assert!(
            plain.drawn.len() > CYCLES,
            "d = {d}: nothing random was drawn"
        );
        assert!(
            plain.calls.iter().any(|c| matches!(c, Call::Cnot(..))),
            "d = {d}: no CNOT was fired"
        );

        // Behind the other tile of a joined block.
        let arm = |firing| {
            let mut mces = vec![template.clone(); 2];
            let mut substrate = Substrate::new(2, n);
            substrate.join(&mut mces, 0, 1).expect("two tiles");
            assert_eq!(mces[1].substrate_index(0), n);
            let mce = mces.pop().expect("two tiles");
            drive(mce, substrate.block_mut(1), firing)
        };
        let (plain, merged) = (arm(Firing::Plain), arm(Firing::Merged));
        assert_eq!(plain, merged, "d = {d}, behind a joined block");
        assert_eq!(
            stepless(arm(Firing::Cycle)),
            stepless(plain.clone()),
            "d = {d}, behind a joined block, one call"
        );
        assert!(
            plain.calls.iter().all(|c| match *c {
                Call::Boundary(key) => key == n,
                Call::Cnot(a, b) => a >= n && b >= n,
                Call::H(q) | Call::Reset(q) | Call::ResetPlus(q) | Call::Pauli(q, _) => q >= n,
                Call::Measure(q, _) | Call::MeasureX(q, _) => q >= n,
                Call::S(q) | Call::Sdg(q) => q >= n,
            }),
            "d = {d}: a call left the tile"
        );
    }
}
