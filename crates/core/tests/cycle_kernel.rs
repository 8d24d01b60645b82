//! An MCE cycle that merges nothing is one substrate call, which a frame
//! block whose tape has locked serves from a compiled kernel: it must do
//! exactly what a bare tableau does with the same cycle call by call.
//!
//! Two MCEs share one register — a Bell pair, the second tile behind the
//! first, so that one tile sits at an offset and a pivot of either may
//! reach the other — and run 200 noisy cycles at d ∈ {3, 5, 7} on a
//! `FrameBlock` and on a bare `Tableau` with the same seeds. Mid-run one
//! tile takes two logical `S` words through a masked region (its block
//! deviates, re-locks on a reference whose answers are no longer all
//! `false`, and compiles again), the other is masked for a few cycles, and both arms are cloned (a clone drops its tapes and
//! kernels). After every cycle the outcomes and escalations must agree;
//! at the end the execution and decode statistics, the decoder frames,
//! the generator's next draw and the state itself.
//!
//! A locked QECC cycle draws: one bit per X check, the Z-basis reset of
//! each X ancilla, which the cycle before left in an X eigenstate. The
//! kernels here must draw exactly those bits, and a kernel that skipped
//! them fails at the generator's next draw. A reset reports no outcome
//! and leaves `|0⟩` whatever it drew, so those bits reach neither the
//! outcomes nor the state: a kernel that drew them too late, or dropped
//! them after drawing, would still pass here. `quest-stabilizer`'s
//! `frame_block_differential.rs` has the kernel case whose drawn bits
//! are reported.

use quest_core::{
    tile, DecodeStats, Escalation, ExecutionStats, LogicalBasis, Mce, MCE_IBUF_BYTES,
};
use quest_isa::{MicroOp, PhysOpcode, VliwWord};
use quest_stabilizer::{
    FrameBlock, Outcomes, PauliChannel, SeedableRng, StabilizerSim, StdRng, Tableau,
};
use quest_surface::{RotatedLattice, StabKind};
use rand::RngCore;

const CYCLES: usize = 200;
/// The cycle in which tile 0 takes its logical words (under a mask), the
/// first of the `IDLE` cycles tile 1 is masked, and the cycle before
/// which both arms are cloned.
const LOGICAL_AT: usize = 60;
const MASK_AT: usize = 100;
const IDLE: usize = 3;
const CLONE_AT: usize = 140;

/// One tile's cycle: its outcomes and its escalations.
type TileCycle = (Outcomes, Vec<(StabKind, Escalation)>);

/// Everything one arm observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per cycle and tile: the cycle's outcomes and escalations.
    cycles: Vec<[TileCycle; 2]>,
    stats: [ExecutionStats; 2],
    decode: [[DecodeStats; 2]; 2],
    frames: [[Vec<usize>; 2]; 2],
    next_draw: u64,
}

/// The two tiles and what they run on.
#[derive(Clone)]
struct Arm<S> {
    mces: [Mce; 2],
    sim: S,
    rng: StdRng,
}

/// Masks (or unmasks) every region of a tile: a region cut through a
/// check would leave a CNOT half without its partner.
fn mask(mce: &mut Mce, masked: bool) {
    for region in 0..mce.mask().num_regions() {
        mce.mask_mut().set_region(region, masked);
    }
}

/// A tile's cycles served by a kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    replayed: u64,
    /// The bits those kernel cycles drew.
    draws: u64,
}

fn block_counts(block: &FrameBlock, key: usize) -> Counts {
    Counts {
        replayed: block.replayed_cycles(key),
        draws: block.kernel_draws(key),
    }
}

/// Runs the program on `sim` (two tiles wide) and returns what it saw,
/// the register it ended with, and each tile's `counts` just before the
/// clone.
fn run<S: StabilizerSim + Clone>(
    d: usize,
    p: f64,
    sim: S,
    counts: impl Fn(&S, usize) -> Counts,
) -> (Observed, S, [Counts; 2]) {
    let lattice = RotatedLattice::new(d);
    let n = lattice.num_qubits();
    let template = Mce::new(&lattice, MCE_IBUF_BYTES);
    let mut arm = Arm {
        mces: [template.clone(), template],
        sim,
        rng: StdRng::seed_from_u64(0x5EED ^ d as u64),
    };
    arm.mces[1].rebase(n);
    arm.mces[1].set_measurement_flip(1e-2);
    let noise = PauliChannel::depolarizing(p);
    let victim = lattice.data_index(1, 1);
    let mut cycles = Vec::with_capacity(CYCLES);
    let mut before_clone = [Counts::default(); 2];
    for cycle in 0..CYCLES {
        let Arm { mces, sim, rng } = &mut arm;
        match cycle {
            0 => {
                tile::prep_logical(&mut mces[0], LogicalBasis::Plus, sim, rng);
                tile::prep_logical(&mut mces[1], LogicalBasis::Zero, sim, rng);
            }
            // A transversal CNOT: the two tiles are one Bell pair. The
            // decoders are not told, so the next round escalates.
            3 => {
                for q in 0..lattice.num_data() {
                    sim.cnot(mces[0].substrate_index(q), mces[1].substrate_index(q));
                }
            }
            // `S·S = Z` on the reference: the checks around the victim
            // read `true` from the reference from now on.
            LOGICAL_AT => {
                mask(&mut mces[0], true);
                let mut word = VliwWord::nop(n);
                word.set(victim, MicroOp::simple(PhysOpcode::S));
                mces[0].queue_logical_word(word.clone());
                mces[0].queue_logical_word(word);
            }
            MASK_AT => mask(&mut mces[1], true),
            _ => {}
        }
        if cycle == CLONE_AT {
            before_clone = [0, n].map(|key| counts(&arm.sim, key));
            arm = arm.clone();
        }
        let Arm { mces, sim, rng } = &mut arm;
        let mut seen = [(); 2].map(|()| (Outcomes::new(), Vec::new()));
        for (mce, seen) in mces.iter_mut().zip(&mut seen) {
            tile::noise_layer(mce, &noise, sim, rng);
            mce.run_qecc_cycle(sim, rng);
            *seen = (mce.measurements().clone(), mce.take_escalations());
        }
        cycles.push(seen);
        match cycle {
            LOGICAL_AT => mask(&mut mces[0], false),
            c if c == MASK_AT + IDLE - 1 => mask(&mut mces[1], false),
            _ => {}
        }
    }
    let kinds = [StabKind::X, StabKind::Z];
    let observed = Observed {
        cycles,
        stats: arm.mces.each_ref().map(Mce::execution_stats),
        decode: arm
            .mces
            .each_ref()
            .map(|m| kinds.map(|k| m.decode_stats(k))),
        frames: arm
            .mces
            .each_ref()
            .map(|m| kinds.map(|k| m.decoder(k).frame().collect())),
        next_draw: arm.rng.next_u64(),
    };
    (observed, arm.sim, before_clone)
}

#[test]
fn a_kernel_cycle_is_the_same_cycle_call_by_call() {
    for d in [3, 5, 7] {
        let lattice = RotatedLattice::new(d);
        let (n, x_checks) = (
            lattice.num_qubits(),
            lattice.plaquettes_of(StabKind::X).count() as u64,
        );
        for p in [0.0, 1e-3, 2e-2] {
            let (on_blocks, block, before_clone) = run(d, p, FrameBlock::new(2 * n), block_counts);
            let (on_tableau, tableau, _) = run(d, p, Tableau::new(2 * n), |_, _| Counts::default());
            let at = format!("d = {d}, p = {p}");
            for (cycle, (a, b)) in on_blocks.cycles.iter().zip(&on_tableau.cycles).enumerate() {
                assert_eq!(a, b, "{at}: cycle {cycle}");
            }
            assert_eq!(on_blocks, on_tableau, "{at}");
            assert!(block.to_tableau().same_state(&tableau), "{at}: state");
            assert!(
                on_blocks.cycles[LOGICAL_AT + 1..]
                    .iter()
                    .any(|c| c[0].0.iter().any(|m| m)),
                "{at}: no outcome read true after the logical words"
            );
            // Every replayed cycle is served by a kernel, drawing a bit
            // per X check, the first after each lock-in included: before
            // the clone the tapes lock in four times (after the
            // projection, the transversal CNOT, the logical words and the
            // mask, each of which unlocks the whole block), a clone has no
            // tapes and locks in once.
            for (tile, key) in [0, n].into_iter().enumerate() {
                let locked_in = |counts: Counts| {
                    assert!(counts.replayed > 50, "{at}, key {key}: {counts:?}");
                    assert_eq!(
                        counts.draws,
                        counts.replayed * x_checks,
                        "{at}, key {key}: {counts:?}"
                    );
                };
                locked_in(before_clone[tile]);
                locked_in(block_counts(&block, key));
            }
        }
    }
}
