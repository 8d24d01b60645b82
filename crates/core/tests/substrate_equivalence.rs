//! One frame block per entangled group of tiles must be
//! indistinguishable, in everything a run reports, from one bare tableau
//! spanning every tile.
//!
//! The same seeded program — preparation, noisy QECC cycles, transversal
//! CNOTs that join two blocks and then a third, a repeated CNOT on tiles
//! that already share a block, a CNOT rejected by a precondition, readout
//! — runs twice through the [`quest_core::tile`] helpers: once on a
//! [`Substrate`] that starts partitioned, its blocks locking onto their
//! tapes and falling off them as the program goes, and once on a
//! `Tableau::new(tiles × width)` that the same MCEs drive directly, with
//! no frame and no tape anywhere — the oracle. (A substrate whose tiles
//! were all joined while still in `|0…0⟩` is kept beside it: it holds
//! that very state, gives the MCEs their offsets, and does the
//! bookkeeping of a CNOT.) Readouts, the escalation stream, decode
//! statistics, the master's ledger and every tile's RNG position must
//! agree. A second program masks a tile and queues a logical word in the
//! middle of a cycle.

use quest_core::tile::{self, LogicalBasis};
use quest_core::{
    BusCounters, CnotError, DecodeStats, Escalation, MasterController, MasterStats, Mce, Substrate,
    MCE_IBUF_BYTES,
};
use quest_isa::{MicroOp, PhysOpcode, VliwWord};
use quest_stabilizer::{PauliChannel, SeedableRng, StdRng, Tableau};
use quest_surface::{RotatedLattice, StabKind};
use rand::RngCore;

const TILES: usize = 4;

/// Counts the words drawn from the generator it wraps.
struct CountingRng {
    inner: StdRng,
    draws: u64,
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

struct Machine {
    mces: Vec<Mce>,
    substrate: Substrate,
    /// The monolithic machine's qubits; `substrate` then idles.
    bare: Option<Tableau>,
    master: MasterController,
    rngs: Vec<CountingRng>,
    noise: PauliChannel,
    /// `(cycle, tile, kind, escalation)` in the order raised.
    escalations: Vec<(u64, usize, StabKind, Escalation)>,
    cycle: u64,
}

/// Runs `$body` with `$qubits` bound to wherever `$tile`'s qubits are.
macro_rules! on_qubits {
    ($machine:expr, $tile:expr, |$qubits:ident| $body:expr) => {
        match &mut $machine.bare {
            Some($qubits) => $body,
            None => {
                let $qubits = $machine.substrate.block_mut($tile);
                $body
            }
        }
    };
}

/// Everything of a run that a report is made from.
#[derive(Debug, PartialEq)]
struct Observed {
    readouts: Vec<(bool, u64)>,
    escalations: Vec<(u64, usize, StabKind, Escalation)>,
    decode: Vec<[DecodeStats; 2]>,
    master: MasterStats,
    bus: BusCounters,
    rng_draws: Vec<u64>,
    rng_next: Vec<u64>,
}

impl Machine {
    fn new(lattice: &RotatedLattice, error_rate: f64, seed: u64, monolithic: bool) -> Machine {
        let width = lattice.num_qubits();
        let mut mces = vec![Mce::new(lattice, MCE_IBUF_BYTES); TILES];
        let mut substrate = Substrate::new(TILES, width);
        if monolithic {
            for tile in 1..TILES {
                substrate.join(&mut mces, 0, tile).unwrap();
            }
            assert_eq!(substrate.num_blocks(), 1);
            assert!(substrate
                .block_mut(0)
                .to_tableau()
                .same_state(&Tableau::new(TILES * width)));
            for (tile, mce) in mces.iter().enumerate() {
                assert_eq!(mce.substrate_index(0), tile * width);
            }
        }
        Machine {
            mces,
            substrate,
            bare: monolithic.then(|| Tableau::new(TILES * width)),
            master: MasterController::new(),
            rngs: (0..TILES as u64)
                .map(|t| CountingRng {
                    inner: StdRng::seed_from_u64(tile::tile_seed(seed, t)),
                    draws: 0,
                })
                .collect(),
            noise: PauliChannel::depolarizing(error_rate),
            escalations: Vec::new(),
            cycle: 0,
        }
    }

    fn prep(&mut self, tile: usize, basis: LogicalBasis) {
        on_qubits!(self, tile, |qubits| tile::prep_logical(
            &mut self.mces[tile],
            basis,
            qubits,
            &mut self.rngs[tile],
        ));
    }

    /// The cycle of `MultiTileSystem::run_noisy_cycle_streams` and the
    /// shard workers: every tile's noise layer, then every tile's QECC
    /// cycle with its escalations recorded before they are serviced.
    fn cycles(&mut self, n: u64) {
        for _ in 0..n {
            for (tile, (mce, rng)) in self.mces.iter().zip(&mut self.rngs).enumerate() {
                on_qubits!(self, tile, |qubits| tile::noise_layer(
                    mce,
                    &self.noise,
                    qubits,
                    rng
                ));
            }
            for (tile, (mce, rng)) in self.mces.iter_mut().zip(&mut self.rngs).enumerate() {
                on_qubits!(self, tile, |qubits| mce.run_qecc_cycle(qubits, rng));
                for kind in [StabKind::Z, StabKind::X] {
                    for e in mce.decoder(kind).pending_escalations() {
                        self.escalations.push((self.cycle, tile, kind, e.clone()));
                    }
                }
                self.master.service_escalations(mce);
            }
            self.cycle += 1;
        }
    }

    /// One slot of `tile`'s microcode.
    fn step(&mut self, tile: usize) {
        on_qubits!(self, tile, |qubits| self.mces[tile]
            .step(qubits, &mut self.rngs[tile]));
    }

    fn cnot(&mut self, control: usize, target: usize) -> Result<(), CnotError> {
        tile::transversal_cnot_physics(&mut self.mces, &mut self.substrate, control, target)?;
        // The helper did the bookkeeping (and gated the idle substrate);
        // the gate itself is a CNOT between corresponding data qubits.
        if let Some(qubits) = &mut self.bare {
            let (c, t) = (&self.mces[control], &self.mces[target]);
            for q in 0..c.lattice().num_data() {
                qubits.cnot(c.substrate_index(q), t.substrate_index(q));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Observed {
        let readouts = (0..TILES)
            .map(|tile| {
                let r = on_qubits!(self, tile, |qubits| self.mces[tile]
                    .measure_logical_z_details(qubits, &mut self.rngs[tile]));
                (r.value, r.final_events)
            })
            .collect();
        Observed {
            readouts,
            escalations: self.escalations,
            decode: self
                .mces
                .iter()
                .map(|m| [m.decode_stats(StabKind::X), m.decode_stats(StabKind::Z)])
                .collect(),
            master: self.master.stats(),
            bus: *self.master.bus(),
            rng_draws: self.rngs.iter().map(|r| r.draws).collect(),
            rng_next: self.rngs.iter_mut().map(|r| r.inner.next_u64()).collect(),
        }
    }
}

/// Runs the program, checking the block count after each step: the
/// stated one on a substrate that started partitioned, one throughout on
/// a substrate that started as a single block.
fn run(lattice: &RotatedLattice, error_rate: f64, seed: u64, monolithic: bool) -> Observed {
    let mut m = Machine::new(lattice, error_rate, seed, monolithic);
    let blocks = |m: &Machine, partitioned: usize| {
        let expected = if monolithic { 1 } else { partitioned };
        assert_eq!(m.substrate.num_blocks(), expected);
    };
    m.prep(0, LogicalBasis::Plus);
    m.prep(1, LogicalBasis::Zero);
    m.prep(2, LogicalBasis::Zero);
    m.prep(3, LogicalBasis::Plus);
    m.cycles(6);
    blocks(&m, 4);

    // Joins two blocks.
    m.cnot(0, 1).unwrap();
    blocks(&m, 3);
    m.cycles(5);

    // Joins a third, appended to a block that is itself a join; the
    // control sits behind the seam.
    m.cnot(1, 2).unwrap();
    blocks(&m, 2);
    assert!(m.substrate.joined(0, 2));
    assert_eq!(m.substrate.joined(0, 3), monolithic);
    m.cycles(5);

    // Already joined, and in the opposite direction.
    m.cnot(0, 1).unwrap();
    m.cnot(2, 0).unwrap();
    blocks(&m, 2);
    m.cycles(4);

    // A freshly prepared tile has no X reference until a cycle has run:
    // the CNOT is rejected, joins nothing and touches nothing.
    m.prep(3, LogicalBasis::Zero);
    let before = (m.substrate.clone(), format!("{:?}", m.mces));
    assert_eq!(
        m.cnot(2, 3),
        Err(CnotError::ReferenceNotSettled { tile: 3 })
    );
    assert_eq!(
        m.cnot(3, TILES),
        Err(CnotError::TileOutOfRange {
            tile: TILES,
            tiles: TILES
        })
    );
    blocks(&m, 2);
    assert!(before == (m.substrate.clone(), format!("{:?}", m.mces)));
    m.cycles(4);

    // The same CNOT goes through once the reference has settled.
    m.cnot(2, 3).unwrap();
    blocks(&m, 1);
    m.cycles(6);
    m.finish()
}

#[test]
fn partitioned_substrate_reports_what_one_tableau_reports() {
    let lattice = RotatedLattice::new(5);
    let mut escalated = 0;
    for seed in [3u64, 20170914] {
        let partitioned = run(&lattice, 2e-2, seed, false);
        let monolithic = run(&lattice, 2e-2, seed, true);
        assert_eq!(partitioned, monolithic, "seed {seed}");
        escalated += partitioned.escalations.len();
        assert!(partitioned.rng_draws.iter().all(|&d| d > 0));
    }
    // The program must exercise the escalation path for the comparison
    // of that stream to mean anything.
    assert!(escalated > 0, "no escalations at d = 5, p = 2e-2");
}

/// Cycles long enough for every tape to lock; then tile 1 is masked two
/// slots into a cycle with a logical word (a logical X) queued behind
/// the mask, idles, is unmasked, and is the control of a CNOT; more
/// cycles. Returns the observation and how many cycles each tile was
/// served from a tape.
fn run_masked(
    lattice: &RotatedLattice,
    error_rate: f64,
    seed: u64,
    monolithic: bool,
) -> (Observed, Vec<u64>) {
    let mut m = Machine::new(lattice, error_rate, seed, monolithic);
    let replayed =
        |m: &Machine| -> Vec<u64> { (0..TILES).map(|t| m.substrate.replayed_cycles(t)).collect() };
    for tile in 0..TILES {
        m.prep(tile, LogicalBasis::Zero);
    }
    m.cycles(8);
    let locked = replayed(&m);
    if !monolithic {
        assert!(locked.iter().all(|&n| n >= 4), "tapes locked: {locked:?}");
    }

    let mut flip = VliwWord::nop(lattice.num_qubits());
    for row in 0..lattice.distance() {
        flip.set(lattice.data_index(row, 0), MicroOp::simple(PhysOpcode::X));
    }
    // The tape is two slots in when the rest of the cycle goes missing.
    m.step(1);
    m.step(1);
    let regions = m.mces[1].mask().num_regions();
    for region in 0..regions {
        m.mces[1].mask_mut().set_region(region, true);
    }
    m.mces[1].queue_logical_word(flip);
    while !m.mces[1].microcode().at_cycle_start() {
        m.step(1);
    }
    m.cycles(2);
    for region in 0..regions {
        m.mces[1].mask_mut().set_region(region, false);
    }
    m.cycles(8);
    let relocked = replayed(&m);
    if !monolithic {
        assert!(relocked[1] > locked[1], "tile 1 locked again: {relocked:?}");
        assert!(relocked[1] < relocked[3], "tile 1 fell back: {relocked:?}");
    }

    m.cnot(1, 2).unwrap();
    m.cycles(6);
    let replayed = replayed(&m);
    (m.finish(), replayed)
}

#[test]
fn masks_and_logical_words_fall_back_to_the_reference_and_agree() {
    let lattice = RotatedLattice::new(5);
    for seed in [5u64, 20170914] {
        let (blocks, replayed) = run_masked(&lattice, 1e-2, seed, false);
        let (bare, idle) = run_masked(&lattice, 1e-2, seed, true);
        assert_eq!(blocks, bare, "seed {seed}");
        // Both paths ran: most of a tile's 24 cycles came from a tape,
        // on the joined tiles too, and none on the machine whose blocks
        // idle.
        assert!(replayed.iter().all(|&n| n >= 12), "{replayed:?}");
        assert_eq!(idle, [0; TILES]);
    }
}

#[test]
fn seams_inside_a_word_agree_too() {
    // d = 3 tiles are 17 qubits wide: all four share one 64-bit word
    // once joined, where d = 5 tiles (49 qubits) straddle three.
    let lattice = RotatedLattice::new(3);
    for seed in 0..6 {
        let observed = run(&lattice, 1e-2, seed, false);
        assert_eq!(observed, run(&lattice, 1e-2, seed, true), "seed {seed}");
    }
}
