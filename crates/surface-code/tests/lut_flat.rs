//! The flat local lookup table against the pattern-map decoder it
//! replaced (`tests/reference_lut`, verbatim): on every event set both
//! must hit or both escalate, and a hit must list the same edges and flip
//! the same data qubits — through `try_decode` and through the packed
//! entry the MCE uses.
//!
//! Every event subset of a single round at d = 3 (4 checks per kind) and
//! d = 5 (12), both kinds; at d = 7 to 13 (84 checks per kind at d = 13,
//! so the event words run to two) random subsets, half of them a few
//! single faults XOR-ed together so that hits are common; and a
//! three-round graph at d = 5, whose measurement-fault patterns flip
//! nothing.

mod reference_lut;

use quest_surface::{DecodingGraph, LutDecoder, NodeId, RotatedLattice, StabKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference_lut::ReferenceLut;

const RANDOM_CASES: usize = 10_000;

/// Hits and misses seen over a run of cases.
#[derive(Debug, Default)]
struct Tally {
    hits: usize,
    misses: usize,
}

struct Pair {
    graph: DecodingGraph,
    flat: LutDecoder,
    reference: ReferenceLut,
    /// Words of data-qubit flips.
    flip_words: usize,
}

impl Pair {
    fn new(d: usize, kind: StabKind, rounds: usize) -> Pair {
        let lattice = RotatedLattice::new(d);
        let graph = DecodingGraph::new(&lattice, kind, rounds);
        Pair {
            flat: LutDecoder::new(&graph),
            reference: ReferenceLut::new(&graph),
            graph,
            flip_words: lattice.num_data().div_ceil(64),
        }
    }

    /// Decodes `events` (ascending, distinct) both ways and requires the
    /// same answer.
    fn check(&self, events: &[NodeId], tally: &mut Tally, at: &str) {
        let expected = self.reference.try_correction(&self.graph, events);
        let decoded = self.flat.try_correction(&self.graph, events);
        assert_eq!(decoded, expected, "{at}: events {events:?}");
        let mut words = vec![0; self.flat.event_words()];
        for &n in events {
            words[n / 64] |= 1 << (n % 64);
        }
        // Dirty flip words: the packed entry XORs into what is there.
        let mut flips: Vec<u64> = (0..self.flip_words)
            .map(|w| 0x9E37_79B9_7F4A_7C15_u64.rotate_left(w as u32))
            .collect();
        let before = flips.clone();
        let hit = self.flat.try_packed(&mut words, &mut flips);
        assert_eq!(hit, expected.is_some(), "{at}: packed, events {events:?}");
        let Some(expected) = expected else {
            tally.misses += 1;
            return;
        };
        tally.hits += 1;
        assert!(words.iter().all(|&w| w == 0), "{at}: a hit left events");
        let flipped: Vec<usize> = (0..self.flip_words * 64)
            .filter(|&q| (flips[q / 64] ^ before[q / 64]) >> (q % 64) & 1 == 1)
            .collect();
        assert_eq!(
            flipped,
            expected.data_flips.into_iter().collect::<Vec<_>>(),
            "{at}: packed flips, events {events:?}"
        );
    }
}

#[test]
fn every_single_round_subset_at_d3_and_d5() {
    for d in [3, 5] {
        for kind in [StabKind::X, StabKind::Z] {
            let pair = Pair::new(d, kind, 1);
            let nodes = pair.graph.boundary();
            let mut tally = Tally::default();
            for subset in 0u32..1 << nodes {
                let events: Vec<NodeId> = (0..nodes).filter(|&n| subset >> n & 1 == 1).collect();
                pair.check(&events, &mut tally, &format!("d = {d}, {kind:?}"));
            }
            assert_eq!(tally.hits + tally.misses, 1 << nodes);
            // Every d = 3 check has a boundary edge: nothing escalates.
            assert_eq!(tally.misses > 0, d > 3, "d = {d}: {tally:?}");
        }
    }
}

/// Random event sets: Bernoulli subsets of varying density, or the
/// symmetric difference of one to four single-fault patterns.
fn random_cases(pair: &Pair, seed: u64, at: &str) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = pair.graph.boundary();
    let edges = pair.graph.edges();
    let mut tally = Tally::default();
    let mut marked = vec![false; nodes];
    for case in 0..RANDOM_CASES {
        marked.fill(false);
        if case % 2 == 0 {
            let density = rng.gen_range(0.0..0.15);
            for m in &mut marked {
                *m = rng.gen_bool(density);
            }
        } else {
            for _ in 0..rng.gen_range(1..=4) {
                let e = edges[rng.gen_range(0..edges.len())];
                for n in [e.a, e.b].into_iter().filter(|&n| n < nodes) {
                    marked[n] = !marked[n];
                }
            }
        }
        let events: Vec<NodeId> = (0..nodes).filter(|&n| marked[n]).collect();
        pair.check(&events, &mut tally, at);
    }
    tally
}

#[test]
fn random_subsets_at_d7_to_d13() {
    for d in [7, 9, 11, 13] {
        for kind in [StabKind::X, StabKind::Z] {
            let pair = Pair::new(d, kind, 1);
            let at = format!("d = {d}, {kind:?}");
            let tally = random_cases(&pair, 0x1u64 << d ^ kind as u64, &at);
            assert!(tally.hits > 1000 && tally.misses > 1000, "{at}: {tally:?}");
        }
    }
    assert_eq!(Pair::new(13, StabKind::Z, 1).flat.event_words(), 2);
}

#[test]
fn random_subsets_over_three_rounds() {
    for kind in [StabKind::X, StabKind::Z] {
        let pair = Pair::new(5, kind, 3);
        let at = format!("d = 5, three rounds, {kind:?}");
        let tally = random_cases(&pair, 0x3_5EED ^ kind as u64, &at);
        assert!(tally.hits > 1000 && tally.misses > 1000, "{at}: {tally:?}");
    }
}

#[test]
fn the_tables_have_the_same_entries() {
    for d in [3, 5, 7, 13] {
        for kind in [StabKind::X, StabKind::Z] {
            let pair = Pair::new(d, kind, 2);
            assert_eq!(pair.flat.num_entries(), pair.reference.num_entries());
        }
    }
}
