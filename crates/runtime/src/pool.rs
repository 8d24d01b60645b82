//! Global decoding: the master's one decode lane.
//!
//! Escalations from all shards converge at the master, which packages
//! them into per-cycle batches and answers each batch here, on its own
//! thread, job by job with the distance's single-round graphs and one
//! engine built from the spec's [`DecoderChoice`] — the graphs and
//! engine kind the single-threaded reference uses, so the corrections
//! and costs are the reference's. Escalations are rare (about one job a
//! cycle, most answered by the memo), so one lane keeps up with every
//! shard and no queue, lock or wake-up stands between the master and
//! its corrections.
//!
//! The lane answers a job the distance has seen before — same engine,
//! kind and event list — from the memo ([`Decodes`]), replaying the kept
//! decode's cost into the run's [`CostReport`], and decodes any other
//! into a buffer it keeps, folding the correction into data-qubit words
//! ([`DecodeEngine::decode_words`]) and keeping the answer. Either way a
//! correction is the same words, shared with the memo behind an `Arc`,
//! and no `Correction` or `BTreeSet` is built.
//!
//! The lane is supervised: a panic mid-batch (including the fault
//! layer's injected kill, which strikes before any lookup) is caught by
//! `catch_unwind`, the batch's partial answers are discarded, the engine
//! is rebuilt in place and the batch is answered again: no correction
//! is lost and the run's output is bit-identical to a run without the
//! death. Past the rebuild budget (one per run) the batch fails with a
//! typed [`RuntimeError::DecodePoolFailed`] instead of aborting.

use crate::error::RuntimeError;
use crate::memo::{Answer, Decodes};
use quest_surface::decoder::batch::DecodeJob;
use quest_surface::decoder::{CostReport, DecodeEngine, DecoderChoice};
use quest_surface::StabKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A batch's corrections: `(tile, kind, data-qubit flips as words)` per
/// job.
pub(crate) type Corrections = Vec<(usize, StabKind, Arc<[u64]>)>;

/// Engine rebuilds a run may spend on lane deaths before it fails.
const REBUILD_BUDGET: u64 = 1;

/// Aggregate decode statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches decoded (one per cycle with at least one escalation).
    pub batches: u64,
    /// Total decode jobs across all batches.
    pub jobs: u64,
    /// Largest single batch.
    pub max_batch_jobs: u64,
    /// Jobs answered from the [`Runtime`](crate::Runtime)'s memo of the
    /// distance's global decodes, without decoding.
    pub memo_hits: u64,
    /// Times the lane died mid-batch.
    pub deaths: u64,
    /// Times the supervisor rebuilt the lane in place.
    pub respawns: u64,
}

impl PoolStats {
    /// Mean jobs per batch.
    pub fn mean_batch_jobs(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.jobs as f64 / self.batches as f64
        }
    }
}

/// The master's decode lane — engine, memo and word buffer — with its
/// supervision counters and the run's decode-cost ledger.
pub(crate) struct DecodePool {
    choice: DecoderChoice,
    engine: DecodeEngine,
    decodes: Arc<Decodes>,
    /// Where a decode folds its flips before they are kept.
    words: Vec<u64>,
    stats: PoolStats,
    cost: CostReport,
}

impl DecodePool {
    /// A lane for `choice` over the distance's `decodes`.
    pub(crate) fn new(decodes: Arc<Decodes>, choice: DecoderChoice) -> DecodePool {
        DecodePool {
            choice,
            engine: choice.backend(),
            words: vec![0; decodes.words()],
            decodes,
            stats: PoolStats::default(),
            cost: CostReport::default(),
        }
    }

    /// Answers one batch: appends `(tile, kind, data_flips)` per job to
    /// `out`, in batch order, and empties `batch`.
    ///
    /// With `kill` set the lane dies before its first lookup; the
    /// supervisor rebuilds it and the batch is answered again, so the
    /// corrections are still exact.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DecodePoolFailed`] when the lane dies past the
    /// rebuild budget.
    pub(crate) fn decode(
        &mut self,
        batch: &mut Vec<(usize, DecodeJob)>,
        kill: bool,
        out: &mut Corrections,
    ) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.stats.batches += 1;
        self.stats.jobs += batch.len() as u64;
        self.stats.max_batch_jobs = self.stats.max_batch_jobs.max(batch.len() as u64);
        let answered = out.len();
        let mut die = kill;
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.answer_batch(batch, die, out))) {
                Ok((cost, hits)) => {
                    self.cost.merge(&cost);
                    self.stats.memo_hits += hits;
                    batch.clear();
                    return Ok(());
                }
                Err(_) => {
                    // A dead attempt's answers go with its engine, so
                    // the batch is counted exactly once.
                    out.truncate(answered);
                    self.stats.deaths += 1;
                    if self.stats.respawns >= REBUILD_BUDGET {
                        return Err(RuntimeError::DecodePoolFailed {
                            detail: format!(
                                "respawn budget exhausted after {} worker deaths",
                                self.stats.deaths
                            ),
                        });
                    }
                    self.stats.respawns += 1;
                    self.engine = self.choice.backend();
                    die = false;
                }
            }
        }
    }

    /// Every job's answer, in order, with the batch's cost and memo hits.
    fn answer_batch(
        &mut self,
        batch: &[(usize, DecodeJob)],
        die: bool,
        out: &mut Corrections,
    ) -> (CostReport, u64) {
        if die {
            // quest-lint: allow(QL01) -- deliberate fault injection: exercises the supervisor's rebuild-and-retry path
            panic!("injected decode-worker death");
        }
        let mut cost = CostReport::default();
        let mut hits = 0;
        for (tile, job) in batch {
            let (answer, hit) = self.answer(job);
            cost.merge(&answer.cost);
            hits += u64::from(hit);
            out.push((*tile, job.kind, answer.flips));
        }
        (cost, hits)
    }

    /// One job's answer, and whether the memo had it. A miss is decoded
    /// with the cost scoped to it, and kept.
    fn answer(&mut self, job: &DecodeJob) -> (Answer, bool) {
        if let Some(answer) = self.decodes.answer(self.choice, job.kind, &job.events) {
            return (answer, true);
        }
        self.words.fill(0);
        self.engine.reset_cost();
        self.engine.decode_words(
            self.decodes.graphs().graph(job.kind),
            &job.events,
            &mut self.words,
        );
        let answer = Answer {
            flips: self.words.as_slice().into(),
            cost: self.engine.cost(),
        };
        self.decodes
            .keep(self.choice, job.kind, &job.events, &answer);
        (answer, false)
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Decode cost merged across every answered batch. Per-decode cycles
    /// are pure functions of `(graph, events)` — whether decoded or
    /// replayed from the memo — and the merge is order-invariant, so
    /// this matches the single-threaded reference bit for bit.
    pub(crate) fn cost(&self) -> CostReport {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::DECODES_PER_DISTANCE;
    use quest_surface::decoder::batch::BatchGraphs;
    use quest_surface::decoder::Decoder;
    use quest_surface::{DecodingGraph, RotatedLattice, UnionFindDecoder};
    use std::collections::BTreeSet;

    fn decodes(d: usize) -> Arc<Decodes> {
        Arc::new(Decodes::new(&RotatedLattice::new(d)))
    }

    fn demo_batch() -> Vec<(usize, DecodeJob)> {
        [
            (0, StabKind::Z, vec![0, 1]),
            (1, StabKind::X, vec![2]),
            (2, StabKind::Z, vec![4]),
            (3, StabKind::Z, vec![]),
            (4, StabKind::X, vec![1, 3]),
        ]
        .into_iter()
        .map(|(tile, kind, events)| (tile, DecodeJob { kind, events }))
        .collect()
    }

    /// Decodes one batch, returning its corrections.
    fn decode(
        pool: &mut DecodePool,
        mut batch: Vec<(usize, DecodeJob)>,
        kill_one: bool,
    ) -> Result<Corrections, RuntimeError> {
        let mut out = Vec::new();
        pool.decode(&mut batch, kill_one, &mut out)?;
        assert!(batch.is_empty(), "the batch is drained");
        Ok(out)
    }

    fn assert_exact(lattice: &RotatedLattice, got: Corrections) {
        let mut got = got;
        got.sort_by_key(|&(tile, _, _)| tile);
        let uf = UnionFindDecoder::new();
        for ((tile, job), (gt, gk, flips)) in demo_batch().into_iter().zip(got) {
            assert_eq!((tile, job.kind), (gt, gk));
            let graph = DecodingGraph::new(lattice, job.kind, 1);
            let flips: BTreeSet<usize> = (0..flips.len() * 64)
                .filter(|&q| flips[q / 64] >> (q % 64) & 1 == 1)
                .collect();
            assert_eq!(flips, uf.decode(&graph, &job.events).data_flips);
        }
    }

    #[test]
    fn pool_matches_direct_decoding() {
        let lattice = RotatedLattice::new(5);
        let mut pool = DecodePool::new(decodes(5), DecoderChoice::default());
        let got = decode(&mut pool, demo_batch(), false).unwrap();
        assert_exact(&lattice, got);
        let stats = pool.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.jobs, 5);
        assert_eq!(stats.max_batch_jobs, 5);
        assert_eq!(stats.deaths, 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut pool = DecodePool::new(decodes(3), DecoderChoice::default());
        assert!(decode(&mut pool, Vec::new(), false).unwrap().is_empty());
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn one_lane_spawns_no_thread_and_survives_a_kill() {
        let lattice = RotatedLattice::new(5);
        let mut pool = DecodePool::new(decodes(5), DecoderChoice::default());
        let got = decode(&mut pool, demo_batch(), false).unwrap();
        assert_exact(&lattice, got);
        // The kill strikes the lane, which is rebuilt in place.
        let got = decode(&mut pool, demo_batch(), true).unwrap();
        assert_exact(&lattice, got);
        let stats = pool.stats();
        assert_eq!((stats.deaths, stats.respawns), (1, 1));
        let again = decode(&mut pool, demo_batch(), false).unwrap();
        assert_exact(&lattice, again);
        assert_eq!(pool.stats().batches, 3);
    }

    #[test]
    fn pool_cost_matches_sequential_for_every_backend() {
        // The pool's merged CostReport must equal a sequential decode of
        // the same jobs on one backend — for every selectable backend,
        // and even when a lane death forces the batch to be answered
        // again.
        let lattice = RotatedLattice::new(5);
        for choice in DecoderChoice::ALL {
            let graphs = BatchGraphs::new(&lattice);
            let mut reference = choice.backend();
            let jobs: Vec<DecodeJob> = demo_batch().into_iter().map(|(_, j)| j).collect();
            for job in &jobs {
                reference.decode(graphs.graph(job.kind), &job.events);
            }
            for kill_one in [false, true] {
                let mut pool = DecodePool::new(decodes(5), choice);
                let got = decode(&mut pool, demo_batch(), kill_one).unwrap();
                assert_eq!(got.len(), jobs.len());
                assert_eq!(
                    pool.cost(),
                    reference.cost(),
                    "{choice} kill={kill_one}: pool cost diverged"
                );
            }
        }
    }

    #[test]
    fn a_repeated_batch_is_answered_from_the_memo() {
        let lattice = RotatedLattice::new(5);
        for choice in DecoderChoice::ALL {
            let mut pool = DecodePool::new(decodes(5), choice);
            let first = decode(&mut pool, demo_batch(), false).unwrap();
            let cost = pool.cost();
            assert_eq!(pool.stats().memo_hits, 0, "{choice}: five new event sets");
            let engine = pool.engine.cost();

            let second = decode(&mut pool, demo_batch(), false).unwrap();
            assert_eq!(pool.stats().memo_hits, 5, "{choice}");
            // The engine was not called: its ledger is as the first pass
            // left it, and the pool's grew by the same cost.
            assert_eq!(pool.engine.cost(), engine);
            let mut twice = cost;
            twice.merge(&cost);
            assert_eq!(pool.cost(), twice, "{choice}");
            assert_eq!(format!("{first:?}"), format!("{second:?}"), "{choice}");
            if choice == DecoderChoice::UnionFind {
                assert_exact(&lattice, second);
            }
        }
    }

    #[test]
    fn past_the_cap_nothing_is_kept_and_a_miss_still_decodes_exactly() {
        let lattice = RotatedLattice::new(5);
        let full = decodes(5);
        let filler = Answer {
            flips: Arc::from([u64::MAX]),
            cost: CostReport::default(),
        };
        for i in 0..DECODES_PER_DISTANCE {
            full.keep(DecoderChoice::UnionFind, StabKind::X, &[1000 + i], &filler);
        }
        assert_eq!(full.len(), DECODES_PER_DISTANCE);
        let mut pool = DecodePool::new(Arc::clone(&full), DecoderChoice::UnionFind);
        for _ in 0..2 {
            let got = decode(&mut pool, demo_batch(), false).unwrap();
            assert_exact(&lattice, got);
        }
        assert_eq!(pool.stats().memo_hits, 0, "an answer was kept past the cap");
        assert_eq!(full.len(), DECODES_PER_DISTANCE);
    }

    #[test]
    fn respawn_budget_exhaustion_is_a_typed_error() {
        let mut pool = DecodePool::new(decodes(5), DecoderChoice::default());
        // One rebuild in the budget: the second kill must fail the batch
        // instead of aborting.
        assert!(decode(&mut pool, demo_batch(), true).is_ok());
        let err = decode(&mut pool, demo_batch(), true).unwrap_err();
        assert!(matches!(err, RuntimeError::DecodePoolFailed { .. }));
        assert!(err.to_string().contains("respawn budget"));
    }
}
