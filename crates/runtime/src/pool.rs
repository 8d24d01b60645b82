//! Shared global-decode pool.
//!
//! Escalations from all shards converge at the master, which packages
//! them into per-cycle batches and splits each batch over this pool's
//! *lanes*. A [`Lane`] is a value — an engine built from the spec's
//! [`DecoderChoice`], the distance's [`Decodes`] (its single-round
//! [`BatchGraphs`](quest_surface::decoder::BatchGraphs) and the answers
//! kept so far) and the panic-contained chunk runner — answering its
//! chunk job by job with the same graphs and engine kind the
//! single-threaded master uses, so pooled decoding changes throughput,
//! never corrections. Lane 0 belongs to the caller: the first chunk of
//! every batch is decoded on the thread that assembled it, with no
//! queue, lock or wake-up in the way. Every further lane is a thread
//! pulling chunks from a shared queue, so a pool of one lane (what a
//! typical batch of one or two jobs needs) spawns no thread at all.
//!
//! A lane answers a job the distance has seen before — same engine,
//! kind and event list — from the memo, replaying the kept decode's cost
//! into its chunk's [`CostReport`], and decodes any other into a buffer
//! it keeps, folding the correction into data-qubit words
//! ([`DecodeEngine::decode_words`]) and keeping the answer. Either way a
//! correction is the same words, shared with the memo behind an `Arc`,
//! and no `Correction` or `BTreeSet` is built. Per-chunk costs ride back
//! with the corrections and merge (order-invariantly) into one
//! pool-level cost, which therefore matches the reference executor's bit
//! for bit. Chunks come back with their vectors, and the next batch
//! fills them again.
//!
//! The pool is supervised: a lane that panics mid-chunk (including the
//! fault layer's injected kill, which strikes before any lookup) is
//! caught by `catch_unwind` in the chunk runner and hands the chunk back;
//! the supervisor replaces the lane — a respawned thread, or lane 0
//! rebuilt in place — and the chunk is answered again: no correction is
//! lost, no mutex is poisoned, and the run's output is bit-identical to a
//! run without the death. When the respawn budget is exhausted the batch
//! fails with a typed [`RuntimeError::DecodePoolFailed`] instead of
//! hanging or aborting.

use crate::error::RuntimeError;
use crate::memo::{Answer, Decodes};
use quest_surface::decoder::batch::DecodeJob;
use quest_surface::decoder::{CostReport, DecodeEngine, DecoderChoice};
use quest_surface::StabKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A batch's corrections: `(tile, kind, data-qubit flips as words)` per
/// job.
pub(crate) type Corrections = Vec<(usize, StabKind, Arc<[u64]>)>;

/// One unit of pool work and, once a lane has answered it, its result:
/// a chunk of jobs with tags identifying where each correction must
/// return to.
#[derive(Default)]
struct Chunk {
    /// `(tile, kind)` per job, parallel to `jobs`.
    tags: Vec<(usize, StabKind)>,
    jobs: Vec<DecodeJob>,
    /// Data-qubit flips per job, as words, filled in by the lane.
    flips: Vec<Arc<[u64]>>,
    /// Decode cost of exactly this chunk's jobs.
    cost: CostReport,
    /// Jobs answered from the memo.
    hits: u64,
    /// Fault-injection flag: the lane that picks this chunk up panics
    /// instead of decoding it (exercising the containment and respawn
    /// path end to end).
    die: bool,
}

/// What a lane reports of one chunk.
enum WorkerMessage {
    /// A chunk answered successfully.
    Done(Chunk),
    /// The lane died (panicked) holding this chunk; the supervisor must
    /// have it answered again and replace the lane.
    Died { chunk: Chunk },
}

/// One decode lane: engine, memo and the chunk runner. The same value
/// serves the pool's caller (lane 0) and each pool thread.
struct Lane {
    choice: DecoderChoice,
    engine: DecodeEngine,
    decodes: Arc<Decodes>,
    /// Where a decode folds its flips before they are kept.
    words: Vec<u64>,
}

impl Lane {
    fn new(decodes: &Arc<Decodes>, choice: DecoderChoice) -> Lane {
        Lane {
            choice,
            engine: choice.backend(),
            decodes: Arc::clone(decodes),
            words: vec![0; decodes.words()],
        }
    }

    /// Answers one chunk under panic containment. A lane that reports
    /// [`WorkerMessage::Died`] must not be used again.
    fn run(&mut self, mut chunk: Chunk) -> WorkerMessage {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if chunk.die {
                // quest-lint: allow(QL01) -- deliberate fault injection: exercises the supervisor's requeue-and-respawn path
                panic!("injected decode-worker death");
            }
            // The result carries exactly these jobs' cost (a dead
            // chunk's partial answers are discarded with the lane, so
            // the repeated chunk is counted exactly once).
            chunk.flips.clear();
            chunk.cost = CostReport::default();
            chunk.hits = 0;
            for job in &chunk.jobs {
                let (answer, hit) = self.answer(job);
                chunk.cost.merge(&answer.cost);
                chunk.hits += u64::from(hit);
                chunk.flips.push(answer.flips);
            }
        }));
        match outcome {
            Ok(()) => WorkerMessage::Done(chunk),
            Err(_) => {
                // Dying breath: hand the chunk back so the supervisor
                // can have it answered elsewhere.
                chunk.die = false;
                WorkerMessage::Died { chunk }
            }
        }
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
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Decode lanes in the pool. Lane 0 is the thread that submits the
    /// batches (it decodes each batch's first chunk itself); every
    /// further lane is a thread, so one lane means no thread.
    pub workers: usize,
    /// Batches submitted (one per cycle with at least one escalation).
    pub batches: u64,
    /// Total decode jobs across all batches.
    pub jobs: u64,
    /// Largest single batch.
    pub max_batch_jobs: u64,
    /// Jobs answered from the [`Runtime`](crate::Runtime)'s memo of the
    /// distance's global decodes, without decoding.
    pub memo_hits: u64,
    /// Lanes that died mid-chunk.
    pub deaths: u64,
    /// Replacement lanes the supervisor brought up (a respawned thread,
    /// or lane 0 rebuilt in place).
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

/// Handle to the pool, owned by the master thread. The lifetimes tie the
/// pool to the thread scope its threads run in, letting the supervisor
/// respawn replacements into the same scope mid-run.
pub(crate) struct DecodePool<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    decodes: Arc<Decodes>,
    choice: DecoderChoice,
    /// The caller's own lane, built by the first batch and again after a
    /// kill.
    lane0: Option<Lane>,
    /// Chunks back from their lanes, emptied, for the next batch to fill.
    spare: Vec<Chunk>,
    chunk_tx: Sender<Chunk>,
    chunk_rx: Arc<Mutex<Receiver<Chunk>>>,
    result_tx: Sender<WorkerMessage>,
    result_rx: Receiver<WorkerMessage>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
    stats: PoolStats,
    cost: CostReport,
}

impl<'scope, 'env> DecodePool<'scope, 'env> {
    /// A pool of `workers` lanes: lane 0 for the caller and
    /// `workers - 1` decode threads inside `scope`, each owning one
    /// engine built from `choice` and sharing the distance's `decodes`.
    pub(crate) fn spawn(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        decodes: Arc<Decodes>,
        choice: DecoderChoice,
        workers: usize,
    ) -> DecodePool<'scope, 'env> {
        assert!(workers > 0, "decode pool needs at least one worker");
        let (chunk_tx, chunk_rx) = channel::<Chunk>();
        let (result_tx, result_rx) = channel::<WorkerMessage>();
        let mut pool = DecodePool {
            scope,
            decodes,
            choice,
            lane0: None,
            spare: Vec::new(),
            chunk_tx,
            chunk_rx: Arc::new(Mutex::new(chunk_rx)),
            result_tx,
            result_rx,
            handles: Vec::with_capacity(workers - 1),
            stats: PoolStats {
                workers,
                ..PoolStats::default()
            },
            cost: CostReport::default(),
        };
        for _ in 1..workers {
            pool.spawn_worker();
        }
        pool
    }

    /// Spawns one worker thread pulling from the shared chunk queue.
    fn spawn_worker(&mut self) {
        let chunk_rx = Arc::clone(&self.chunk_rx);
        let result_tx = self.result_tx.clone();
        let mut lane = Lane::new(&self.decodes, self.choice);
        self.handles.push(self.scope.spawn(move || {
            loop {
                // Holding the lock only for the recv keeps workers
                // pulling chunks as they free up. A poisoned lock (a
                // sibling died between lock and unlock) is recovered,
                // not propagated: the queue itself is always valid.
                let next = {
                    let rx = chunk_rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    rx.recv()
                };
                let Ok(chunk) = next else {
                    return; // pool shut down: queue closed
                };
                let message = lane.run(chunk);
                // A dead lane exits without unwinding (the scope must
                // never see a panic); so does one nobody listens to.
                let died = matches!(message, WorkerMessage::Died { .. });
                if result_tx.send(message).is_err() || died {
                    return;
                }
            }
        }));
    }

    /// Answers one batch, blocking until every job is resolved: drains
    /// `batch` and appends `(tile, kind, data_flips)` per job to `out`,
    /// in arbitrary order (the caller orders them before anything
    /// order-sensitive).
    ///
    /// The batch is split into one chunk per lane; the first is answered
    /// right here on lane 0 while the threads work through the rest.
    ///
    /// With `kill_one` set, the lane picking up the batch's last chunk
    /// dies instead of answering it — a pool thread when the batch has a
    /// chunk for one, lane 0 otherwise. The supervisor replaces the lane
    /// and the chunk is answered again, so the corrections are still
    /// exact.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DecodePoolFailed`] when the queue is closed or
    /// the respawn budget (one per original lane) is exhausted.
    pub(crate) fn decode(
        &mut self,
        batch: &mut Vec<(usize, StabKind, DecodeJob)>,
        kill_one: bool,
        out: &mut Corrections,
    ) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.stats.batches += 1;
        self.stats.jobs += batch.len() as u64;
        self.stats.max_batch_jobs = self.stats.max_batch_jobs.max(batch.len() as u64);

        let chunk_size = batch.len().div_ceil(self.stats.workers);
        // Lane 0's chunk, and how many chunks the threads still owe.
        let mut mine: Option<Chunk> = None;
        let mut queued = 0usize;
        let mut iter = batch.drain(..).peekable();
        while iter.peek().is_some() {
            let mut chunk = self.spare.pop().unwrap_or_default();
            for (tile, kind, job) in iter.by_ref().take(chunk_size) {
                chunk.tags.push((tile, kind));
                chunk.jobs.push(job);
            }
            chunk.die = kill_one && iter.peek().is_none();
            if mine.is_none() {
                mine = Some(chunk);
            } else {
                self.submit(chunk)?;
                queued += 1;
            }
        }

        loop {
            let (message, on_lane0) = if let Some(chunk) = mine.take() {
                let lane = self
                    .lane0
                    .get_or_insert_with(|| Lane::new(&self.decodes, self.choice));
                (lane.run(chunk), true)
            } else if queued > 0 {
                let message =
                    self.result_rx
                        .recv()
                        .map_err(|_| RuntimeError::DecodePoolFailed {
                            detail: "all decode workers disconnected mid-batch".into(),
                        })?;
                (message, false)
            } else {
                return Ok(());
            };
            match message {
                WorkerMessage::Done(mut chunk) => {
                    self.cost.merge(&chunk.cost);
                    self.stats.memo_hits += chunk.hits;
                    out.extend(
                        chunk
                            .tags
                            .drain(..)
                            .zip(chunk.flips.drain(..))
                            .map(|((tile, kind), flips)| (tile, kind, flips)),
                    );
                    chunk.jobs.clear();
                    self.spare.push(chunk);
                    queued -= usize::from(!on_lane0);
                }
                WorkerMessage::Died { chunk } => {
                    self.stats.deaths += 1;
                    if self.stats.respawns >= self.stats.workers as u64 {
                        return Err(RuntimeError::DecodePoolFailed {
                            detail: format!(
                                "respawn budget exhausted after {} worker deaths",
                                self.stats.deaths
                            ),
                        });
                    }
                    self.stats.respawns += 1;
                    if on_lane0 {
                        // The engine died mid-decode: the next turn of
                        // the loop builds a fresh lane for the chunk.
                        self.lane0 = None;
                        mine = Some(chunk);
                    } else {
                        self.spawn_worker();
                        self.submit(chunk)?;
                    }
                }
            }
        }
    }

    fn submit(&self, chunk: Chunk) -> Result<(), RuntimeError> {
        self.chunk_tx
            .send(chunk)
            .map_err(|_| RuntimeError::DecodePoolFailed {
                detail: "job queue closed: no decode workers left".into(),
            })
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Decode cost merged across every completed chunk. Per-decode
    /// cycles are pure functions of `(graph, events)` — whether decoded
    /// or replayed from the memo — and the merge is order-invariant, so
    /// this matches the single-threaded reference for any worker count.
    pub(crate) fn cost(&self) -> CostReport {
        self.cost
    }

    /// Orderly teardown: closes the job queue first (so idle workers
    /// exit their `recv`), then joins every worker handle — consuming
    /// any panic result so the enclosing thread scope never re-panics.
    /// Safe with jobs still queued: workers drain the closed queue and
    /// exit when it empties.
    pub(crate) fn shutdown(self) -> PoolStats {
        let DecodePool {
            chunk_tx,
            handles,
            stats,
            ..
        } = self;
        drop(chunk_tx);
        for handle in handles {
            let _ = handle.join();
        }
        stats
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

    fn demo_batch() -> Vec<(usize, StabKind, DecodeJob)> {
        [
            (0, StabKind::Z, vec![0, 1]),
            (1, StabKind::X, vec![2]),
            (2, StabKind::Z, vec![4]),
            (3, StabKind::Z, vec![]),
            (4, StabKind::X, vec![1, 3]),
        ]
        .into_iter()
        .map(|(tile, kind, events)| (tile, kind, DecodeJob { kind, events }))
        .collect()
    }

    /// Decodes one batch, returning its corrections.
    fn decode(
        pool: &mut DecodePool,
        mut batch: Vec<(usize, StabKind, DecodeJob)>,
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
        for ((tile, kind, job), (gt, gk, flips)) in demo_batch().into_iter().zip(got) {
            assert_eq!((tile, kind), (gt, gk));
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
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, decodes(5), DecoderChoice::default(), 3);
            let got = decode(&mut pool, demo_batch(), false).unwrap();
            assert_exact(&lattice, got);
            let stats = pool.stats();
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.jobs, 5);
            assert_eq!(stats.max_batch_jobs, 5);
            assert_eq!(stats.deaths, 0);
            pool.shutdown();
        });
    }

    #[test]
    fn empty_batch_is_free() {
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, decodes(3), DecoderChoice::default(), 2);
            assert!(decode(&mut pool, Vec::new(), false).unwrap().is_empty());
            assert_eq!(pool.stats().batches, 0);
            pool.shutdown();
        });
    }

    #[test]
    fn killed_worker_is_respawned_and_loses_no_corrections() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, decodes(5), DecoderChoice::default(), 2);
            assert_eq!(pool.handles.len(), 1, "two lanes are one thread");
            // The kill rides the batch's last chunk, which went to the
            // thread: the replacement is spawned into the scope.
            let got = decode(&mut pool, demo_batch(), true).unwrap();
            assert_exact(&lattice, got);
            assert_eq!(pool.handles.len(), 2, "no replacement thread was spawned");
            let stats = pool.stats();
            assert_eq!(stats.deaths, 1);
            assert_eq!(stats.respawns, 1);
            // The respawned pool keeps decoding exactly.
            let again = decode(&mut pool, demo_batch(), false).unwrap();
            assert_exact(&lattice, again);
            let stats = pool.shutdown();
            assert_eq!(stats.batches, 2);
        });
    }

    #[test]
    fn one_lane_spawns_no_thread_and_survives_a_kill() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, decodes(5), DecoderChoice::default(), 1);
            let got = decode(&mut pool, demo_batch(), false).unwrap();
            assert_exact(&lattice, got);
            // The only chunk is lane 0's, so the kill hits lane 0, which
            // is rebuilt in place.
            let got = decode(&mut pool, demo_batch(), true).unwrap();
            assert_exact(&lattice, got);
            assert!(pool.handles.is_empty(), "one lane is the caller's thread");
            let stats = pool.stats();
            assert_eq!((stats.deaths, stats.respawns), (1, 1));
            let again = decode(&mut pool, demo_batch(), false).unwrap();
            assert_exact(&lattice, again);
            assert_eq!(pool.shutdown().batches, 3);
        });
    }

    #[test]
    fn pool_cost_matches_sequential_for_every_backend() {
        // The decode pool's merged CostReport must equal a sequential
        // decode of the same jobs on one backend — for every selectable
        // backend, and even when a worker death forces a requeue.
        let lattice = RotatedLattice::new(5);
        for choice in DecoderChoice::ALL {
            let graphs = BatchGraphs::new(&lattice);
            let mut reference = choice.backend();
            let jobs: Vec<DecodeJob> = demo_batch().into_iter().map(|(_, _, j)| j).collect();
            for job in &jobs {
                reference.decode(graphs.graph(job.kind), &job.events);
            }
            for kill_one in [false, true] {
                std::thread::scope(|scope| {
                    let mut pool = DecodePool::spawn(scope, decodes(5), choice, 3);
                    let got = decode(&mut pool, demo_batch(), kill_one).unwrap();
                    assert_eq!(got.len(), jobs.len());
                    assert_eq!(
                        pool.cost(),
                        reference.cost(),
                        "{choice} kill={kill_one}: pool cost diverged"
                    );
                    pool.shutdown();
                });
            }
        }
    }

    #[test]
    fn a_repeated_batch_is_answered_from_the_memo() {
        let lattice = RotatedLattice::new(5);
        for choice in DecoderChoice::ALL {
            std::thread::scope(|scope| {
                let mut pool = DecodePool::spawn(scope, decodes(5), choice, 1);
                let first = decode(&mut pool, demo_batch(), false).unwrap();
                let cost = pool.cost();
                assert_eq!(pool.stats().memo_hits, 0, "{choice}: five new event sets");
                let engine = pool.lane0.as_ref().map(|lane| lane.engine.cost());

                let second = decode(&mut pool, demo_batch(), false).unwrap();
                assert_eq!(pool.stats().memo_hits, 5, "{choice}");
                // The engine was not called: its ledger is as the first
                // pass left it, and the pool's grew by the same cost.
                assert_eq!(pool.lane0.as_ref().map(|lane| lane.engine.cost()), engine);
                let mut twice = cost;
                twice.merge(&cost);
                assert_eq!(pool.cost(), twice, "{choice}");
                assert_eq!(format!("{first:?}"), format!("{second:?}"), "{choice}");
                if choice == DecoderChoice::UnionFind {
                    assert_exact(&lattice, second);
                }
                pool.shutdown();
            });
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
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, Arc::clone(&full), DecoderChoice::UnionFind, 1);
            for _ in 0..2 {
                let got = decode(&mut pool, demo_batch(), false).unwrap();
                assert_exact(&lattice, got);
            }
            assert_eq!(pool.stats().memo_hits, 0, "an answer was kept past the cap");
            assert_eq!(full.len(), DECODES_PER_DISTANCE);
            pool.shutdown();
        });
    }

    #[test]
    fn respawn_budget_exhaustion_is_a_typed_error() {
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, decodes(5), DecoderChoice::default(), 1);
            // One worker, one respawn in the budget: the second kill
            // must fail the batch instead of hanging.
            assert!(decode(&mut pool, demo_batch(), true).is_ok());
            let err = decode(&mut pool, demo_batch(), true).unwrap_err();
            assert!(matches!(err, RuntimeError::DecodePoolFailed { .. }));
            assert!(err.to_string().contains("respawn budget"));
            pool.shutdown();
        });
    }

    #[test]
    fn dropping_a_loaded_pool_neither_hangs_nor_aborts() {
        std::thread::scope(|scope| {
            let pool = DecodePool::spawn(scope, decodes(5), DecoderChoice::default(), 2);
            // Queue work the pool will never be asked to collect, then
            // tear down while it is still in flight.
            for _ in 0..16 {
                let mut chunk = Chunk::default();
                for (tile, kind, job) in demo_batch() {
                    chunk.tags.push((tile, kind));
                    chunk.jobs.push(job);
                }
                pool.submit(chunk).unwrap();
            }
            pool.shutdown();
        });
    }
}
