//! Shared global-decode pool.
//!
//! Escalations from all shards converge at the master, which packages
//! them into per-cycle batches and splits each batch over this pool's
//! *lanes*. A [`Lane`] is a value — prebuilt single-round
//! [`BatchGraphs`], an engine built from the spec's [`DecoderChoice`],
//! and the panic-contained chunk runner — decoding its chunk job by job
//! with the same graphs and engine kind the single-threaded master uses,
//! so pooled decoding changes throughput, never corrections. Lane 0
//! belongs to the caller: the first chunk of every batch is decoded on
//! the thread that assembled it, with no queue, lock or wake-up in the
//! way. Every further lane is a thread pulling chunks from a shared
//! queue, so a pool of one lane (what a typical batch of one or two jobs
//! needs) spawns no thread at all. Per-chunk [`CostReport`]s ride back
//! with the corrections and merge (order-invariantly) into one
//! pool-level cost, which therefore matches the reference executor's bit
//! for bit.
//!
//! The pool is supervised: a lane that panics mid-chunk (including the
//! fault layer's injected kill) is caught by `catch_unwind` in the chunk
//! runner and hands the undecoded chunk back; the supervisor replaces
//! the lane — a respawned thread, or lane 0 rebuilt in place — and the
//! chunk is decoded again: no correction is lost, no mutex is poisoned,
//! and the run's output is bit-identical to a run without the death.
//! When the respawn budget is exhausted the batch fails with a typed
//! [`RuntimeError::DecodePoolFailed`] instead of hanging or aborting.

use crate::error::RuntimeError;
use quest_surface::decoder::batch::{BatchGraphs, DecodeJob};
use quest_surface::decoder::{CostReport, DecodeEngine, DecoderChoice};
use quest_surface::{RotatedLattice, StabKind};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// One unit of pool work: a chunk of jobs with tags identifying where
/// each correction must return to.
struct Chunk {
    /// `(tile, kind)` per job, parallel to `jobs`.
    tags: Vec<(usize, StabKind)>,
    jobs: Vec<DecodeJob>,
    /// Fault-injection flag: the lane that picks this chunk up panics
    /// instead of decoding it (exercising the containment and respawn
    /// path end to end).
    die: bool,
}

/// One decoded chunk.
struct ChunkResult {
    tags: Vec<(usize, StabKind)>,
    /// Data-qubit flips per job.
    flips: Vec<BTreeSet<usize>>,
    /// Decode cost of exactly this chunk's jobs.
    cost: CostReport,
}

/// What a lane reports of one chunk.
enum WorkerMessage {
    /// A chunk decoded successfully.
    Done(ChunkResult),
    /// The lane died (panicked) holding this still-undecoded chunk; the
    /// supervisor must decode it again and replace the lane.
    Died { chunk: Chunk },
}

/// One decode lane: graphs, engine and the chunk runner. The same value
/// serves the pool's caller (lane 0) and each pool thread.
struct Lane {
    graphs: BatchGraphs,
    engine: DecodeEngine,
}

impl Lane {
    fn new(lattice: &RotatedLattice, choice: DecoderChoice) -> Lane {
        Lane {
            graphs: BatchGraphs::new(lattice),
            engine: choice.backend(),
        }
    }

    /// Decodes one chunk under panic containment. A lane that reports
    /// [`WorkerMessage::Died`] must not be used again.
    fn run(&mut self, mut chunk: Chunk) -> WorkerMessage {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if chunk.die {
                // quest-lint: allow(QL01) -- deliberate fault injection: exercises the supervisor's requeue-and-respawn path
                panic!("injected decode-worker death");
            }
            // Scope the cost accumulator to this chunk so the result
            // carries exactly these jobs' cost (a dead chunk's partial
            // cost is discarded with the lane, so the repeated decode is
            // counted exactly once).
            self.engine.reset_cost();
            let flips: Vec<BTreeSet<usize>> = chunk
                .jobs
                .iter()
                .map(|job| {
                    self.engine
                        .decode(self.graphs.graph(job.kind), &job.events)
                        .data_flips
                })
                .collect();
            (flips, self.engine.cost())
        }));
        match outcome {
            Ok((flips, cost)) => WorkerMessage::Done(ChunkResult {
                tags: std::mem::take(&mut chunk.tags),
                flips,
                cost,
            }),
            Err(_) => {
                // Dying breath: hand the chunk back so the supervisor
                // can have it decoded elsewhere.
                chunk.die = false;
                WorkerMessage::Died { chunk }
            }
        }
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
    lattice: &'env RotatedLattice,
    choice: DecoderChoice,
    /// The caller's own lane, built by the first batch (a run that never
    /// escalates builds no graphs) and again after a kill.
    lane0: Option<Lane>,
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
    /// engine built from `choice`.
    pub(crate) fn spawn(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        lattice: &'env RotatedLattice,
        choice: DecoderChoice,
        workers: usize,
    ) -> DecodePool<'scope, 'env> {
        assert!(workers > 0, "decode pool needs at least one worker");
        let (chunk_tx, chunk_rx) = channel::<Chunk>();
        let (result_tx, result_rx) = channel::<WorkerMessage>();
        let mut pool = DecodePool {
            scope,
            lattice,
            choice,
            lane0: None,
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
        let lattice = self.lattice;
        let choice = self.choice;
        self.handles.push(self.scope.spawn(move || {
            let mut lane = Lane::new(lattice, choice);
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

    /// Decodes one batch, blocking until every job is resolved. Returns
    /// `(tile, kind, data_flips)` per job, in arbitrary order (the
    /// caller orders them before anything order-sensitive).
    ///
    /// The batch is split into one chunk per lane; the first is decoded
    /// right here on lane 0 while the threads work through the rest.
    ///
    /// With `kill_one` set, the lane picking up the batch's last chunk
    /// dies instead of decoding it — a pool thread when the batch has a
    /// chunk for one, lane 0 otherwise. The supervisor replaces the lane
    /// and the chunk is decoded again, so the corrections are still
    /// exact.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DecodePoolFailed`] when the queue is closed or
    /// the respawn budget (one per original lane) is exhausted.
    pub(crate) fn decode(
        &mut self,
        batch: Vec<(usize, StabKind, DecodeJob)>,
        kill_one: bool,
    ) -> Result<Vec<(usize, StabKind, BTreeSet<usize>)>, RuntimeError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.batches += 1;
        self.stats.jobs += batch.len() as u64;
        self.stats.max_batch_jobs = self.stats.max_batch_jobs.max(batch.len() as u64);

        let mut out = Vec::with_capacity(batch.len());
        let chunk_size = batch.len().div_ceil(self.stats.workers);
        // Lane 0's chunk, and how many chunks the threads still owe.
        let mut mine: Option<Chunk> = None;
        let mut queued = 0usize;
        let mut iter = batch.into_iter().peekable();
        while iter.peek().is_some() {
            let mut tags = Vec::with_capacity(chunk_size);
            let mut jobs = Vec::with_capacity(chunk_size);
            for (tile, kind, job) in iter.by_ref().take(chunk_size) {
                tags.push((tile, kind));
                jobs.push(job);
            }
            let chunk = Chunk {
                tags,
                jobs,
                die: kill_one && iter.peek().is_none(),
            };
            if mine.is_none() {
                mine = Some(chunk);
            } else {
                self.submit(chunk)?;
                queued += 1;
            }
        }

        loop {
            let (message, on_lane0) = if let Some(chunk) = mine.take() {
                let (lattice, choice) = (self.lattice, self.choice);
                let lane = self.lane0.get_or_insert_with(|| Lane::new(lattice, choice));
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
                return Ok(out);
            };
            match message {
                WorkerMessage::Done(result) => {
                    self.cost.merge(&result.cost);
                    out.extend(
                        result
                            .tags
                            .into_iter()
                            .zip(result.flips)
                            .map(|((tile, kind), flips)| (tile, kind, flips)),
                    );
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
    /// cycles are pure functions of `(graph, events)` and the merge is
    /// order-invariant, so this matches the single-threaded reference
    /// for any worker count.
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
    use quest_surface::decoder::Decoder;
    use quest_surface::{DecodingGraph, UnionFindDecoder};

    fn demo_batch() -> Vec<(usize, StabKind, DecodeJob)> {
        vec![
            (
                0,
                StabKind::Z,
                DecodeJob {
                    kind: StabKind::Z,
                    events: vec![0, 1],
                },
            ),
            (
                1,
                StabKind::X,
                DecodeJob {
                    kind: StabKind::X,
                    events: vec![2],
                },
            ),
            (
                2,
                StabKind::Z,
                DecodeJob {
                    kind: StabKind::Z,
                    events: vec![4],
                },
            ),
            (
                3,
                StabKind::Z,
                DecodeJob {
                    kind: StabKind::Z,
                    events: vec![],
                },
            ),
            (
                4,
                StabKind::X,
                DecodeJob {
                    kind: StabKind::X,
                    events: vec![1, 3],
                },
            ),
        ]
    }

    fn assert_exact(lattice: &RotatedLattice, got: Vec<(usize, StabKind, BTreeSet<usize>)>) {
        let mut got = got;
        got.sort_by_key(|&(tile, _, _)| tile);
        let uf = UnionFindDecoder::new();
        for ((tile, kind, job), (gt, gk, flips)) in demo_batch().into_iter().zip(got) {
            assert_eq!((tile, kind), (gt, gk));
            let graph = DecodingGraph::new(lattice, job.kind, 1);
            assert_eq!(flips, uf.decode(&graph, &job.events).data_flips);
        }
    }

    #[test]
    fn pool_matches_direct_decoding() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 3);
            let got = pool.decode(demo_batch(), false).unwrap();
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
        let lattice = RotatedLattice::new(3);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 2);
            assert!(pool.decode(Vec::new(), false).unwrap().is_empty());
            assert_eq!(pool.stats().batches, 0);
            pool.shutdown();
        });
    }

    #[test]
    fn killed_worker_is_respawned_and_loses_no_corrections() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 2);
            assert_eq!(pool.handles.len(), 1, "two lanes are one thread");
            // The kill rides the batch's last chunk, which went to the
            // thread: the replacement is spawned into the scope.
            let got = pool.decode(demo_batch(), true).unwrap();
            assert_exact(&lattice, got);
            assert_eq!(pool.handles.len(), 2, "no replacement thread was spawned");
            let stats = pool.stats();
            assert_eq!(stats.deaths, 1);
            assert_eq!(stats.respawns, 1);
            // The respawned pool keeps decoding exactly.
            let again = pool.decode(demo_batch(), false).unwrap();
            assert_exact(&lattice, again);
            let stats = pool.shutdown();
            assert_eq!(stats.batches, 2);
        });
    }

    #[test]
    fn one_lane_spawns_no_thread_and_survives_a_kill() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 1);
            let got = pool.decode(demo_batch(), false).unwrap();
            assert_exact(&lattice, got);
            // The only chunk is lane 0's, so the kill hits lane 0, which
            // is rebuilt in place.
            let got = pool.decode(demo_batch(), true).unwrap();
            assert_exact(&lattice, got);
            assert!(pool.handles.is_empty(), "one lane is the caller's thread");
            let stats = pool.stats();
            assert_eq!((stats.deaths, stats.respawns), (1, 1));
            let again = pool.decode(demo_batch(), false).unwrap();
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
                    let mut pool = DecodePool::spawn(scope, &lattice, choice, 3);
                    let got = pool.decode(demo_batch(), kill_one).unwrap();
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
    fn respawn_budget_exhaustion_is_a_typed_error() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let mut pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 1);
            // One worker, one respawn in the budget: the second kill
            // must fail the batch instead of hanging.
            assert!(pool.decode(demo_batch(), true).is_ok());
            let err = pool.decode(demo_batch(), true).unwrap_err();
            assert!(matches!(err, RuntimeError::DecodePoolFailed { .. }));
            assert!(err.to_string().contains("respawn budget"));
            pool.shutdown();
        });
    }

    #[test]
    fn dropping_a_loaded_pool_neither_hangs_nor_aborts() {
        let lattice = RotatedLattice::new(5);
        std::thread::scope(|scope| {
            let pool = DecodePool::spawn(scope, &lattice, DecoderChoice::default(), 2);
            // Queue work the pool will never be asked to collect, then
            // tear down while it is still in flight.
            for _ in 0..16 {
                let mut tags = Vec::new();
                let mut jobs = Vec::new();
                for (tile, kind, job) in demo_batch() {
                    tags.push((tile, kind));
                    jobs.push(job);
                }
                pool.submit(Chunk {
                    tags,
                    jobs,
                    die: false,
                })
                .unwrap();
            }
            pool.shutdown();
        });
    }
}
