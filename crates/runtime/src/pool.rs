//! Shared global-decode worker pool.
//!
//! Escalations from all shards converge at the master, which packages
//! them into per-cycle batches and fans the batch out to this pool. Each
//! worker owns an engine built from the spec's [`DecoderChoice`] and
//! prebuilt single-round [`BatchGraphs`], decoding its chunk job by job
//! — the same graphs and engine kind the single-threaded master uses, so
//! pooled decoding changes throughput, never corrections. Per-chunk
//! [`CostReport`]s ride back with the corrections and merge
//! (order-invariantly) into one pool-level cost, which therefore matches
//! the reference executor's bit for bit.
//!
//! The pool is supervised: a worker that panics mid-chunk (including the
//! fault layer's injected kill) is caught by `catch_unwind` inside the
//! worker thread, reports the undecoded chunk back, and the supervisor
//! respawns a replacement and requeues the chunk — no correction is
//! lost, no mutex is poisoned, and the run's output is bit-identical to
//! a run without the death. When the respawn budget is exhausted the
//! batch fails with a typed [`RuntimeError::DecodePoolFailed`] instead
//! of hanging or aborting.

use crate::error::RuntimeError;
use quest_surface::decoder::batch::{BatchGraphs, DecodeJob};
use quest_surface::decoder::{CostReport, DecoderChoice};
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
    /// Fault-injection flag: the worker that picks this chunk up
    /// panics instead of decoding it (exercising the containment and
    /// respawn path end to end).
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

/// What a worker thread reports upstream.
enum WorkerMessage {
    /// A chunk decoded successfully.
    Done(ChunkResult),
    /// The worker died (panicked) holding this still-undecoded chunk;
    /// the supervisor must requeue it and replace the worker.
    Died { chunk: Chunk },
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Batches submitted (one per cycle with at least one escalation).
    pub batches: u64,
    /// Total decode jobs across all batches.
    pub jobs: u64,
    /// Largest single batch.
    pub max_batch_jobs: u64,
    /// Worker threads that died mid-chunk.
    pub deaths: u64,
    /// Replacement workers the supervisor spawned.
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
/// pool to the thread scope its workers run in, letting the supervisor
/// respawn replacements into the same scope mid-run.
pub(crate) struct DecodePool<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    lattice: &'env RotatedLattice,
    choice: DecoderChoice,
    chunk_tx: Sender<Chunk>,
    chunk_rx: Arc<Mutex<Receiver<Chunk>>>,
    result_tx: Sender<WorkerMessage>,
    result_rx: Receiver<WorkerMessage>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
    stats: PoolStats,
    cost: CostReport,
}

impl<'scope, 'env> DecodePool<'scope, 'env> {
    /// Spawns `workers` decode threads inside `scope`, each owning one
    /// backend built from `choice`.
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
            chunk_tx,
            chunk_rx: Arc::new(Mutex::new(chunk_rx)),
            result_tx,
            result_rx,
            handles: Vec::with_capacity(workers),
            stats: PoolStats {
                workers,
                ..PoolStats::default()
            },
            cost: CostReport::default(),
        };
        for _ in 0..workers {
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
            let graphs = BatchGraphs::new(lattice);
            let mut backend = choice.backend();
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
                let mut chunk = match next {
                    Ok(chunk) => chunk,
                    Err(_) => return, // pool shut down: queue closed
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if chunk.die {
                        // quest-lint: allow(QL01) -- deliberate fault injection: exercises the supervisor's requeue-and-respawn path
                        panic!("injected decode-worker death");
                    }
                    // Scope the cost accumulator to this chunk so the
                    // result carries exactly these jobs' cost (a dead
                    // chunk's partial cost is discarded with the worker,
                    // so the requeued decode is counted exactly once).
                    backend.reset_cost();
                    let flips: Vec<BTreeSet<usize>> = chunk
                        .jobs
                        .iter()
                        .map(|job| {
                            backend
                                .decode(graphs.graph(job.kind), &job.events)
                                .data_flips
                        })
                        .collect();
                    (flips, backend.cost())
                }));
                match outcome {
                    Ok((flips, cost)) => {
                        let result = ChunkResult {
                            tags: std::mem::take(&mut chunk.tags),
                            flips,
                            cost,
                        };
                        if result_tx.send(WorkerMessage::Done(result)).is_err() {
                            return; // pool gone: nobody wants the result
                        }
                    }
                    Err(_) => {
                        // Dying breath: hand the chunk back so the
                        // supervisor can requeue it, then exit without
                        // unwinding (the scope must never see a panic).
                        chunk.die = false;
                        let _ = result_tx.send(WorkerMessage::Died { chunk });
                        return;
                    }
                }
            }
        }));
    }

    /// Decodes one batch, blocking until every job is resolved. Returns
    /// `(tile, kind, data_flips)` per job, in arbitrary order (the
    /// caller orders them before anything order-sensitive).
    ///
    /// With `kill_one` set, the worker picking up the batch's first
    /// chunk dies instead of decoding it — the supervisor requeues the
    /// chunk on a respawned worker, so the corrections are still exact.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DecodePoolFailed`] when the queue is closed or
    /// the respawn budget (one per original worker) is exhausted.
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

        let chunk_size = batch.len().div_ceil(self.stats.workers);
        let mut chunks_sent = 0usize;
        let mut iter = batch.into_iter().peekable();
        while iter.peek().is_some() {
            let mut tags = Vec::with_capacity(chunk_size);
            let mut jobs = Vec::with_capacity(chunk_size);
            for (tile, kind, job) in iter.by_ref().take(chunk_size) {
                tags.push((tile, kind));
                jobs.push(job);
            }
            self.submit(Chunk {
                tags,
                jobs,
                die: kill_one && chunks_sent == 0,
            })?;
            chunks_sent += 1;
        }

        let mut out = Vec::new();
        let mut chunks_done = 0usize;
        while chunks_done < chunks_sent {
            match self.result_rx.recv() {
                Ok(WorkerMessage::Done(result)) => {
                    self.cost.merge(&result.cost);
                    for ((tile, kind), flips) in result.tags.into_iter().zip(result.flips) {
                        out.push((tile, kind, flips));
                    }
                    chunks_done += 1;
                }
                Ok(WorkerMessage::Died { chunk }) => {
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
                    self.spawn_worker();
                    self.submit(chunk)?;
                }
                Err(_) => {
                    return Err(RuntimeError::DecodePoolFailed {
                        detail: "all decode workers disconnected mid-batch".into(),
                    });
                }
            }
        }
        Ok(out)
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
            let got = pool.decode(demo_batch(), true).unwrap();
            assert_exact(&lattice, got);
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
