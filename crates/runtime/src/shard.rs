//! Shard worker: the owner of a contiguous group of tiles, and the
//! master's link to it.
//!
//! Each shard holds its own MCEs and the [`Substrate`] under its tiles:
//! one stabilizer tableau per entangled group of tiles, a tile on its
//! own until a transversal CNOT joins it to another for good. That is
//! physically exact as long as entanglement never crosses a shard
//! boundary — tiles start in product states and the spec validator
//! rejects cross-shard CNOTs. A tile-cycle therefore costs the same on
//! any shard, however many tiles the shard owns: a measurement scans the
//! generators of its own block only. Shards buy parallelism and nothing
//! else — the total work of a run does not depend on the shard count.
//! A fresh shard's tiles follow the warm-up trails the run was started
//! with ([`Substrate::with_trails`]); when the worker stops serving it
//! hands back the trails its tiles laid and how many tile-cycles they
//! replayed (a [`Harvest`]), which is all the master learns of either.
//!
//! Every tile draws from its own RNG stream
//! ([`tile_seed`](quest_core::tile::tile_seed)), in the same fixed order
//! the single-threaded reference uses (noise layer, then the microcode
//! cycle), so a shard's outcomes do not depend on which thread runs it.
//!
//! A worker answers [`Envelope`]s and nothing else, so where it runs is
//! the [`ShardLink`]'s business: shard 0 is driven on the master's
//! thread, a queue standing in for the channels — the master would
//! otherwise sleep while its shards compute, so a one-shard run has no
//! second thread at all and an n-shard run has n threads, not n + 1;
//! every further shard gets a thread and a bounded channel pair, and
//! hands its answers up in batches rather than one envelope at a time.
//!
//! QECC cycles are *granted*, not clocked: a [`Payload::Cycles`] grant
//! lets the worker run that many cycles back to back, each answered
//! upstream with its `Syndrome…, CycleDone` envelopes. Nothing inside a
//! grant waits for the master. The inline shard 0 computes a grant inside
//! the master's `send`, and is granted one cycle and then a window of
//! [`SHARD0_WINDOW`] cycles at a time; a threaded shard, granted the
//! whole op, hands over what its cycles answered in the same windows, so
//! the master takes one batch where it would take every envelope. A
//! [`Payload::Correction`] — the only word a shard hears from the master
//! inside a grant — is XORed into its tile's decoder frame, as words,
//! whenever it arrives: a threaded worker takes what has arrived off its
//! channel between cycles without waiting, an inline worker is handed
//! each one by `send`. That is exact because no QECC cycle reads a
//! decoder frame (the local decoders and the escalations read syndrome
//! bits only), corrections commute, and every envelope that does read a
//! frame — a readout, a CNOT, a checkpoint, the sign-off — is sent after
//! the op's last correction down a FIFO; so is shard 0's next window. The
//! worker counts the corrections it is owed (escalations sent minus
//! corrections applied), and any envelope but a correction while it is
//! owed one is a protocol error. How far a threaded shard runs ahead of
//! the master is bounded by about [`CHANNEL_BOUND`] upstream envelopes.
//!
//! The worker is panic-contained: every envelope is handled under
//! `catch_unwind`, and any panic (including the fault layer's scheduled
//! one) is converted into an upstream [`Payload::Failed`] report so the
//! master can shut the run down with a typed error instead of the
//! process aborting. A disconnected channel — the master bailed out
//! early — is a clean exit, never a panic.

use crate::memo::Shared;
use crate::message::{channel, DepthGauge, Disconnected, Envelope, Payload, Rx, Tx};
use crate::snapshot::ShardSnapshot;
use crate::SHARD0_WINDOW;
use quest_core::network::PacketKind;
use quest_core::tile;
use quest_core::{decode_totals, DeliveryEngine, DeliveryMode, Mce, Substrate};
use quest_stabilizer::{PauliChannel, SeedableRng, StdRng, Trail};
use quest_surface::StabKind;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::{Scope, ScopedJoinHandle};

/// Best-effort panic message for a `Failed` report.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// How far a free-running shard gets ahead of the master, in upstream
/// envelopes: a threaded shard hands its envelopes over in batches of at
/// most [`SHARD0_WINDOW`] cycles (each cycle at least one envelope, at
/// most one plus two escalations per tile), and blocks once
/// `CHANNEL_BOUND / SHARD0_WINDOW` batches wait unconsumed.
///
/// The downstream channel holds `CHANNEL_BOUND` envelopes, and at least
/// `2·tiles·(SHARD0_WINDOW + 1) + 1` for a shard of `tiles` tiles, which
/// is more than it can hold while its shard is blocked upstream — so the
/// master is never blocked sending to a shard that is blocked sending to
/// it (a deadlock would be a hang, not an error). Inside a grant the
/// channel carries corrections only, and the worker takes what has
/// arrived before each cycle and hands a batch over only right after one.
/// While that blocks, its upstream channel is full and it has handed
/// nothing over since it last looked, so since then the master has taken
/// no batch and consumed at most the rest of the one it holds: one window
/// of cycles, with at most two escalations per tile each (the program
/// measures each check once a cycle). The corrections sent in that time
/// answer those escalations and those of the cycle the master was
/// decoding when the worker looked: `2·tiles·(SHARD0_WINDOW + 1)` at
/// most. Outside a grant the worker waits on the channel.
const CHANNEL_BOUND: usize = 1024;

/// Where a worker's upstream envelopes go.
pub(crate) enum Upstream {
    /// To the master's thread, over the shard's bounded channel, in
    /// batches: `batch` collects what the worker answers until it hands
    /// it over ([`Upstream::flush`]).
    Channel {
        tx: Tx<Vec<Envelope>>,
        batch: Vec<Envelope>,
    },
    /// Into a queue the master pops itself (inline worker).
    Queue(VecDeque<Envelope>),
}

impl Upstream {
    fn send(&mut self, env: Envelope) {
        match self {
            Upstream::Channel { batch, .. } => batch.push(env),
            Upstream::Queue(queue) => queue.push_back(env),
        }
    }

    /// Hands what the worker has answered so far to the master: a
    /// channel's batch goes over whole; a queue is the master's already.
    fn flush(&mut self) -> Result<(), Disconnected> {
        match self {
            Upstream::Channel { tx, batch } if !batch.is_empty() => {
                let next = Vec::with_capacity(batch.capacity());
                tx.send(std::mem::replace(batch, next))
            }
            Upstream::Channel { .. } | Upstream::Queue(_) => Ok(()),
        }
    }

    /// Takes the oldest queued envelope. A channel holds none here: its
    /// envelopes are at the receiving end.
    fn pop(&mut self) -> Option<Envelope> {
        match self {
            Upstream::Channel { .. } => None,
            Upstream::Queue(queue) => queue.pop_front(),
        }
    }

    fn queued(&self) -> usize {
        match self {
            Upstream::Channel { .. } => 0,
            Upstream::Queue(queue) => queue.len(),
        }
    }
}

/// What a worker hands back once it has stopped serving: what only it
/// could count, and the trails its fresh tiles laid.
#[derive(Debug, Default)]
pub(crate) struct Harvest {
    /// Tile-cycles its tiles were served by a kernel, from a tape or a
    /// trail, never touching a reference tableau.
    pub(crate) replayed: u64,
    /// Readouts its tiles served from a trail's exit.
    pub(crate) served_readouts: u64,
    pub(crate) trails: Vec<Trail>,
}

/// The master's end of one shard: the same envelopes either way, only
/// the transport differs.
pub(crate) enum ShardLink<'scope> {
    /// The worker runs on its own thread behind a bounded channel pair,
    /// and the thread returns the worker's [`Harvest`].
    Threaded {
        down: Tx<Envelope>,
        up: Rx<Vec<Envelope>>,
        /// What is left of the last batch taken off `up`.
        arrived: std::vec::IntoIter<Envelope>,
        down_gauge: DepthGauge,
        up_gauge: DepthGauge,
        thread: ScopedJoinHandle<'scope, Harvest>,
    },
    /// The worker is driven on the master's thread: `send` handles the
    /// envelope on the spot and `recv` pops what it answered.
    Inline {
        worker: Box<ShardWorker>,
        serving: bool,
        /// Longest the answer queue ever got.
        max_up: usize,
    },
}

impl<'scope> ShardLink<'scope> {
    /// Links the worker `build` makes over `tiles` tiles for the given
    /// upstream end. With `inline` the worker is built and stays on the
    /// caller's thread; otherwise it gets a thread of its own in `scope`,
    /// and is built there, while the caller goes on.
    pub(crate) fn new(
        scope: &'scope Scope<'scope, '_>,
        inline: bool,
        tiles: usize,
        build: impl FnOnce(Upstream) -> ShardWorker + Send + 'scope,
    ) -> ShardLink<'scope> {
        if inline {
            return ShardLink::Inline {
                worker: Box::new(build(Upstream::Queue(VecDeque::new()))),
                serving: true,
                max_up: 0,
            };
        }
        // Never full while the shard is blocked upstream; see
        // `CHANNEL_BOUND`.
        let window = SHARD0_WINDOW as usize;
        let (down, down_rx, down_gauge) = channel(CHANNEL_BOUND.max(2 * tiles * (window + 1) + 1));
        let (tx, up, up_gauge) = channel(CHANNEL_BOUND / window);
        let thread = scope.spawn(move || {
            let mut worker = build(Upstream::Channel {
                tx,
                batch: Vec::new(),
            });
            debug_assert_eq!(worker.tiles.len(), tiles);
            worker.down = Some(down_rx);
            worker.run()
        });
        ShardLink::Threaded {
            down,
            up,
            arrived: Vec::new().into_iter(),
            down_gauge,
            up_gauge,
            thread,
        }
    }

    /// Hands one envelope to the worker.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the worker no longer serves.
    pub(crate) fn send(&mut self, env: Envelope) -> Result<(), Disconnected> {
        match self {
            ShardLink::Threaded { down, .. } => down.send(env),
            ShardLink::Inline {
                worker,
                serving,
                max_up,
            } => {
                if !*serving {
                    return Err(Disconnected);
                }
                *serving = worker.deliver(env);
                *max_up = (*max_up).max(worker.up.queued());
                Ok(())
            }
        }
    }

    /// The worker's next upstream envelope; blocks only on a threaded
    /// worker, and only when the batch in hand is used up.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the worker is gone (threaded) or has
    /// nothing left to say (inline).
    pub(crate) fn recv(&mut self) -> Result<Envelope, Disconnected> {
        match self {
            ShardLink::Threaded { up, arrived, .. } => loop {
                if let Some(env) = arrived.next() {
                    return Ok(env);
                }
                *arrived = up.recv()?.into_iter();
            },
            ShardLink::Inline { worker, .. } => worker.up.pop().ok_or(Disconnected),
        }
    }

    /// Deepest the downstream and the upstream side ever got: in
    /// envelopes, but a threaded worker's upstream channel in batches (an
    /// inline worker has one envelope in hand at a time).
    pub(crate) fn high_water(&self) -> (usize, usize) {
        match self {
            ShardLink::Threaded {
                down_gauge,
                up_gauge,
                ..
            } => (down_gauge.high_water(), up_gauge.high_water()),
            ShardLink::Inline { max_up, .. } => (1, *max_up),
        }
    }

    /// The worker's [`Harvest`], once it has signed off: a threaded
    /// worker's thread is joined (it has returned, or is about to).
    pub(crate) fn finish(self) -> Harvest {
        match self {
            // The thread's body never unwinds: every envelope is handled
            // under `catch_unwind`.
            ShardLink::Threaded { thread, .. } => thread.join().unwrap_or_default(),
            ShardLink::Inline { mut worker, .. } => worker.harvest(),
        }
    }
}

/// Owned state of one shard worker.
pub(crate) struct ShardWorker {
    shard: usize,
    /// Global tile ids owned by this shard.
    tiles: Range<usize>,
    mces: Vec<Mce>,
    substrate: Substrate,
    noise: PauliChannel,
    engine: DeliveryEngine,
    rngs: Vec<StdRng>,
    up: Upstream,
    /// A threaded worker's downstream channel, looked at between granted
    /// cycles; an inline worker has none (`send` hands it each envelope).
    down: Option<Rx<Envelope>>,
    /// Fault injection: panic once this many QECC cycles completed.
    panic_after_cycles: Option<u64>,
    cycles_done: u64,
    /// Cycles of the current grant not yet run.
    granted: u64,
    /// Corrections owed: escalations sent minus corrections applied.
    /// Both are zero at every barrier the master checkpoints at, so
    /// neither travels in a [`ShardSnapshot`].
    owed: usize,
}

impl ShardWorker {
    /// Builds a shard over `tiles` (global ids), each tile a clone of
    /// the distance's template MCE on a fresh block that may follow one
    /// of its trails, with per-tile RNG streams derived from
    /// `master_seed`. A `panic_after_cycles` schedule makes the worker
    /// panic mid-run (containment drill).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shard: usize,
        tiles: Range<usize>,
        shared: &Shared,
        error_rate: f64,
        delivery: DeliveryMode,
        master_seed: u64,
        up: Upstream,
        panic_after_cycles: Option<u64>,
    ) -> ShardWorker {
        let rngs = tiles
            .clone()
            .map(|t| StdRng::seed_from_u64(tile::tile_seed(master_seed, t as u64)))
            .collect();
        let template = &*shared.template;
        ShardWorker {
            shard,
            substrate: Substrate::with_trails(
                tiles.len(),
                template.lattice().num_qubits(),
                &shared.trails,
            ),
            mces: vec![template.clone(); tiles.len()],
            tiles,
            noise: PauliChannel::depolarizing(error_rate),
            engine: DeliveryEngine::new(delivery),
            rngs,
            up,
            down: None,
            panic_after_cycles,
            cycles_done: 0,
            granted: 0,
            owed: 0,
        }
    }

    /// Rebuilds a shard worker from a checkpoint: MCEs, substrate, RNG
    /// streams and the cycle counter resume exactly where the snapshot
    /// froze them; the stateless noise channel and delivery engine are
    /// rebuilt from the spec. The panic schedule compares for *equality*
    /// against the restored counter, so a drill that already fired
    /// before the snapshot can never re-fire on resume.
    pub(crate) fn from_snapshot(
        shard: usize,
        tiles: Range<usize>,
        error_rate: f64,
        delivery: DeliveryMode,
        state: ShardSnapshot,
        up: Upstream,
        panic_after_cycles: Option<u64>,
    ) -> ShardWorker {
        ShardWorker {
            shard,
            tiles,
            mces: state.mces,
            substrate: state.substrate,
            noise: PauliChannel::depolarizing(error_rate),
            engine: DeliveryEngine::new(delivery),
            rngs: state.rngs,
            up,
            down: None,
            panic_after_cycles,
            cycles_done: state.cycles_done,
            granted: 0,
            owed: 0,
        }
    }

    fn local(&self, tile: usize) -> usize {
        debug_assert!(self.tiles.contains(&tile), "tile {tile} not on this shard");
        tile - self.tiles.start
    }

    /// Thread entry point: serves downstream envelopes until the master
    /// sends `Shutdown`, a failure is reported upstream, or the master
    /// hangs up (a disconnect means the master already shut down,
    /// possibly on an error of its own — exiting quietly is the right
    /// response), then hands back its [`Harvest`]. The thread always
    /// returns normally, so the enclosing scope never re-panics.
    pub(crate) fn run(mut self) -> Harvest {
        while let Some(Ok(env)) = self.down.as_ref().map(Rx::recv) {
            if !self.deliver(env) {
                break;
            }
        }
        self.harvest()
    }

    /// What the master reads off a worker that has stopped serving.
    fn harvest(&mut self) -> Harvest {
        Harvest {
            replayed: (0..self.tiles.len())
                .map(|l| self.substrate.replayed_cycles(l))
                .sum(),
            served_readouts: self.substrate.served_readouts(),
            trails: self.substrate.take_trails(),
        }
    }

    /// Handles one downstream envelope under panic containment, hands
    /// what it answered to the master, and says whether the worker still
    /// serves. A caught panic is reported upstream as
    /// [`Payload::Failed`] and ends service.
    pub(crate) fn deliver(&mut self, env: Envelope) -> bool {
        let serving = match catch_unwind(AssertUnwindSafe(|| self.handle(env))) {
            Ok(serving) => serving,
            Err(payload) => self.fail(panic_detail(payload.as_ref())),
        };
        self.up.flush().is_ok() && serving
    }

    /// One message; `false` once the worker is done serving.
    fn handle(&mut self, env: Envelope) -> bool {
        // Every correction of an op lands before the master's next
        // envelope; anything else while one is owed would act on frames
        // that are not settled.
        if self.owed > 0 && !matches!(env.payload, Payload::Correction { .. }) {
            return self.fail(format!(
                "{} correction(s) outstanding at a shard worker, got {:?}",
                self.owed, env.payload
            ));
        }
        match env.payload {
            Payload::Cycles(n) => {
                self.granted = n;
                self.run_granted()
            }
            Payload::Prep { tile, basis } => {
                let l = self.local(tile);
                tile::prep_logical(
                    &mut self.mces[l],
                    basis,
                    self.substrate.block_mut(l),
                    &mut self.rngs[l],
                );
                true
            }
            Payload::Cnot { control, target } => {
                let (lc, lt) = (self.local(control), self.local(target));
                match tile::transversal_cnot_physics(&mut self.mces, &mut self.substrate, lc, lt) {
                    Ok(()) => true,
                    // Validated specs make this unreachable; report it
                    // like a caught panic and stop serving.
                    Err(e) => self.fail(format!("transversal CNOT rejected: {e}")),
                }
            }
            Payload::Logical { tile, instr } => {
                let l = self.local(tile);
                self.engine.dispatch_local(&mut self.mces[l], instr);
                true
            }
            Payload::Kernel {
                tile,
                kernel,
                replays,
            } => {
                let l = self.local(tile);
                self.engine
                    .kernel_local(&mut self.mces[l], &kernel, replays);
                true
            }
            Payload::Correction { tile, kind, flips } => self.apply_correction(tile, kind, &flips),
            Payload::MeasureZ { tile } => {
                let l = self.local(tile);
                let readout = self.mces[l]
                    .measure_logical_z_details(self.substrate.block_mut(l), &mut self.rngs[l]);
                self.up
                    .send(Envelope::outcome(tile, readout.value, readout.final_events));
                true
            }
            Payload::Snapshot => {
                // Deep-clone the owned state at the barrier. The clone
                // observes; nothing about the run changes.
                let state = ShardSnapshot {
                    mces: self.mces.clone(),
                    substrate: self.substrate.clone(),
                    rngs: self.rngs.clone(),
                    cycles_done: self.cycles_done,
                };
                self.up.send(Envelope::control(
                    PacketKind::Upstream,
                    Payload::ShardState {
                        shard: self.shard,
                        state: Box::new(state),
                    },
                ));
                true
            }
            Payload::Shutdown => {
                // Sign off with the counters only this worker saw.
                let (local_decodes, _) = decode_totals(&self.mces);
                self.up.send(Envelope::control(
                    PacketKind::Upstream,
                    Payload::Closing {
                        shard: self.shard,
                        local_decodes,
                    },
                ));
                false
            }
            Payload::Syndrome { .. }
            | Payload::CycleDone { .. }
            | Payload::Outcome { .. }
            | Payload::Closing { .. }
            | Payload::ShardState { .. }
            | Payload::Failed { .. } => {
                // An upstream payload reaching a shard is a protocol bug
                // in the master; report it and stop serving instead of
                // panicking the worker.
                self.fail(format!(
                    "upstream payload at a shard worker: {:?}",
                    env.kind
                ))
            }
        }
    }

    /// Reports a failure upstream; the worker stops serving.
    fn fail(&mut self, detail: String) -> bool {
        self.up.send(Envelope::control(
            PacketKind::Upstream,
            Payload::Failed {
                shard: self.shard,
                detail,
            },
        ));
        false
    }

    /// XORs a global correction's words into its tile's decoder frame;
    /// `false` (after a `Failed` report) if no escalation is owed one.
    fn apply_correction(&mut self, tile: usize, kind: StabKind, flips: &[u64]) -> bool {
        if self.owed == 0 {
            return self.fail(format!(
                "correction for tile {tile} that no escalation waits for"
            ));
        }
        let l = self.local(tile);
        self.mces[l].decoder_mut(kind).xor_frame(flips);
        self.owed -= 1;
        true
    }

    /// Runs the grant's cycles back to back, applying before each the
    /// corrections that have arrived by then; `false` means the worker
    /// stops serving (the master hung up, or a report went upstream).
    /// What the cycles answer is handed over in the windows the master
    /// consumes them in, as it grants the inline shard: the grant's first
    /// cycle, then [`SHARD0_WINDOW`] cycles at a time (the rest when the
    /// grant ends).
    fn run_granted(&mut self) -> bool {
        let mut ran = 0;
        while self.granted > 0 {
            if !self.apply_arrived_corrections() {
                return false;
            }
            self.granted -= 1;
            self.run_cycle();
            if ran % SHARD0_WINDOW == 0 && self.up.flush().is_err() {
                return false;
            }
            ran += 1;
        }
        true
    }

    /// Takes every envelope already waiting on a threaded worker's
    /// channel, without waiting for one. Inside a grant the master sends
    /// nothing but corrections (its next envelope comes after the grant's
    /// last `CycleDone`), so anything else is a protocol error.
    fn apply_arrived_corrections(&mut self) -> bool {
        loop {
            let env = match self.down.as_ref().map(Rx::try_recv) {
                None | Some(Ok(None)) => return true,
                Some(Ok(Some(env))) => env,
                Some(Err(Disconnected)) => return false,
            };
            let serving = match env.payload {
                Payload::Correction { tile, kind, flips } => {
                    self.apply_correction(tile, kind, &flips)
                }
                other => self.fail(format!("{other:?} inside a grant")),
            };
            if !serving {
                return false;
            }
        }
    }

    /// One noisy QECC cycle over every owned tile: the noise layer and
    /// microcode cycle consume each tile's own stream in reference order;
    /// escalations the local decoders could not resolve go upstream (and
    /// are counted: each is owed one correction), then the cycle barrier.
    fn run_cycle(&mut self) {
        if self.panic_after_cycles == Some(self.cycles_done) {
            // quest-lint: allow(QL01) -- deliberate fault injection: this drill exercises the catch_unwind containment in deliver()
            panic!(
                "injected shard-worker panic after {} cycles",
                self.cycles_done
            );
        }
        for (local, (mce, rng)) in self.mces.iter().zip(self.rngs.iter_mut()).enumerate() {
            tile::noise_layer(mce, &self.noise, self.substrate.block_mut(local), rng);
        }
        for local in 0..self.mces.len() {
            self.mces[local].run_qecc_cycle(self.substrate.block_mut(local), &mut self.rngs[local]);
            for (kind, escalation) in self.mces[local].take_escalations() {
                let tile = self.tiles.start + local;
                self.up.send(Envelope::syndrome(tile, kind, escalation));
                self.owed += 1;
            }
        }
        self.cycles_done += 1;
        self.up.send(Envelope::control(
            PacketKind::Upstream,
            Payload::CycleDone { shard: self.shard },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::Memo;
    use quest_surface::StabKind;
    use std::sync::Arc;

    /// A two-tile shard 0 at distance `d` and error rate `p`.
    fn link_at<'scope>(
        inline: bool,
        scope: &'scope std::thread::Scope<'scope, '_>,
        (d, p): (usize, f64),
        panic_after: Option<u64>,
    ) -> ShardLink<'scope> {
        let shared = Memo::default().shared(d);
        ShardLink::new(scope, inline, 2, move |up| {
            ShardWorker::new(
                0,
                0..2,
                &shared,
                p,
                DeliveryMode::QuestMce,
                7,
                up,
                panic_after,
            )
        })
    }

    /// The d = 3 shard whose local decoders resolve everything.
    fn link<'scope>(
        inline: bool,
        scope: &'scope std::thread::Scope<'scope, '_>,
        panic_after: Option<u64>,
    ) -> ShardLink<'scope> {
        link_at(inline, scope, (3, 1e-3), panic_after)
    }

    fn cycles(n: u64) -> Envelope {
        Envelope::control(PacketKind::Downstream, Payload::Cycles(n))
    }

    /// Everything a shard answers to one cycle, up to its barrier.
    fn drain_cycle(link: &mut ShardLink) -> Vec<String> {
        let mut seen = Vec::new();
        loop {
            let env = link.recv().expect("a serving shard reaches its barrier");
            let done = matches!(env.payload, Payload::CycleDone { .. });
            seen.push(format!("{:?}", env.payload));
            if done {
                return seen;
            }
        }
    }

    /// Pops everything an inline worker has queued: the escalations as
    /// `(tile, kind)` and the number of `CycleDone`s.
    fn drain_queue(link: &mut ShardLink) -> (Vec<(usize, StabKind)>, usize) {
        let (mut escalations, mut barriers) = (Vec::new(), 0);
        while let Ok(env) = link.recv() {
            match env.payload {
                Payload::Syndrome { tile, kind, .. } => escalations.push((tile, kind)),
                Payload::CycleDone { .. } => barriers += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        (escalations, barriers)
    }

    /// A correction for an escalation, flipping data qubit 0 so that a
    /// correction applied twice or not at all shows in a readout.
    fn correction(&(tile, kind): &(usize, StabKind)) -> Envelope {
        Envelope::correction(tile, kind, Arc::from([1]))
    }

    fn measure(tile: usize) -> Envelope {
        Envelope::control(PacketKind::Downstream, Payload::MeasureZ { tile })
    }

    /// Skips what the worker queued before it failed, checks the report
    /// and that the worker stopped serving.
    fn expect_failed(link: &mut ShardLink, needle: &str) {
        loop {
            match link.recv().expect("a failure report is queued").payload {
                Payload::Failed { shard: 0, detail } => {
                    assert!(detail.contains(needle), "{detail}");
                    break;
                }
                Payload::Syndrome { .. } | Payload::CycleDone { .. } => {}
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        assert!(link.send(cycles(1)).is_err(), "a failed worker serves on");
    }

    #[test]
    fn inline_and_threaded_links_carry_the_same_envelopes() {
        std::thread::scope(|scope| {
            let mut inline = link(true, scope, None);
            let mut threaded = link(false, scope, None);
            for _ in 0..20 {
                inline.send(cycles(1)).unwrap();
                threaded.send(cycles(1)).unwrap();
                assert_eq!(drain_cycle(&mut inline), drain_cycle(&mut threaded));
            }
            // One grant of twenty is twenty cycles on either transport
            // (d = 3 never escalates, so nothing holds the workers).
            inline.send(cycles(20)).unwrap();
            threaded.send(cycles(20)).unwrap();
            for _ in 0..20 {
                assert_eq!(drain_cycle(&mut inline), drain_cycle(&mut threaded));
            }
            // Nothing is left over on the inline side, and asking anyway
            // is an error, not a wait.
            assert!(inline.recv().is_err());
            let shutdown = || Envelope::control(PacketKind::Downstream, Payload::Shutdown);
            inline.send(shutdown()).unwrap();
            threaded.send(shutdown()).unwrap();
            for link in [&mut inline, &mut threaded] {
                let env = link.recv().unwrap();
                assert!(matches!(env.payload, Payload::Closing { shard: 0, .. }));
            }
            // A worker that signed off no longer takes envelopes.
            assert!(inline.send(cycles(1)).is_err());
            assert_eq!(inline.high_water().0, 1);
        });
    }

    #[test]
    fn inline_worker_panic_is_contained_and_reported() {
        std::thread::scope(|scope| {
            let mut inline = link(true, scope, Some(1));
            inline.send(cycles(1)).unwrap();
            drain_cycle(&mut inline);
            // The drill fires inside this call, on this thread; the
            // caller sees an ordinary send and a `Failed` report.
            inline.send(cycles(1)).unwrap();
            expect_failed(&mut inline, "injected");
            assert!(inline.recv().is_err());
        });
    }

    #[test]
    fn a_grant_runs_through_its_own_escalations() {
        std::thread::scope(|scope| {
            // Two identical shards: one is owed its last correction when
            // the readout comes, the other has them all.
            let (mut early, mut settled) = (
                link_at(true, scope, (5, 2e-2), None),
                link_at(true, scope, (5, 2e-2), None),
            );
            for link in [&mut early, &mut settled] {
                link.send(cycles(50)).unwrap();
            }
            // Every cycle of the grant ran, and no correction was sent.
            let (escalations, barriers) = drain_queue(&mut early);
            assert_eq!(drain_queue(&mut settled), (escalations.clone(), barriers));
            assert_eq!(barriers, 50);
            assert!(
                escalations.len() > 1,
                "d = 5 at p = 2e-2 escalates within 50 cycles"
            );
            // Corrections are accepted whenever they come, and answered
            // with nothing.
            let (last, rest) = escalations.split_last().unwrap();
            for e in rest {
                for link in [&mut early, &mut settled] {
                    link.send(correction(e)).unwrap();
                    assert!(link.recv().is_err(), "a correction was answered");
                }
            }
            // A readout before the last one is a protocol error...
            early.send(measure(0)).unwrap();
            expect_failed(&mut early, "outstanding");
            // ...after it, the shard is at a barrier and serves on.
            settled.send(correction(last)).unwrap();
            settled.send(cycles(1)).unwrap();
            assert_eq!(drain_queue(&mut settled).1, 1);
            settled.send(measure(0)).unwrap();
            assert!(matches!(
                settled.recv().unwrap().payload,
                Payload::Outcome { tile: 0, .. }
            ));
        });
    }

    #[test]
    fn a_threaded_shard_takes_corrections_between_cycles() {
        std::thread::scope(|scope| {
            let mut threaded = link_at(false, scope, (5, 2e-2), None);
            let mut inline = link_at(true, scope, (5, 2e-2), None);
            threaded.send(cycles(50)).unwrap();
            inline.send(cycles(50)).unwrap();
            let (escalations, _) = drain_queue(&mut inline);
            for e in &escalations {
                inline.send(correction(e)).unwrap();
            }
            // The threaded shard gets each correction as soon as its
            // escalation is seen, mid-grant, the inline one after its
            // grant: the same envelopes, and frames that read out alike.
            let (mut seen, mut barriers) = (Vec::new(), 0);
            while barriers < 50 {
                match threaded.recv().unwrap().payload {
                    Payload::Syndrome { tile, kind, .. } => {
                        seen.push((tile, kind));
                        threaded.send(correction(&(tile, kind))).unwrap();
                    }
                    Payload::CycleDone { .. } => barriers += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(seen, escalations);
            for tile in 0..2 {
                let readout = |link: &mut ShardLink| {
                    link.send(measure(tile)).unwrap();
                    format!("{:?}", link.recv().unwrap().payload)
                };
                assert_eq!(readout(&mut threaded), readout(&mut inline));
            }
        });
    }

    #[test]
    fn anything_but_a_correction_inside_a_grant_is_reported() {
        std::thread::scope(|scope| {
            // d = 3 never escalates, so nothing is owed; the readout
            // arrives while the worker is inside its grant (it cannot get
            // past the upstream bound before this thread consumes).
            let mut threaded = link(false, scope, None);
            threaded.send(cycles(5000)).unwrap();
            threaded.send(measure(0)).unwrap();
            loop {
                match threaded.recv().expect("a failure report").payload {
                    Payload::Failed { shard: 0, detail } => {
                        assert!(detail.contains("inside a grant"), "{detail}");
                        break;
                    }
                    Payload::CycleDone { .. } => {}
                    other => panic!("expected Failed, got {other:?}"),
                }
            }
        });
    }

    #[test]
    fn protocol_violations_inside_a_grant_are_reported_not_panicked() {
        std::thread::scope(|scope| {
            // A correction nobody waits for.
            let mut idle = link(true, scope, None);
            idle.send(Envelope::correction(0, StabKind::Z, Arc::from([0])))
                .unwrap();
            expect_failed(&mut idle, "no escalation waits for");

            // Anything but a correction while corrections are owed.
            let mut owing = link_at(true, scope, (5, 2e-2), None);
            owing.send(cycles(50)).unwrap();
            owing.send(cycles(1)).unwrap();
            expect_failed(&mut owing, "outstanding");
        });
    }
}
