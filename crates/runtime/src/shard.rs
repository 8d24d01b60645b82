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
//! every further shard gets a thread and a bounded channel pair.
//!
//! QECC cycles are *granted*, not clocked: a [`Payload::Cycles`] grant
//! lets the worker run that many cycles back to back, each answered
//! upstream with its `Syndrome…, CycleDone` envelopes. The worker counts
//! the escalations a cycle sent and starts the next cycle only when that
//! many [`Payload::Correction`]s have come back — the one wait the
//! physics needs, and the only word a shard hears from the master inside
//! a grant. That is a state machine over envelopes, not a loop over a
//! channel, so it serves a thread blocked in `recv` and an inline worker
//! re-entered by `send` alike. How far a threaded shard runs ahead of
//! the master is bounded by [`CHANNEL_BOUND`] upstream envelopes.
//!
//! The worker is panic-contained: every envelope is handled under
//! `catch_unwind`, and any panic (including the fault layer's scheduled
//! one) is converted into an upstream [`Payload::Failed`] report so the
//! master can shut the run down with a typed error instead of the
//! process aborting. A disconnected channel — the master bailed out
//! early — is a clean exit, never a panic.

use crate::message::{channel, DepthGauge, Disconnected, Envelope, Payload, Rx, Tx};
use crate::snapshot::ShardSnapshot;
use quest_core::network::PacketKind;
use quest_core::tile;
use quest_core::{decode_totals, DeliveryEngine, DeliveryMode, Mce, Substrate};
use quest_stabilizer::{PauliChannel, SeedableRng, StdRng};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Per-direction bound of each master ↔ shard channel. Upstream it is
/// how far a free-running shard gets ahead of the master: the shard
/// blocks once this many of its envelopes (at least one per cycle, at
/// most one plus two escalations per tile) wait unconsumed. Downstream
/// it never fills: a grant, then at most one cycle's corrections.
const CHANNEL_BOUND: usize = 1024;

/// Where a worker's upstream envelopes go.
pub(crate) enum Upstream {
    /// To the master's thread, over the shard's bounded channel.
    Channel(Tx<Envelope>),
    /// Into a queue the master pops itself (inline worker).
    Queue(VecDeque<Envelope>),
}

impl Upstream {
    fn send(&mut self, env: Envelope) -> Result<(), Disconnected> {
        match self {
            Upstream::Channel(tx) => tx.send(env),
            Upstream::Queue(queue) => {
                queue.push_back(env);
                Ok(())
            }
        }
    }

    /// Takes the oldest queued envelope. A channel holds none here: its
    /// envelopes are at the receiving end.
    fn pop(&mut self) -> Option<Envelope> {
        match self {
            Upstream::Channel(_) => None,
            Upstream::Queue(queue) => queue.pop_front(),
        }
    }

    fn queued(&self) -> usize {
        match self {
            Upstream::Channel(_) => 0,
            Upstream::Queue(queue) => queue.len(),
        }
    }
}

/// The master's end of one shard: the same envelopes either way, only
/// the transport differs.
pub(crate) enum ShardLink {
    /// The worker runs on its own thread behind a bounded channel pair.
    Threaded {
        down: Tx<Envelope>,
        up: Rx<Envelope>,
        down_gauge: DepthGauge,
        up_gauge: DepthGauge,
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

impl ShardLink {
    /// Links the worker `build` makes for the given upstream end. With
    /// `inline` the worker stays on the caller's thread; otherwise it
    /// gets a thread of its own in `scope`.
    pub(crate) fn new<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        inline: bool,
        build: impl FnOnce(Upstream) -> ShardWorker,
    ) -> ShardLink {
        if inline {
            return ShardLink::Inline {
                worker: Box::new(build(Upstream::Queue(VecDeque::new()))),
                serving: true,
                max_up: 0,
            };
        }
        let (down, down_rx, down_gauge) = channel(CHANNEL_BOUND);
        let (up_tx, up, up_gauge) = channel(CHANNEL_BOUND);
        let worker = build(Upstream::Channel(up_tx));
        scope.spawn(move || worker.run(&down_rx));
        ShardLink::Threaded {
            down,
            up,
            down_gauge,
            up_gauge,
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
    /// worker.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the worker is gone (threaded) or has
    /// nothing left to say (inline).
    pub(crate) fn recv(&mut self) -> Result<Envelope, Disconnected> {
        match self {
            ShardLink::Threaded { up, .. } => up.recv(),
            ShardLink::Inline { worker, .. } => worker.up.pop().ok_or(Disconnected),
        }
    }

    /// Deepest the downstream and the upstream side ever got (an inline
    /// worker has one envelope in hand at a time).
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
    /// Fault injection: panic once this many QECC cycles completed.
    panic_after_cycles: Option<u64>,
    cycles_done: u64,
    /// Cycles of the current grant not yet run.
    granted: u64,
    /// Corrections the last cycle's escalations are still owed; the next
    /// cycle starts when this is back to zero. Both are zero at every
    /// barrier, so neither travels in a [`ShardSnapshot`].
    awaiting: usize,
}

impl ShardWorker {
    /// Builds a shard over `tiles` (global ids), each tile a clone of
    /// the run's `template` MCE, with per-tile RNG streams derived from
    /// `master_seed`. A `panic_after_cycles` schedule makes the worker
    /// panic mid-run (containment drill).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shard: usize,
        tiles: Range<usize>,
        template: &Mce,
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
        ShardWorker {
            shard,
            substrate: Substrate::new(tiles.len(), template.lattice().num_qubits()),
            mces: vec![template.clone(); tiles.len()],
            tiles,
            noise: PauliChannel::depolarizing(error_rate),
            engine: DeliveryEngine::new(delivery),
            rngs,
            up,
            panic_after_cycles,
            cycles_done: 0,
            granted: 0,
            awaiting: 0,
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
            panic_after_cycles,
            cycles_done: state.cycles_done,
            granted: 0,
            awaiting: 0,
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
    /// response). The thread always returns normally, so the enclosing
    /// scope never re-panics.
    pub(crate) fn run(mut self, rx: &Rx<Envelope>) {
        while let Ok(env) = rx.recv() {
            if !self.deliver(env) {
                return;
            }
        }
    }

    /// Handles one downstream envelope under panic containment and says
    /// whether the worker still serves. A caught panic is reported
    /// upstream as [`Payload::Failed`] and ends service.
    pub(crate) fn deliver(&mut self, env: Envelope) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.handle(env))) {
            Ok(serving) => serving,
            Err(payload) => self.fail(panic_detail(payload.as_ref())),
        }
    }

    /// One message; `false` once the worker is done serving.
    fn handle(&mut self, env: Envelope) -> bool {
        // With corrections outstanding the worker is inside a cycle op,
        // where the master sends nothing else; anything else would act
        // on frames that are not settled.
        if self.awaiting > 0 && !matches!(env.payload, Payload::Correction { .. }) {
            return self.fail(format!(
                "{} correction(s) outstanding at a shard worker, got {:?}",
                self.awaiting, env.payload
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
            Payload::Correction { tile, kind, flips } => {
                if self.awaiting == 0 {
                    return self.fail(format!(
                        "correction for tile {tile} that no escalation waits for"
                    ));
                }
                let l = self.local(tile);
                self.mces[l]
                    .decoder_mut(kind)
                    .apply_global_correction(flips);
                self.awaiting -= 1;
                self.run_granted()
            }
            Payload::MeasureZ { tile } => {
                let l = self.local(tile);
                let readout = self.mces[l]
                    .measure_logical_z_details(self.substrate.block_mut(l), &mut self.rngs[l]);
                self.up
                    .send(Envelope::outcome(tile, readout.value, readout.final_events))
                    .is_ok()
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
                self.up
                    .send(Envelope::control(
                        PacketKind::Upstream,
                        Payload::ShardState {
                            shard: self.shard,
                            state: Box::new(state),
                        },
                    ))
                    .is_ok()
            }
            Payload::Shutdown => {
                // Sign off with the counters only this worker saw.
                let (local_decodes, _) = decode_totals(&self.mces);
                let _ = self.up.send(Envelope::control(
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
        let _ = self.up.send(Envelope::control(
            PacketKind::Upstream,
            Payload::Failed {
                shard: self.shard,
                detail,
            },
        ));
        false
    }

    /// Runs granted cycles back to back until the grant is spent or a
    /// cycle escalated (its corrections re-enter here); `false` means
    /// the master hung up.
    fn run_granted(&mut self) -> bool {
        while self.granted > 0 && self.awaiting == 0 {
            self.granted -= 1;
            if self.run_cycle().is_err() {
                return false;
            }
        }
        true
    }

    /// One noisy QECC cycle over every owned tile: the noise layer and
    /// microcode cycle consume each tile's own stream in reference order;
    /// escalations the local decoders could not resolve ship upstream
    /// (and are counted: each is owed one correction), then the cycle
    /// barrier. `Err` means the master hung up.
    fn run_cycle(&mut self) -> Result<(), ()> {
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
                self.up
                    .send(Envelope::syndrome(tile, kind, escalation))
                    .map_err(|_| ())?;
                self.awaiting += 1;
            }
        }
        self.cycles_done += 1;
        self.up
            .send(Envelope::control(
                PacketKind::Upstream,
                Payload::CycleDone { shard: self.shard },
            ))
            .map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_core::MCE_IBUF_BYTES;
    use quest_surface::{RotatedLattice, StabKind};

    /// A two-tile shard 0 at distance `d` and error rate `p`.
    fn link_at<'scope>(
        inline: bool,
        scope: &'scope std::thread::Scope<'scope, '_>,
        (d, p): (usize, f64),
        panic_after: Option<u64>,
    ) -> ShardLink {
        let template = Mce::new(&RotatedLattice::new(d), MCE_IBUF_BYTES);
        ShardLink::new(scope, inline, |up| {
            ShardWorker::new(
                0,
                0..2,
                &template,
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
    ) -> ShardLink {
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
    /// `(tile, kind)` and the number of `CycleDone`s. Escalations may
    /// only sit in the last cycle queued — the worker must not have run
    /// past a cycle that escalated.
    fn drain_queue(link: &mut ShardLink) -> (Vec<(usize, StabKind)>, usize) {
        let (mut escalations, mut barriers, mut stalled) = (Vec::new(), 0, false);
        while let Ok(env) = link.recv() {
            assert!(!stalled, "ran past a cycle that escalated: {env:?}");
            match env.payload {
                Payload::Syndrome { tile, kind, .. } => escalations.push((tile, kind)),
                Payload::CycleDone { .. } => {
                    barriers += 1;
                    stalled = !escalations.is_empty();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        (escalations, barriers)
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
    fn a_grant_stalls_only_for_the_corrections_of_its_own_escalations() {
        std::thread::scope(|scope| {
            let mut inline = link_at(true, scope, (5, 2e-2), None);
            inline.send(cycles(50)).unwrap();
            let mut barriers = 0;
            let mut stalls = 0;
            loop {
                // The worker stopped right behind the first cycle that
                // escalated: that cycle's envelopes are the last queued.
                let (escalations, done) = drain_queue(&mut inline);
                barriers += done;
                if escalations.is_empty() {
                    break;
                }
                stalls += 1;
                let (last, rest) = escalations.split_last().unwrap();
                let correction =
                    |&(tile, kind): &(usize, StabKind)| Envelope::correction(tile, kind, vec![]);
                // Every correction but the last leaves it stalled...
                for e in rest {
                    inline.send(correction(e)).unwrap();
                    assert!(
                        inline.recv().is_err(),
                        "ran on with a correction outstanding"
                    );
                }
                // ...and the last one restarts it.
                inline.send(correction(last)).unwrap();
            }
            assert!(stalls > 0, "d = 5 at p = 2e-2 escalates within 50 cycles");
            assert_eq!(barriers, 50);
            // Spent grant, nothing outstanding: the worker is at a
            // barrier and serves the next operation.
            inline.send(cycles(1)).unwrap();
            assert_eq!(drain_queue(&mut inline).1, 1);
        });
    }

    #[test]
    fn protocol_violations_inside_a_grant_are_reported_not_panicked() {
        std::thread::scope(|scope| {
            // A correction nobody waits for.
            let mut idle = link(true, scope, None);
            idle.send(Envelope::correction(0, StabKind::Z, vec![]))
                .unwrap();
            expect_failed(&mut idle, "no escalation waits for");

            // Anything but a correction while corrections are outstanding.
            let mut stalled = link_at(true, scope, (5, 2e-2), None);
            stalled.send(cycles(50)).unwrap();
            stalled
                .send(Envelope::control(
                    PacketKind::Downstream,
                    Payload::MeasureZ { tile: 0 },
                ))
                .unwrap();
            expect_failed(&mut stalled, "outstanding");
        });
    }
}
