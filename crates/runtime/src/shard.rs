//! Shard worker: one thread owning a contiguous group of tiles.
//!
//! Each shard holds its own MCEs and its own stabilizer tableau spanning
//! only its tiles. That is physically exact as long as entanglement never
//! crosses a shard boundary — tiles start in product states and the spec
//! validator rejects cross-shard CNOTs — and it is also where the
//! runtime's speedup comes from beyond the thread count: over a tableau
//! of `n` qubits a gate costs O(n/64) word operations and a measurement
//! an O(n·n/64) column scan, and a tile-cycle is a fixed number of each,
//! so a shard's work per tile-cycle grows with the width of its tableau.
//! Two shards of 196 qubits run 8 tiles at d = 5 2.6 times as fast as
//! one of 392 on two cores (`k.runtime.shard2_speedup` in `benchmark/`).
//!
//! Every tile draws from its own RNG stream
//! ([`tile_seed`](quest_core::tile::tile_seed)), in the same fixed order
//! the single-threaded reference uses (noise layer, then the microcode
//! cycle), so a shard's outcomes do not depend on which thread runs it.
//!
//! The worker is panic-contained: its serve loop runs under
//! `catch_unwind`, and any panic (including the fault layer's scheduled
//! one) is converted into an upstream [`Payload::Failed`] report so the
//! master can shut the run down with a typed error instead of the
//! process aborting. A disconnected channel — the master bailed out
//! early — is a clean exit, never a panic.

use crate::message::{Envelope, Payload, Rx, Tx};
use crate::snapshot::ShardSnapshot;
use quest_core::network::PacketKind;
use quest_core::tile;
use quest_core::{decode_totals, DeliveryEngine, DeliveryMode, Mce, MCE_IBUF_BYTES};
use quest_stabilizer::{PauliChannel, SeedableRng, StdRng, Tableau};
use quest_surface::RotatedLattice;
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

/// Owned state of one shard worker.
pub(crate) struct ShardWorker {
    shard: usize,
    /// Global tile ids owned by this shard.
    tiles: Range<usize>,
    mces: Vec<Mce>,
    substrate: Tableau,
    noise: PauliChannel,
    engine: DeliveryEngine,
    rngs: Vec<StdRng>,
    rx: Rx<Envelope>,
    tx: Tx<Envelope>,
    /// Fault injection: panic once this many QECC cycles completed.
    panic_after_cycles: Option<u64>,
    cycles_done: u64,
}

impl ShardWorker {
    /// Builds a shard over `tiles` (global ids), with per-tile RNG
    /// streams derived from `master_seed`. A `panic_after_cycles`
    /// schedule makes the worker panic mid-run (containment drill).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shard: usize,
        tiles: Range<usize>,
        lattice: &RotatedLattice,
        error_rate: f64,
        delivery: DeliveryMode,
        master_seed: u64,
        rx: Rx<Envelope>,
        tx: Tx<Envelope>,
        panic_after_cycles: Option<u64>,
    ) -> ShardWorker {
        let tile_width = lattice.num_qubits();
        let mces: Vec<Mce> = (0..tiles.len())
            .map(|local| Mce::with_offset(lattice, MCE_IBUF_BYTES, local * tile_width))
            .collect();
        let rngs = tiles
            .clone()
            .map(|t| StdRng::seed_from_u64(tile::tile_seed(master_seed, t as u64)))
            .collect();
        ShardWorker {
            shard,
            substrate: Tableau::new(tiles.len() * tile_width),
            tiles,
            mces,
            noise: PauliChannel::depolarizing(error_rate),
            engine: DeliveryEngine::new(delivery),
            rngs,
            rx,
            tx,
            panic_after_cycles,
            cycles_done: 0,
        }
    }

    /// Rebuilds a shard worker from a checkpoint: MCEs, tableau, RNG
    /// streams and the cycle counter resume exactly where the snapshot
    /// froze them; the stateless noise channel and delivery engine are
    /// rebuilt from the spec. The panic schedule compares for *equality*
    /// against the restored counter, so a drill that already fired
    /// before the snapshot can never re-fire on resume.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot(
        shard: usize,
        tiles: Range<usize>,
        error_rate: f64,
        delivery: DeliveryMode,
        state: ShardSnapshot,
        rx: Rx<Envelope>,
        tx: Tx<Envelope>,
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
            rx,
            tx,
            panic_after_cycles,
            cycles_done: state.cycles_done,
        }
    }

    fn local(&self, tile: usize) -> usize {
        debug_assert!(self.tiles.contains(&tile), "tile {tile} not on this shard");
        tile - self.tiles.start
    }

    /// Thread entry point: the serve loop under panic containment. A
    /// caught panic is reported upstream as [`Payload::Failed`]; the
    /// thread itself always returns normally, so the enclosing scope
    /// never re-panics.
    pub(crate) fn run(self) {
        let shard = self.shard;
        let tx = self.tx.clone();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(move || self.serve())) {
            let _ = tx.send(Envelope::control(
                PacketKind::Upstream,
                Payload::Failed {
                    shard,
                    detail: panic_detail(payload.as_ref()),
                },
            ));
        }
    }

    /// Message loop; returns when the master sends `Shutdown` or hangs
    /// up (a disconnect means the master already shut down, possibly on
    /// an error of its own — exiting quietly is the right response).
    fn serve(mut self) {
        loop {
            let env = match self.rx.recv() {
                Ok(env) => env,
                Err(_) => return,
            };
            match env.payload {
                Payload::Cycle => {
                    if self.run_cycle().is_err() {
                        return;
                    }
                }
                Payload::Prep { tile, basis } => {
                    let l = self.local(tile);
                    tile::prep_logical(
                        &mut self.mces[l],
                        basis,
                        &mut self.substrate,
                        &mut self.rngs[l],
                    );
                }
                Payload::Cnot { control, target } => {
                    let (lc, lt) = (self.local(control), self.local(target));
                    if let Err(e) =
                        tile::transversal_cnot_physics(&mut self.mces, &mut self.substrate, lc, lt)
                    {
                        // Validated specs make this unreachable; report it
                        // like a caught panic and stop serving.
                        let _ = self.tx.send(Envelope::control(
                            PacketKind::Upstream,
                            Payload::Failed {
                                shard: self.shard,
                                detail: format!("transversal CNOT rejected: {e}"),
                            },
                        ));
                        return;
                    }
                }
                Payload::Logical { tile, instr } => {
                    let l = self.local(tile);
                    self.engine.dispatch_local(&mut self.mces[l], instr);
                }
                Payload::Kernel {
                    tile,
                    kernel,
                    replays,
                } => {
                    let l = self.local(tile);
                    self.engine
                        .kernel_local(&mut self.mces[l], &kernel, replays);
                }
                Payload::Correction { tile, kind, flips } => {
                    let l = self.local(tile);
                    self.mces[l]
                        .decoder_mut(kind)
                        .apply_global_correction(flips);
                }
                Payload::MeasureZ { tile } => {
                    let l = self.local(tile);
                    let readout = self.mces[l]
                        .measure_logical_z_details(&mut self.substrate, &mut self.rngs[l]);
                    if self
                        .tx
                        .send(Envelope::outcome(tile, readout.value, readout.final_events))
                        .is_err()
                    {
                        return;
                    }
                }
                Payload::Snapshot => {
                    // Deep-clone the owned state at the barrier. The
                    // clone observes; nothing about the run changes.
                    let state = ShardSnapshot {
                        mces: self.mces.clone(),
                        substrate: self.substrate.clone(),
                        rngs: self.rngs.clone(),
                        cycles_done: self.cycles_done,
                    };
                    if self
                        .tx
                        .send(Envelope::control(
                            PacketKind::Upstream,
                            Payload::ShardState {
                                shard: self.shard,
                                state: Box::new(state),
                            },
                        ))
                        .is_err()
                    {
                        return;
                    }
                }
                Payload::Shutdown => {
                    // Sign off with the counters only this thread saw.
                    let (local_decodes, _) = decode_totals(&self.mces);
                    let _ = self.tx.send(Envelope::control(
                        PacketKind::Upstream,
                        Payload::Closing {
                            shard: self.shard,
                            local_decodes,
                        },
                    ));
                    return;
                }
                Payload::Syndrome { .. }
                | Payload::CycleDone { .. }
                | Payload::Outcome { .. }
                | Payload::Closing { .. }
                | Payload::ShardState { .. }
                | Payload::Failed { .. } => {
                    // An upstream payload reaching a shard is a protocol
                    // bug in the master; report it and stop serving
                    // instead of panicking the worker thread.
                    let _ = self.tx.send(Envelope::control(
                        PacketKind::Upstream,
                        Payload::Failed {
                            shard: self.shard,
                            detail: format!("upstream payload at a shard worker: {:?}", env.kind),
                        },
                    ));
                    return;
                }
            }
        }
    }

    /// One noisy QECC cycle over every owned tile: the noise layer and
    /// microcode cycle consume each tile's own stream in reference order;
    /// escalations the local decoders could not resolve ship upstream,
    /// then the cycle barrier. `Err` means the master hung up.
    fn run_cycle(&mut self) -> Result<(), ()> {
        if self.panic_after_cycles == Some(self.cycles_done) {
            // quest-lint: allow(QL01) -- deliberate fault injection: this drill exercises the catch_unwind containment in run()
            panic!(
                "injected shard-worker panic after {} cycles",
                self.cycles_done
            );
        }
        for (mce, rng) in self.mces.iter().zip(self.rngs.iter_mut()) {
            tile::noise_layer(mce, &self.noise, &mut self.substrate, rng);
        }
        for local in 0..self.mces.len() {
            self.mces[local].run_qecc_cycle(&mut self.substrate, &mut self.rngs[local]);
            for (kind, escalation) in self.mces[local].take_escalations() {
                let tile = self.tiles.start + local;
                self.tx
                    .send(Envelope::syndrome(tile, kind, escalation))
                    .map_err(|_| ())?;
            }
        }
        self.cycles_done += 1;
        self.tx
            .send(Envelope::control(
                PacketKind::Upstream,
                Payload::CycleDone { shard: self.shard },
            ))
            .map_err(|_| ())
    }
}
