//! Channel messages between the master thread and shard workers.
//!
//! Messages are shaped like the single-threaded model's
//! [`quest_core::network::Packet`]s: every envelope carries a transfer
//! direction and the number of bytes it would occupy on the global bus.
//! The master mints real [`Network`](quest_core::network::Network)
//! packets from envelopes as they flow, so packet and byte accounting
//! fall out of actual message traffic instead of a side calculation.
//! Control-plane envelopes (cycle grants, cycle barriers, readout
//! outcomes) carry zero wire bytes — they model what the single-threaded
//! loop does implicitly — keeping the bus ledger identical to the
//! reference systems.
//!
//! Inside a `Cycles` op the only downstream traffic is the grants
//! ([`Payload::Cycles`]: one for a threaded shard, a window at a time for
//! the inline shard 0) and the [`Payload::Correction`]s the shard's own
//! escalations asked for (§4.4 of the paper). A shard does not wait for
//! them: a correction only updates a decoder's Pauli frame, which no QECC
//! cycle reads, and every envelope that does read one — the next grant
//! included — comes after the corrections of every cycle granted before
//! it in the FIFO. A correction travels as the data-qubit words the
//! decode pool answered with, shared with the runtime's memo.

use quest_core::decoder_pipeline::Escalation;
use quest_core::master::SYNDROME_EVENT_BYTES;
use quest_core::network::PacketKind;
use quest_core::tile::LogicalBasis;
use quest_isa::LogicalInstr;
use quest_surface::StabKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;

/// Bytes per data-qubit flip in a downstream correction message (qubit
/// id, same width as an upstream syndrome event).
pub(crate) const CORRECTION_FLIP_BYTES: u64 = 2;

/// Message body.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    // Downstream (master → shard).
    /// A grant: run this many noisy QECC cycles on every owned tile back
    /// to back, reporting each one upstream as it completes. Nothing
    /// holds the worker inside a grant but a full upstream channel: the
    /// `Correction`s its escalations asked for are applied as they
    /// arrive, between cycles, never waited for. A threaded shard is
    /// granted a whole `Cycles` op at once; the inline shard 0 one cycle
    /// first, then a window of [`SHARD0_WINDOW`](crate::SHARD0_WINDOW)
    /// each time the master has consumed the last; any shard one at a
    /// time under a checkpoint sink.
    Cycles(u64),
    /// Prepare a tile's logical qubit.
    Prep { tile: usize, basis: LogicalBasis },
    /// Transversal CNOT between two co-sharded tiles.
    Cnot { control: usize, target: usize },
    /// Deliver one logical instruction to a tile's pipeline (the master
    /// already bus-accounted it).
    Logical { tile: usize, instr: LogicalInstr },
    /// Execute the distillation kernel `replays` times on a tile
    /// (pipeline delivery, or cache fill + replay under the cached
    /// delivery mode; the master already bus-accounted it).
    Kernel {
        tile: usize,
        kernel: Arc<[LogicalInstr]>,
        replays: u64,
    },
    /// Apply a global-decode correction to a tile's decoder frame (XORed
    /// in, so corrections commute with each other and with the local
    /// decoder's own frame updates). `flips` holds the data qubits to
    /// flip as words of the frame's width, bit `q % 64` of word `q / 64`.
    Correction {
        tile: usize,
        kind: StabKind,
        flips: Arc<[u64]>,
    },
    /// Destructively read a tile out in the logical-Z basis.
    MeasureZ { tile: usize },
    /// Checkpoint request: reply with the shard's owned state. Sent only
    /// at the cycle barrier, after the cycle's corrections — channel
    /// FIFO order guarantees they are applied before the state is read.
    Snapshot,
    /// Terminate the worker.
    Shutdown,

    // Upstream (shard → master).
    /// An escalation the tile's local decoder could not resolve.
    Syndrome {
        tile: usize,
        kind: StabKind,
        escalation: Escalation,
    },
    /// Cycle barrier: the shard finished its cycle and flushed all
    /// syndromes above.
    CycleDone { shard: usize },
    /// Readout result; `final_events` is the number of residual
    /// detection events in the final perfect decoding round, which cross
    /// the bus upstream as syndrome traffic.
    Outcome {
        tile: usize,
        value: bool,
        final_events: u64,
    },
    /// Worker sign-off after `Shutdown`, carrying the counters only the
    /// shard could see.
    Closing { shard: usize, local_decodes: u64 },
    /// Reply to `Snapshot`: the shard's complete state at the barrier.
    /// Control-plane traffic (zero wire bytes): checkpoints observe the
    /// run, they are not part of the modelled machine.
    ShardState {
        shard: usize,
        state: Box<crate::snapshot::ShardSnapshot>,
    },
    /// The shard's serve loop panicked; the worker caught it and is
    /// exiting. `detail` is the panic message, forwarded so the master
    /// can surface a typed error instead of aborting the process.
    Failed { shard: usize, detail: String },
}

/// A packet-shaped message: direction + wire bytes + body.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub kind: PacketKind,
    /// Bytes this message occupies on the modelled global bus (zero for
    /// control-plane traffic).
    pub wire_bytes: u64,
    pub payload: Payload,
}

impl Envelope {
    /// A zero-byte control-plane envelope.
    pub(crate) fn control(kind: PacketKind, payload: Payload) -> Envelope {
        Envelope {
            kind,
            wire_bytes: 0,
            payload,
        }
    }

    /// An upstream syndrome envelope ([`SYNDROME_EVENT_BYTES`] per
    /// detection event, matching the master controller's escalation
    /// accounting).
    pub(crate) fn syndrome(tile: usize, kind: StabKind, escalation: Escalation) -> Envelope {
        Envelope {
            kind: PacketKind::Upstream,
            wire_bytes: escalation.events.len() as u64 * SYNDROME_EVENT_BYTES,
            payload: Payload::Syndrome {
                tile,
                kind,
                escalation,
            },
        }
    }

    /// A downstream correction envelope ([`CORRECTION_FLIP_BYTES`] per
    /// flipped data qubit).
    pub(crate) fn correction(tile: usize, kind: StabKind, flips: Arc<[u64]>) -> Envelope {
        let weight: u64 = flips.iter().map(|w| u64::from(w.count_ones())).sum();
        Envelope {
            kind: PacketKind::Downstream,
            wire_bytes: weight * CORRECTION_FLIP_BYTES,
            payload: Payload::Correction { tile, kind, flips },
        }
    }

    /// A downstream instruction-delivery envelope carrying `wire_bytes`
    /// of bus traffic (the master accounts the bus ledger separately;
    /// this prices the interconnect packet).
    pub(crate) fn instructions(wire_bytes: u64, payload: Payload) -> Envelope {
        Envelope {
            kind: PacketKind::Downstream,
            wire_bytes,
            payload,
        }
    }

    /// An upstream readout-outcome envelope
    /// ([`SYNDROME_EVENT_BYTES`] per residual final-round event).
    pub(crate) fn outcome(tile: usize, value: bool, final_events: u64) -> Envelope {
        Envelope {
            kind: PacketKind::Upstream,
            wire_bytes: final_events * SYNDROME_EVENT_BYTES,
            payload: Payload::Outcome {
                tile,
                value,
                final_events,
            },
        }
    }
}

/// Sender half of a depth-tracked bounded channel.
pub(crate) struct Tx<T> {
    inner: SyncSender<T>,
    /// Envelopes sent and not yet received, counting a send still
    /// blocked on a full channel.
    depth: Arc<AtomicUsize>,
    high_water: Arc<AtomicUsize>,
    /// Most envelopes the channel holds.
    bound: usize,
}

impl<T> Clone for Tx<T> {
    fn clone(&self) -> Tx<T> {
        Tx {
            inner: self.inner.clone(),
            depth: Arc::clone(&self.depth),
            high_water: Arc::clone(&self.high_water),
            bound: self.bound,
        }
    }
}

/// The other half of a runtime channel hung up early — its thread died
/// or shut down. Callers translate this into a typed
/// [`RuntimeError`](crate::RuntimeError) (master side) or a clean worker
/// exit (shard side); nothing in the runtime panics on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Disconnected;

impl<T> Tx<T> {
    /// Sends, blocking when the channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] when the receiver is gone (mpsc
    /// guarantees the error even on a full channel, so a dead peer can
    /// never deadlock the sender).
    pub(crate) fn send(&self, value: T) -> Result<(), Disconnected> {
        // A send that finds the channel full is counted before it blocks,
        // but the channel never holds more than its bound.
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water
            .fetch_max(depth.min(self.bound), Ordering::Relaxed);
        self.inner.send(value).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Disconnected
        })
    }
}

/// Receiver half of a depth-tracked bounded channel.
pub(crate) struct Rx<T> {
    inner: Receiver<T>,
    depth: Arc<AtomicUsize>,
}

impl<T> Rx<T> {
    /// Blocking receive.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] when every sender is gone.
    pub(crate) fn recv(&self) -> Result<T, Disconnected> {
        let value = self.inner.recv().map_err(|_| Disconnected)?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Ok(value)
    }

    /// Non-blocking receive: `Ok(None)` when nothing is waiting.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] when the channel is empty and every
    /// sender is gone.
    pub(crate) fn try_recv(&self) -> Result<Option<T>, Disconnected> {
        match self.inner.try_recv() {
            Ok(value) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Ok(Some(value))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Disconnected),
        }
    }
}

/// Observer for a channel's high-water depth (master-side statistics),
/// never more than the channel's bound.
#[derive(Clone)]
pub(crate) struct DepthGauge {
    high_water: Arc<AtomicUsize>,
}

impl DepthGauge {
    /// Deepest the channel ever got.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Creates a bounded channel whose occupancy is tracked, returning the
/// two halves plus a gauge for the high-water mark.
pub(crate) fn channel<T>(bound: usize) -> (Tx<T>, Rx<T>, DepthGauge) {
    let (tx, rx) = std::sync::mpsc::sync_channel(bound);
    let depth = Arc::new(AtomicUsize::new(0));
    let high_water = Arc::new(AtomicUsize::new(0));
    (
        Tx {
            inner: tx,
            depth: Arc::clone(&depth),
            high_water: Arc::clone(&high_water),
            bound,
        },
        Rx { inner: rx, depth },
        DepthGauge { high_water },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_gauge_tracks_high_water() {
        let (tx, rx, gauge) = channel::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(gauge.high_water(), 3);
        assert_eq!(rx.recv(), Ok(1));
        tx.send(4).unwrap(); // depth back to 3: watermark unchanged
        assert_eq!(gauge.high_water(), 3);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Ok(4));
    }

    #[test]
    fn a_send_blocked_on_a_full_channel_is_not_counted_as_held() {
        let (tx, rx, gauge) = channel::<u32>(1);
        tx.send(1).unwrap(); // channel now full
        let while_blocked = std::thread::scope(|scope| {
            let blocked = scope.spawn(|| tx.send(2));
            // Wait until the second send is under way: counted, blocked.
            while tx.depth.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            let high_water = gauge.high_water();
            // Unblock the sender before asserting anything, so that a
            // failure fails the test instead of hanging it.
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(blocked.join().unwrap(), Ok(()));
            high_water
        });
        assert_eq!(while_blocked, 1);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(gauge.high_water(), 1);
    }

    #[test]
    fn try_recv_never_waits() {
        let (tx, rx, _) = channel::<u32>(2);
        assert_eq!(rx.try_recv(), Ok(None));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(Some(1)));
        assert_eq!(rx.try_recv(), Ok(None));
        // What was sent before the hang-up is still delivered.
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(Some(2)));
        assert_eq!(rx.try_recv(), Err(Disconnected));
    }

    #[test]
    fn hangups_surface_as_disconnected_not_panics() {
        let (tx, rx, _) = channel::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(Disconnected));
        let (tx, rx, _) = channel::<u32>(2);
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn dead_receiver_cannot_deadlock_a_full_channel() {
        let (tx, rx, _) = channel::<u32>(1);
        tx.send(1).unwrap(); // channel now full
        drop(rx);
        // A blocking send on a full channel with no receiver must error,
        // not block forever.
        assert_eq!(tx.send(2), Err(Disconnected));
    }

    #[test]
    fn syndrome_envelope_prices_events() {
        let esc = Escalation {
            round: 7,
            events: vec![1, 4, 5],
        };
        let env = Envelope::syndrome(2, StabKind::Z, esc);
        assert_eq!(env.wire_bytes, 3 * SYNDROME_EVENT_BYTES);
        assert_eq!(env.kind, PacketKind::Upstream);
    }

    #[test]
    fn a_correction_prices_its_flipped_qubits() {
        let env = Envelope::correction(1, StabKind::X, Arc::from([0b1011, 1 << 63]));
        assert_eq!(env.wire_bytes, 4 * CORRECTION_FLIP_BYTES);
        assert_eq!(env.kind, PacketKind::Downstream);
        let none = Envelope::correction(1, StabKind::X, Arc::from([0]));
        assert_eq!(none.wire_bytes, 0);
    }

    #[test]
    fn control_envelopes_are_free() {
        let env = Envelope::control(PacketKind::Downstream, Payload::Cycles(1800));
        assert_eq!(env.wire_bytes, 0);
    }
}
