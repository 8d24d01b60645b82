//! Master controller (§4.2, footnote 3).
//!
//! The master controller sits in the 77 K domain, dispatches logical
//! instructions to MCEs over the packet-switched global bus, runs the
//! *global* error decoder for syndrome patterns the MCEs' local lookup
//! decoders escalate, and issues synchronization tokens. Every byte it
//! moves is tallied in [`BusCounters`], because the bus traffic *is* the
//! experiment.

use crate::bus::{BusCounters, Traffic};
use crate::decoder_pipeline::Escalation;
use crate::instruction_pipeline::traffic_class;
use crate::mce::Mce;
use quest_isa::{InstrClass, LogicalInstr};
use quest_surface::decoder::{CostReport, DecodeEngine, DecoderChoice};
use quest_surface::StabKind;

/// Bytes of syndrome data per escalated detection event (check id + round
/// tag in the upstream packet format).
pub const SYNDROME_EVENT_BYTES: u64 = 2;

/// Bytes per synchronization token.
pub const SYNC_TOKEN_BYTES: u64 = 2;

/// Statistics for the master controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Logical instructions dispatched.
    pub dispatched: u64,
    /// Escalations resolved by the global decoder.
    pub global_decodes: u64,
    /// Sync tokens issued.
    pub sync_tokens: u64,
}

/// The master controller of a QuEST control processor.
#[derive(Debug, Clone)]
pub struct MasterController {
    bus: BusCounters,
    stats: MasterStats,
    decoder: DecodeEngine,
}

impl Default for MasterController {
    fn default() -> MasterController {
        MasterController::with_decoder(DecoderChoice::default())
    }
}

impl MasterController {
    /// Creates a master controller with zeroed counters and the default
    /// (software union-find) global decoder backend.
    pub fn new() -> MasterController {
        MasterController::default()
    }

    /// Creates a master controller whose global decoder is the backend
    /// selected by `choice`.
    pub fn with_decoder(choice: DecoderChoice) -> MasterController {
        MasterController {
            bus: BusCounters::default(),
            stats: MasterStats::default(),
            decoder: choice.backend(),
        }
    }

    /// Accumulated decode-cost counters of the global decoder backend.
    pub fn decoder_cost(&self) -> CostReport {
        self.decoder.cost()
    }

    /// Global-bus traffic counters.
    pub fn bus(&self) -> &BusCounters {
        &self.bus
    }

    /// Crate-internal accounting hook: the system model records traffic
    /// (e.g. baseline QECC streams) that does not flow through a public
    /// dispatch method. Kept out of the public API so external users
    /// cannot forge counters.
    pub(crate) fn record_traffic(&mut self, class: Traffic, bytes: u64) {
        self.bus.record(class, bytes);
    }

    /// Accounts `bytes` resent on the bus after a drop or CRC failure.
    /// Retransmissions are the one traffic class a fault-recovery layer
    /// outside this crate legitimately generates, so this hook is public
    /// where the general `record_traffic` hook is not.
    pub fn note_retransmission(&mut self, bytes: u64) {
        self.bus.record(Traffic::Retransmit, bytes);
    }

    /// Statistics so far.
    pub fn stats(&self) -> MasterStats {
        self.stats
    }

    /// Accounts the dispatch of one logical instruction to an MCE: two
    /// bytes downstream in the instruction's traffic class. The master
    /// owns the bus, not the MCE — whoever holds the tile (the reference
    /// system, or the runtime shard the instruction is shipped to)
    /// delivers it to the tile's pipeline.
    pub fn dispatch_remote(&mut self, class: InstrClass) {
        self.bus
            .record(traffic_class(class), LogicalInstr::ENCODED_BYTES as u64);
        self.stats.dispatched += 1;
    }

    /// Accounts a cache fill of `instr_count` instructions on an MCE:
    /// the block crosses the bus once (the tile's holder performs the
    /// fill itself).
    pub fn cache_fill_remote(&mut self, instr_count: u64) {
        self.bus.record(
            Traffic::CacheFill,
            instr_count * LogicalInstr::ENCODED_BYTES as u64,
        );
        self.stats.dispatched += instr_count;
    }

    /// Accounts a replay command for a cached block of `instr_count`
    /// instructions: one two-byte command downstream; the block's
    /// instructions issue locally at the MCE.
    pub fn cache_replay_remote(&mut self, instr_count: u64) {
        self.bus
            .record(Traffic::Sync, LogicalInstr::ENCODED_BYTES as u64);
        self.stats.dispatched += instr_count;
    }

    /// Accounts a synchronization token sent to an MCE.
    pub fn sync_remote(&mut self, _token: u8) {
        self.bus.record(Traffic::Sync, SYNC_TOKEN_BYTES);
        self.stats.sync_tokens += 1;
    }

    /// Accounts one escalation arriving over the bus (`event_count`
    /// detection events upstream) and its global decode, without
    /// performing the decode. The message-driven runtime uses this: the
    /// decode itself happens in a worker pool against the batching API
    /// (`quest_surface::decoder::batch`), while the traffic and decode
    /// counts stay on the master's ledger exactly as in
    /// [`MasterController::service_escalations`].
    pub fn note_escalation(&mut self, event_count: u64) {
        self.bus
            .record(Traffic::Syndrome, event_count * SYNDROME_EVENT_BYTES);
        self.stats.global_decodes += 1;
    }

    /// Accounts the residual syndrome of a destructive logical readout
    /// (`event_count` detection events upstream). Unlike
    /// [`MasterController::note_escalation`] this is not a global decode
    /// — the final perfect round is resolved at readout, the master only
    /// carries its bytes.
    pub fn note_readout_syndrome(&mut self, event_count: u64) {
        self.bus
            .record(Traffic::Syndrome, event_count * SYNDROME_EVENT_BYTES);
    }

    /// Collects an MCE's escalated syndromes (upstream traffic), resolves
    /// them with the global decoder, and pushes the corrections back into
    /// the MCE's Pauli frames.
    pub fn service_escalations(&mut self, mce: &mut Mce) {
        let escalations = mce.take_escalations();
        for (kind, esc) in escalations {
            self.resolve_escalation(mce, kind, &esc);
        }
    }

    fn resolve_escalation(&mut self, mce: &mut Mce, kind: StabKind, esc: &Escalation) {
        self.note_escalation(esc.events.len() as u64);
        // The MCE escalates per round, in the node numbering of its
        // pipeline's single-round graph: the global decoder sees the same.
        let correction = self.decoder.decode(mce.decoder(kind).graph(), &esc.events);
        mce.decoder_mut(kind)
            .apply_global_correction(correction.data_flips.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_isa::LogicalQubit;
    use quest_stabilizer::{SeedableRng, StdRng, Tableau};
    use quest_surface::RotatedLattice;

    fn setup() -> (MasterController, Mce, Tableau, StdRng) {
        let lat = RotatedLattice::new(3);
        (
            MasterController::new(),
            Mce::new(&lat, 4096),
            Tableau::new(lat.num_qubits()),
            StdRng::seed_from_u64(17),
        )
    }

    #[test]
    fn dispatch_counts_bytes_by_class() {
        let mut master = MasterController::new();
        master.dispatch_remote(InstrClass::Algorithmic);
        master.dispatch_remote(InstrClass::Distillation);
        assert_eq!(master.bus().bytes(Traffic::LogicalInstructions), 2);
        assert_eq!(master.bus().bytes(Traffic::Distillation), 2);
        assert_eq!(master.stats().dispatched, 2);
    }

    #[test]
    fn cache_replay_costs_one_command() {
        let mut master = MasterController::new();
        master.cache_fill_remote(150);
        let fill_bytes = master.bus().bytes(Traffic::CacheFill);
        assert_eq!(fill_bytes, 300);
        for _ in 0..100 {
            master.cache_replay_remote(150);
        }
        // 100 replays of a 150-instruction kernel cost 200 bytes of
        // commands instead of 30 000 bytes of instructions.
        assert_eq!(master.bus().bytes(Traffic::Sync), 200);
        assert_eq!(master.stats().dispatched, 150 + 15_000);
    }

    #[test]
    fn escalations_reach_global_decoder_and_fix_frame() {
        let (mut master, mut mce, mut t, mut rng) = setup();
        mce.run_qecc_cycle(&mut t, &mut rng); // project
                                              // Inject a two-qubit X chain: adjacent data qubits sharing a Z
                                              // check produce a pattern the LUT may escalate.
        let a = mce.lattice().data_index(1, 1);
        let b = mce.lattice().data_index(1, 2);
        t.x(a);
        t.x(b);
        mce.run_qecc_cycle(&mut t, &mut rng);
        master.service_escalations(&mut mce);
        // Whether locally or globally decoded, the frame must now cancel
        // the injected error up to a stabilizer: syndrome quiet next round.
        mce.run_qecc_cycle(&mut t, &mut rng);
        let stats = mce.decode_stats(StabKind::Z);
        assert_eq!(
            stats.escalations as usize,
            master.stats().global_decodes as usize
        );
        // No unexplained events remain pending.
        assert!(mce.decoder(StabKind::Z).pending_escalations().is_empty());
    }

    #[test]
    fn dispatched_logical_work_interleaves_with_qecc() {
        // §5.1: logical instructions interleave with the continuous QECC
        // stream. Dispatch and execute a logical X mid-run; the tile's
        // Pauli frame carries it and the final decoded readout reports 1.
        let (mut master, mut mce, mut t, mut rng) = setup();
        mce.run_qecc_cycle(&mut t, &mut rng); // project |0_L>
        master.dispatch_remote(InstrClass::Algorithmic);
        mce.execute_logical(LogicalInstr::X(LogicalQubit(0)));
        // QECC keeps running with zero extra instruction traffic.
        for _ in 0..3 {
            mce.run_qecc_cycle(&mut t, &mut rng);
        }
        assert_eq!(master.bus().total(), 2, "one two-byte instruction");
        assert!(mce.measure_logical_z(&mut t, &mut rng), "logical X lost");
    }

    #[test]
    fn sync_tokens_are_cheap() {
        let mut master = MasterController::new();
        for tok in 0..10 {
            master.sync_remote(tok);
        }
        assert_eq!(master.bus().bytes(Traffic::Sync), 20);
        assert_eq!(master.stats().sync_tokens, 10);
    }
}
