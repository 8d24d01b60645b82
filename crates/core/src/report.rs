//! The unified run report shared by every execution path.
//!
//! The single-threaded reference executor (`quest_runtime::run_reference`
//! over [`MultiTileSystem`](crate::MultiTileSystem)) and the concurrent
//! `quest-runtime` both produce this one [`RunReport`]. It carries the
//! full per-class bus ledger (not just a byte total), the two-level
//! decoding counters, and the logical readout outcomes — everything the
//! determinism harness asserts bit-identical across shard counts, and
//! everything Figure 14 needs per delivery mode.

use crate::bus::{BusCounters, Traffic};
use crate::delivery::DeliveryMode;
use crate::fault::RecoveryStats;
use crate::master::MasterStats;
use crate::mce::Mce;
use quest_surface::decoder::CostReport;

/// Result of running a workload, identical for the single-threaded
/// reference and the sharded runtime.
#[must_use]
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Delivery mode accounted.
    pub delivery: DeliveryMode,
    /// Logical readout outcomes, in program order, as `(tile, value)`.
    pub outcomes: Vec<(usize, bool)>,
    /// The full global-bus ledger, by traffic class.
    pub bus: BusCounters,
    /// QECC cycles executed per tile.
    pub qecc_cycles: u64,
    /// Detection-event rounds resolved by MCE lookup decoders (both
    /// stabilizer types, all tiles).
    pub local_decodes: u64,
    /// Rounds escalated to the master's global decoder (both stabilizer
    /// types, all tiles).
    pub escalations: u64,
    /// Master-controller counters (dispatches, global decodes, syncs).
    pub master: MasterStats,
    /// Accumulated cost of the global decoder backend (cycles, JJ
    /// footprint, fallback counts). Pure functions of the decoded
    /// `(graph, events)` multiset, so bit-identical across shard counts.
    pub decode_cost: CostReport,
    /// Classical-fault injection and recovery counters. All-zero for a
    /// fault-free run (and always for the non-injecting reference path).
    pub recovery: RecoveryStats,
}

impl RunReport {
    /// Total bytes that crossed the global bus.
    pub fn bus_bytes(&self) -> u64 {
        self.bus.total()
    }

    /// Bytes in one traffic class.
    pub fn bus_bytes_of(&self, class: Traffic) -> u64 {
        self.bus.bytes(class)
    }

    /// `true` when every logical readout returned 0 (an error-free
    /// `|0_L⟩` memory run).
    pub fn logical_ok(&self) -> bool {
        self.outcomes.iter().all(|&(_, v)| !v)
    }

    /// The readout value of one tile, if it was measured.
    pub fn outcome(&self, tile: usize) -> Option<bool> {
        self.outcomes
            .iter()
            .find(|&&(t, _)| t == tile)
            .map(|&(_, v)| v)
    }
}

/// Sums the two-level decoding counters of a set of MCEs over both
/// stabilizer types, as `(local_decodes, escalations)`.
pub fn decode_totals<'a>(mces: impl IntoIterator<Item = &'a Mce>) -> (u64, u64) {
    use quest_surface::StabKind;
    let mut local = 0;
    let mut escalated = 0;
    for mce in mces {
        for kind in [StabKind::Z, StabKind::X] {
            let s = mce.decode_stats(kind);
            local += s.local_hits;
            escalated += s.escalations;
        }
    }
    (local, escalated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcomes: Vec<(usize, bool)>) -> RunReport {
        RunReport {
            delivery: DeliveryMode::QuestMce,
            outcomes,
            bus: BusCounters::new(),
            qecc_cycles: 0,
            local_decodes: 0,
            escalations: 0,
            master: MasterStats::default(),
            decode_cost: CostReport::default(),
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn logical_ok_means_all_zero() {
        assert!(report(vec![(0, false), (1, false)]).logical_ok());
        assert!(!report(vec![(0, false), (1, true)]).logical_ok());
        assert!(report(Vec::new()).logical_ok());
    }

    #[test]
    fn outcome_lookup_by_tile() {
        let r = report(vec![(2, true), (0, false)]);
        assert_eq!(r.outcome(2), Some(true));
        assert_eq!(r.outcome(0), Some(false));
        assert_eq!(r.outcome(1), None);
    }

    #[test]
    fn bus_helpers_read_the_ledger() {
        let mut r = report(Vec::new());
        r.bus.record(Traffic::Syndrome, 10);
        r.bus.record(Traffic::Sync, 2);
        assert_eq!(r.bus_bytes(), 12);
        assert_eq!(r.bus_bytes_of(Traffic::Syndrome), 10);
    }
}
