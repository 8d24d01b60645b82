//! QuEST: a quantum control-processor architecture with hardware-managed
//! error correction.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Tannu et al., MICRO-50 2017): a control processor organized as an array
//! of **Micro-coded Control Engines** (MCEs) that replay the quantum
//! error-correction instruction stream from a tiny local microcode instead
//! of streaming it from software — reducing the global instruction
//! bandwidth by five orders of magnitude, and by eight with the logical
//! instruction cache.
//!
//! The crate contains both:
//!
//! * **functional simulation** — [`Mce`], [`MasterController`] and
//!   [`MultiTileSystem`] actually drive noisy, stabilizer-simulated
//!   surface-code tiles through syndrome extraction, two-level decoding
//!   and logical readout, with every global-bus byte accounted;
//! * **microarchitecture models** — [`microcode`], [`jj`] and
//!   [`throughput`] reproduce the capacity/bandwidth trade-offs of the
//!   paper's Figures 10–11 & 16 and Table 2.
//!
//! # Example
//!
//! ```
//! use quest_core::MultiTileSystem;
//! use quest_stabilizer::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut system = MultiTileSystem::new(3, 1, 1e-3)?;
//! for _ in 0..20 {
//!     system.run_noisy_cycle(&mut rng);
//! }
//! assert_eq!(system.mce(0).microcode().completed_cycles(), 20);
//! assert!(!system.measure_logical_z(0, &mut rng));
//! # Ok::<(), quest_core::BuildError>(())
//! ```
//!
//! Whole workloads — a program, a delivery mode, a [`RunReport`] — run
//! through `quest_runtime::run_reference` (this system, single-threaded)
//! or `quest_runtime::Runtime` (sharded over threads).

#![forbid(unsafe_code)]
// The panic-free contract (PR 2/3), enforced three ways: quest-lint's
// QL01 rule, this clippy deny, and the runtime's catch_unwind
// containment as a last resort. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod decoder_pipeline;
pub mod delivery;
pub mod error;
pub mod execution_unit;
pub mod fault;
pub mod geometry;
pub mod instruction_pipeline;
pub mod jj;
pub mod mask;
pub mod master;
pub mod mce;
pub mod microcode;
pub mod multi_tile;
pub mod network;
pub mod primeline;
pub mod program_gen;
pub mod report;
pub mod serve;
pub mod substrate;
pub mod tech;
pub mod throughput;
pub mod tile;

pub use bus::{BusCounters, Traffic};
pub use decoder_pipeline::{DecodeStats, DecoderPipeline, Escalation};
// The pluggable decode-backend layer lives in quest-surface (the
// dependency points that way); re-exported here so the runtime, server
// and CLI can name it from the architecture crate.
pub use delivery::{DeliveryEngine, DeliveryMode};
pub use error::{BuildError, CnotError};
pub use execution_unit::{ExecutionStats, ExecutionUnit, FireResult};
pub use fault::{Delivery, FaultPlan, FaultSession, LinkFailure, RecoveryStats, ShardPanicPlan};
pub use geometry::TileGeometry;
pub use instruction_pipeline::{FetchOutcome, InstructionPipeline, PipelineStats};
pub use jj::MemoryConfig;
pub use mask::MaskTable;
pub use master::{MasterController, MasterStats};
pub use mce::{Mce, Readout, MCE_IBUF_BYTES};
pub use microcode::{MicrocodeDesign, QeccMicrocode};
pub use multi_tile::{LogicalBasis, MultiTileSystem};
pub use network::{Network, Packet, PacketKind};
pub use primeline::PrimelineResources;
pub use quest_surface::decoder::{CostReport, DecoderChoice};
pub use report::{decode_totals, RunReport};
pub use serve::{JobId, LatencySummary, ServeReport, TenantId, TenantServeStats};
pub use substrate::Substrate;
pub use tech::TechnologyParams;
pub use throughput::{optimal_config, table2, Table2Row};
