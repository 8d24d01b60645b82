//! Surface-code substrate: lattice geometry, syndrome-extraction circuits,
//! space-time decoding, and logical-memory experiments.
//!
//! This crate implements the quantum-error-correction substrate the QuEST
//! paper builds on (its Appendix A): a rotated surface code simulated on the
//! stabilizer engine from [`quest_stabilizer`], a two-level decoder stack
//! (local lookup table + global union-find), and descriptors of the four
//! syndrome designs whose microcode footprints the paper evaluates.
//!
//! # Example: one error-corrected round trip
//!
//! ```
//! use quest_surface::{
//!     MemoryBasis, MemoryExperiment, MemoryNoise, UnionFindDecoder,
//! };
//! use quest_stabilizer::{SeedableRng, StdRng};
//!
//! let experiment = MemoryExperiment::new(3, 3, MemoryBasis::Z);
//! let mut rng = StdRng::seed_from_u64(11);
//! let outcome = experiment.run(
//!     &MemoryNoise::phenomenological(1e-3),
//!     &UnionFindDecoder::new(),
//!     &mut rng,
//! );
//! assert!(!outcome.logical_error);
//! ```

#![forbid(unsafe_code)]

pub mod decoder;
pub mod designs;
pub mod graph;
pub mod lattice;
pub mod memory;
pub mod sampler;
pub mod schedule;
pub mod threshold;

pub use decoder::{
    Correction, CorrectionBatch, CostReport, DecodeEngine, Decoder, DecoderChoice, EventPlanes,
    ExactMatchingDecoder, LutDecoder, PipelinedUfDecoder, TableDecoder, UfScratch,
    UnionFindDecoder,
};
pub use designs::SyndromeDesign;
pub use graph::{DecodingEdge, DecodingGraph, EdgeId, Fault, NodeId};
pub use lattice::{Plaquette, RotatedLattice, StabKind};
pub use memory::{MemoryBasis, MemoryExperiment, MemoryNoise, MemoryOutcome};
pub use quest_stabilizer::frame::LaneWidth;
pub use sampler::{BatchOutcome, EarlyExit, FrameSampler, SamplerConfig, PLANE_DECODE_DENSITY};
pub use schedule::{SyndromeCircuit, SyndromeRound};
pub use threshold::{SweepConfig, ThresholdPoint, ThresholdSweep};
