//! QuEST reproduction — umbrella crate.
//!
//! Re-exports the full stack built for the reproduction of *Taming the
//! Instruction Bandwidth of Quantum Computers via Hardware-Managed Error
//! Correction* (Tannu et al., MICRO-50 2017):
//!
//! * [`stabilizer`] — CHP tableau and Pauli-frame simulators;
//! * [`surface`] — surface-code lattice, syndrome circuits, decoders;
//! * [`isa`] — physical µop and logical instruction sets;
//! * [`arch`] — the QuEST control processor (MCEs, master controller,
//!   microcode models, the multi-tile reference system);
//! * [`estimate`] — the QuRE-style resource/bandwidth estimator;
//! * [`runtime`] — the concurrent, sharded multi-tile simulation
//!   runtime (shard 0 and the global decoder on the caller's thread, a
//!   thread per further shard, packet-shaped channel messages);
//! * [`serve`] — the multi-tenant job server over the runtime
//!   (admission control, bounded queue, worker pool, streaming job
//!   events, server ledger).
//!
//! # Quickstart
//!
//! ```
//! use quest::runtime::{run_reference, WorkloadSpec};
//!
//! // One d=3 tile at p = 1e-3, seed 1, error-corrected for 50 cycles.
//! let run = run_reference(&WorkloadSpec::memory(3, 1, 1, 1e-3, 1, 50))?;
//! assert_eq!(run.qecc_cycles, 50);
//! assert!(run.logical_ok());
//! # Ok::<(), quest::runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]

pub use quest_core as arch;
pub use quest_estimate as estimate;
pub use quest_isa as isa;
pub use quest_runtime as runtime;
pub use quest_serve as serve;
pub use quest_stabilizer as stabilizer;
pub use quest_surface as surface;
