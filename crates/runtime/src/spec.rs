//! Workload description and shard planning.

use quest_core::tile::LogicalBasis;
use quest_core::{DecoderChoice, DeliveryMode, FaultPlan, MCE_IBUF_BYTES};
use quest_isa::{InstrClass, LogicalInstr, LogicalProgram};
use quest_surface::TableDecoder;
use std::fmt;
use std::ops::Range;

/// Largest distance at which [`DecoderChoice::Table`]'s complete lookup
/// memory is feasible: a rotated distance-`d` code has `(d² - 1) / 2`
/// checks per stabilizer kind, and the table enumerates `2^checks`
/// syndromes, capped at [`TableDecoder::MAX_CHECKS`].
pub const TABLE_DECODER_MAX_DISTANCE: usize = 5;

/// One step of a runtime workload, executed in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Prepare a tile's logical qubit.
    Prep {
        /// Target tile.
        tile: usize,
        /// Preparation basis.
        basis: LogicalBasis,
    },
    /// Run this many noisy QECC cycles on every tile (one grant per
    /// shard; a shard applies its corrections as they come and waits
    /// for none).
    Cycles(u64),
    /// Transversal logical CNOT between two tiles. Both tiles must live
    /// on the same shard (the runtime keeps entangled tiles co-sharded so
    /// their joint stabilizer state stays inside one worker's tableau).
    Cnot {
        /// Control tile.
        control: usize,
        /// Target tile.
        target: usize,
    },
    /// Deliver one logical instruction to a tile through the engine's
    /// delivery policy (bus-accounted under the spec's [`DeliveryMode`]).
    Logical {
        /// Target tile.
        tile: usize,
        /// The instruction.
        instr: LogicalInstr,
        /// Its instruction class (selects the bus traffic class).
        class: InstrClass,
    },
    /// Replay the spec's distillation kernel ([`WorkloadSpec::kernel`])
    /// this many times on a tile. Under
    /// [`DeliveryMode::QuestMceCache`] the kernel crosses the bus once
    /// and replays from the tile's instruction cache thereafter.
    KernelReplay {
        /// Target tile.
        tile: usize,
        /// Number of kernel executions.
        replays: u64,
    },
    /// Issue a master → MCE sync token to a tile (cache management and
    /// logical-qubit movement, §7).
    Sync {
        /// Target tile.
        tile: usize,
    },
    /// Destructive logical-Z readout of a tile; the outcome is appended
    /// to the run report.
    MeasureZ {
        /// Tile to read out.
        tile: usize,
    },
}

/// A complete workload for [`Runtime::run`](crate::Runtime::run).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Surface-code distance of every tile.
    pub distance: usize,
    /// Number of tiles.
    pub tiles: usize,
    /// Number of shards (worker threads); each owns a contiguous group
    /// of tiles.
    pub shards: usize,
    /// Per-round depolarizing data-noise probability.
    pub error_rate: f64,
    /// Master seed; per-tile streams derive from it via
    /// [`quest_core::tile::tile_seed`], so outcomes are independent of
    /// the shard count.
    pub seed: u64,
    /// Instruction-delivery architecture to account
    /// ([`DeliveryMode::QuestMce`] in the stock constructors).
    pub delivery: DeliveryMode,
    /// The shared distillation kernel replayed by
    /// [`WorkloadOp::KernelReplay`] (empty when unused).
    pub kernel: Vec<LogicalInstr>,
    /// Classical-fault injection plan ([`FaultPlan::none`] by default —
    /// a strict no-op). Faulty plans run only on the concurrent runtime;
    /// fault decisions are seeded from [`WorkloadSpec::seed`], so a
    /// faulty run is as reproducible as a clean one.
    pub faults: FaultPlan,
    /// Global decoder backend for the master controller and the decode
    /// pool ([`DecoderChoice::UnionFind`] in the stock constructors).
    /// Validated: [`DecoderChoice::Table`] is rejected above
    /// [`TABLE_DECODER_MAX_DISTANCE`].
    pub decoder: DecoderChoice,
    /// The program.
    pub ops: Vec<WorkloadOp>,
}

/// Why a [`WorkloadSpec`] failed [`WorkloadSpec::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The code distance is even or below 3.
    InvalidDistance(usize),
    /// The spec has no tiles.
    NoTiles,
    /// The shard count is zero or exceeds the tile count.
    BadShardCount {
        /// Tiles in the spec.
        tiles: usize,
        /// Offending shard count.
        shards: usize,
    },
    /// The error rate is outside `[0, 1]`.
    InvalidErrorRate(f64),
    /// An op references a tile the spec does not have.
    TileOutOfRange {
        /// Index of the offending op.
        op: usize,
        /// The referenced tile.
        tile: usize,
        /// Tiles in the spec.
        tiles: usize,
    },
    /// A CNOT's control and target coincide.
    CnotSameTile {
        /// Index of the offending op.
        op: usize,
        /// The repeated tile.
        tile: usize,
    },
    /// A CNOT's endpoints live on different shards.
    CnotCrossShard {
        /// Index of the offending op.
        op: usize,
        /// Control tile.
        control: usize,
        /// Target tile.
        target: usize,
        /// Shard owning the control.
        control_shard: usize,
        /// Shard owning the target.
        target_shard: usize,
    },
    /// A CNOT acts on a tile before both of its decoder references are
    /// established (a preparation changes basis and the references
    /// re-form on the next QECC cycle; a CNOT before that cycle would
    /// read an undefined syndrome reference).
    CnotBeforeReference {
        /// Index of the offending op.
        op: usize,
        /// The unreferenced tile.
        tile: usize,
    },
    /// The distillation kernel does not fit the MCE instruction buffer,
    /// so the cache fill demanded by [`DeliveryMode::QuestMceCache`]
    /// would overflow.
    KernelTooLarge {
        /// Encoded kernel size.
        bytes: usize,
        /// Instruction-buffer capacity.
        capacity: usize,
    },
    /// [`WorkloadSpec::bell_pairs`] needs an even tile count.
    OddBellTiles(usize),
    /// A fault-plan rate is outside `[0, 1]`.
    InvalidFaultRate {
        /// Which rate (`"drop"`, `"corrupt"` or `"stall"`).
        which: &'static str,
        /// The offending value.
        rate: f64,
    },
    /// [`DecoderChoice::Table`] was requested at a distance whose check
    /// count overflows the complete lookup memory.
    TableDecoderInfeasible {
        /// The requested distance.
        distance: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload spec: ")?;
        match *self {
            SpecError::InvalidDistance(d) => {
                write!(f, "distance must be an odd number >= 3, got {d}")
            }
            SpecError::NoTiles => write!(f, "need at least one tile"),
            SpecError::BadShardCount { tiles, shards } => {
                write!(f, "shards must be in 1..={tiles}, got {shards}")
            }
            SpecError::InvalidErrorRate(p) => write!(f, "error rate {p} outside [0, 1]"),
            SpecError::TileOutOfRange { op, tile, tiles } => {
                write!(
                    f,
                    "op {op} references tile {tile}, but there are {tiles} tiles"
                )
            }
            SpecError::CnotSameTile { op, tile } => {
                write!(
                    f,
                    "op {op}: CNOT control and target tiles coincide ({tile})"
                )
            }
            SpecError::CnotCrossShard {
                op,
                control,
                target,
                control_shard,
                target_shard,
            } => write!(
                f,
                "op {op}: CNOT({control}, {target}) crosses shards {control_shard} and \
                 {target_shard}; entangled tiles must be co-sharded (lower the shard \
                 count or regroup the tiles)"
            ),
            SpecError::CnotBeforeReference { op, tile } => write!(
                f,
                "op {op}: CNOT uses tile {tile} before its decoder references settle; \
                 run at least one QECC cycle after preparation"
            ),
            SpecError::KernelTooLarge { bytes, capacity } => write!(
                f,
                "distillation kernel is {bytes} bytes encoded, larger than the \
                 {capacity}-byte MCE instruction buffer"
            ),
            SpecError::OddBellTiles(tiles) => {
                write!(
                    f,
                    "Bell-pair workload needs an even tile count, got {tiles}"
                )
            }
            SpecError::InvalidFaultRate { which, rate } => {
                write!(f, "fault {which} rate {rate} outside [0, 1]")
            }
            SpecError::TableDecoderInfeasible { distance } => write!(
                f,
                "the table decoder enumerates 2^checks syndromes and is only \
                 feasible up to distance {TABLE_DECODER_MAX_DISTANCE} \
                 ({} checks); got distance {distance}",
                TableDecoder::MAX_CHECKS
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl WorkloadSpec {
    /// A memory workload: prepare every tile in `|0_L⟩`, error-correct
    /// for `cycles` rounds, read every tile out.
    pub fn memory(
        distance: usize,
        tiles: usize,
        shards: usize,
        error_rate: f64,
        seed: u64,
        cycles: u64,
    ) -> WorkloadSpec {
        let mut ops = Vec::with_capacity(2 * tiles + 1);
        ops.extend((0..tiles).map(|tile| WorkloadOp::Prep {
            tile,
            basis: LogicalBasis::Zero,
        }));
        ops.push(WorkloadOp::Cycles(cycles));
        ops.extend((0..tiles).map(|tile| WorkloadOp::MeasureZ { tile }));
        WorkloadSpec {
            distance,
            tiles,
            shards,
            error_rate,
            seed,
            delivery: DeliveryMode::QuestMce,
            kernel: Vec::new(),
            faults: FaultPlan::none(),
            decoder: DecoderChoice::default(),
            ops,
        }
    }

    /// A Bell-pair workload over adjacent tile pairs: `|+_L⟩|0_L⟩` per
    /// pair, one projection cycle, transversal CNOT, `cycles` noisy
    /// rounds, then readout of every tile. Pairs `(2k, 2k+1)` stay
    /// co-sharded for every shard count dividing `tiles / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::OddBellTiles`] when `tiles` is odd.
    pub fn bell_pairs(
        distance: usize,
        tiles: usize,
        shards: usize,
        error_rate: f64,
        seed: u64,
        cycles: u64,
    ) -> Result<WorkloadSpec, SpecError> {
        if !tiles.is_multiple_of(2) {
            return Err(SpecError::OddBellTiles(tiles));
        }
        // Two preps and one CNOT per pair, two cycle ops, one readout
        // per tile.
        let mut ops = Vec::with_capacity(2 * tiles + tiles / 2 + 2);
        for pair in 0..tiles / 2 {
            ops.push(WorkloadOp::Prep {
                tile: 2 * pair,
                basis: LogicalBasis::Plus,
            });
            ops.push(WorkloadOp::Prep {
                tile: 2 * pair + 1,
                basis: LogicalBasis::Zero,
            });
        }
        ops.push(WorkloadOp::Cycles(1));
        for pair in 0..tiles / 2 {
            ops.push(WorkloadOp::Cnot {
                control: 2 * pair,
                target: 2 * pair + 1,
            });
        }
        ops.push(WorkloadOp::Cycles(cycles));
        ops.extend((0..tiles).map(|tile| WorkloadOp::MeasureZ { tile }));
        Ok(WorkloadSpec {
            distance,
            tiles,
            shards,
            error_rate,
            seed,
            delivery: DeliveryMode::QuestMce,
            kernel: Vec::new(),
            faults: FaultPlan::none(),
            decoder: DecoderChoice::default(),
            ops,
        })
    }

    /// A delivery-mode memory workload (the Figure-14 experiment) on
    /// every tile: the program's non-distillation instructions are
    /// delivered per tile, its distillation-class instructions form the
    /// shared kernel replayed `replays` times per tile (§5.2:
    /// distillation runs continuously), then `cycles` noisy rounds, one
    /// sync token per tile, and readout of every tile. Under
    /// [`DeliveryMode::QuestMceCache`] the kernel crosses the bus once
    /// per tile and replays from the MCE instruction cache thereafter.
    #[allow(clippy::too_many_arguments)]
    pub fn delivery_memory(
        distance: usize,
        tiles: usize,
        shards: usize,
        error_rate: f64,
        seed: u64,
        cycles: u64,
        program: &LogicalProgram,
        replays: u64,
        delivery: DeliveryMode,
    ) -> WorkloadSpec {
        let kernel: Vec<LogicalInstr> = program
            .iter()
            .filter(|(_, c)| *c == InstrClass::Distillation)
            .map(|(i, _)| *i)
            .collect();
        let mut ops = Vec::new();
        for tile in 0..tiles {
            for &(instr, class) in program {
                if class != InstrClass::Distillation {
                    ops.push(WorkloadOp::Logical { tile, instr, class });
                }
            }
            ops.push(WorkloadOp::KernelReplay { tile, replays });
        }
        ops.push(WorkloadOp::Cycles(cycles));
        ops.extend((0..tiles).map(|tile| WorkloadOp::Sync { tile }));
        ops.extend((0..tiles).map(|tile| WorkloadOp::MeasureZ { tile }));
        WorkloadSpec {
            distance,
            tiles,
            shards,
            error_rate,
            seed,
            delivery,
            kernel,
            faults: FaultPlan::none(),
            decoder: DecoderChoice::default(),
            ops,
        }
    }

    /// The contiguous tile range owned by one shard (tiles are split as
    /// evenly as possible; the first `tiles % shards` shards hold one
    /// extra tile).
    pub fn tile_range(&self, shard: usize) -> Range<usize> {
        let base = self.tiles / self.shards;
        let rem = self.tiles % self.shards;
        let start = shard * base + shard.min(rem);
        let len = base + usize::from(shard < rem);
        start..start + len
    }

    /// The shard owning a tile: the arithmetic inverse of
    /// [`WorkloadSpec::tile_range`]'s block distribution, O(1) and total.
    /// The first `rem` shards hold `base + 1` tiles (ending at `cut`);
    /// the rest hold `base`. An out-of-range tile (rejected by
    /// [`WorkloadSpec::validate`] before any executor calls this) clamps
    /// to the last shard.
    pub fn shard_of(&self, tile: usize) -> usize {
        let base = self.tiles / self.shards;
        let rem = self.tiles % self.shards;
        let cut = rem * (base + 1);
        let shard = if tile < cut {
            tile / (base + 1)
        } else {
            // base == 0 (more shards than tiles) means every tile sits
            // in the first (base + 1)-sized region, so only out-of-range
            // input lands on the fallback.
            (tile - cut)
                .checked_div(base)
                .map_or(self.shards.saturating_sub(1), |q| rem + q)
        };
        shard.min(self.shards.saturating_sub(1))
    }

    /// Encoded size of the distillation kernel on the bus / in the cache.
    pub fn kernel_bytes(&self) -> usize {
        self.kernel.len() * LogicalInstr::ENCODED_BYTES
    }

    /// Checks the spec's structural invariants: valid distance and
    /// probability, at least one tile, `1 ≤ shards ≤ tiles`, all op tile
    /// indices in range, CNOT endpoints distinct, co-sharded and
    /// reference-settled, and (under [`DeliveryMode::QuestMceCache`]) a
    /// kernel that fits the instruction cache.
    ///
    /// Everything that would make the engine panic at run time is
    /// rejected here, so a validated spec runs on both the reference
    /// executor and the concurrent runtime without panicking.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.distance < 3 || self.distance.is_multiple_of(2) {
            return Err(SpecError::InvalidDistance(self.distance));
        }
        if self.tiles == 0 {
            return Err(SpecError::NoTiles);
        }
        if self.shards == 0 || self.shards > self.tiles {
            return Err(SpecError::BadShardCount {
                tiles: self.tiles,
                shards: self.shards,
            });
        }
        if !(0.0..=1.0).contains(&self.error_rate) {
            return Err(SpecError::InvalidErrorRate(self.error_rate));
        }
        if let Err((which, rate)) = self.faults.check_rates() {
            return Err(SpecError::InvalidFaultRate { which, rate });
        }
        if self.decoder == DecoderChoice::Table && self.distance > TABLE_DECODER_MAX_DISTANCE {
            return Err(SpecError::TableDecoderInfeasible {
                distance: self.distance,
            });
        }
        // Decoder-reference tracking: at boot a tile's Z pipeline has a
        // deterministic reference and its X pipeline forms one on the
        // first QECC cycle; a preparation re-forms the non-prepared
        // basis's reference on the next cycle. A transversal CNOT reads
        // and cross-propagates both references of both tiles. Only a
        // CNOT reads them, so a spec without one tracks nothing.
        let has_cnot = self
            .ops
            .iter()
            .any(|op| matches!(op, WorkloadOp::Cnot { .. }));
        let mut refs: Vec<(bool, bool)> = if has_cnot {
            vec![(true, false); self.tiles]
        } else {
            Vec::new()
        };
        let mut kernel_fills = false;
        for (i, op) in self.ops.iter().enumerate() {
            let check = |tile: usize| {
                if tile >= self.tiles {
                    Err(SpecError::TileOutOfRange {
                        op: i,
                        tile,
                        tiles: self.tiles,
                    })
                } else {
                    Ok(())
                }
            };
            match *op {
                WorkloadOp::Prep { tile, basis } => {
                    check(tile)?;
                    if let Some(r) = refs.get_mut(tile) {
                        *r = match basis {
                            LogicalBasis::Zero => (true, false),
                            LogicalBasis::Plus => (false, true),
                        };
                    }
                }
                WorkloadOp::MeasureZ { tile } | WorkloadOp::Sync { tile } => check(tile)?,
                WorkloadOp::Logical { tile, .. } => check(tile)?,
                WorkloadOp::KernelReplay { tile, replays } => {
                    check(tile)?;
                    kernel_fills |= replays > 0 && !self.kernel.is_empty();
                }
                WorkloadOp::Cycles(n) => {
                    if n > 0 {
                        refs.iter_mut().for_each(|r| *r = (true, true));
                    }
                }
                WorkloadOp::Cnot { control, target } => {
                    check(control)?;
                    check(target)?;
                    if control == target {
                        return Err(SpecError::CnotSameTile {
                            op: i,
                            tile: control,
                        });
                    }
                    if self.shard_of(control) != self.shard_of(target) {
                        return Err(SpecError::CnotCrossShard {
                            op: i,
                            control,
                            target,
                            control_shard: self.shard_of(control),
                            target_shard: self.shard_of(target),
                        });
                    }
                    for tile in [control, target] {
                        if refs[tile] != (true, true) {
                            return Err(SpecError::CnotBeforeReference { op: i, tile });
                        }
                    }
                }
            }
        }
        if self.delivery == DeliveryMode::QuestMceCache
            && kernel_fills
            && self.kernel_bytes() > MCE_IBUF_BYTES
        {
            return Err(SpecError::KernelTooLarge {
                bytes: self.kernel_bytes(),
                capacity: MCE_IBUF_BYTES,
            });
        }
        Ok(())
    }

    /// Total QECC cycles the spec runs on each tile.
    pub fn total_cycles(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                WorkloadOp::Cycles(n) => *n,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_isa::LogicalQubit;

    #[test]
    fn even_split_and_remainders() {
        let spec = WorkloadSpec::memory(3, 10, 4, 0.0, 1, 5);
        let ranges: Vec<_> = (0..4).map(|s| spec.tile_range(s)).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(spec.shard_of(0), 0);
        assert_eq!(spec.shard_of(5), 1);
        assert_eq!(spec.shard_of(9), 3);
    }

    #[test]
    fn shard_of_inverts_tile_range_exhaustively() {
        for tiles in 1..=12 {
            for shards in 1..=tiles {
                let spec = WorkloadSpec::memory(3, tiles, shards, 0.0, 1, 1);
                for shard in 0..shards {
                    for tile in spec.tile_range(shard) {
                        assert_eq!(
                            spec.shard_of(tile),
                            shard,
                            "tiles={tiles} shards={shards} tile={tile}"
                        );
                    }
                }
                // Out-of-range input clamps instead of panicking.
                assert_eq!(spec.shard_of(tiles + 5), shards - 1);
            }
        }
    }

    #[test]
    fn memory_spec_validates() {
        assert!(WorkloadSpec::memory(3, 8, 4, 1e-3, 7, 20)
            .validate()
            .is_ok());
    }

    #[test]
    fn bell_pairs_co_sharded_at_power_of_two_shards() {
        for shards in [1, 2, 4] {
            let spec = WorkloadSpec::bell_pairs(3, 8, shards, 0.0, 7, 3).unwrap();
            assert!(spec.validate().is_ok(), "shards={shards}");
        }
        assert_eq!(
            WorkloadSpec::bell_pairs(3, 5, 1, 0.0, 7, 3).unwrap_err(),
            SpecError::OddBellTiles(5)
        );
    }

    #[test]
    fn cross_shard_cnot_rejected() {
        let mut spec = WorkloadSpec::memory(3, 4, 4, 0.0, 1, 1);
        spec.ops.push(WorkloadOp::Cnot {
            control: 0,
            target: 1,
        });
        let err = spec.validate().unwrap_err();
        assert!(matches!(err, SpecError::CnotCrossShard { .. }), "{err}");
        assert!(err.to_string().contains("co-sharded"), "{err}");
    }

    #[test]
    fn cnot_before_reference_rejected() {
        // Straight after boot the X references have not formed yet.
        let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        spec.ops.insert(
            0,
            WorkloadOp::Cnot {
                control: 0,
                target: 1,
            },
        );
        assert!(matches!(
            spec.validate().unwrap_err(),
            SpecError::CnotBeforeReference { op: 0, .. }
        ));
        // A preparation invalidates the reference until the next cycle.
        let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        spec.ops.push(WorkloadOp::Prep {
            tile: 0,
            basis: LogicalBasis::Plus,
        });
        spec.ops.push(WorkloadOp::Cnot {
            control: 0,
            target: 1,
        });
        assert!(matches!(
            spec.validate().unwrap_err(),
            SpecError::CnotBeforeReference { tile: 0, .. }
        ));
        // One cycle in between settles it.
        let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        spec.ops.push(WorkloadOp::Cnot {
            control: 0,
            target: 1,
        });
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn oversized_kernel_rejected_only_when_it_would_fill() {
        let program = {
            let mut p = LogicalProgram::new();
            for _ in 0..(MCE_IBUF_BYTES / LogicalInstr::ENCODED_BYTES + 1) {
                p.push(LogicalInstr::T(LogicalQubit(0)), InstrClass::Distillation);
            }
            p
        };
        let cached = WorkloadSpec::delivery_memory(
            3,
            1,
            1,
            0.0,
            1,
            1,
            &program,
            2,
            DeliveryMode::QuestMceCache,
        );
        assert!(matches!(
            cached.validate().unwrap_err(),
            SpecError::KernelTooLarge { .. }
        ));
        // The uncached modes never fill, so the same kernel is fine.
        let uncached = WorkloadSpec {
            delivery: DeliveryMode::QuestMce,
            ..cached.clone()
        };
        assert!(uncached.validate().is_ok());
        // And a cached spec that never replays never fills either.
        let unreplayed = WorkloadSpec {
            ops: cached
                .ops
                .iter()
                .map(|op| match *op {
                    WorkloadOp::KernelReplay { tile, .. } => {
                        WorkloadOp::KernelReplay { tile, replays: 0 }
                    }
                    other => other,
                })
                .collect(),
            ..cached
        };
        assert!(unreplayed.validate().is_ok());
    }

    #[test]
    fn delivery_memory_spec_shape() {
        let mut program = LogicalProgram::new();
        program.push(LogicalInstr::H(LogicalQubit(0)), InstrClass::Algorithmic);
        program.push(LogicalInstr::T(LogicalQubit(0)), InstrClass::Distillation);
        let spec = WorkloadSpec::delivery_memory(
            3,
            2,
            2,
            0.0,
            1,
            5,
            &program,
            7,
            DeliveryMode::QuestMceCache,
        );
        assert!(spec.validate().is_ok());
        assert_eq!(spec.kernel.len(), 1);
        assert_eq!(spec.total_cycles(), 5);
        let replays: Vec<_> = spec
            .ops
            .iter()
            .filter(|op| matches!(op, WorkloadOp::KernelReplay { .. }))
            .collect();
        assert_eq!(replays.len(), 2, "one kernel replay op per tile");
    }

    #[test]
    fn bad_parameters_rejected() {
        assert_eq!(
            WorkloadSpec::memory(4, 2, 1, 0.0, 1, 1).validate(),
            Err(SpecError::InvalidDistance(4))
        );
        assert_eq!(
            WorkloadSpec::memory(3, 2, 3, 0.0, 1, 1).validate(),
            Err(SpecError::BadShardCount {
                tiles: 2,
                shards: 3
            })
        );
        let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        spec.error_rate = 1.5;
        assert_eq!(spec.validate(), Err(SpecError::InvalidErrorRate(1.5)));
        spec.error_rate = 0.0;
        spec.ops.push(WorkloadOp::MeasureZ { tile: 2 });
        assert!(matches!(
            spec.validate().unwrap_err(),
            SpecError::TileOutOfRange { tile: 2, .. }
        ));
        spec.ops.clear();
        spec.tiles = 0;
        spec.shards = 0;
        assert_eq!(spec.validate(), Err(SpecError::NoTiles));
    }

    #[test]
    fn table_decoder_rejected_above_its_feasible_distance() {
        let mut spec = WorkloadSpec::memory(7, 2, 1, 0.0, 1, 1);
        assert!(spec.validate().is_ok(), "default decoder works at d=7");
        spec.decoder = DecoderChoice::Table;
        assert_eq!(
            spec.validate(),
            Err(SpecError::TableDecoderInfeasible { distance: 7 })
        );
        // Every backend validates at the table's feasible distances.
        for distance in [3, 5] {
            for decoder in DecoderChoice::ALL {
                let mut spec = WorkloadSpec::memory(distance, 2, 1, 0.0, 1, 1);
                spec.decoder = decoder;
                assert!(spec.validate().is_ok(), "d={distance} {decoder}");
            }
        }
    }

    #[test]
    fn bad_fault_rates_rejected() {
        let mut spec = WorkloadSpec::memory(3, 2, 1, 0.0, 1, 1);
        assert!(spec.faults.is_none(), "stock constructors inject nothing");
        spec.faults.stall_rate = -0.1;
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidFaultRate {
                which: "stall",
                rate: -0.1
            })
        );
        spec.faults.stall_rate = 0.5;
        spec.faults.quarantine_cycles = 10;
        assert!(spec.validate().is_ok(), "in-range rates are fine");
    }
}
