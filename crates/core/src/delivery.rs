//! Mode-parameterized instruction delivery: the one engine behind all
//! three Figure-14 architectures.
//!
//! [`DeliveryMode`] selects which bytes cross the global bus for the same
//! logical workload; [`DeliveryEngine`] applies that policy per tile. The
//! reference system ([`MultiTileSystem`](crate::MultiTileSystem)) and the
//! concurrent `quest-runtime` shards both account instruction delivery
//! through this module, so the two executors cannot drift apart.
//!
//! Every operation is two halves (§4.2: the master owns the bus, the MCE
//! owns the pipeline), which the concurrent runtime performs on different
//! threads:
//!
//! * **accounting** — bus-byte and dispatch-counter updates on a
//!   [`MasterController`] (`*_remote` methods; the master thread's side);
//! * **local execution** — instruction-pipeline delivery, cache fills and
//!   replays on an [`Mce`] (`*_local` methods; the shard's side).
//!
//! [`DeliveryEngine::dispatch`] and [`DeliveryEngine::kernel`] are the two
//! halves back to back, for a caller that holds both the master and the
//! tile.

use crate::master::MasterController;
use crate::mce::Mce;
use quest_isa::{InstrClass, LogicalInstr};

/// Instruction-delivery architecture being accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Software-managed QECC: all µops cross the global bus (§3.3).
    SoftwareBaseline,
    /// QuEST with hardware-managed QECC (§4).
    QuestMce,
    /// QuEST plus the software-managed logical instruction cache (§5.3).
    QuestMceCache,
}

impl DeliveryMode {
    /// All modes, Figure-14 order.
    pub const ALL: [DeliveryMode; 3] = [
        DeliveryMode::SoftwareBaseline,
        DeliveryMode::QuestMce,
        DeliveryMode::QuestMceCache,
    ];
}

/// The cache block id used for distillation kernels.
const KERNEL_BLOCK: u8 = 0;

/// Applies one [`DeliveryMode`]'s bus-accounting policy to a tile.
///
/// # Example
///
/// ```
/// use quest_core::{DeliveryEngine, DeliveryMode, MasterController, Mce, Traffic};
/// use quest_isa::{InstrClass, LogicalInstr, LogicalQubit};
/// use quest_surface::RotatedLattice;
///
/// let lattice = RotatedLattice::new(3);
/// let mut master = MasterController::new();
/// let mut mce = Mce::new(&lattice, 4096);
/// let engine = DeliveryEngine::new(DeliveryMode::QuestMceCache);
/// // A 10-instruction kernel replayed 100 times: one fill, 100 commands.
/// let kernel = vec![LogicalInstr::H(LogicalQubit(0)); 10];
/// engine.kernel(&mut master, &mut mce, &kernel, 100);
/// assert_eq!(master.bus().bytes(Traffic::CacheFill), 20);
/// assert_eq!(master.bus().bytes(Traffic::Sync), 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryEngine {
    mode: DeliveryMode,
}

impl DeliveryEngine {
    /// An engine accounting in `mode`.
    pub fn new(mode: DeliveryMode) -> DeliveryEngine {
        DeliveryEngine { mode }
    }

    /// The mode being accounted.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Dispatches one logical instruction to a tile: both halves, bus
    /// accounting then instruction-pipeline delivery. Identical in every
    /// mode — single logical instructions always cross the bus.
    pub fn dispatch(
        &self,
        master: &mut MasterController,
        mce: &mut Mce,
        i: LogicalInstr,
        class: InstrClass,
    ) {
        self.dispatch_remote(master, class);
        self.dispatch_local(mce, i);
    }

    /// Master-side half of [`DeliveryEngine::dispatch`] (the concurrent
    /// runtime ships the instruction to the owning shard, which performs
    /// [`DeliveryEngine::dispatch_local`]).
    pub fn dispatch_remote(&self, master: &mut MasterController, class: InstrClass) {
        master.dispatch_remote(class);
    }

    /// Tile-side half of [`DeliveryEngine::dispatch`]: pipeline delivery
    /// with no bus accounting (the master already accounted it).
    pub fn dispatch_local(&self, mce: &mut Mce, i: LogicalInstr) {
        mce.instruction_pipeline_mut().deliver(i);
    }

    /// Runs a distillation kernel `replays` times on a tile: both halves,
    /// [`DeliveryEngine::kernel_remote`] (told whether the tile's kernel
    /// block is already resident) then [`DeliveryEngine::kernel_local`].
    pub fn kernel(
        &self,
        master: &mut MasterController,
        mce: &mut Mce,
        kernel: &[LogicalInstr],
        replays: u64,
    ) {
        let filled = mce.instruction_pipeline().cache_contains(KERNEL_BLOCK);
        self.kernel_remote(master, kernel.len(), replays, filled);
        self.kernel_local(mce, kernel, replays);
    }

    /// Master-side half of [`DeliveryEngine::kernel`] — the bus policy of
    /// a kernel under this mode:
    ///
    /// * `SoftwareBaseline` / `QuestMce` — every instruction of every
    ///   replay crosses the bus individually;
    /// * `QuestMceCache` — the kernel crosses the bus once (cache fill,
    ///   skipped if the block is already resident) and each replay costs
    ///   one two-byte command.
    ///
    /// An empty kernel or a zero replay count is a no-op (nothing is
    /// filled, nothing crosses the bus). `filled` says whether the tile's
    /// kernel block is already resident (a caller without the tile tracks
    /// this per tile); returns `true` when a cache fill was accounted, so
    /// the caller can mark the block resident.
    pub fn kernel_remote(
        &self,
        master: &mut MasterController,
        kernel_len: usize,
        replays: u64,
        filled: bool,
    ) -> bool {
        if kernel_len == 0 || replays == 0 {
            return false;
        }
        match self.mode {
            DeliveryMode::SoftwareBaseline | DeliveryMode::QuestMce => {
                for _ in 0..replays * kernel_len as u64 {
                    master.dispatch_remote(InstrClass::Distillation);
                }
                false
            }
            DeliveryMode::QuestMceCache => {
                if !filled {
                    master.cache_fill_remote(kernel_len as u64);
                }
                for _ in 0..replays {
                    master.cache_replay_remote(kernel_len as u64);
                }
                !filled
            }
        }
    }

    /// Tile-side half of [`DeliveryEngine::kernel`] — the pipeline policy
    /// of a kernel under this mode, with no bus accounting: per-replay
    /// delivery in the uncached modes, fill-if-absent then local replays
    /// under `QuestMceCache`.
    pub fn kernel_local(&self, mce: &mut Mce, kernel: &[LogicalInstr], replays: u64) {
        if kernel.is_empty() || replays == 0 {
            return;
        }
        match self.mode {
            DeliveryMode::SoftwareBaseline | DeliveryMode::QuestMce => {
                for _ in 0..replays {
                    for &i in kernel {
                        mce.instruction_pipeline_mut().deliver(i);
                    }
                }
            }
            DeliveryMode::QuestMceCache => {
                let pipeline = mce.instruction_pipeline_mut();
                if !pipeline.cache_contains(KERNEL_BLOCK) {
                    pipeline.cache_fill(KERNEL_BLOCK, kernel);
                }
                for _ in 0..replays {
                    if pipeline.cache_replay(KERNEL_BLOCK).is_none() {
                        // Unreachable after the fill above; refill rather
                        // than lose the replay.
                        pipeline.cache_fill(KERNEL_BLOCK, kernel);
                        let _ = pipeline.cache_replay(KERNEL_BLOCK);
                    }
                }
            }
        }
    }

    /// Accounts one QECC cycle on a tile of `num_qubits` qubits whose
    /// microcode cycle is `cycle_len` words: under the software baseline
    /// the whole cycle crosses the bus (one byte per qubit per word,
    /// §3.3); under QuEST the MCE replays it locally for free.
    pub fn account_cycle(
        &self,
        master: &mut MasterController,
        num_qubits: usize,
        cycle_len: usize,
    ) {
        if self.mode == DeliveryMode::SoftwareBaseline {
            master.record_traffic(
                crate::bus::Traffic::QeccInstructions,
                (num_qubits * cycle_len) as u64,
            );
        }
    }

    /// Bytes one dispatched instruction adds to the bus in this mode
    /// (mode-independent today; kept on the engine so callers never
    /// hard-code it).
    pub fn instr_bytes(&self) -> u64 {
        LogicalInstr::ENCODED_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Traffic;
    use crate::instruction_pipeline::PipelineStats;
    use quest_isa::LogicalQubit;
    use quest_surface::RotatedLattice;

    fn setup() -> (MasterController, Mce) {
        let lat = RotatedLattice::new(3);
        (MasterController::new(), Mce::new(&lat, 65_536))
    }

    fn kernel(n: usize) -> Vec<LogicalInstr> {
        vec![LogicalInstr::H(LogicalQubit(0)); n]
    }

    #[test]
    fn uncached_kernel_pays_per_replay() {
        let (mut master, mut mce) = setup();
        let engine = DeliveryEngine::new(DeliveryMode::QuestMce);
        engine.kernel(&mut master, &mut mce, &kernel(10), 5);
        assert_eq!(master.bus().bytes(Traffic::Distillation), 10 * 5 * 2);
        assert_eq!(master.stats().dispatched, 50);
        assert_eq!(mce.instruction_pipeline().stats().issued, 50);
    }

    #[test]
    fn cached_kernel_pays_fill_once_plus_commands() {
        let (mut master, mut mce) = setup();
        let engine = DeliveryEngine::new(DeliveryMode::QuestMceCache);
        engine.kernel(&mut master, &mut mce, &kernel(10), 5);
        assert_eq!(master.bus().bytes(Traffic::CacheFill), 20);
        assert_eq!(master.bus().bytes(Traffic::Sync), 10);
        assert_eq!(master.bus().bytes(Traffic::Distillation), 0);
        assert_eq!(mce.instruction_pipeline().stats().issued, 50);
        // A second batch of replays reuses the resident block: no refill.
        engine.kernel(&mut master, &mut mce, &kernel(10), 2);
        assert_eq!(master.bus().bytes(Traffic::CacheFill), 20);
    }

    #[test]
    fn empty_kernel_and_zero_replays_are_free() {
        for mode in DeliveryMode::ALL {
            let (mut master, mut mce) = setup();
            let engine = DeliveryEngine::new(mode);
            engine.kernel(&mut master, &mut mce, &[], 100);
            engine.kernel(&mut master, &mut mce, &kernel(10), 0);
            assert_eq!(master.bus().total(), 0, "{mode:?}");
        }
    }

    #[test]
    fn kernel_halves_account_absolute_values_in_every_mode() {
        // (mode, filled) -> CacheFill, Sync, Distillation bytes,
        // dispatched, and the returned "a fill was accounted" flag for
        // `kernel_remote(7, 3, filled)`; then the pipeline's issued /
        // cached_instructions after `kernel_local` of the same kernel.
        use DeliveryMode::{QuestMce, QuestMceCache, SoftwareBaseline};
        let remote = [
            (SoftwareBaseline, false, [0, 0, 42], 21, false),
            (SoftwareBaseline, true, [0, 0, 42], 21, false),
            (QuestMce, false, [0, 0, 42], 21, false),
            (QuestMce, true, [0, 0, 42], 21, false),
            (QuestMceCache, false, [14, 6, 0], 28, true),
            (QuestMceCache, true, [0, 6, 0], 21, false),
        ];
        for (mode, filled, bytes, dispatched, fill_accounted) in remote {
            let (mut master, _) = setup();
            let flag = DeliveryEngine::new(mode).kernel_remote(&mut master, 7, 3, filled);
            assert_eq!(flag, fill_accounted, "{mode:?} filled={filled}");
            let bus = master.bus();
            assert_eq!(
                [Traffic::CacheFill, Traffic::Sync, Traffic::Distillation].map(|c| bus.bytes(c)),
                bytes,
                "{mode:?} filled={filled}"
            );
            assert_eq!(bus.total(), bytes.iter().sum::<u64>(), "{mode:?}");
            assert_eq!(master.stats().dispatched, dispatched, "{mode:?}");
        }
        // The tile's half: 21 instructions issue either way; under the
        // cache only the 7-instruction fill arrives over the bus.
        let local = [
            (SoftwareBaseline, 21, 0),
            (QuestMce, 21, 0),
            (QuestMceCache, 7, 21),
        ];
        for (mode, bus_instructions, cached_instructions) in local {
            let (_, mut mce) = setup();
            DeliveryEngine::new(mode).kernel_local(&mut mce, &kernel(7), 3);
            assert_eq!(
                mce.instruction_pipeline().stats(),
                PipelineStats {
                    bus_instructions,
                    cached_instructions,
                    issued: 21,
                },
                "{mode:?}"
            );
        }
    }

    #[test]
    fn only_the_baseline_pays_for_cycles() {
        let (mut master, _) = setup();
        DeliveryEngine::new(DeliveryMode::SoftwareBaseline).account_cycle(&mut master, 17, 6);
        assert_eq!(master.bus().bytes(Traffic::QeccInstructions), 17 * 6);
        let (mut master, _) = setup();
        DeliveryEngine::new(DeliveryMode::QuestMce).account_cycle(&mut master, 17, 6);
        DeliveryEngine::new(DeliveryMode::QuestMceCache).account_cycle(&mut master, 17, 6);
        assert_eq!(master.bus().total(), 0);
    }
}
