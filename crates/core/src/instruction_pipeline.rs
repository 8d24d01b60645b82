//! MCE instruction pipeline: logical-instruction buffering, decode, and
//! the software-managed instruction cache (§5.1, §5.3).
//!
//! The pipeline receives two-byte logical instructions from the master
//! controller (step ④), decodes them (step ⑤) and expands them into µops
//! in the logical-µop table / mask-table writes (step ⑥). Because QuEST
//! decouples QECC delivery from logical delivery, the buffer may be
//! managed as a *cache*: deterministic distillation kernels are loaded
//! once over the global bus and replayed locally, cutting logical
//! bandwidth by orders of magnitude (§5.3).

use quest_isa::{InstrClass, LogicalInstr};
use std::collections::BTreeMap;
use std::fmt;

/// Outcome of offering one instruction to the pipeline's cache stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Delivered over the global bus (buffer mode, or a cache fill).
    BusDelivered {
        /// Bytes that crossed the global bus.
        bytes: u64,
    },
    /// Served from the local instruction cache; no bus traffic.
    CacheHit,
}

/// Statistics for the instruction pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Instructions delivered over the bus.
    pub bus_instructions: u64,
    /// Instructions replayed from the cache.
    pub cached_instructions: u64,
    /// Instructions decoded and issued to the logical-µop table.
    pub issued: u64,
}

/// A cached instruction block (one distillation kernel, typically 100–200
/// instructions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CacheBlock {
    instrs: Vec<LogicalInstr>,
}

/// The instruction pipeline of one MCE.
///
/// # Example
///
/// ```
/// use quest_core::instruction_pipeline::InstructionPipeline;
/// use quest_isa::{LogicalInstr, LogicalQubit};
///
/// let mut ip = InstructionPipeline::new(4096);
/// // Fill block 0 once (bus traffic)...
/// ip.cache_fill(0, &[LogicalInstr::H(LogicalQubit(0)); 150]);
/// // ...then replay it many times for free.
/// for _ in 0..100 {
///     assert_eq!(ip.cache_replay(0), Some(150));
/// }
/// assert_eq!(ip.stats().cached_instructions, 15_000);
/// ```
#[derive(Debug, Clone)]
pub struct InstructionPipeline {
    /// Cache capacity in bytes (the instruction buffer size).
    capacity_bytes: usize,
    blocks: BTreeMap<u8, CacheBlock>,
    stats: PipelineStats,
}

impl InstructionPipeline {
    /// Builds a pipeline whose instruction buffer holds `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_bytes: usize) -> InstructionPipeline {
        assert!(capacity_bytes > 0, "instruction buffer needs capacity");
        InstructionPipeline {
            capacity_bytes,
            blocks: BTreeMap::new(),
            stats: PipelineStats::default(),
        }
    }

    /// Buffer capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently used by cached blocks.
    pub fn used_bytes(&self) -> usize {
        self.blocks
            .values()
            .map(|b| b.instrs.len() * LogicalInstr::ENCODED_BYTES)
            .sum()
    }

    /// Statistics so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Delivers one instruction over the bus and issues it immediately
    /// (plain buffer mode, step ④→⑥). Returns the bus traffic incurred.
    pub fn deliver(&mut self, _instr: LogicalInstr) -> FetchOutcome {
        self.stats.bus_instructions += 1;
        self.stats.issued += 1;
        FetchOutcome::BusDelivered {
            bytes: LogicalInstr::ENCODED_BYTES as u64,
        }
    }

    /// Loads a block into the software-managed cache (costs bus traffic
    /// once). Instructions are stored, not issued.
    ///
    /// # Panics
    ///
    /// Panics if the block would overflow the buffer capacity.
    /// `WorkloadSpec::validate` (quest-runtime) rejects such kernels
    /// before a run, so no validated workload reaches the assertion.
    pub fn cache_fill(&mut self, block: u8, instrs: &[LogicalInstr]) -> u64 {
        let bytes = (instrs.len() * LogicalInstr::ENCODED_BYTES) as u64;
        assert!(
            self.used_bytes() + bytes as usize <= self.capacity_bytes,
            "cache fill of {bytes} B overflows the {}-byte instruction buffer",
            self.capacity_bytes
        );
        self.stats.bus_instructions += instrs.len() as u64;
        self.blocks.insert(
            block,
            CacheBlock {
                instrs: instrs.to_vec(),
            },
        );
        bytes
    }

    /// Replays a cached block: every instruction issues locally with zero
    /// bus traffic. Returns the number of instructions issued, or `None`
    /// on a cache miss (unknown block id).
    pub fn cache_replay(&mut self, block: u8) -> Option<usize> {
        let count = self.blocks.get(&block)?.instrs.len();
        self.stats.cached_instructions += count as u64;
        self.stats.issued += count as u64;
        Some(count)
    }

    /// Evicts a block, freeing buffer space.
    pub fn cache_evict(&mut self, block: u8) -> bool {
        self.blocks.remove(&block).is_some()
    }

    /// Returns `true` when a block is resident.
    pub fn cache_contains(&self, block: u8) -> bool {
        self.blocks.contains_key(&block)
    }
}

impl fmt::Display for InstructionPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ip[{} blocks, {}/{} B, {} bus / {} cached]",
            self.blocks.len(),
            self.used_bytes(),
            self.capacity_bytes,
            self.stats.bus_instructions,
            self.stats.cached_instructions
        )
    }
}

/// Computes the logical-bandwidth ratio achieved by caching a kernel of
/// `kernel_len` instructions replayed `replays` times: bus bytes without
/// cache divided by bus bytes with cache (fill once + replay commands).
pub fn cache_bandwidth_ratio(kernel_len: usize, replays: u64) -> f64 {
    let without = kernel_len as f64 * replays as f64;
    let with = kernel_len as f64 + replays as f64; // fill + one replay token each
    without / with
}

/// Classifies delivered instructions for bandwidth accounting (used by the
/// system model when draining a program through the pipeline).
pub fn traffic_class(class: InstrClass) -> crate::bus::Traffic {
    match class {
        InstrClass::Algorithmic => crate::bus::Traffic::LogicalInstructions,
        InstrClass::Distillation => crate::bus::Traffic::Distillation,
        InstrClass::Sync => crate::bus::Traffic::Sync,
        InstrClass::CacheControl => crate::bus::Traffic::Sync,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_isa::LogicalQubit;

    fn kernel(n: usize) -> Vec<LogicalInstr> {
        (0..n)
            .map(|i| LogicalInstr::H(LogicalQubit((i % 8) as u8)))
            .collect()
    }

    #[test]
    fn plain_delivery_costs_two_bytes_each() {
        let mut ip = InstructionPipeline::new(1024);
        let out = ip.deliver(LogicalInstr::T(LogicalQubit(0)));
        assert_eq!(out, FetchOutcome::BusDelivered { bytes: 2 });
        assert_eq!(ip.stats().bus_instructions, 1);
        assert_eq!(ip.stats().issued, 1);
    }

    #[test]
    fn cache_replay_issues_without_bus_traffic() {
        let mut ip = InstructionPipeline::new(1024);
        let k = kernel(150);
        let fill_bytes = ip.cache_fill(3, &k);
        assert_eq!(fill_bytes, 300);
        let before_bus = ip.stats().bus_instructions;
        for _ in 0..1000 {
            assert!(ip.cache_replay(3).is_some());
        }
        assert_eq!(ip.stats().bus_instructions, before_bus);
        assert_eq!(ip.stats().cached_instructions, 150_000);
        assert_eq!(ip.stats().issued, 150_000);
    }

    #[test]
    fn replay_miss_returns_none() {
        let mut ip = InstructionPipeline::new(64);
        assert!(ip.cache_replay(9).is_none());
    }

    #[test]
    fn eviction_frees_space() {
        let mut ip = InstructionPipeline::new(400);
        ip.cache_fill(0, &kernel(100)); // 200 B
        assert_eq!(ip.used_bytes(), 200);
        assert!(ip.cache_evict(0));
        assert_eq!(ip.used_bytes(), 0);
        assert!(!ip.cache_contains(0));
        assert!(!ip.cache_evict(0));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_fill_panics() {
        let mut ip = InstructionPipeline::new(100);
        ip.cache_fill(0, &kernel(100)); // 200 B > 100 B
    }

    #[test]
    fn cache_ratio_is_three_orders_for_typical_kernels() {
        // §5.3: a 100–200 instruction distillation kernel replayed for the
        // duration of a workload cuts logical bandwidth ~1000×.
        let r = cache_bandwidth_ratio(150, 1_000_000);
        assert!(r > 100.0, "ratio {r}");
        let r_long = cache_bandwidth_ratio(150, u64::MAX / 2);
        assert!(r_long > 140.0 && r_long < 151.0, "asymptote {r_long}");
    }
}
