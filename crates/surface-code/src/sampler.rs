//! Fault-map batched sampling of memory experiments.
//!
//! [`FrameSampler`] is the fast path for a [`MemoryExperiment`]: instead
//! of re-running the O(n²) tableau once per shot, it samples the
//! experiment's *faults* and adds up their fixed effects. Noise enters a
//! memory experiment at two kinds of location only — a Pauli channel on
//! every data qubit at every round start, and a classical flip of every
//! monitored record — and the round's gates are noiseless. So what one
//! fault does to a shot is fixed: it flips at most two detectors (an edge
//! of the decoding graph) and perhaps the uncorrected logical readout.
//! The constructor derives that effect once per fault, a *column*
//! (`fault_columns`):
//!
//! - one [`FrameSimulator`] lane per fault — an X or a Z on each data
//!   qubit at a round start, a flip of each monitored record — runs
//!   through successive noiseless rounds of the circuit's own gates until
//!   no lane's frame changes any more (after two rounds in a memory
//!   experiment); from then on every round repeats the last, and a fault
//!   striking earlier has the same column moved back in time;
//! - the lanes' record flips become detection events by one definition
//!   (`detector_columns`): round 0 against the all-zero reference, later
//!   rounds against their predecessor, and a final perfect-readout node
//!   from the readout parity XOR the last record.
//!
//! A batch then draws each 64-shot block's errors in the fixed schedule
//! below — a draw that places no error in its block, almost every draw
//! at the paper's rates, is one integer compare inside [`SkipLaw`] — and
//! XORs every non-zero error word straight into its column's event rows
//! and logical row, marking those rows in the block's touched-row summary
//! (`ChunkRows`); no frame is propagated and no gate is applied. The
//! hit mask and event count, the per-shot sets and the clearing for the
//! next chunk read only the touched words, so past the draws a chunk
//! costs what its faults wrote, not rows × blocks. Above
//! [`PLANE_DECODE_DENSITY`] whole event planes
//! ([`EventPlanes`]) go to [`Decoder::decode_planes`]. Below it a quiet
//! shot never reaches the decoder — its verdict is its logical bit,
//! because an empty event set decodes to the empty correction — and a
//! shot with events is answered from the run's *slots* when it can be:
//! one per detector node and one per decoding-graph edge, for the sets a
//! single fault makes (`[a]`, or the two ends of an edge). A slot holds
//! its set's correction weight and logical flip, filled by the first
//! decode of that set in the run; only sets without a filled slot (an
//! empty one, three or more events, a pair joined by no edge) go to the
//! chunk's one [`Decoder::decode_many`] call. A decode is a pure
//! function of `(graph, events)` and tallies are sums over shots, so the
//! answers are the decoder's own; the slots live for one run, so nothing
//! is shared between runs or threads.
//!
//! # Why this is exact
//!
//! Both memory bases prepare a state whose *monitored* check record is
//! deterministically zero in the noiseless reference (`|0…0⟩` satisfies
//! every Z check; `|+…+⟩` every X check), and the final readout enters
//! the decoder only through check/logical *parities*, which are likewise
//! deterministic. Pauli frames predict flips of deterministic-in-reference
//! observables exactly, so a frame run's detection events and logical
//! flip are bit-for-bit those of a tableau run with the same physical
//! fault pattern. (Random *unmonitored* measurements — the other-kind
//! checks of round 1 — perturb the effective frame only by operators of
//! the prepared state's stabilizer group, which carry no monitored-flip
//! component.) Frame propagation through Clifford gates, preparations and
//! measurements is linear over GF(2), and so are the detector and readout
//! parities, so a shot's events and logical flip are the XOR of its
//! faults' columns — what the frame run would have produced, fault for
//! fault. The `frame_equivalence` integration tests pin the columns
//! against the tableau, and the `sampler_oracle` tests pin whole batches
//! against a reference sampler that propagates every shot's frame. The
//! constructor re-derives the reference from one tableau run and asserts
//! it is all-zero rather than assuming it.
//!
//! # Determinism
//!
//! All randomness comes from one `StdRng` per 64-shot block, seeded from
//! `(seed, global block index)` via [`quest_stabilizer::frame::block_seed`].
//! Each block consumes a fixed draw schedule — per round, data-channel
//! draws in qubit order, then measurement-flip draws in check order, and
//! no draws at all for a zero rate — through the shared per-block draws
//! of [`SkipLaw`], the same calls [`FrameSimulator`]'s injections make. A
//! block's stream is therefore a pure function of `(seed, block)`, and
//! its shots land in block `b`'s word of every event row, so results are
//! invariant under the internal chunk size and any distribution of
//! chunks over threads: `run_batch` is a pure function of
//! `(experiment, noise, decoder, shots, seed)`.
//!
//! Early exit (see [`EarlyExit`]) preserves this: the stop decision is a
//! pure function of the integer `(failures, shots)` tally, evaluated only
//! at fixed 512-shot-aligned milestones — never at chunk boundaries that
//! depend on the chunk size. Two runs with the same `(shots, seed, early)`
//! therefore stop at the same milestone and report identical outcomes,
//! whatever their chunking or threading.

use crate::decoder::{Correction, CorrectionBatch, Decoder, EventPlanes};
use crate::graph::{DecodingGraph, NodeId};
use crate::memory::{MemoryBasis, MemoryExperiment, MemoryNoise};
use quest_stabilizer::frame::{block_seed, FrameSimulator, LaneWidth, SkipLaw};
use quest_stabilizer::{Pauli, SeedableRng, StdRng, Tableau};

/// Default shots per internal chunk: bounds the event rows' memory and
/// sets how many shots the density choice and one `decode_many` call
/// see at once.
const DEFAULT_CHUNK_SHOTS: usize = 4096;

/// Mean detection events per (node, shot) below which the sampler
/// scatters the events of the shots that have any to per-shot sparse
/// sets for [`Decoder::decode_many`], instead of handing whole planes to
/// [`Decoder::decode_planes`]. At such densities almost every plane word
/// is zero and nine in ten shots have no event at all: those skip the
/// decoder, their verdict being their logical bit, and most of the rest
/// carry one fault, answered from the run's slots. Both paths produce
/// bit-identical corrections (see the `frame_equivalence` tests), so the
/// per-chunk choice never affects results.
pub const PLANE_DECODE_DENSITY: f64 = 1.0 / 256.0;

/// Early-exit shot milestones are aligned to this many shots — a
/// multiple of the 64-shot block, so a milestone is a block boundary and
/// the decision point never depends on the chunk size.
pub const EARLY_EXIT_ALIGN: usize = 512;

/// `ln(1e9)`: the Hoeffding confidence level of the early-exit rate
/// bound (failure probability ≤ 1e-9 per decision point).
const EARLY_EXIT_CONFIDENCE_LN: f64 = 20.723_265_836_946_41;

/// Deterministic early-exit rule for batched sampling: stop a `(d, p)`
/// sweep point once its logical error rate is statistically decided.
///
/// Two stop conditions, checked only at [`EARLY_EXIT_ALIGN`]-aligned shot
/// milestones and only after `min_shots`:
///
/// 1. **Enough failures.** `failures >= target_failures`: the relative
///    error of `failures / shots` scales as `1/sqrt(failures)`, so past
///    the target the estimate no longer sharpens meaningfully — this is
///    what cuts decode-bound above-threshold points short.
/// 2. **Provably below.** When `decide_below > 0`, stop once the
///    one-sided Hoeffding upper bound
///    `failures/shots + sqrt(ln(1e9) / (2·shots))` falls below
///    `decide_below` — the point is decided to sit below the bracket.
///
/// The decision is a pure function of the integer `(failures, shots)`
/// tally, so it is invariant under chunk size, worker count and lane
/// width (the tallies themselves are, and milestones are fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyExit {
    /// Never stop before this many shots.
    pub min_shots: usize,
    /// Milestone spacing in shots; must be a positive multiple of
    /// [`EARLY_EXIT_ALIGN`].
    pub check_every: usize,
    /// Stop once this many failures have been observed.
    pub target_failures: usize,
    /// Stop once the rate is provably below this bound (`0.0` disables
    /// the rate rule).
    pub decide_below: f64,
}

impl Default for EarlyExit {
    fn default() -> EarlyExit {
        EarlyExit {
            min_shots: EARLY_EXIT_ALIGN,
            check_every: EARLY_EXIT_ALIGN,
            target_failures: 100,
            decide_below: 0.0,
        }
    }
}

impl EarlyExit {
    /// The default rule with the rate bound enabled at `decide_below`.
    #[must_use]
    pub fn decide_below(decide_below: f64) -> EarlyExit {
        EarlyExit {
            decide_below,
            ..EarlyExit::default()
        }
    }

    /// Whether sampling may stop at a milestone of `shots` shots with
    /// `failures` observed failures. Pure in its integer arguments.
    #[must_use]
    pub fn decided(&self, failures: usize, shots: usize) -> bool {
        if shots < self.min_shots {
            return false;
        }
        if failures >= self.target_failures {
            return true;
        }
        if self.decide_below > 0.0 {
            let s = shots as f64;
            let upper = failures as f64 / s + (EARLY_EXIT_CONFIDENCE_LN / (2.0 * s)).sqrt();
            return upper < self.decide_below;
        }
        false
    }

    fn validate(&self) {
        assert!(
            self.check_every > 0 && self.check_every.is_multiple_of(EARLY_EXIT_ALIGN),
            "check_every must be a positive multiple of {EARLY_EXIT_ALIGN}"
        );
    }
}

/// Knobs of a configured batch run; [`FrameSampler::run_batch`] uses the
/// defaults (default chunk, no early exit).
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Unread: the sampler propagates no frame, so there is no plane
    /// word to size. It stays while callers still name a lane width.
    pub width: LaneWidth,
    /// Shots per internal chunk (results are chunk-invariant).
    pub chunk_shots: usize,
    /// Optional deterministic early exit.
    pub early_exit: Option<EarlyExit>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            width: LaneWidth::default(),
            chunk_shots: DEFAULT_CHUNK_SHOTS,
            early_exit: None,
        }
    }
}

/// Aggregate result of a batched memory run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Shots simulated. Equals the requested count unless an
    /// [`EarlyExit`] stopped the run at an earlier milestone.
    pub shots: usize,
    /// Shots whose decoded logical observable was flipped.
    pub failures: usize,
    /// Total detection events over all shots.
    pub detection_events: usize,
    /// Total data-qubit flips applied by the decoder over all shots.
    pub correction_weight: usize,
}

impl BatchOutcome {
    /// Fraction of failed shots.
    pub fn logical_error_rate(&self) -> f64 {
        self.failures as f64 / self.shots as f64
    }

    /// The 95 % Wilson score interval of the logical error rate (see
    /// [`wilson_interval`]).
    pub fn rate_interval(&self) -> (f64, f64) {
        wilson_interval(self.failures, self.shots)
    }
}

/// The 95 % Wilson score interval `(lo, hi)` of a rate observed as
/// `failures` in `shots` trials, `(0, 1)` when there is no trial. Unlike
/// `failures / shots ± z·σ̂` it stays inside `[0, 1]` and is not empty at
/// zero failures: 0 of 5000 reads `(0, 7.68e-4)`, an upper bound.
#[must_use]
pub fn wilson_interval(failures: usize, shots: usize) -> (f64, f64) {
    /// The two-sided 95 % normal quantile.
    const Z: f64 = 1.96;
    if shots == 0 {
        return (0.0, 1.0);
    }
    let n = shots as f64;
    let rate = failures as f64 / n;
    let z2n = Z * Z / n;
    let center = (rate + z2n / 2.0) / (1.0 + z2n);
    let half = Z / (1.0 + z2n) * (rate * (1.0 - rate) / n + z2n / (4.0 * n)).sqrt();
    // The bounds touch 0 and 1 exactly at the ends; rounding would not.
    let lo = if failures == 0 { 0.0 } else { center - half };
    let hi = if failures == shots {
        1.0
    } else {
        center + half
    };
    (lo, hi)
}

/// The rows of a chunk one single fault flips: up to two detector nodes
/// (ascending) and the logical row, every unused slot holding the sink.
/// The sink is the boundary node's id, which is never an event; the
/// logical row is the one after it. A column with one detector is
/// therefore a boundary edge as [`DecodingGraph`] spells it.
type Column = [u32; 3];

/// A memory experiment compiled for fault-map sampling.
///
/// # Example
///
/// ```
/// use quest_surface::{FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise, UnionFindDecoder};
///
/// let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
/// let sampler = FrameSampler::new(&exp);
/// let out = sampler.run_batch(
///     &MemoryNoise::code_capacity(1e-2),
///     &UnionFindDecoder::new(),
///     1024,
///     7,
/// );
/// assert_eq!(out.shots, 1024);
/// assert!(out.logical_error_rate() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct FrameSampler {
    /// Space-time decoding graph (`rounds + 1` detection rounds).
    graph: DecodingGraph,
    /// Columns of an X (`[0]`) and a Z (`[1]`) on data qubit `q` at the
    /// start of round `t`: `data_faults[t * num_data + q]`.
    data_faults: Vec<[Column; 2]>,
    /// Column of a flip of monitored check `c`'s record in round `t`:
    /// `flip_faults[t * num_checks + c]`.
    flip_faults: Vec<Column>,
    /// Whether a data qubit is in the judged logical operator's support.
    is_logical: Vec<bool>,
    num_data: usize,
    num_checks: usize,
    rounds: usize,
}

impl FrameSampler {
    /// Compiles `exp` for fault-map sampling: verifies, via one noiseless
    /// tableau run, that the monitored reference record is all-zero (the
    /// precondition for frame flips *being* the record), then derives
    /// every single fault's column from the circuit's rounds.
    ///
    /// # Panics
    ///
    /// Panics if the reference-record derivation fails — that would mean
    /// the experiment's preparation does not satisfy its monitored checks
    /// deterministically, and frame sampling would be silently wrong — or
    /// if a single fault flips more than two detectors.
    pub fn new(exp: &MemoryExperiment) -> FrameSampler {
        let lat = exp.lattice();
        let basis = exp.basis();
        let kind = basis.check_kind();
        let rounds = exp.rounds();
        let num_data = lat.num_data();

        // Monitored check `c`'s index into a round's measurements
        // (ancilla measurements come out in plaquette order).
        let monitored_slots: Vec<usize> = lat
            .plaquettes()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kind == kind)
            .map(|(slot, _)| slot)
            .collect();
        let check_support: Vec<Vec<usize>> =
            lat.plaquettes_of(kind).map(|p| p.data.clone()).collect();
        let logical_support: Vec<usize> = match basis {
            MemoryBasis::Z => (0..lat.distance())
                .map(|col| lat.data_index(0, col))
                .collect(),
            MemoryBasis::X => (0..lat.distance())
                .map(|row| lat.data_index(row, 0))
                .collect(),
        };
        verify_reference(exp, &check_support, &logical_support);

        let graph = exp.decoding_graph();
        let (data_faults, flip_faults) = fault_columns(
            exp,
            &graph,
            &monitored_slots,
            &check_support,
            &logical_support,
        );
        let mut is_logical = vec![false; num_data];
        for &q in &logical_support {
            is_logical[q] = true;
        }
        FrameSampler {
            graph,
            data_faults,
            flip_faults,
            is_logical,
            num_data,
            num_checks: monitored_slots.len(),
            rounds,
        }
    }

    /// The decoding graph shots are decoded over.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Runs `shots` shots with the default [`SamplerConfig`]. The result
    /// is independent of chunking and threading by construction.
    pub fn run_batch<D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
    ) -> BatchOutcome {
        self.run_batch_configured(noise, decoder, shots, seed, &SamplerConfig::default())
    }

    /// Runs `shots` shots under an explicit [`SamplerConfig`] — chunk
    /// size and optional early exit.
    ///
    /// # Panics
    ///
    /// Panics if `shots` or `cfg.chunk_shots` is zero, if the
    /// measurement-flip rate is not a probability, or if
    /// `cfg.early_exit` has a misaligned `check_every`.
    pub fn run_batch_configured<D: Decoder>(
        &self,
        noise: &MemoryNoise,
        decoder: &D,
        shots: usize,
        seed: u64,
        cfg: &SamplerConfig,
    ) -> BatchOutcome {
        assert!(shots > 0, "need at least one shot");
        assert!(cfg.chunk_shots > 0, "need a positive chunk size");
        assert!(
            (0.0..=1.0).contains(&noise.measurement_flip),
            "p must be a probability"
        );
        if let Some(e) = &cfg.early_exit {
            e.validate();
        }
        let total_blocks = shots.div_ceil(64);
        let chunk_blocks = cfg.chunk_shots.div_ceil(64).min(total_blocks);
        let num_nodes = self.graph.boundary();

        // Node-major event rows, then the sink and the logical row, with
        // per block the rows its faults wrote.
        let mut rows = ChunkRows::new(num_nodes + 2, chunk_blocks);
        // Per block, the shots with at least one event.
        let mut hit = vec![0u64; chunk_blocks];
        // Sparse-path and plane-path decode state, reused across chunks.
        let mut hits = HitAnswers::default();
        let mut batch = CorrectionBatch::new();

        let mut outcome = BatchOutcome {
            shots,
            failures: 0,
            detection_events: 0,
            correction_weight: 0,
        };

        let milestone_blocks = cfg.early_exit.as_ref().map(|e| e.check_every / 64);
        let mut base_block = 0usize;
        while base_block < total_blocks {
            let mut end_block = (base_block + chunk_blocks).min(total_blocks);
            if let Some(ms) = milestone_blocks {
                // Clip the chunk to the next milestone so tallies at a
                // milestone never depend on the chunk size.
                end_block = end_block.min((base_block / ms + 1) * ms);
            }
            let blocks = end_block - base_block;
            // Shots beyond `shots` in the trailing block are dead lanes.
            let live_shots = (shots - base_block * 64).min(blocks * 64);
            self.sample_chunk(noise, seed, base_block, live_shots, &mut rows);

            let (events, rest) = rows.words().split_at(num_nodes * blocks);
            let logical = &rest[blocks..];
            let hit = &mut hit[..blocks];
            let mut chunk_events = 0usize;
            for (b, h) in hit.iter_mut().enumerate() {
                *h = 0;
                for (_, word) in rows.touched_events(b) {
                    *h |= word;
                    chunk_events += word.count_ones() as usize;
                }
            }
            outcome.detection_events += chunk_events;
            let density = chunk_events as f64 / (num_nodes * live_shots) as f64;
            if density >= PLANE_DECODE_DENSITY {
                let planes = EventPlanes::new(events, num_nodes, blocks, live_shots);
                decoder.decode_planes(&self.graph, &planes, &mut batch);
                outcome.correction_weight += batch.total_flips();
                for shot in 0..live_shots {
                    let mut fail = logical[shot / 64] >> (shot % 64) & 1 == 1;
                    for &q in batch.flips_of(shot) {
                        fail ^= self.is_logical[q];
                    }
                    outcome.failures += usize::from(fail);
                }
            } else {
                // A quiet shot decodes to the empty correction: its
                // verdict is its logical bit.
                for (&l, &h) in logical.iter().zip(hit.iter()) {
                    outcome.failures += (l & !h).count_ones() as usize;
                }
                hits.tally(self, decoder, &rows, hit, logical, &mut outcome);
            }
            base_block = end_block;

            if let Some(e) = &cfg.early_exit {
                let done = (base_block * 64).min(shots);
                if done < shots
                    && done.is_multiple_of(e.check_every)
                    && e.decided(outcome.failures, done)
                {
                    outcome.shots = done;
                    break;
                }
            }
        }
        outcome
    }

    /// A decode's slot entry: its correction weight, and whether it flips
    /// the judged logical in the low bit.
    fn answer(&self, correction: &Correction) -> u32 {
        let flip = correction
            .data_flips
            .iter()
            .fold(false, |flip, &q| flip ^ self.is_logical[q]);
        let weight = correction.weight();
        assert!(
            weight < (PENDING >> 1) as usize,
            "correction weight overflows its slot"
        );
        (weight as u32) << 1 | u32::from(flip)
    }

    /// Samples one chunk of `live_shots` shots starting at global block
    /// `base_block` into `rows` (see [`ChunkRows`]): each block draws its
    /// fixed schedule from its own stream and XORs every non-zero error
    /// word into the rows of its fault's column. The trailing block's
    /// dead lanes stay clear.
    fn sample_chunk(
        &self,
        noise: &MemoryNoise,
        seed: u64,
        base_block: usize,
        live_shots: usize,
        rows: &mut ChunkRows,
    ) {
        let total = noise.data.total_error_probability();
        let data_law = (total != 0.0).then(|| SkipLaw::new(total));
        let flip_law =
            (noise.measurement_flip != 0.0).then(|| SkipLaw::new(noise.measurement_flip));
        let blocks = live_shots.div_ceil(64);
        rows.restart(blocks);
        for b in 0..blocks {
            let mut rng = StdRng::seed_from_u64(block_seed(seed, (base_block + b) as u64));
            let live = u64::MAX >> ((b + 1) * 64).saturating_sub(live_shots);
            let mut xor = |column: &Column, bits: u64| rows.xor(column, b, bits & live);
            for t in 0..self.rounds {
                if let Some(law) = &data_law {
                    for [x, z] in &self.data_faults[t * self.num_data..][..self.num_data] {
                        let (xbits, zbits) = law.pauli_block(&noise.data, &mut rng);
                        if xbits != 0 {
                            xor(x, xbits);
                        }
                        if zbits != 0 {
                            xor(z, zbits);
                        }
                    }
                }
                if let Some(law) = &flip_law {
                    for column in &self.flip_faults[t * self.num_checks..][..self.num_checks] {
                        let bits = law.flip_block(&mut rng);
                        if bits != 0 {
                            xor(column, bits);
                        }
                    }
                }
            }
        }
    }

    /// Detection events and uncorrected logical readout parity of one
    /// explicit fault pattern (`errors_per_round[t][q]` before round `t`,
    /// `meas_flips_per_round[t][c]` flipping monitored records): the XOR
    /// of its faults' columns, a Y being an X and a Z. The counterpart of
    /// [`MemoryExperiment::faulted_shot_events`]; consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics if the fault pattern's shape does not match the experiment.
    pub fn faulted_shot_events(
        &self,
        errors_per_round: &[Vec<Pauli>],
        meas_flips_per_round: &[Vec<bool>],
    ) -> (Vec<NodeId>, bool) {
        assert_eq!(
            errors_per_round.len(),
            self.rounds,
            "one error layer per round"
        );
        assert_eq!(
            meas_flips_per_round.len(),
            self.rounds,
            "one flip layer per round"
        );
        let num_nodes = self.graph.boundary();
        let mut rows = vec![false; num_nodes + 2];
        let mut xor = |column: &Column| {
            for &row in column {
                rows[row as usize] ^= true;
            }
        };
        for (t, (errors, flips)) in errors_per_round
            .iter()
            .zip(meas_flips_per_round)
            .enumerate()
        {
            assert_eq!(errors.len(), self.num_data, "one Pauli per data qubit");
            assert_eq!(flips.len(), self.num_checks, "one flip bit per check");
            for (&e, [x, z]) in errors.iter().zip(&self.data_faults[t * self.num_data..]) {
                if e.has_x() {
                    xor(x);
                }
                if e.has_z() {
                    xor(z);
                }
            }
            for (&f, column) in flips.iter().zip(&self.flip_faults[t * self.num_checks..]) {
                if f {
                    xor(column);
                }
            }
        }
        let events = (0..num_nodes).filter(|&n| rows[n]).collect();
        (events, rows[num_nodes + 1])
    }
}

/// One noiseless tableau run asserting the all-zero reference record:
/// every monitored check must read 0 in every round, and the final
/// check/logical readout parities must be 0.
fn verify_reference(exp: &MemoryExperiment, check_support: &[Vec<usize>], logical: &[usize]) {
    // The seed only steers which branch unmonitored (other-kind)
    // measurements collapse into; monitored outcomes are deterministic.
    let mut rng = StdRng::seed_from_u64(0);
    let lat = exp.lattice();
    let basis = exp.basis();
    let mut t = Tableau::new(lat.num_qubits());
    if basis == MemoryBasis::X {
        for q in 0..lat.num_data() {
            t.h(q);
        }
    }
    let kind = basis.check_kind();
    for round in 0..exp.rounds() {
        let syn = exp.syndrome_circuit().run_round(&mut t, &mut rng);
        assert!(
            syn.of(kind).iter().all(|&b| !b),
            "monitored reference record must be zero (round {round})"
        );
    }
    let data_bits: Vec<bool> = (0..lat.num_data())
        .map(|q| match basis {
            MemoryBasis::Z => t.measure(q, &mut rng).value,
            MemoryBasis::X => t.measure_x(q, &mut rng).value,
        })
        .collect();
    for (c, support) in check_support.iter().enumerate() {
        let parity = support.iter().fold(false, |acc, &q| acc ^ data_bits[q]);
        assert!(!parity, "reference final check {c} must have even parity");
    }
    let parity = logical.iter().fold(false, |acc, &q| acc ^ data_bits[q]);
    assert!(!parity, "reference logical readout must have even parity");
}

/// Every single fault's column, derived from the circuit: the data
/// faults' (`[t * num_data + q]`, X then Z) and the record flips'
/// (`[t * num_checks + c]`).
///
/// One frame-simulator lane per fault — an X on data qubit `q` (lane
/// `q`), a Z on it (lane `num_data + q`), a flip of monitored record `c`
/// (lane `2 * num_data + c`) — runs through successive noiseless rounds
/// of the syndrome circuit until no lane's frame changes any more (every
/// fault of a memory experiment settles after two). Frame propagation is
/// linear, so a lane's records and frame after `k` rounds are exactly
/// its fault's; once settled, every later round repeats them, and a
/// fault striking earlier has the same column moved back in time.
fn fault_columns(
    exp: &MemoryExperiment,
    graph: &DecodingGraph,
    monitored_slots: &[usize],
    check_support: &[Vec<usize>],
    logical_support: &[usize],
) -> (Vec<[Column; 2]>, Vec<Column>) {
    let lat = exp.lattice();
    let (n, num_data, rounds) = (lat.num_qubits(), lat.num_data(), exp.rounds());
    let num_checks = monitored_slots.len();
    let flip_lanes = 2 * num_data;
    let mut sim: FrameSimulator = FrameSimulator::new(n, flip_lanes + num_checks);
    for q in 0..num_data {
        sim.xor_frame(q, q, Pauli::X);
        sim.xor_frame(q, num_data + q, Pauli::Z);
    }
    let words = sim.words();

    // Per round `k` of the trajectories, as planes over the lanes: the
    // records flipped, `records[(k * num_checks + c) * words..]`, and the
    // final readout parities the frame would leave, every check's then
    // the logical one, `readouts[(k * (num_checks + 1) + c) * words..]`.
    let (mut records, mut readouts) = (Vec::new(), Vec::new());
    let mut meas = Vec::with_capacity(lat.plaquettes().len() * words);
    let mut before: Option<FrameSimulator> = None;
    let mut settled = rounds;
    for k in 0..rounds {
        meas.clear();
        for &g in exp.syndrome_circuit().round_circuit() {
            sim.apply_gate(g, &mut meas);
        }
        for &slot in monitored_slots {
            records.extend_from_slice(&meas[slot * words..][..words]);
        }
        if k == 0 {
            for c in 0..num_checks {
                let lane = flip_lanes + c;
                records[c * words + lane / 64] ^= 1 << (lane % 64);
            }
        }
        for support in check_support
            .iter()
            .map(Vec::as_slice)
            .chain([logical_support])
        {
            let start = readouts.len();
            readouts.resize(start + words, 0);
            for &q in support {
                // A data qubit's readout is flipped by the frame's X
                // component in a Z-basis memory, by its Z in an X-basis one.
                let plane = match exp.basis() {
                    MemoryBasis::Z => sim.x_plane(q),
                    MemoryBasis::X => sim.z_plane(q),
                };
                xor_into(&mut readouts[start..], plane);
            }
        }
        // A flip lane's records change from round 0 to round 1 whatever
        // the frames do, so round 0 never settles.
        if k > 0 && before.as_ref() == Some(&sim) {
            settled = k + 1;
            break;
        }
        before = Some(sim.clone());
    }

    let sink = graph.boundary() as u32;
    let readout_nodes = graph.node(rounds, 0) as u32;
    let mut data_faults = vec![[[sink; 3]; 2]; rounds * num_data];
    let mut flip_faults = vec![[sink; 3]; rounds * num_checks];
    let mut columns = Vec::new();
    for steps in 1..=settled {
        let first = rounds - steps;
        let readout =
            &readouts[(steps - 1) * (num_checks + 1) * words..][..(num_checks + 1) * words];
        detector_columns(
            graph,
            first,
            |k, c| &records[(k * num_checks + c) * words..][..words],
            readout,
            &mut columns,
        );
        // The settled column serves every earlier start too, its rounds
        // moved back (its final-readout nodes, sink and logical row stay).
        let starts = if steps == settled {
            0..=first
        } else {
            first..=first
        };
        for t in starts {
            let back = ((first - t) * num_checks) as u32;
            let moved = |column: Column| {
                column.map(|row| if row < readout_nodes { row - back } else { row })
            };
            for q in 0..num_data {
                data_faults[t * num_data + q] = [moved(columns[q]), moved(columns[num_data + q])];
            }
            for c in 0..num_checks {
                flip_faults[t * num_checks + c] = moved(columns[flip_lanes + c]);
            }
        }
    }
    (data_faults, flip_faults)
}

/// The columns of every lane's fault striking at the start of round
/// `first`, into `columns` (one per lane), from the planes over the
/// lanes of the records it flips round by round (`record(k, c)`: check
/// `c` in round `first + k`, none before `first`) and of the final
/// readout parities it leaves (every check's, then the logical one).
/// This is the one definition of a detector: a round's record against
/// the round before (round 0 against the all-zero reference), and the
/// final perfect-readout node as the readout parity XOR the last record.
///
/// # Panics
///
/// Panics if a fault flips more than two detectors: no edge of a
/// decoding graph could then stand for it.
fn detector_columns<'a>(
    graph: &DecodingGraph,
    first: usize,
    record: impl Fn(usize, usize) -> &'a [u64],
    readout: &[u64],
    columns: &mut Vec<Column>,
) {
    let rounds = graph.rounds() - 1;
    let num_checks = graph.num_checks();
    let words = readout.len() / (num_checks + 1);
    let sink = graph.boundary() as u32;
    columns.clear();
    columns.resize(words * 64, [sink; 3]);
    let mut diff = vec![0u64; words];
    let mut flip = |diff: &[u64], node: NodeId| {
        for lane in set_bits(diff) {
            let column = &mut columns[lane];
            let free = usize::from(column[0] != sink);
            assert!(
                column[free] == sink,
                "a single fault flips more than two detectors"
            );
            column[free] = node as u32;
        }
    };
    for t in first..rounds {
        for c in 0..num_checks {
            diff.copy_from_slice(record(t - first, c));
            if t > first {
                xor_into(&mut diff, record(t - first - 1, c));
            }
            flip(&diff, graph.node(t, c));
        }
    }
    for c in 0..num_checks {
        diff.copy_from_slice(&readout[c * words..][..words]);
        xor_into(&mut diff, record(rounds - first - 1, c));
        flip(&diff, graph.node(rounds, c));
    }
    for lane in set_bits(&readout[num_checks * words..]) {
        columns[lane][2] = sink + 1;
    }
}

/// The indices of the set bits of a bit set held in words, ascending.
fn set_bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            let bit = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
            bits &= bits.wrapping_sub(1);
            bit
        })
    })
}

/// XORs `src` into `dst`, word by word.
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// One chunk's rows (see [`Column`]), node-major —
/// `words[row * blocks + b]` for the chunk's `blocks` blocks — and per
/// block the set of rows its faults wrote (`touched[b * span..][..span]`,
/// a bit per row). A 64-shot block at the paper's rates holds a few
/// faults among hundreds of rows, so everything after the draws reads,
/// and the clearing zeroes, only the touched words: the work follows the
/// faults drawn, not `rows × blocks`. Every word is zero again before the
/// next chunk is drawn, whatever its `blocks`.
#[derive(Debug)]
struct ChunkRows {
    words: Vec<u64>,
    touched: Vec<u64>,
    /// Rows per block: the event nodes, the sink and the logical row.
    rows: usize,
    /// Summary words per block, `ceil(rows / 64)`.
    span: usize,
    /// The current chunk's blocks: the stride of a row.
    blocks: usize,
}

impl ChunkRows {
    /// All-zero rows for chunks of up to `max_blocks` blocks.
    fn new(rows: usize, max_blocks: usize) -> ChunkRows {
        let span = rows.div_ceil(64);
        ChunkRows {
            words: vec![0; rows * max_blocks],
            touched: vec![0; span * max_blocks],
            rows,
            span,
            blocks: 0,
        }
    }

    /// Zeroes the words the last chunk touched, and its summary, then
    /// lays the rows out for a chunk of `blocks` blocks.
    fn restart(&mut self, blocks: usize) {
        for b in 0..self.blocks {
            let summary = &mut self.touched[b * self.span..][..self.span];
            for row in set_bits(summary) {
                self.words[row * self.blocks + b] = 0;
            }
            summary.fill(0);
        }
        self.blocks = blocks;
    }

    /// XORs `bits` into block `b`'s word of every row of `column`.
    #[inline]
    fn xor(&mut self, column: &Column, b: usize, bits: u64) {
        for &row in column {
            let row = row as usize;
            self.words[row * self.blocks + b] ^= bits;
            self.touched[b * self.span + row / 64] |= 1 << (row % 64);
        }
    }

    /// Block `b`'s touched event rows (all but the sink and the logical
    /// row), ascending and each once, with their words (a word may be
    /// zero: its faults cancelled).
    fn touched_events(&self, b: usize) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let nodes = self.rows - 2;
        set_bits(&self.touched[b * self.span..][..self.span])
            .take_while(move |&row| row < nodes)
            .map(move |row| (row, self.words[row * self.blocks + b]))
    }

    /// The current chunk's rows, whole.
    fn words(&self) -> &[u64] {
        &self.words[..self.rows * self.blocks]
    }
}

/// Scatters a sparse chunk's events into per-shot sets for
/// [`Decoder::decode_many`], for the shots with at least one event only.
#[derive(Debug, Default)]
struct HitScatter {
    /// One set per hit shot, in shot order (nodes ascending); sets past
    /// the current chunk's hits are stale and kept for their memory.
    sets: Vec<Vec<NodeId>>,
}

impl HitScatter {
    /// The event sets of the shots set in `hit` (one word per 64-shot
    /// block), from the touched event rows of `rows`.
    fn sets(&mut self, rows: &ChunkRows, hit: &[u64]) -> &mut [Vec<NodeId>] {
        let hits = hit.iter().map(|h| h.count_ones() as usize).sum();
        if self.sets.len() < hits {
            self.sets.resize(hits, Vec::new());
        }
        for set in &mut self.sets[..hits] {
            set.clear();
        }
        // The set index of block `b`'s first hit shot.
        let mut first = 0usize;
        for (b, &h) in hit.iter().enumerate() {
            if h != 0 {
                for (node, mut bits) in rows.touched_events(b) {
                    while bits != 0 {
                        let below = h & ((1u64 << bits.trailing_zeros()) - 1);
                        self.sets[first + below.count_ones() as usize].push(node);
                        bits &= bits - 1;
                    }
                }
            }
            first += h.count_ones() as usize;
        }
        &mut self.sets[..hits]
    }
}

/// [`HitAnswers::slots`] entry of a set no decode has answered yet.
const EMPTY: u32 = u32::MAX;
/// [`HitAnswers::slots`] entry of a set sent to the current chunk's
/// decode.
const PENDING: u32 = u32::MAX - 1;

/// The sparse path's state for one run: the hit shots' event sets, and
/// the run's answers to the sets a single fault makes, so that each of
/// those reaches the decoder once per run. That is exact because a
/// decode is a pure function of `(graph, events)` (see [`Decoder`]) and
/// tallies are sums over shots.
#[derive(Debug, Default)]
struct HitAnswers {
    scatter: HitScatter,
    /// Per slot (see [`slot_of`]), [`EMPTY`], [`PENDING`] or a decode's
    /// answer (`FrameSampler::answer`); allocated by the first sparse
    /// chunk.
    slots: Vec<u32>,
    /// The current chunk's sets sent to the decoder: the shot, and the
    /// slot its answer fills.
    misses: Vec<(usize, Option<usize>)>,
    /// The current chunk's shots whose slot is [`PENDING`].
    waiting: Vec<(usize, usize)>,
}

impl HitAnswers {
    /// Adds to `outcome` the correction weights and failures of a sparse
    /// chunk's hit shots (`hit`, one word per 64-shot block, over the
    /// event rows of `rows`; `logical` their uncorrected flips). A
    /// shot whose set has an answer is tallied from it; one whose slot
    /// is empty sends its set to the chunk's one `decode_many` (moved to
    /// the front of the sets, in shot order), and later shots with the
    /// same set wait for that answer; a set without a slot is decoded
    /// every time.
    fn tally<D: Decoder>(
        &mut self,
        sampler: &FrameSampler,
        decoder: &D,
        rows: &ChunkRows,
        hit: &[u64],
        logical: &[u64],
        outcome: &mut BatchOutcome,
    ) {
        let graph = &sampler.graph;
        if self.slots.is_empty() {
            self.slots = vec![EMPTY; graph.boundary() + graph.edges().len()];
        }
        let mut tally = |shot: usize, answer: u32| {
            outcome.correction_weight += (answer >> 1) as usize;
            let fail = (logical[shot / 64] >> (shot % 64) ^ u64::from(answer)) & 1;
            outcome.failures += fail as usize;
        };
        let sets = self.scatter.sets(rows, hit);
        self.misses.clear();
        self.waiting.clear();
        for (i, shot) in set_bits(hit).enumerate() {
            let slot = slot_of(graph, &sets[i]);
            match slot {
                Some(s) if self.slots[s] == PENDING => self.waiting.push((shot, s)),
                Some(s) if self.slots[s] != EMPTY => tally(shot, self.slots[s]),
                _ => {
                    if let Some(s) = slot {
                        self.slots[s] = PENDING;
                    }
                    sets.swap(self.misses.len(), i);
                    self.misses.push((shot, slot));
                }
            }
        }
        let sets = &sets[..self.misses.len()];
        if !sets.is_empty() {
            let corrections = decoder.decode_many(graph, sets);
            assert_eq!(corrections.len(), sets.len(), "one correction per set");
            for (&(shot, slot), correction) in self.misses.iter().zip(&corrections) {
                let answer = sampler.answer(correction);
                if let Some(s) = slot {
                    self.slots[s] = answer;
                }
                tally(shot, answer);
            }
        }
        for &(shot, s) in &self.waiting {
            tally(shot, self.slots[s]);
        }
    }
}

/// The answer slot of an event set, if it is one a single fault makes:
/// `a` for one node `[a]`, and `boundary() + e` for two nodes `[a, b]`
/// joined by edge `e` (the first in `a`'s incidence list).
fn slot_of(graph: &DecodingGraph, set: &[NodeId]) -> Option<usize> {
    match *set {
        [a] => Some(a),
        [a, b] => graph
            .incident(a)
            .iter()
            .find(|&&e| graph.ends()[e].contains(&(b as u32)))
            .map(|&e| graph.boundary() + e),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UnionFindDecoder;

    #[test]
    fn noiseless_batch_never_fails() {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new(3, 3, basis);
            let out = FrameSampler::new(&exp).run_batch(
                &MemoryNoise::noiseless(),
                &UnionFindDecoder::new(),
                200,
                1,
            );
            assert_eq!(out.shots, 200);
            assert_eq!(out.failures, 0, "{basis:?}");
            assert_eq!(out.detection_events, 0);
            assert_eq!(out.correction_weight, 0);
        }
    }

    #[test]
    fn batch_rate_tracks_legacy_rate() {
        use quest_stabilizer::{SeedableRng, StdRng};
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let noise = MemoryNoise::phenomenological(0.02);
        let uf = UnionFindDecoder::new();
        let batch = FrameSampler::new(&exp)
            .run_batch(&noise, &uf, 4000, 11)
            .logical_error_rate();
        let mut rng = StdRng::seed_from_u64(11);
        let legacy = exp.logical_error_rate(&noise, &uf, 1000, &mut rng);
        // Same distribution, independent sampling: compare loosely.
        assert!(
            (batch - legacy).abs() < 0.03,
            "batch {batch} vs legacy {legacy}"
        );
    }

    #[test]
    fn non_word_aligned_shot_counts_are_exact() {
        // 100 shots = 1 block + 36 live bits of a second block; dead lanes
        // must not contribute failures or events.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
        let noise = MemoryNoise::code_capacity(0.05);
        let uf = UnionFindDecoder::new();
        let sampler = FrameSampler::new(&exp);
        let out = sampler.run_batch(&noise, &uf, 100, 5);
        assert_eq!(out.shots, 100);
        assert!(out.failures <= 100);
        // The same seed with a word-aligned count shares its first 64
        // lanes; rates must be in the same ballpark, not wildly off from
        // lane pollution.
        let aligned = sampler.run_batch(&noise, &uf, 128, 5);
        assert!(aligned.detection_events > 0);
    }

    #[test]
    fn all_lane_widths_agree_exactly() {
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let noise = MemoryNoise::phenomenological(0.02);
        let uf = UnionFindDecoder::new();
        let outs: Vec<BatchOutcome> = LaneWidth::ALL
            .iter()
            .map(|&width| {
                let cfg = SamplerConfig {
                    width,
                    ..SamplerConfig::default()
                };
                sampler.run_batch_configured(&noise, &uf, 1000, 21, &cfg)
            })
            .collect();
        assert_eq!(outs[0], outs[1]);
        assert!(outs[0].detection_events > 0);
    }

    #[test]
    fn early_exit_stops_at_a_milestone_with_identical_prefix() {
        // Above threshold, target_failures is reached quickly; the early
        // run must report a 512-aligned shot count and exactly the
        // full run's tallies restricted to that prefix.
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let noise = MemoryNoise::code_capacity(0.08);
        let uf = UnionFindDecoder::new();
        let cfg = SamplerConfig {
            early_exit: Some(EarlyExit::default()),
            ..SamplerConfig::default()
        };
        let early = sampler.run_batch_configured(&noise, &uf, 8192, 3, &cfg);
        assert!(early.shots < 8192, "must exit early above threshold");
        assert_eq!(early.shots % EARLY_EXIT_ALIGN, 0);
        assert!(early.failures >= 100);
        // Re-running with exactly that many shots (no early exit) must
        // reproduce the tallies bit-for-bit: determinism of the prefix.
        let prefix = sampler.run_batch(&noise, &uf, early.shots, 3);
        assert_eq!(early, prefix);
    }

    #[test]
    fn early_exit_rate_rule_fires_below_bound() {
        // A noiseless run never fails, so the Hoeffding upper bound drops
        // below a loose decide_below once enough shots accumulate.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::Z);
        let sampler = FrameSampler::new(&exp);
        let uf = UnionFindDecoder::new();
        let cfg = SamplerConfig {
            early_exit: Some(EarlyExit::decide_below(0.05)),
            ..SamplerConfig::default()
        };
        let out = sampler.run_batch_configured(&MemoryNoise::noiseless(), &uf, 1 << 14, 9, &cfg);
        // sqrt(ln(1e9) / (2 s)) < 0.05 needs s >= 4145 -> stop at 4608.
        assert!(out.shots < 1 << 14, "rate rule must fire");
        assert_eq!(out.failures, 0);
        assert_eq!(out.shots % EARLY_EXIT_ALIGN, 0);
    }

    #[test]
    fn x_basis_batch_detects_z_noise() {
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::X);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::phase_flip(0.05),
            measurement_flip: 0.0,
        };
        let out = FrameSampler::new(&exp).run_batch(&noise, &UnionFindDecoder::new(), 640, 9);
        assert!(out.detection_events > 0, "Z errors must trigger X checks");
    }

    #[test]
    fn wilson_interval_matches_hand_computed_values() {
        let close = |got: f64, want: f64| (got - want).abs() < 1e-6 * want;
        // 0 of n: lo = 0, hi = z² / (n + z²).
        let (lo, hi) = wilson_interval(0, 5000);
        assert_eq!(lo, 0.0);
        assert!(close(hi, 3.8416 / 5003.8416), "{hi}");
        assert!((hi - 7.68e-4).abs() < 1e-6);
        // 10 of 100: center 0.1147979, half-width 0.0595694.
        let (lo, hi) = wilson_interval(10, 100);
        assert!(
            close(lo, 0.055_228_5) && close(hi, 0.174_367_3),
            "({lo}, {hi})"
        );
        // n of n mirrors 0 of n.
        let (lo, hi) = wilson_interval(5000, 5000);
        assert!(close(lo, 5000.0 / 5003.8416) && hi == 1.0, "({lo}, {hi})");
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let out = BatchOutcome {
            shots: 100,
            failures: 10,
            detection_events: 0,
            correction_weight: 0,
        };
        assert_eq!(out.rate_interval(), wilson_interval(10, 100));
    }

    #[test]
    fn x_basis_batch_ignores_x_noise() {
        // X errors act trivially on |+…+⟩ memory: no X-check events, no
        // logical-X flips.
        let exp = MemoryExperiment::new(3, 2, MemoryBasis::X);
        let noise = MemoryNoise {
            data: quest_stabilizer::PauliChannel::bit_flip(0.2),
            measurement_flip: 0.0,
        };
        let out = FrameSampler::new(&exp).run_batch(&noise, &UnionFindDecoder::new(), 640, 9);
        assert_eq!(out.detection_events, 0);
        assert_eq!(out.failures, 0);
    }
}
