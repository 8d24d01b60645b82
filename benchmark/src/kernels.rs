//! Layer kernels: one isolated, fixed-size measurement per layer, run by
//! every traced run whatever its workload, so every traced run can print
//! every per-layer metric. Inputs derive from the seed. Together they
//! take under five seconds at full size.
//!
//! Each kernel names, in `README.md`, the end-to-end metric and workload
//! it is expected to move.

use crate::decoders::{CaptureDecoder, NullDecoder};
use crate::stats::{median, percentile};
use crate::workload::{Ops, Scale};
use quest_core::{DeliveryEngine, MasterController, Mce, MCE_IBUF_BYTES};
use quest_isa::{InstrClass, LogicalInstr, LogicalQubit};
use quest_runtime::{
    run_reference, DecoderChoice, DeliveryMode, RunControl, RunProgress, Runtime, WorkloadSpec,
};
use quest_serve::{JobOutcome, Server, ServerConfig, TenantId};
use quest_stabilizer::{
    BlockRngs, FrameSimulator, FrameWord, Gate, Rng, SeedableRng, StdRng, Tableau, W512,
};
use quest_surface::decoder::batch::BatchGraphs;
use quest_surface::{
    CorrectionBatch, Decoder, EventPlanes, FrameSampler, MemoryBasis, MemoryExperiment,
    MemoryNoise, NodeId, RotatedLattice, StabKind, SyndromeCircuit, UnionFindDecoder,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Metrics = Vec<(String, f64)>;

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Runs every layer kernel. Correctness checks that belong to a kernel
/// (backend agreement, native decodes served) are counted into `ops`.
pub fn run_all(seed: u64, scale: Scale, ops: &mut Ops) -> Metrics {
    let mut out = Metrics::new();
    stabilizer(seed, scale, &mut out);
    surface(seed, scale, &mut out);
    backends(seed, scale, &mut out, ops);
    core(seed, scale, &mut out);
    runtime(seed, scale, &mut out);
    serve(seed, scale, &mut out);
    out
}

/// The d = 7 syndrome round replayed on bare frame planes the way the
/// sampler drives them: channel injection, gates, measurement flips.
fn frame_round_ns<W: FrameWord>(seed: u64, chunks: u64) -> f64 {
    const SHOTS: usize = 4096;
    let exp = MemoryExperiment::new(7, 7, MemoryBasis::Z);
    let lattice = exp.lattice();
    let gates: Vec<Gate> = exp
        .syndrome_circuit()
        .round_circuit()
        .iter()
        .copied()
        .collect();
    let noise = MemoryNoise::phenomenological(1e-3);
    let mut sim: FrameSimulator<W> = FrameSimulator::new(lattice.num_qubits(), SHOTS);
    let words = sim.words();
    let mut meas: Vec<W> = Vec::new();
    let elapsed = seconds(|| {
        for chunk in 0..chunks {
            let mut rngs = BlockRngs::new(seed, chunk * (SHOTS / 64) as u64, SHOTS / 64);
            sim.clear();
            for _ in 0..exp.rounds() {
                for q in 0..lattice.num_data() {
                    sim.inject_pauli_channel(&noise.data, q, &mut rngs);
                }
                meas.clear();
                for &gate in &gates {
                    sim.apply_gate(gate, &mut meas);
                }
                for plane in meas.chunks_mut(words) {
                    FrameSimulator::xor_flip_plane(noise.measurement_flip, &mut rngs, plane);
                }
            }
            black_box(&meas);
        }
    });
    elapsed * 1e9 / (chunks * SHOTS as u64 * exp.rounds() as u64) as f64
}

fn stabilizer(seed: u64, scale: Scale, out: &mut Metrics) {
    let chunks = scale.of(60);
    out.push((
        "k.stabilizer.frame_x8_ns_per_shot_round".into(),
        frame_round_ns::<W512>(seed, chunks),
    ));
    out.push((
        "k.stabilizer.frame_x1_ns_per_shot_round".into(),
        frame_round_ns::<u64>(seed, chunks),
    ));

    let lattice = RotatedLattice::new(5);
    let circuit = SyndromeCircuit::new(&lattice);
    let mut tableau = Tableau::new(lattice.num_qubits());
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = scale.of(4000);
    let elapsed = seconds(|| {
        for _ in 0..rounds {
            black_box(circuit.run_round(&mut tableau, &mut rng));
        }
    });
    out.push((
        "k.stabilizer.tableau_round_us".into(),
        elapsed * 1e6 / rounds as f64,
    ));
}

fn surface(seed: u64, scale: Scale, out: &mut Metrics) {
    let exp = MemoryExperiment::new(7, 7, MemoryBasis::Z);
    let builds: Vec<f64> = (0..5)
        .map(|_| seconds(|| drop(black_box(FrameSampler::new(&exp)))) * 1e3)
        .collect();
    out.push(("k.surface.sampler_build_ms".into(), median(&builds)));

    let sampler = FrameSampler::new(&exp);
    let shots = scale.of(1_000_000) as usize;
    let elapsed = seconds(|| {
        black_box(sampler.run_batch(&MemoryNoise::code_capacity(2e-4), &NullDecoder, shots, seed));
    });
    out.push((
        "k.surface.null_decode_ns_per_shot".into(),
        elapsed * 1e9 / shots as f64,
    ));

    // Event corpora as the sampler hands them to the decoder, captured
    // once and replayed on the bare decoder.
    let decoder = UnionFindDecoder::new();
    let graph = sampler.graph();

    let capture = CaptureDecoder::default();
    sampler.run_batch(&MemoryNoise::code_capacity(5e-4), &capture, 65_536, seed);
    let sparse = capture
        .sparse
        .into_inner()
        .expect("capture is single-threaded");
    assert!(capture.planes.into_inner().is_ok_and(|p| p.is_empty()) && !sparse.is_empty());
    let (reps, corpus_shots) = (scale.of(40), sparse.iter().map(Vec::len).sum::<usize>());
    let elapsed = seconds(|| {
        for _ in 0..reps {
            for sets in &sparse {
                black_box(decoder.decode_many(graph, sets));
            }
        }
    });
    out.push((
        "k.surface.uf_sparse_ns_per_shot".into(),
        elapsed * 1e9 / (reps as usize * corpus_shots) as f64,
    ));

    let capture = CaptureDecoder::default();
    sampler.run_batch(&MemoryNoise::code_capacity(5e-2), &capture, 8192, seed);
    let chunks = capture
        .planes
        .into_inner()
        .expect("capture is single-threaded");
    assert!(capture.sparse.into_inner().is_ok_and(|s| s.is_empty()) && !chunks.is_empty());
    let (reps, corpus_shots) = (scale.of(5), chunks.iter().map(|c| c.shots).sum::<usize>());
    let mut batch = CorrectionBatch::new();
    let elapsed = seconds(|| {
        for _ in 0..reps {
            for chunk in &chunks {
                let planes =
                    EventPlanes::new(&chunk.planes, chunk.nodes, chunk.blocks, chunk.shots);
                decoder.decode_planes(graph, &planes, &mut batch);
                black_box(batch.total_flips());
            }
        }
    });
    out.push((
        "k.surface.uf_planes_ns_per_shot".into(),
        elapsed * 1e9 / (reps as usize * corpus_shots) as f64,
    ));
}

/// Every `DecoderChoice` backend on one d = 3 single-round corpus: the
/// graph shape the runtime's decode pool hands them, and the only one on
/// which the table backend decodes natively.
fn backends(seed: u64, scale: Scale, out: &mut Metrics, ops: &mut Ops) {
    let graphs = BatchGraphs::new(&RotatedLattice::new(3));
    let graph = graphs.graph(StabKind::Z);
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus: Vec<Vec<NodeId>> = (0..2000)
        .map(|_| {
            (0..graph.boundary())
                .filter(|_| rng.gen_bool(0.25))
                .collect()
        })
        .collect();
    let reps = scale.of(50);
    let mut corrections = BTreeMap::new();
    for choice in DecoderChoice::ALL {
        let mut backend = choice.backend();
        // Untimed first sweep: builds lazy tables and sizes scratch, and
        // yields the corrections compared across backends below.
        let first_sweep: Vec<_> = corpus
            .iter()
            .map(|events| backend.decode(graph, events))
            .collect();
        corrections.insert(choice, first_sweep);
        backend.reset_cost();
        let elapsed = seconds(|| {
            for _ in 0..reps {
                for events in &corpus {
                    black_box(backend.decode(graph, events));
                }
            }
        });
        let cost = backend.cost();
        let total = (cost.decodes + cost.fallback_decodes) as f64;
        let name = choice.name();
        out.push((
            format!("k.surface.backend.{name}.ns_per_decode"),
            elapsed * 1e9 / total,
        ));
        out.push((
            format!("k.surface.backend.{name}.cycles_per_decode"),
            cost.cycles as f64 / total,
        ));
        out.push((
            format!("k.surface.backend.{name}.native_share"),
            cost.decodes as f64 / total,
        ));
        // A backend that only ever falls back measures union-find.
        ops.check(cost.decodes > 0);
    }
    // The pipelined hardware model must correct exactly as union-find.
    ops.check(
        corrections.get(&DecoderChoice::UnionFind) == corrections.get(&DecoderChoice::PipelinedUf),
    );
}

fn core(seed: u64, scale: Scale, out: &mut Metrics) {
    let lattice = RotatedLattice::new(5);
    let mut mce = Mce::new(&lattice, MCE_IBUF_BYTES);
    let mut tableau = Tableau::new(lattice.num_qubits());
    let mut rng = StdRng::seed_from_u64(seed);
    let cycles = scale.of(2000);
    let elapsed = seconds(|| {
        for _ in 0..cycles {
            mce.run_qecc_cycle(&mut tableau, &mut rng);
            black_box(mce.take_escalations());
        }
    });
    out.push(("k.core.mce_cycle_us".into(), elapsed * 1e6 / cycles as f64));

    let spec = WorkloadSpec::memory(5, 2, 1, 2e-2, seed, scale.of(400));
    let tile_cycles = (spec.tiles as u64 * spec.total_cycles()) as f64;
    let mut bus_bytes = 0;
    let elapsed = seconds(|| {
        let report = run_reference(&spec).expect("the kernel's reference spec is valid");
        bus_bytes = report.bus_bytes();
    });
    out.push((
        "k.core.reference_tile_cycle_us".into(),
        elapsed * 1e6 / tile_cycles,
    ));
    out.push((
        "k.core.bus_bytes_per_tile_cycle".into(),
        bus_bytes as f64 / tile_cycles,
    ));

    // Single dispatches plus a ten-instruction kernel replayed, under
    // each delivery mode; the cache mode turns replays into commands.
    let lattice = RotatedLattice::new(3);
    let instr = LogicalInstr::H(LogicalQubit(0));
    let kernel = vec![instr; 10];
    let (singles, replays) = (scale.of(100_000), scale.of(10_000));
    let mut elapsed = 0.0;
    for mode in DeliveryMode::ALL {
        let engine = DeliveryEngine::new(mode);
        let mut master = MasterController::new();
        let mut mce = Mce::new(&lattice, MCE_IBUF_BYTES);
        elapsed += seconds(|| {
            for _ in 0..singles {
                engine.dispatch(&mut master, &mut mce, instr, InstrClass::Algorithmic);
            }
            engine.kernel(&mut master, &mut mce, &kernel, replays);
            black_box(master.bus().total());
        });
    }
    let instrs = DeliveryMode::ALL.len() as u64 * (singles + replays * kernel.len() as u64);
    out.push((
        "k.core.delivery_ns_per_instr".into(),
        elapsed * 1e9 / instrs as f64,
    ));
}

fn runtime(seed: u64, scale: Scale, out: &mut Metrics) {
    let engine = Runtime::new().with_decode_workers(1);
    let run = |spec: &WorkloadSpec| {
        seconds(|| {
            black_box(
                engine
                    .run(spec)
                    .expect("the kernel's runtime spec is valid"),
            );
        })
    };

    // One shard against the single-threaded reference system: what the
    // threads, channels and barrier add per cycle of a small tile.
    let spec = WorkloadSpec::memory(3, 2, 1, 1e-3, seed, scale.of(4000));
    let cycles = spec.total_cycles() as f64;
    let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let on_progress = |_: RunProgress| {
        stamps
            .lock()
            .expect("progress callback panicked")
            .push(Instant::now());
    };
    let control = RunControl::new().with_progress(&on_progress);
    let sharded = seconds(|| {
        black_box(
            engine
                .run_controlled(&spec, &control)
                .expect("the kernel's runtime spec is valid"),
        );
    });
    let reference = seconds(|| {
        drop(black_box(
            run_reference(&spec).expect("the kernel's runtime spec is valid"),
        ));
    });
    out.push((
        "k.runtime.cycle_overhead_us".into(),
        (sharded - reference) * 1e6 / cycles,
    ));
    let stamps = stamps.into_inner().expect("progress callback panicked");
    let gaps: Vec<f64> = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    out.push(("k.runtime.cycle_p50_us".into(), percentile(&gaps, 50)));
    out.push(("k.runtime.cycle_p99_us".into(), percentile(&gaps, 99)));

    let one_cycle = WorkloadSpec::memory(3, 2, 1, 1e-3, seed, 1);
    let spawns: Vec<f64> = (0..9).map(|_| run(&one_cycle) * 1e3).collect();
    out.push(("k.runtime.spawn_teardown_ms".into(), median(&spawns)));

    let shards = |n: usize| run(&WorkloadSpec::memory(5, 8, n, 2e-2, seed, scale.of(150)));
    out.push(("k.runtime.shard2_speedup".into(), shards(1) / shards(2)));
}

fn serve(seed: u64, scale: Scale, out: &mut Metrics) {
    // Fewer jobs than the queue is deep, so no submit waits for a slot.
    let jobs = scale.of(48).max(8);
    let spec = |i: u64| WorkloadSpec::memory(3, 2, 1, 1e-3, seed.wrapping_add(i), 20);
    let engine = Runtime::new().with_decode_workers(1);
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_runtime(engine.clone()),
    );
    let mut submits = Vec::new();
    let started = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let job = spec(i);
            let submitted = Instant::now();
            let handle = server.submit(TenantId(0), job);
            submits.push(submitted.elapsed().as_secs_f64() * 1e6);
            handle
        })
        .collect();
    for handle in handles {
        let done = handle.is_ok_and(|h| matches!(h.wait(), JobOutcome::Done(_)));
        assert!(done, "a serve-kernel job did not finish");
    }
    let burst = started.elapsed().as_secs_f64();
    let ledger = server.shutdown();
    let solo: Vec<f64> = (0..jobs)
        .map(|i| seconds(|| drop(black_box(engine.run(&spec(i))))))
        .collect();
    out.push(("k.serve.submit_us".into(), median(&submits)));
    out.push((
        "k.serve.job_overhead_ms".into(),
        (burst / jobs as f64 - median(&solo)) * 1e3,
    ));
    let tenant = ledger
        .tenant(TenantId(0))
        .expect("tenant 0 submitted every job");
    out.push((
        "k.serve.queue_p50_ms".into(),
        tenant.queue_latency.p50.as_secs_f64() * 1e3,
    ));
    out.push((
        "k.serve.run_p50_ms".into(),
        tenant.run_latency.p50.as_secs_f64() * 1e3,
    ));
}
