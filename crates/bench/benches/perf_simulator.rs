//! Criterion micro-benchmarks of the substrate itself: stabilizer
//! simulation throughput, decoder latency, and the MCE replay loop.
//!
//! These are genuine performance benchmarks (the figure benches above are
//! reproduction harnesses); they track the cost of the building blocks a
//! downstream user would scale up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quest_core::Mce;
use quest_runtime::{Runtime, WorkloadSpec};
use quest_stabilizer::{FrameBlock, SeedableRng, StabilizerSim, StdRng, Tableau};
use quest_surface::decoder::{Correction, Decoder};
use quest_surface::{
    DecodingGraph, FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId,
    RotatedLattice, StabKind, SyndromeCircuit, UnionFindDecoder,
};

fn bench_tableau(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau");
    for n in [25usize, 100, 400] {
        group.bench_with_input(BenchmarkId::new("cnot_layer", n), &n, |b, &n| {
            let mut t = Tableau::new(n);
            b.iter(|| {
                for q in 0..n / 2 {
                    t.cnot(q, n / 2 + q);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("measure_all", n), &n, |b, &n| {
            let mut t = Tableau::new(n);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                for q in 0..n {
                    t.h(q);
                    t.measure(q, &mut rng);
                }
            });
        });
    }
    group.finish();
}

fn bench_syndrome_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("syndrome_round");
    for d in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let lat = RotatedLattice::new(d);
            let sc = SyndromeCircuit::new(&lat);
            let mut t = Tableau::new(lat.num_qubits());
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| sc.run_round(&mut t, &mut rng));
        });
    }
    group.finish();
}

fn bench_union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find_decode");
    for d in [5usize, 7, 9] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let lat = RotatedLattice::new(d);
            let g = DecodingGraph::new(&lat, StabKind::Z, d);
            // A fixed random-ish event set.
            let events: Vec<usize> = (0..g.boundary()).step_by(7).take(8).collect();
            let dec = UnionFindDecoder::new();
            b.iter(|| dec.decode(&g, &events));
        });
    }
    group.finish();
}

fn bench_mce_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("mce_qecc_cycle");
    for d in [3usize, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let lat = RotatedLattice::new(d);
            let mut mce = Mce::new(&lat, 4096);
            let mut t = Tableau::new(lat.num_qubits());
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| mce.run_qecc_cycle(&mut t, &mut rng));
        });
    }
    group.finish();
}

fn bench_memory_shot(c: &mut Criterion) {
    c.bench_function("memory_experiment_d3_shot", |b| {
        let exp = MemoryExperiment::new(3, 3, MemoryBasis::Z);
        let noise = MemoryNoise::phenomenological(1e-3);
        let dec = UnionFindDecoder::new();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| exp.run(&noise, &dec, &mut rng));
    });
}

fn bench_frame_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_batch_1k_shots");
    for d in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let sampler = FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z));
            let noise = MemoryNoise::code_capacity(1e-2);
            let dec = UnionFindDecoder::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                sampler.run_batch(&noise, &dec, 1024, seed)
            });
        });
    }
    group.finish();
}

/// Head-to-head throughput: d=7 code-capacity memory, per-shot tableau
/// loop vs. the bit-parallel frame batch. The tableau is the
/// denominator: with the row-major tableau the wide-word engine measured
/// ~800x and the floor was 200x; the qubit-major tableau runs the
/// per-shot loop about six times faster, so the same frame engine now
/// reads 105-175x on the reference container. The floor keeps its
/// distance from the reading (a third to a quarter of it) so CI noise
/// never trips it while any real fast-path regression still does.
fn frame_throughput_comparison(_c: &mut Criterion) {
    use std::time::Instant;
    let exp = MemoryExperiment::new(7, 7, MemoryBasis::Z);
    let noise = MemoryNoise::code_capacity(1e-2);
    let dec = UnionFindDecoder::new();

    let legacy_shots = 200usize;
    let mut rng = StdRng::seed_from_u64(5);
    let t0 = Instant::now();
    let legacy_rate = exp.logical_error_rate(&noise, &dec, legacy_shots, &mut rng);
    let legacy_elapsed = t0.elapsed().as_secs_f64();
    let legacy_per_sec = legacy_shots as f64 / legacy_elapsed;

    let batch_shots = 20_000usize;
    let t1 = Instant::now();
    let batch = FrameSampler::new(&exp).run_batch(&noise, &dec, batch_shots, 5);
    let batch_elapsed = t1.elapsed().as_secs_f64();
    let batch_per_sec = batch_shots as f64 / batch_elapsed;

    let speedup = batch_per_sec / legacy_per_sec;
    println!(
        "frame_vs_tableau_throughput_d7: tableau {legacy_per_sec:.0} shots/s \
         ({legacy_shots} shots, p_L={legacy_rate:.4}), frame {batch_per_sec:.0} shots/s \
         ({batch_shots} shots, p_L={:.4}), speedup {speedup:.1}x",
        batch.logical_error_rate()
    );
    assert!(
        speedup >= 40.0,
        "frame fast path must be at least 40x the per-shot tableau loop at d=7, got {speedup:.1}x"
    );
}

/// What a batch at the paper's operating rates costs over the random
/// numbers it must draw, in one process so that sandbox drift cancels: a
/// d=7 batch at `code_capacity(1e-4)` under a decoder that corrects
/// nothing, over the same blocks' bare draws — one `StdRng` per 64-shot
/// block, seeded as the sampler seeds it, drawing `rounds × num_data`
/// uniforms, the count the batch's first draws make. A block's first draw
/// almost always says "no error here", and the sampler answers that by
/// one integer comparison; the rows its few faults wrote are all it
/// reads and clears afterwards. The ratio reads 1.46-1.66 on the
/// reference container, 2.08-2.35 with dense per-chunk scans of every
/// event row put back and 13.3 with a logarithm per (qubit, round,
/// block); the ceiling is 1.3x the middle of the first, so that either
/// creeping back trips it and no wall-clock threshold is involved.
fn noise_sampling_cost_ratio(_c: &mut Criterion) {
    use quest_stabilizer::frame::block_seed;
    use quest_stabilizer::Rng;
    use std::time::Instant;
    struct CorrectNothing;
    impl Decoder for CorrectNothing {
        fn decode(&self, _: &DecodingGraph, _: &[NodeId]) -> Correction {
            Correction::default()
        }
    }
    const SHOTS: usize = 400_000;
    const CEILING: f64 = 1.3 * 1.55;
    let exp = MemoryExperiment::new(7, 7, MemoryBasis::Z);
    let sampler = FrameSampler::new(&exp);
    let draws = exp.rounds() * exp.lattice().num_data();
    let timed = |run: &dyn Fn()| {
        let start = Instant::now();
        run();
        start.elapsed().as_secs_f64()
    };
    let bare_draws = || {
        for block in 0..SHOTS.div_ceil(64) {
            let mut rng = StdRng::seed_from_u64(block_seed(7, block as u64));
            for _ in 0..draws {
                std::hint::black_box(rng.gen::<f64>());
            }
        }
    };
    let batch = || {
        std::hint::black_box(sampler.run_batch(
            &MemoryNoise::code_capacity(1e-4),
            &CorrectNothing,
            SHOTS,
            7,
        ));
    };
    // Best of five each, the two sides taking turns.
    let (mut bare, mut noisy) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        bare = bare.min(timed(&bare_draws));
        noisy = noisy.min(timed(&batch));
    }
    let ratio = noisy / bare;
    println!(
        "noise_sampling_cost_ratio_d7: {draws} bare draws per block {:.1} ns/shot, p=1e-4 batch {:.1} ns/shot, ratio {ratio:.2}",
        bare * 1e9 / SHOTS as f64,
        noisy * 1e9 / SHOTS as f64,
    );
    assert!(
        ratio <= CEILING,
        "a d=7 batch at p=1e-4 must cost at most {CEILING:.2}x its bare per-block draws, got {ratio:.2}x"
    );
}

/// Head-to-head: one d=5 MCE driving a frame block whose tape has
/// locked, against the same MCE on a bare tableau, in one process so
/// that sandbox drift cancels. The block must have replayed cycles
/// before anything is timed — a block that quietly stayed on its
/// reference would only measure the tableau twice — and must serve
/// every timed cycle from its kernel: a cycle that fell back to the
/// reference trips the exact count. The reference container read
/// 3.5-4x with the block matching each call against its tape, 24-25x
/// with the cycle served by the tape's compiled kernel a column per set
/// input, 22-35x with the kernel applied by nibble tables, and reads
/// 48-64x with the kernel's sum held in a band of registers and the
/// outcomes routed packed; the floor, 15x, is where that kernel has
/// stopped paying.
fn frame_block_cycle_comparison(_c: &mut Criterion) {
    use std::time::Instant;
    const CYCLES: u32 = 20_000;
    let lat = RotatedLattice::new(5);

    fn warmed<S: StabilizerSim>(lat: &RotatedLattice, mut substrate: S) -> (Mce, S, StdRng) {
        let mut mce = Mce::new(lat, 4096);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..8 {
            mce.run_qecc_cycle(&mut substrate, &mut rng);
        }
        (mce, substrate, rng)
    }
    /// One timing, in seconds per cycle.
    fn per_cycle<S: StabilizerSim>((mce, substrate, rng): &mut (Mce, S, StdRng)) -> f64 {
        let start = Instant::now();
        for _ in 0..CYCLES {
            mce.run_qecc_cycle(substrate, rng);
        }
        start.elapsed().as_secs_f64() / f64::from(CYCLES)
    }

    let mut block = warmed(&lat, FrameBlock::new(lat.num_qubits()));
    let replayed = block.1.replayed_cycles(0);
    assert!(
        replayed > 0,
        "the block never locked onto its tape: nothing to compare"
    );
    let mut bare = warmed(&lat, Tableau::new(lat.num_qubits()));
    // Best of seven each, the two sides taking turns, so that a burst of
    // noise from a neighbouring container cannot land on one side only.
    let (mut on_tableau, mut on_block) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        on_tableau = on_tableau.min(per_cycle(&mut bare));
        on_block = on_block.min(per_cycle(&mut block));
    }
    let speedup = on_tableau / on_block;
    println!(
        "frame_block_vs_tableau_mce_cycle_d5: tableau {:.2} us, block {:.2} us ({} cycles replayed), speedup {speedup:.1}x",
        on_tableau * 1e6,
        on_block * 1e6,
        block.1.replayed_cycles(0),
    );
    assert_eq!(
        block.1.replayed_cycles(0),
        replayed + 7 * u64::from(CYCLES),
        "a timed cycle missed the kernel"
    );
    assert!(
        speedup >= 15.0,
        "an MCE cycle on a locked frame block must be at least 15x one on a bare tableau at d=5, got {speedup:.1}x"
    );
}

/// What decoding costs a locked tile-cycle, in one process so that
/// sandbox drift cancels: a d = 5 tile-cycle (the noise layer, then
/// `run_qecc_cycle` on a frame block whose tape has locked) at
/// p = 2e-2, over the same at p = 0. Both sides sample the noise layer
/// and are served by the kernel; only the noisy side has syndromes to
/// decode — about one local decode per two tile-cycles, on the lookup
/// table, into the bit frame. The ratio read 1.36-1.50 on the
/// reference container, and 1.97 with the decode walking a `BTreeMap`
/// table into a `BTreeSet` frame; the ceiling is 1.3x the former, so
/// that decode coming back trips it and no wall-clock threshold is
/// involved. With the kernel and the noise layer on words it reads
/// 1.25-1.67: both sides got cheaper, the quiet one, which draws no
/// noise, by the kernel alone.
fn noisy_cycle_cost_ratio(_c: &mut Criterion) {
    use quest_core::tile;
    use quest_stabilizer::PauliChannel;
    use std::time::Instant;
    const CYCLES: u32 = 20_000;
    const CEILING: f64 = 1.3 * 1.5;
    let lat = RotatedLattice::new(5);
    let warmed = |p: f64| {
        let mut mce = Mce::new(&lat, 4096);
        let mut block = FrameBlock::new(lat.num_qubits());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            mce.run_qecc_cycle(&mut block, &mut rng);
        }
        (mce, block, rng, PauliChannel::depolarizing(p))
    };
    /// One timing, in seconds per tile-cycle.
    fn per_cycle((mce, block, rng, noise): &mut (Mce, FrameBlock, StdRng, PauliChannel)) -> f64 {
        let start = Instant::now();
        for _ in 0..CYCLES {
            tile::noise_layer(mce, noise, block, rng);
            mce.run_qecc_cycle(block, rng);
            std::hint::black_box(mce.take_escalations());
        }
        start.elapsed().as_secs_f64() / f64::from(CYCLES)
    }
    let (mut noisy, mut quiet) = (warmed(2e-2), warmed(0.0));
    let kernel_before = [&noisy, &quiet].map(|side| side.1.replayed_cycles(0));
    let hits_before = noisy.0.decode_stats(StabKind::Z).local_hits;
    // Best of seven each, the two sides taking turns.
    let (mut on_noisy, mut on_quiet) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        on_quiet = on_quiet.min(per_cycle(&mut quiet));
        on_noisy = on_noisy.min(per_cycle(&mut noisy));
    }
    for (side, before) in [&noisy, &quiet].into_iter().zip(kernel_before) {
        assert_eq!(
            side.1.replayed_cycles(0),
            before + 7 * u64::from(CYCLES),
            "a timed tile-cycle missed the kernel"
        );
    }
    let hits = noisy.0.decode_stats(StabKind::Z).local_hits - hits_before;
    assert!(
        hits > u64::from(CYCLES),
        "the noisy side made {hits} local decodes: nothing to compare"
    );
    let ratio = on_noisy / on_quiet;
    println!(
        "noisy_cycle_cost_ratio_d5: p=0 {:.3} us, p=2e-2 {:.3} us ({:.2} local decodes per tile-cycle), ratio {ratio:.2}",
        on_quiet * 1e6,
        on_noisy * 1e6,
        hits as f64 / f64::from(7 * CYCLES),
    );
    assert!(
        ratio <= CEILING,
        "a d=5 tile-cycle at p=2e-2 must cost at most {CEILING:.2}x one at p=0, got {ratio:.2}x"
    );
}

/// What the noise layer costs a tile-cycle, in one process so that
/// host drift cancels: the d = 5 layer at p = 2e-2 (25 samples of a
/// depolarizing channel, each error put on a frame block) over the 25
/// bare `next_u64` draws it makes. A sample is one draw and, in the
/// common case, one integer comparison, and only an error reaches the
/// block. The ratio reads 1.25-1.53 on the reference container, 2.4
/// with each sample comparing the draw as an `f64` chain, and 4.2 with
/// that chain and every `I` a call on the block; the ceiling is 1.3x the
/// reading, so that float chain coming back trips it and no wall-clock
/// threshold is involved.
fn noise_layer_cost_ratio(_c: &mut Criterion) {
    use quest_core::tile;
    use quest_stabilizer::PauliChannel;
    use rand::RngCore;
    use std::time::Instant;
    const LAYERS: u32 = 200_000;
    const CEILING: f64 = 1.3 * 1.55;
    /// One timing, in seconds per layer.
    fn per_layer(rng: &mut StdRng, mut layer: impl FnMut(&mut StdRng)) -> f64 {
        let start = Instant::now();
        for _ in 0..LAYERS {
            layer(rng);
        }
        start.elapsed().as_secs_f64() / f64::from(LAYERS)
    }
    let lat = RotatedLattice::new(5);
    let mce = Mce::new(&lat, 4096);
    let mut block = FrameBlock::new(lat.num_qubits());
    let noise = PauliChannel::depolarizing(2e-2);
    let mut rng = StdRng::seed_from_u64(10);
    let draws = lat.num_data();
    // Best of seven each, the two sides taking turns.
    let (mut on_draws, mut on_layer) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        on_draws = on_draws.min(per_layer(&mut rng, |rng| {
            for _ in 0..draws {
                std::hint::black_box(rng.next_u64());
            }
        }));
        on_layer = on_layer.min(per_layer(&mut rng, |rng| {
            tile::noise_layer(&mce, &noise, &mut block, rng);
        }));
    }
    let ratio = on_layer / on_draws;
    println!(
        "noise_layer_cost_ratio_d5: {draws} draws {:.1} ns, layer at p=2e-2 {:.1} ns, ratio {ratio:.2}",
        on_draws * 1e9,
        on_layer * 1e9,
    );
    assert!(
        ratio <= CEILING,
        "a d=5 noise layer at p=2e-2 must cost at most {CEILING:.2}x its {draws} bare draws, got {ratio:.2}x"
    );
}

/// What a served job costs on a `Runtime` that has run its distance
/// before, over the same job on a new one, in one process so that
/// sandbox drift cancels: the `serve_mix` job shape (d = 3, 4 tiles, 30
/// cycles, p = 5e-3), run back to back. A reused runtime clones its
/// template MCE instead of building one, and its fresh tiles follow the
/// warm-up trail the first job laid instead of running their first
/// cycles on the tableau; the warm job must show it by replaying every
/// tile-cycle. The ratio read 0.58-0.59 on the reference container (1.0
/// before a `Runtime` kept anything); the ceiling is 1.2x the reading,
/// so a per-job rebuild creeping back trips it and no wall-clock
/// threshold is involved.
fn warm_job_cost_ratio(_c: &mut Criterion) {
    use std::time::Instant;
    const JOBS: u64 = 300;
    const CEILING: f64 = 1.2 * 0.59;
    let job = |seed: u64| WorkloadSpec::memory(3, 4, 1, 5e-3, seed, 30);
    let fresh = || Runtime::new();
    let reused = fresh();
    reused.run(&job(0)).expect("a valid job");
    let warm = reused.run(&job(1)).expect("a valid job");
    let replayed: u64 = warm
        .stats
        .shards
        .iter()
        .map(|s| s.replayed_tile_cycles)
        .sum();
    assert_eq!(
        replayed,
        4 * 30,
        "a warm job's tiles must replay every cycle"
    );
    let per_job = |runtime: &dyn Fn() -> Runtime| {
        let start = Instant::now();
        for seed in 0..JOBS {
            std::hint::black_box(runtime().run(&job(seed)).expect("a valid job"));
        }
        start.elapsed().as_secs_f64() / JOBS as f64
    };
    // Best of seven each, the two sides taking turns.
    let (mut on_fresh, mut on_reused) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        on_fresh = on_fresh.min(per_job(&fresh));
        on_reused = on_reused.min(per_job(&|| reused.clone()));
    }
    let ratio = on_reused / on_fresh;
    println!(
        "warm_job_cost_ratio_d3: fresh runtime {:.1} us/job, reused {:.1} us/job, ratio {ratio:.2}",
        on_fresh * 1e6,
        on_reused * 1e6,
    );
    assert!(
        ratio <= CEILING,
        "a job on a reused runtime must cost at most {CEILING:.2}x one on a new runtime, got {ratio:.2}x"
    );
}

criterion_group!(
    benches,
    bench_tableau,
    bench_syndrome_round,
    bench_union_find,
    bench_mce_cycle,
    bench_memory_shot,
    bench_frame_batch,
    frame_throughput_comparison,
    noise_sampling_cost_ratio,
    frame_block_cycle_comparison,
    noisy_cycle_cost_ratio,
    noise_layer_cost_ratio,
    warm_job_cost_ratio
);
criterion_main!(benches);
