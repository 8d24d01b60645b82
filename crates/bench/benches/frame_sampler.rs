//! Perf-smoke for the wide-word frame sampler: a small code-capacity
//! threshold sweep that must finish fast and reproduce the physics.
//!
//! Run by the CI `perf-smoke` job on every push. Three passes:
//!
//! 1. **Production sweep** at the default 512-bit lane width with the
//!    default deterministic early exit: d ∈ {3, 5} at 5000 shots/point,
//!    d = 7 at 2000 (its lattice is ~5× the work per shot), over a rate
//!    grid bracketing the code-capacity threshold. Asserts the d3/d5
//!    and d5/d7 crossings land inside the bracket and records elapsed
//!    time against the committed pre-wide-word baseline.
//! 2. **64-bit lane re-run** of the same sweep, asserted bit-identical
//!    point by point — lane width must never change a result.
//! 3. **Early-exit verdict guard** at one pinned d5/d7 point pair: the
//!    full-shot sweep and the early-exited sweep must report the same
//!    crossing verdict, and the early run must actually stop short
//!    (otherwise the guard is vacuous).
//!
//! The whole bench must finish in under 60 seconds; measurements are
//! emitted as `BENCH_frame_sampler.json` at the repo root.

use quest_bench::{header, row};
use quest_surface::{EarlyExit, LaneWidth, SweepConfig, ThresholdSweep, UnionFindDecoder};
use std::io::Write as _;
use std::time::Instant;

const SHOTS: usize = 5000;
const SHOTS_D7: usize = 2000;
const SEED: u64 = 0xF7A3;
const WORKERS: usize = 4;
const TIME_BUDGET_SECS: f64 = 60.0;

/// `elapsed_secs` of the committed PR-7 snapshot: the same grids, shot
/// counts, seed and decoder on the single-lane engine, before the
/// wide-word rewrite. Denominator of the recorded total speedup.
const BASELINE_TOTAL_SECS: f64 = 0.150;
/// The d = 7 sweep alone on the PR-7 engine, measured at the same
/// grid/shots/seed immediately before the rewrite (the committed
/// snapshot only recorded the total). Denominator of the d7 speedup.
const BASELINE_D7_SECS: f64 = 0.067;

/// Committed snapshot lives at the repo root (two levels above this
/// package), so the path is the same wherever cargo sets the CWD.
const REPORT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_frame_sampler.json"
);

fn sweep_cfg(width: LaneWidth, early_exit: Option<EarlyExit>) -> SweepConfig {
    SweepConfig {
        width,
        early_exit,
        workers: WORKERS,
    }
}

fn main() {
    header(
        "Perf-smoke: frame-sampled threshold sweep (d in {3,5,7})",
        "the wide fast path stays fast, width never changes results, \
         and both crossings stay inside the bracket",
    );
    // Bracket the code-capacity threshold (~1e-2 for this noise model):
    // each larger code must win at the low end and lose at the high end.
    let rates = [2e-3, 5e-3, 1e-2, 3e-2, 8e-2];
    let decoder = UnionFindDecoder::new();
    let exit = EarlyExit::default();
    let started = Instant::now();

    // Pass 1: production sweep at the default 512-bit lanes + early exit.
    let wide_cfg = sweep_cfg(LaneWidth::X8, Some(exit));
    let t0 = Instant::now();
    let mut sweep =
        ThresholdSweep::run_batch_configured(&[3, 5], &rates, SHOTS, &decoder, SEED, &wide_cfg);
    let d35_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let d7 =
        ThresholdSweep::run_batch_configured(&[7], &rates, SHOTS_D7, &decoder, SEED, &wide_cfg);
    let d7_secs = t1.elapsed().as_secs_f64();
    sweep.points.extend(d7.points.iter().copied());
    let wide_secs = d35_secs + d7_secs;

    // Pass 2: identical sweep on 64-bit lanes; results must be
    // bit-identical, so every crossing/bracket assertion below holds for
    // both widths at once.
    let narrow_cfg = sweep_cfg(LaneWidth::X1, Some(exit));
    let t2 = Instant::now();
    let mut narrow =
        ThresholdSweep::run_batch_configured(&[3, 5], &rates, SHOTS, &decoder, SEED, &narrow_cfg);
    let narrow_d7 =
        ThresholdSweep::run_batch_configured(&[7], &rates, SHOTS_D7, &decoder, SEED, &narrow_cfg);
    let narrow_secs = t2.elapsed().as_secs_f64();
    narrow.points.extend(narrow_d7.points.iter().copied());
    assert_eq!(
        sweep.points, narrow.points,
        "64-bit lanes disagree with 512-bit lanes — width invariance broken"
    );

    row(&["p", "d=3 p_L", "d=5 p_L", "d=7 p_L"]);
    for &p in &rates {
        let find = |d: usize| {
            sweep
                .series(d)
                .into_iter()
                .find(|pt| pt.p == p)
                .map_or(f64::NAN, |pt| pt.logical_rate)
        };
        row(&[
            &format!("{p:.0e}"),
            &format!("{:.4}", find(3)),
            &format!("{:.4}", find(5)),
            &format!("{:.4}", find(7)),
        ]);
    }
    println!();
    let total_shots: usize = sweep.points.iter().map(|pt| pt.shots).sum();
    let shots_per_sec = total_shots as f64 / wide_secs;
    println!(
        "swept {total_shots} shots in {wide_secs:.3}s ({shots_per_sec:.0} shots/s, 512-bit lanes)"
    );
    println!("same sweep on 64-bit lanes: {narrow_secs:.3}s (identical results)");
    println!(
        "speedup vs PR-7 snapshot: {:.1}x total ({BASELINE_TOTAL_SECS:.3}s -> {wide_secs:.3}s), \
         {:.1}x at d=7 ({BASELINE_D7_SECS:.3}s -> {d7_secs:.3}s)",
        BASELINE_TOTAL_SECS / wide_secs,
        BASELINE_D7_SECS / d7_secs,
    );

    // Both crossings must sit strictly inside the bracket: the larger
    // code wins at the grid's low end, the smaller at its high end.
    let lo = rates[0];
    let hi = *rates.last().unwrap_or(&lo);
    let mut crossings = Vec::new();
    for (d_small, d_large) in [(3usize, 5usize), (5, 7)] {
        let crossing = sweep.crossing_below(d_small, d_large);
        println!("empirical d{d_small}/d{d_large} crossing lower bound: {crossing:?}");
        let c = crossing.unwrap_or(0.0);
        assert!(
            c >= lo && c < hi,
            "d{d_small}/d{d_large} crossing {c:?} escaped the bracket [{lo:e}, {hi:e}) \
             — physics or sampler regression"
        );
        crossings.push((d_small, d_large, c));
    }

    // Pass 3: early exit must never flip a crossing verdict. Pin one
    // d5/d7 comparison where the early exit demonstrably engages (the
    // high-rate point stops at the first milestone) and check the
    // verdict against the full-shot run.
    let pinned_rates = [5e-3, 8e-2];
    let pinned_shots = 2048;
    let full = ThresholdSweep::run_batch_configured(
        &[5, 7],
        &pinned_rates,
        pinned_shots,
        &decoder,
        SEED,
        &sweep_cfg(LaneWidth::X8, None),
    );
    let early = ThresholdSweep::run_batch_configured(
        &[5, 7],
        &pinned_rates,
        pinned_shots,
        &decoder,
        SEED,
        &sweep_cfg(LaneWidth::X8, Some(exit)),
    );
    assert!(
        early.points.iter().any(|pt| pt.shots < pinned_shots),
        "pinned early-exit run never stopped short — guard is vacuous"
    );
    assert_eq!(
        full.crossing_below(5, 7),
        early.crossing_below(5, 7),
        "early exit changed the pinned d5/d7 crossing verdict"
    );
    println!(
        "early-exit verdict guard: d5/d7 crossing {:?} unchanged by early exit",
        full.crossing_below(5, 7)
    );

    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        elapsed < TIME_BUDGET_SECS,
        "perf-smoke blew its {TIME_BUDGET_SECS}s budget: {elapsed:.2}s — frame path regressed"
    );

    write_report(
        &sweep,
        &crossings,
        &exit,
        &Timings {
            wide_secs,
            narrow_secs,
            d7_secs,
            shots_per_sec,
        },
    );
}

struct Timings {
    wide_secs: f64,
    narrow_secs: f64,
    d7_secs: f64,
    shots_per_sec: f64,
}

/// Emits the sweep as a small JSON report for CI trend tracking. Written
/// by hand (no serde in the workspace): schema 2 adds the lane width,
/// throughput, early-exit knobs, the 64-bit comparison run, and the
/// measured speedups over the committed pre-wide-word baseline; schema 3
/// adds each point's failure count and the 95 % Wilson score interval of
/// its rate (`rate_lo`, `rate_hi`), so a zero-failure point reads as an
/// upper bound.
fn write_report(
    sweep: &ThresholdSweep,
    crossings: &[(usize, usize, f64)],
    exit: &EarlyExit,
    t: &Timings,
) {
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 3,\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!(
        "  \"lane_width\": \"{}\",\n",
        LaneWidth::X8.name()
    ));
    json.push_str(&format!("  \"elapsed_secs\": {:.3},\n", t.wide_secs));
    json.push_str(&format!("  \"shots_per_sec\": {:.0},\n", t.shots_per_sec));
    json.push_str(&format!("  \"d7_sweep_secs\": {:.3},\n", t.d7_secs));
    json.push_str(&format!(
        "  \"early_exit\": {{\"min_shots\": {}, \"check_every\": {}, \"target_failures\": {}}},\n",
        exit.min_shots, exit.check_every, exit.target_failures
    ));
    json.push_str(&format!(
        "  \"widths\": [\n    {{\"lane_width\": \"{}\", \"elapsed_secs\": {:.3}}},\n    \
         {{\"lane_width\": \"{}\", \"elapsed_secs\": {:.3}}}\n  ],\n",
        LaneWidth::X1.name(),
        t.narrow_secs,
        LaneWidth::X8.name(),
        t.wide_secs,
    ));
    json.push_str(&format!(
        "  \"baseline\": {{\"source\": \"PR-7 single-lane engine, same grids/shots/seed\", \
         \"elapsed_secs\": {BASELINE_TOTAL_SECS:.3}, \"d7_sweep_secs\": {BASELINE_D7_SECS:.3}}},\n"
    ));
    json.push_str(&format!(
        "  \"speedup\": {{\"total\": {:.2}, \"d7_sweep\": {:.2}}},\n",
        BASELINE_TOTAL_SECS / t.wide_secs,
        BASELINE_D7_SECS / t.d7_secs,
    ));
    json.push_str("  \"crossings\": [\n");
    for (i, (d_small, d_large, c)) in crossings.iter().enumerate() {
        let sep = if i + 1 == crossings.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"d_small\": {d_small}, \"d_large\": {d_large}, \"lower_bound\": {c:e}}}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"points\": [\n");
    for (i, pt) in sweep.points.iter().enumerate() {
        let sep = if i + 1 == sweep.points.len() { "" } else { "," };
        let (lo, hi) = pt.rate_interval();
        json.push_str(&format!(
            "    {{\"distance\": {}, \"p\": {:e}, \"logical_rate\": {:e}, \"shots\": {}, \
             \"failures\": {}, \"rate_lo\": {lo:e}, \"rate_hi\": {hi:e}}}{sep}\n",
            pt.distance, pt.p, pt.logical_rate, pt.shots, pt.failures
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::File::create(REPORT_PATH).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_frame_sampler.json"),
        Err(e) => println!("could not write BENCH_frame_sampler.json: {e}"),
    }
}
