//! Perf-smoke for the frame sampler: a small code-capacity threshold
//! sweep that must finish fast and reproduce the physics.
//!
//! Run by the CI `perf-smoke` job on every push. Three passes:
//!
//! 1. **Production sweep** with the default deterministic early exit:
//!    d ∈ {3, 5} at 5000 shots/point, d = 7 at 2000 (its lattice is ~5×
//!    the work per shot), over a rate grid bracketing the code-capacity
//!    threshold. Asserts the d3/d5 and d5/d7 crossings land inside the
//!    bracket.
//! 2. **64-bit lane re-run** of the same sweep, asserted bit-identical
//!    point by point — the lane-width knob must never change a result.
//! 3. **Early-exit verdict guard** at one pinned d5/d7 point pair: the
//!    full-shot sweep and the early-exited sweep must report the same
//!    crossing verdict, and the early run must actually stop short
//!    (otherwise the guard is vacuous).
//!
//! The whole bench must finish in under 60 seconds. The points and
//! crossings are written to `BENCH_frame_sampler.json` at the repo root;
//! the file holds no timing, so a rerun rewrites it byte for byte.

use quest_bench::{header, row};
use quest_surface::{EarlyExit, LaneWidth, SweepConfig, ThresholdSweep, UnionFindDecoder};
use std::io::Write as _;
use std::time::Instant;

const SHOTS: usize = 5000;
const SHOTS_D7: usize = 2000;
const SEED: u64 = 0xF7A3;
const WORKERS: usize = 4;
const TIME_BUDGET_SECS: f64 = 60.0;

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
        "the sweep stays fast, width never changes results, \
         and both crossings stay inside the bracket",
    );
    // Bracket the code-capacity threshold (~1e-2 for this noise model):
    // each larger code must win at the low end and lose at the high end.
    let rates = [2e-3, 5e-3, 1e-2, 3e-2, 8e-2];
    let decoder = UnionFindDecoder::new();
    let exit = EarlyExit::default();
    let started = Instant::now();

    // Pass 1: production sweep at the default lane width + early exit.
    let wide_cfg = sweep_cfg(LaneWidth::X8, Some(exit));
    let mut sweep =
        ThresholdSweep::run_batch_configured(&[3, 5], &rates, SHOTS, &decoder, SEED, &wide_cfg);
    let d7 =
        ThresholdSweep::run_batch_configured(&[7], &rates, SHOTS_D7, &decoder, SEED, &wide_cfg);
    sweep.points.extend(d7.points.iter().copied());

    // Pass 2: identical sweep on 64-bit lanes; results must be
    // bit-identical, so every crossing/bracket assertion below holds for
    // both widths at once.
    let narrow_cfg = sweep_cfg(LaneWidth::X1, Some(exit));
    let mut narrow =
        ThresholdSweep::run_batch_configured(&[3, 5], &rates, SHOTS, &decoder, SEED, &narrow_cfg);
    let narrow_d7 =
        ThresholdSweep::run_batch_configured(&[7], &rates, SHOTS_D7, &decoder, SEED, &narrow_cfg);
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

    write_report(&sweep, &crossings, &exit);
}

/// Emits the sweep as a small JSON report. Written by hand (no serde in
/// the workspace). Schema 3 added each point's failure count and the
/// 95 % Wilson score interval of its rate (`rate_lo`, `rate_hi`), so a
/// zero-failure point reads as an upper bound; schema 4 dropped the
/// timing fields, so the file is a pure function of the code.
fn write_report(sweep: &ThresholdSweep, crossings: &[(usize, usize, f64)], exit: &EarlyExit) {
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 4,\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!(
        "  \"lane_width\": \"{}\",\n",
        LaneWidth::X8.name()
    ));
    json.push_str(&format!(
        "  \"early_exit\": {{\"min_shots\": {}, \"check_every\": {}, \"target_failures\": {}}},\n",
        exit.min_shots, exit.check_every, exit.target_failures
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
