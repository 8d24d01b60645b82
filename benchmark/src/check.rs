//! `--repeat-check`: does the benchmark agree with itself?
//!
//! Runs every workload ten times with ten seeds, twice, as separate
//! processes of this binary, and holds the results against the bounds in
//! `BENCHMARK.json` the way the accepting pipeline does: each set's
//! quartile spread must stay within the metric's bound (set-up time
//! excepted), and the second set's median may not be worse than the
//! first's by more than the bound.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use std::path::PathBuf;
use std::process::Command;

const RUNS_PER_SET: u64 = 10;

pub fn benchmark_json() -> Result<Json, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text)
}

/// One child run's end-to-end metric values by name.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let clean = output.status.success()
        && result.get("correct") == Some(&Json::Bool(true))
        && result.get("failed").and_then(Json::as_f64) == Some(0.0);
    if !clean {
        return Err(format!("{workload} seed {seed} failed: {last}"));
    }
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload} seed {seed}: no metrics"))
}

/// Runs the check and prints its table; `Ok(true)` when every pair of
/// workload and end-to-end metric is within its bound.
pub fn repeat_check(only: Option<&str>, seconds: Option<f64>) -> Result<bool, String> {
    let spec = benchmark_json()?;
    let field = |key: &str| {
        spec.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let seconds = seconds
        .or_else(|| spec.get("run_seconds").and_then(Json::as_f64))
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let workloads: Vec<&str> = field("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .filter(|name| only.is_none_or(|o| o == *name))
        .collect();
    let metrics = field("end_to_end")?;

    // sets[set][workload] = the ten runs' metric objects.
    let mut sets: Vec<Vec<Vec<Json>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in &workloads {
            let runs = (0..RUNS_PER_SET)
                .map(|i| {
                    let seed = set * RUNS_PER_SET + i + 1;
                    eprintln!("set {} of 2: {workload} seed {seed}", set + 1);
                    child_run(workload, seed, seconds)
                })
                .collect::<Result<Vec<_>, _>>()?;
            per_workload.push(runs);
        }
        sets.push(per_workload);
    }

    println!("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let values = |set: usize| -> Result<Vec<f64>, String> {
                sets[set][w]
                    .iter()
                    .map(|run| {
                        run.get(name)
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("{workload}: metric {name} missing"))
                    })
                    .collect()
            };
            let (first, second) = (values(0)?, values(1)?);
            let (m1, m2) = (median(&first), median(&second));
            let (s1, s2) = (quartile_spread(&first), quartile_spread(&second));
            let worse = if lower {
                (m2 - m1) / m1
            } else {
                (m1 - m2) / m1
            };
            // The pipeline exempts set-up time's spread, not its drift.
            let spread_ok = name == "setup_s" || (s1 <= bound && s2 <= bound);
            let ok = spread_ok && worse <= bound;
            all_ok &= ok;
            println!(
                "| {workload} | {name} | {m1:.6} | {s1:.4} | {m2:.6} | {s2:.4} | {worse:+.4} | {bound} | {} |",
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(all_ok)
}
