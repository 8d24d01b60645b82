//! The repo's performance benchmark. `README.md` beside this crate is
//! the manual; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! quest-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! quest-benchmark --repeat-check [--workload <name>] [--seconds <s>]
//! quest-benchmark --write-golden
//! ```
//!
//! One invocation runs one workload and prints, as the last line of its
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod calib;
mod check;
mod decoders;
mod golden;
mod json;
mod kernels;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use run::RunArgs;
use std::process::ExitCode;
use workload::Scale;

const USAGE: &str =
    "usage: quest-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       quest-benchmark --repeat-check [--workload <name>] [--seconds <s>]
       quest-benchmark --write-golden";

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat_check: bool,
    write_golden: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--repeat-check" => cli.repeat_check = true,
            "--write-golden" => cli.write_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main_inner() -> Result<bool, String> {
    let cli = parse(std::env::args())?;
    if cli.write_golden {
        golden::write()?;
        return Ok(true);
    }
    if cli.repeat_check {
        return check::repeat_check(cli.workload.as_deref(), cli.seconds);
    }
    let args = RunArgs {
        workload: cli.workload.ok_or("--workload is required")?,
        seed: cli.seed.ok_or("--seed is required")?,
        seconds: cli.seconds.ok_or("--seconds is required")?,
        trace: cli.trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    };
    let result = run::run(&args)?;
    print!("{}", result.report);
    println!("{}", result.to_json());
    Ok(true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("quest-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
    use crate::workload::{build, NAMES};

    fn reduced_run(workload: &str, trace: bool) -> run::RunResult {
        run::run(&RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            scale: Scale::REDUCED,
        })
        .unwrap()
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    /// Every workload and metric `BENCHMARK.json` names is printed by a
    /// real (reduced-size) run, with its unit, and nothing else is.
    #[test]
    fn the_binary_prints_exactly_what_benchmark_json_lists() {
        let spec = check::benchmark_json().unwrap();
        let workloads: Vec<String> = listed(&spec, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(listed(&spec, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), table(&PER_LAYER));

        for name in NAMES {
            for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let result = reduced_run(name, trace);
                assert_eq!(
                    result.ops.failed, 0,
                    "{name} trace={trace}: {}",
                    result.report
                );
                let line = Json::parse(&result.to_json().to_string()).unwrap();
                let Some(Json::Obj(printed)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                let printed: Vec<&str> = printed.keys().map(String::as_str).collect();
                let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
                expected.sort_unstable();
                assert_eq!(printed, expected, "{name} trace={trace}");
                for key in ["correct", "attempted", "failed"] {
                    assert!(line.get(key).is_some(), "{key} missing");
                }
            }
        }
    }

    #[test]
    fn inputs_and_simulated_statistics_are_a_function_of_the_seed() {
        for name in NAMES {
            let stats = |seed| build(name, seed, Scale::REDUCED).unwrap().simulated_stats();
            let (a, again, other) = (stats(11), stats(11), stats(12));
            assert_eq!(a, again, "{name}: same seed, different statistics");
            assert_ne!(a, other, "{name}: the seed does not reach the inputs");
        }
    }

    #[test]
    fn pinned_seed_golden_matches() {
        for name in NAMES {
            assert_eq!(golden::check(name).failed, 0, "{name}: golden.json differs");
        }
    }

    #[test]
    fn command_line_is_checked() {
        let cli = |args: &[&str]| {
            parse(
                std::iter::once("bin")
                    .chain(args.iter().copied())
                    .map(String::from),
            )
        };
        let ok = cli(&[
            "--workload",
            "serve_mix",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload.as_deref(), Some("serve_mix"));
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace),
            (Some(3), Some(10.0), Some(true))
        );
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seed", "-1"]).is_err());
        assert!(cli(&["--seconds"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }
}
