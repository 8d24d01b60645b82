//! One benchmark run: one workload, measured for a fixed time, reported
//! as medians over fixed-work passes.

use crate::calib::Calibrator;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{self_seconds_by_name, self_times, to_json, Tracer};
use crate::workload::{self, Ops, Scale};
use crate::{golden, kernels};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` a traced run spends on untraced passes (for the
/// untraced median its traced pass is compared with); the rest goes to
/// the traced pass, the expensive checks and the layer kernels, so a
/// traced run takes no longer than an untraced one.
const TRACED_WINDOW_SHARE: f64 = 0.4;
/// Traced passes a traced run makes; the one of median wall-clock is
/// reported. One pass alone reads ±15 % on the reference sandbox, which
/// would drown the tracing overhead `trace.pass_ratio` exists to show.
const TRACED_PASSES: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct RunResult {
    pub ops: Ops,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable report: what was measured, the pass times, the
    /// `host.*` line. Printed before the result line.
    pub report: String,
}

impl RunResult {
    /// The one-line result object the pipeline reads.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(def, value)| {
            (
                def.name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::int(self.ops.attempted)),
            ("failed", Json::int(self.ops.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let run_started = Instant::now();
    let mut workload = workload::build(&args.workload, args.seed, args.scale)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut report = String::new();
    let mut ops = Ops::default();

    let setups: Vec<f64> = (0..workload.setup_reps())
        .map(|_| workload.setup_once())
        .collect();

    // The measuring window: a warm-up pass (checked, not timed), then
    // fixed-work passes until another would overrun, each bracketed by
    // the calibration kernel. One kernel run serves as the "after" of
    // one pass and the "before" of the next.
    let budget = args.seconds * if args.trace { TRACED_WINDOW_SHARE } else { 1.0 };
    let mut calibrator = Calibrator::new();
    let window = Instant::now();
    ops.add(workload.pass());
    let mut walls = Vec::new();
    let mut calibs = Vec::new();
    let mut before = calibrator.run();
    loop {
        let started = Instant::now();
        ops.add(workload.pass());
        let wall = started.elapsed().as_secs_f64();
        let after = calibrator.run();
        walls.push(wall);
        calibs.push((before + after) / 2.0);
        before = after;
        if walls.len() >= MIN_PASSES && window.elapsed().as_secs_f64() + wall + after > budget {
            break;
        }
    }
    let work = workload.work_per_pass() as f64;
    let pass_median = median(&walls);
    writeln!(
        report,
        "{}: seed {}, {} work units per pass, {} timed passes, pass wall median {:.4} s (min {:.4}, max {:.4})",
        args.workload,
        args.seed,
        work,
        walls.len(),
        pass_median,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    )
    .ok();
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    writeln!(report, "pass walls (s): {}", walls_text.join(" ")).ok();

    let mut values: Vec<(String, f64)> = Vec::new();
    let defs: &'static [MetricDef] = if args.trace {
        let mut traced_passes: Vec<_> = (0..TRACED_PASSES)
            .map(|_| {
                let tracer = Tracer::new();
                let traced = workload.traced_pass(&tracer);
                ops.add(traced.ops);
                (tracer, traced)
            })
            .collect();
        traced_passes.sort_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s));
        let (tracer, traced) = traced_passes.swap_remove(TRACED_PASSES / 2);
        ops.add(workload.deep_checks());
        ops.add(golden::check(&args.workload));
        let spans = tracer.spans();
        let self_sum: u64 = self_times(&spans).iter().sum();
        values.extend([
            ("pass.simulate_share".to_string(), traced.shares.simulate),
            ("pass.decode_share".to_string(), traced.shares.decode),
            (
                "pass.orchestrate_share".to_string(),
                traced.shares.orchestrate,
            ),
            ("trace.pass_ratio".to_string(), traced.wall_s / pass_median),
            (
                "trace.selfsum_ratio".to_string(),
                self_sum as f64 * 1e-9 / traced.wall_s,
            ),
        ]);
        writeln!(
            report,
            "traced pass: {:.4} s; self time by span name:",
            traced.wall_s
        )
        .ok();
        for (name, seconds, count) in self_seconds_by_name(&spans) {
            writeln!(report, "  {name:<28} {seconds:>10.6} s  ({count} spans)").ok();
        }
        values.extend(kernels::run_all(args.seed, args.scale, &mut ops));

        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        let trace = to_json(&args.workload, args.seed, &spans, traced.counters);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.to_string()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        writeln!(
            report,
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )
        .ok();
        &PER_LAYER
    } else {
        let rates: Vec<f64> = walls.iter().map(|wall| work / wall).collect();
        let per_calib: Vec<f64> = walls
            .iter()
            .zip(&calibs)
            .map(|(wall, calib)| work * calib / wall)
            .collect();
        values.extend([
            ("setup_s".to_string(), median(&setups)),
            ("work_per_s".to_string(), median(&rates)),
            ("work_per_calib".to_string(), median(&per_calib)),
            ("peak_rss_mb".to_string(), peak_rss_mib()?),
        ]);
        &END_TO_END
    };

    // Exactly the metrics of the mode, each a finite non-zero number.
    let mut metrics = Vec::new();
    for def in defs {
        let value = values
            .iter()
            .find(|(name, _)| name == def.name)
            .map(|&(_, value)| value)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() || value == 0.0 {
            return Err(format!("metric {} read {value}", def.name));
        }
        writeln!(
            report,
            "{:<48} {:>16.6} {} ({} is better)",
            def.name, value, def.unit, def.better
        )
        .ok();
        metrics.push((def, value));
    }
    if values.len() != defs.len() {
        return Err("a metric outside the published list was measured".to_string());
    }

    let wall = run_started.elapsed().as_secs_f64();
    writeln!(
        report,
        "host.nproc {} | host.cpu_s {:.2} of wall_s {:.2} | host.passes {} | host.calib_ms_median {:.3} | \
         checks {} attempted, {} failed",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        process_cpu_seconds().unwrap_or(f64::NAN),
        wall,
        walls.len(),
        median(&calibs) * 1e3,
        ops.attempted,
        ops.failed,
    )
    .ok();
    Ok(RunResult {
        ops,
        metrics,
        report,
    })
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// User plus system CPU seconds of this process, all threads. Fields 14
/// and 15 of `/proc/self/stat`, in clock ticks of 1/100 s (the Linux
/// user-space constant).
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
