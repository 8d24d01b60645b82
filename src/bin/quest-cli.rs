//! `quest-cli` — command-line front end for the QuEST reproduction.
//!
//! Subcommands:
//!
//! * `report [p]` — per-workload bandwidth analysis (default p = 1e-4);
//! * `shor <bits> [p]` — fault-tolerant Shor sizing for one modulus;
//! * `table2` — the optimal microcode configurations (paper Table 2);
//! * `simulate <d> <p> <cycles>` — run one tile on the single-threaded
//!   reference executor in all three delivery modes and print the
//!   global-bus accounting;
//! * `run --shards N [options]` — run a multi-tile workload on the
//!   concurrent sharded runtime and print its statistics; `--fault-*`
//!   flags inject deterministic classical faults (packet drop/corrupt
//!   rates, MCE stalls, decode-worker kills) and the report then carries
//!   a recovery summary; `--retries`/`--deadline-cycles`/
//!   `--checkpoint-every` supervise the run (checkpointed retries, a
//!   cycle budget) through the job server's own supervisor and print a
//!   one-line resume summary;
//! * `asm <file>` — assemble a logical program from text and print its
//!   statistics (use `-` for stdin);
//! * `submit [options]` — batch driver for the multi-tenant job server:
//!   submit `--jobs N` memory workloads round-robin across `--tenants T`
//!   onto a `--workers W` pool and print per-job results plus the final
//!   server ledger; the same supervision flags attach a per-job
//!   `RetryPolicy`;
//! * `chaos [options]` — the chaos-soak harness: seeded fault storms
//!   against a live server with all crash-safety invariants checked;
//!   exits nonzero on any violation.

#![forbid(unsafe_code)]

use quest::arch::throughput::table2;
use quest::arch::{DeliveryMode, TechnologyParams};
use quest::estimate::kernels::workload_with_kernel;
use quest::estimate::{analyze_suite, ShorEstimate, Workload};
use quest::runtime::{run_reference, DecoderChoice, FaultPlan, RuntimeReport, WorkloadSpec};
use quest::serve::chaos::{run_chaos, ChaosConfig};
use quest::serve::{
    JobHandle, JobOutcome, RetryPolicy, Server, ServerConfig, TenantId, TenantQuota,
};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("shor") => cmd_shor(&args[1..]),
        Some("table2") => cmd_table2(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: quest-cli <report [p] | shor <bits> [p] | table2 | simulate <d> <p> <cycles> | run --shards N [options] | asm <file> | submit [options] | chaos [options]>"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn parse_decoder(s: &str) -> Result<DecoderChoice, String> {
    DecoderChoice::parse(s).ok_or_else(|| {
        let names: Vec<&str> = DecoderChoice::ALL.iter().map(|c| c.name()).collect();
        format!("unknown decoder `{s}` (expected {})", names.join(" | "))
    })
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let p = match args.first() {
        Some(s) => parse_f64(s, "error rate")?,
        None => 1e-4,
    };
    println!("workload bandwidth analysis at p = {p:.0e} (Projected_D, Steane)\n");
    println!(
        "{:>8} {:>4} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "workload", "d", "phys qubits", "baseline", "QuEST+cache", "MCE x", "total x"
    );
    for e in analyze_suite(p) {
        println!(
            "{:>8} {:>4} {:>13.2e} {:>11.1} TB/s {:>9.2e} B/s {:>7.1e} {:>9.1e}",
            e.workload.name,
            e.distance,
            e.physical_qubits,
            e.baseline / 1e12,
            e.quest_cached,
            e.mce_savings(),
            e.cached_savings(),
        );
    }
    Ok(())
}

fn cmd_shor(args: &[String]) -> Result<(), String> {
    let bits = args
        .first()
        .ok_or("shor needs a modulus width in bits")
        .and_then(|s| s.parse::<u32>().map_err(|_| "invalid bit width"))
        .map_err(str::to_owned)?;
    let p = match args.get(1) {
        Some(s) => parse_f64(s, "error rate")?,
        None => 1e-4,
    };
    let s = ShorEstimate::new(bits, p);
    println!("Shor-{bits} at p = {p:.0e}:");
    println!("  code distance        : {}", s.distance);
    println!("  logical qubits       : {:.0}", s.logical_qubits);
    println!("  T count              : {:.2e}", s.t_count);
    println!("  distillation levels  : {}", s.distillation_levels);
    println!("  T-factories          : {:.0}", s.factories);
    println!("  physical qubits      : {:.2e}", s.physical_qubits);
    println!(
        "  baseline bandwidth   : {:.1} TB/s",
        s.baseline_bandwidth() / 1e12
    );
    Ok(())
}

fn cmd_table2() -> Result<(), String> {
    println!("optimal QECC microcode configurations (paper Table 2):\n");
    println!(
        "{:>8} {:>13} {:>22} {:>9} {:>8} {:>11}",
        "syndrome", "instructions", "configuration", "JJs", "power", "qubits/MCE"
    );
    for r in table2(&TechnologyParams::PROJECTED_F) {
        println!(
            "{:>8} {:>13} {:>22} {:>9} {:>5.1} uW {:>11}",
            r.design.name,
            r.design.microcode_uops,
            r.config.to_string(),
            r.jj_count,
            r.power_w * 1e6,
            r.qubits_serviced
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let [d, p, cycles] = args else {
        return Err("simulate needs: <distance> <error rate> <cycles>".into());
    };
    let d = parse_u64(d, "distance")? as usize;
    let p = parse_f64(p, "error rate")?;
    let cycles = parse_u64(cycles, "cycle count")?;
    let program = workload_with_kernel(&Workload::QLS, 100);
    for mode in DeliveryMode::ALL {
        let spec = WorkloadSpec::delivery_memory(d, 1, 1, p, 1, cycles, &program, 20, mode);
        let run = run_reference(&spec).map_err(|e| e.to_string())?;
        println!(
            "{mode:?}: {} bus bytes, logical {} ({} local / {} escalated decodes)",
            run.bus_bytes(),
            if run.logical_ok() { "OK" } else { "CORRUPTED" },
            run.local_decodes,
            run.escalations
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut shards = 1usize;
    let mut tiles = 8usize;
    let mut distance = 3usize;
    let mut error_rate = 1e-3;
    let mut cycles = 50u64;
    let mut seed = 1u64;
    let mut workload = "memory".to_owned();
    let mut decoder = DecoderChoice::default();
    let mut faults = FaultPlan::none();
    let mut retries = 0u32;
    let mut deadline = None;
    let mut checkpoint_every = 0u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--shards" => shards = parse_u64(value("--shards")?, "shard count")? as usize,
            "--tiles" => tiles = parse_u64(value("--tiles")?, "tile count")? as usize,
            "--distance" => distance = parse_u64(value("--distance")?, "distance")? as usize,
            "--error-rate" => error_rate = parse_f64(value("--error-rate")?, "error rate")?,
            "--cycles" => cycles = parse_u64(value("--cycles")?, "cycle count")?,
            "--seed" => seed = parse_u64(value("--seed")?, "seed")?,
            "--workload" => workload = value("--workload")?.clone(),
            "--decoder" => decoder = parse_decoder(value("--decoder")?)?,
            "--retries" => retries = parse_u64(value("--retries")?, "retry budget")? as u32,
            "--deadline-cycles" => {
                deadline = Some(parse_u64(value("--deadline-cycles")?, "cycle deadline")?);
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_u64(value("--checkpoint-every")?, "checkpoint cadence")?;
            }
            "--fault-drop-rate" => {
                faults.drop_rate = parse_f64(value("--fault-drop-rate")?, "drop rate")?;
            }
            "--fault-corrupt-rate" => {
                faults.corrupt_rate = parse_f64(value("--fault-corrupt-rate")?, "corrupt rate")?;
            }
            "--fault-stall-rate" => {
                faults.stall_rate = parse_f64(value("--fault-stall-rate")?, "stall rate")?;
            }
            "--fault-quarantine" => {
                faults.quarantine_cycles =
                    parse_u64(value("--fault-quarantine")?, "quarantine length")?;
            }
            "--fault-retries" => {
                faults.max_retries = parse_u64(value("--fault-retries")?, "retry budget")? as u32;
            }
            "--fault-kill-decoder" => {
                faults.kill_decode_worker_after_jobs =
                    Some(parse_u64(value("--fault-kill-decoder")?, "job threshold")?);
            }
            "--fault-shard-panic" => {
                let spec = value("--fault-shard-panic")?;
                let (shard, after) = spec
                    .split_once(':')
                    .ok_or("--fault-shard-panic expects <shard>:<cycle>")?;
                faults.shard_panic = Some(quest::runtime::ShardPanicPlan {
                    shard: parse_u64(shard, "shard index")? as usize,
                    after_cycles: parse_u64(after, "panic cycle")?,
                });
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --shards/--tiles/--distance/--error-rate/\
                     --cycles/--seed/--workload/--decoder/--retries/--deadline-cycles/\
                     --checkpoint-every/--fault-drop-rate/--fault-corrupt-rate/\
                     --fault-stall-rate/--fault-quarantine/--fault-retries/\
                     --fault-kill-decoder/--fault-shard-panic)"
                ))
            }
        }
    }
    let mut spec = match workload.as_str() {
        "memory" => WorkloadSpec::memory(distance, tiles, shards, error_rate, seed, cycles),
        "bell" => WorkloadSpec::bell_pairs(distance, tiles, shards, error_rate, seed, cycles)
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown workload `{other}` (memory | bell)")),
    };
    spec.faults = faults;
    spec.decoder = decoder;
    spec.validate().map_err(|e| e.to_string())?;
    println!(
        "{workload} workload: {tiles} tiles at d={distance}, p={error_rate:.0e}, \
         {cycles} cycles, seed {seed}, {shards} shard(s), {decoder} decoder\n"
    );
    let report = supervised_run(spec, retry_policy(retries, deadline, checkpoint_every))?;
    println!("{}", report.stats);
    if !report.recovery.is_quiet() {
        println!("\nfault recovery:");
        for line in report.recovery.to_string().lines() {
            println!("  {line}");
        }
    }
    println!("\nbus bytes: {}", report.bus_bytes());
    let cost = report.report.decode_cost;
    println!(
        "decode cost [{decoder}]: {} decodes ({} fallback), {} cycles \
         (max {} per decode), {} JJs",
        cost.decodes, cost.fallback_decodes, cost.cycles, cost.max_decode_cycles, cost.jj_count
    );
    let ones = report.outcomes.iter().filter(|&&(_, v)| v).count();
    println!(
        "outcomes: {} tiles read out, {} ones ({} zeros)",
        report.outcomes.len(),
        ones,
        report.outcomes.len() - ones
    );
    Ok(())
}

/// The [`RetryPolicy`] the `--retries`/`--deadline-cycles`/
/// `--checkpoint-every` flags of `run` and `submit` describe.
fn retry_policy(retries: u32, deadline: Option<u64>, checkpoint_every: u64) -> RetryPolicy {
    RetryPolicy {
        deadline_cycles: deadline,
        ..RetryPolicy::default()
            .with_max_attempts(retries.saturating_add(1))
            .with_checkpoint_every(checkpoint_every)
    }
}

/// Supervisor for `run`: the spec goes to an in-process one-worker
/// [`Server`] under `policy`, so the CLI and the job server share one
/// retry/deadline/checkpoint loop. With the default knobs (no retries,
/// no deadline, forced-only checkpoints) the job is a plain
/// `Runtime::run`.
fn supervised_run(spec: WorkloadSpec, policy: RetryPolicy) -> Result<RuntimeReport, String> {
    let tenant = TenantId(0);
    let server = Server::start(ServerConfig::default().with_workers(1));
    let outcome = server
        .submit_with_policy(tenant, spec, policy)
        .map_err(|e| e.to_string())?
        .wait();
    let ledger = server.shutdown();
    let attempts = ledger.jobs_retried() + 1;
    match outcome {
        JobOutcome::Done(report) => {
            if attempts > 1 {
                let resumed = ledger.tenant(tenant).map_or(0, |t| t.cycles_resumed);
                println!(
                    "supervision: {attempts} attempt(s), {resumed} cycle(s) resumed from checkpoints\n"
                );
            }
            Ok(*report)
        }
        JobOutcome::DeadlineExceeded { cycles_done } => Err(format!(
            "deadline exceeded: cycle budget {} ran out after {cycles_done} cycles \
             (attempt {attempts})",
            policy.deadline_cycles.unwrap_or(0)
        )),
        JobOutcome::Failed(e) => Err(e.to_string()),
        JobOutcome::Cancelled => Err("the run was cancelled".into()),
        JobOutcome::Lost => Err("the job server went away before the run ended".into()),
    }
}

/// Batch driver for the job server: `--jobs N` memory workloads spread
/// round-robin over `--tenants T`, run on `--workers W`, with per-job
/// seeds `--seed + job index`. `--cancel-every K` cancels every Kth job
/// right after submission to exercise the cancellation path;
/// `--retries`/`--deadline-cycles`/`--checkpoint-every` attach a
/// [`RetryPolicy`] to every job. Submission blocks when the queue is
/// full (the server's blocking `submit` parks instead of busy-looping).
/// Exits nonzero if any job ends in an unexpected state.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut workers = 2usize;
    let mut jobs = 4u64;
    let mut tenants = 1u32;
    let mut tiles = 4usize;
    let mut distance = 3usize;
    let mut error_rate = 1e-3;
    let mut cycles = 30u64;
    let mut seed = 1u64;
    let mut queue_depth = 64usize;
    let mut cancel_every = 0u64;
    let mut max_shots = u64::MAX;
    let mut decoder = DecoderChoice::default();
    let mut retries = 0u32;
    let mut deadline = None;
    let mut checkpoint_every = 0u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--workers" => workers = parse_u64(value("--workers")?, "worker count")? as usize,
            "--jobs" => jobs = parse_u64(value("--jobs")?, "job count")?,
            "--tenants" => tenants = parse_u64(value("--tenants")?, "tenant count")? as u32,
            "--tiles" => tiles = parse_u64(value("--tiles")?, "tile count")? as usize,
            "--distance" => distance = parse_u64(value("--distance")?, "distance")? as usize,
            "--error-rate" => error_rate = parse_f64(value("--error-rate")?, "error rate")?,
            "--cycles" => cycles = parse_u64(value("--cycles")?, "cycle count")?,
            "--seed" => seed = parse_u64(value("--seed")?, "seed")?,
            "--queue-depth" => {
                queue_depth = parse_u64(value("--queue-depth")?, "queue depth")? as usize;
            }
            "--cancel-every" => {
                cancel_every = parse_u64(value("--cancel-every")?, "cancel stride")?;
            }
            "--max-shots" => max_shots = parse_u64(value("--max-shots")?, "shot quota")?,
            "--decoder" => decoder = parse_decoder(value("--decoder")?)?,
            "--retries" => retries = parse_u64(value("--retries")?, "retry budget")? as u32,
            "--deadline-cycles" => {
                deadline = Some(parse_u64(value("--deadline-cycles")?, "cycle deadline")?);
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_u64(value("--checkpoint-every")?, "checkpoint cadence")?;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --workers/--jobs/--tenants/--tiles/\
                     --distance/--error-rate/--cycles/--seed/--queue-depth/--cancel-every/\
                     --max-shots/--decoder/--retries/--deadline-cycles/--checkpoint-every)"
                ))
            }
        }
    }
    let tenants = tenants.max(1);
    let policy = retry_policy(retries, deadline, checkpoint_every);
    let quota = TenantQuota {
        max_total_shots: max_shots,
        ..TenantQuota::UNLIMITED
    };
    let server = Server::start(
        ServerConfig::default()
            .with_workers(workers)
            .with_queue_depth(queue_depth)
            .with_default_quota(quota),
    );
    println!(
        "submitting {jobs} jobs across {tenants} tenant(s) to {workers} worker(s) \
         ({tiles} tiles at d={distance}, {cycles} cycles each)\n"
    );
    let mut handles: Vec<(u64, Option<JobHandle>)> = Vec::new();
    for i in 0..jobs {
        let tenant = TenantId(i as u32 % tenants);
        let mut spec = WorkloadSpec::memory(distance, tiles, 1, error_rate, seed + i, cycles);
        spec.decoder = decoder;
        match server.submit_with_policy(tenant, spec, policy) {
            Ok(handle) => {
                if cancel_every > 0 && i % cancel_every == 0 {
                    handle.cancel();
                }
                handles.push((i, Some(handle)));
            }
            Err(e) => {
                println!("job {i} ({tenant}): rejected — {e}");
                handles.push((i, None));
            }
        }
    }
    let mut unexpected = 0u64;
    for (i, handle) in handles {
        let Some(handle) = handle else {
            if cancel_every == 0 && max_shots == u64::MAX {
                unexpected += 1;
            }
            continue;
        };
        let tenant = handle.tenant();
        let expect_cancel = cancel_every > 0 && i % cancel_every == 0;
        match handle.wait() {
            JobOutcome::Done(report) => {
                println!(
                    "job {i} ({tenant}): done — {} outcomes, logical {}",
                    report.outcomes.len(),
                    if report.logical_ok() {
                        "OK"
                    } else {
                        "CORRUPTED"
                    },
                );
            }
            JobOutcome::Cancelled => {
                println!("job {i} ({tenant}): cancelled");
                if !expect_cancel {
                    unexpected += 1;
                }
            }
            JobOutcome::DeadlineExceeded { cycles_done } => {
                println!("job {i} ({tenant}): deadline exceeded after {cycles_done} cycles");
                if deadline.is_none() {
                    unexpected += 1;
                }
            }
            JobOutcome::Failed(e) => {
                println!("job {i} ({tenant}): failed — {e}");
                unexpected += 1;
            }
            JobOutcome::Lost => {
                println!("job {i} ({tenant}): lost");
                unexpected += 1;
            }
        }
    }
    let ledger = server.shutdown();
    println!("\n{ledger}");
    if unexpected > 0 {
        return Err(format!("{unexpected} job(s) ended in an unexpected state"));
    }
    Ok(())
}

/// Chaos-soak harness: seeded fault storms against a live server with
/// every crash-safety invariant checked (see `quest_serve::chaos`).
/// Under `QUEST_FAULT_HEAVY` the default campaign widens to 10 seeds.
/// Exits nonzero on any invariant violation.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let heavy = std::env::var_os("QUEST_FAULT_HEAVY").is_some_and(|v| v != "0" && !v.is_empty());
    let mut config = if heavy {
        ChaosConfig::default().with_seeds(10).with_jobs_per_seed(10)
    } else {
        ChaosConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => config = config.with_seeds(parse_u64(value("--seeds")?, "seed count")?),
            "--jobs" => {
                config = config
                    .with_jobs_per_seed(parse_u64(value("--jobs")?, "jobs per seed")? as usize);
            }
            "--workers" => {
                config =
                    config.with_workers(parse_u64(value("--workers")?, "worker count")? as usize);
            }
            "--first-seed" => {
                config = config.with_first_seed(parse_u64(value("--first-seed")?, "first seed")?);
            }
            "--cancel-percent" => {
                config = config
                    .with_cancel_percent(parse_u64(value("--cancel-percent")?, "cancel percent")?);
            }
            "--timeout-secs" => {
                config = config.with_timeout(std::time::Duration::from_secs(parse_u64(
                    value("--timeout-secs")?,
                    "seed timeout",
                )?));
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --seeds/--jobs/--workers/--first-seed/\
                     --cancel-percent/--timeout-secs)"
                ))
            }
        }
    }
    println!(
        "chaos soak: {} seed(s) from {:#x}, {} job(s) per seed, {} worker(s)\n",
        config.seeds, config.first_seed, config.jobs_per_seed, config.workers
    );
    // Injected worker panics are the point of a chaos storm; keep the
    // default hook's multi-line backtraces out of the report. Anything
    // genuinely wrong still surfaces as an invariant violation below.
    std::panic::set_hook(Box::new(|info| {
        let payload = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_owned());
        eprintln!("worker panic: {payload}");
    }));
    let report = run_chaos(&config);
    let _ = std::panic::take_hook();
    println!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ))
    }
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("asm needs a file path (or `-`)")?;
    let source = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let program = quest::isa::asm::parse(&source).map_err(|e| e.to_string())?;
    println!(
        "assembled {} instructions ({} bytes):",
        program.len(),
        program.encoded_bytes()
    );
    println!(
        "  algorithmic  : {}",
        program.count_class(quest::isa::InstrClass::Algorithmic)
    );
    println!(
        "  distillation : {}",
        program.count_class(quest::isa::InstrClass::Distillation)
    );
    println!(
        "  sync/cache   : {}",
        program.count_class(quest::isa::InstrClass::Sync)
            + program.count_class(quest::isa::InstrClass::CacheControl)
    );
    println!("  T gates      : {}", program.t_count());
    Ok(())
}
