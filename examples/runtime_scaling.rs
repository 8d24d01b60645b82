//! Shard-count scaling of the concurrent multi-tile runtime.
//!
//! Runs the same fixed-seed memory workload (8 tiles at d = 5) at shard
//! counts 1, 2 and 4 and prints each run's `RuntimeStats`. The logical
//! outcomes and bus-byte totals are identical at every shard count —
//! that is the runtime's determinism guarantee. So is the work: every
//! tile is simulated in a tableau of its own (a transversal CNOT would
//! join two for good; a memory workload has none), so a tile-cycle costs
//! the same on any shard. Shards buy parallelism only, and wall-clock
//! drops by at most the number of cores the shards actually get.
//!
//! The master does not clock the shards: shard 0 runs on its thread, a
//! cycle and then a window of `SHARD0_WINDOW` cycles at a time, and every
//! further shard is sent one grant for the whole `Cycles` op and, after
//! that, only the corrections its own escalations asked for. The
//! `messages … down` count of each shard says so, and is asserted.
//!
//! The runs share one `Runtime`, warmed by an untimed run first: that
//! run builds the d = 5 template MCE and lays the warm-up trail of a
//! fresh tile (its first three cycles run on the reference tableau). The
//! timed runs clone the template and follow the trail, so every one of
//! their tile-cycles is served by a compiled kernel in one pass over the
//! frame — the trail's, then the one its last cycle locked — without
//! touching a tableau. The `tile-cycles replayed` count says so, and is
//! asserted too.
//!
//! Each spec is then run a second time on the same runtime, which answers
//! every escalation from its memo of the distance's global decodes: the
//! report must be the same, and is asserted.
//!
//! ```sh
//! cargo run --release --example runtime_scaling
//! ```

use quest::runtime::{Runtime, WorkloadSpec, SHARD0_WINDOW};
use std::time::Instant;

const CYCLES: u64 = 200;

fn main() {
    let mut spec = WorkloadSpec::memory(5, 8, 1, 1e-2, 11, CYCLES);
    println!(
        "memory workload: {} tiles at d={}, p={:.0e}, {} cycles, seed {}\n",
        spec.tiles, spec.distance, spec.error_rate, CYCLES, spec.seed
    );

    let runtime = Runtime::new();
    runtime.run(&spec).expect("valid spec");
    let mut baseline = None;
    for shards in [1usize, 2, 4] {
        spec.shards = shards;
        let start = Instant::now();
        let report = runtime.run(&spec).expect("valid spec");
        let elapsed = start.elapsed();

        println!("=== {shards} shard(s): {elapsed:.2?} ===");
        println!("{}", report.stats);
        println!("bus bytes: {}\n", report.bus_bytes());

        // Preps, the grants, a correction per escalation, readouts, the
        // shutdown: shard 0 is granted one cycle and then a window at a
        // time, every further shard the op at once.
        let shard0_grants = 1 + (CYCLES - 1).div_ceil(SHARD0_WINDOW);
        for s in &report.stats.shards {
            let grants = if s.shard == 0 { shard0_grants } else { 1 };
            assert_eq!(
                s.downstream_messages,
                s.tiles as u64 + grants + s.escalations + s.tiles as u64 + 1,
                "shard {} was clocked",
                s.shard
            );
        }

        // The same run on the same runtime: every escalation is answered
        // from the memo, and nothing of it shows.
        let again = runtime.run(&spec).expect("valid spec");
        assert_eq!(again.report, report.report, "a warm rerun diverged");
        assert_eq!(
            again.stats.decode.memo_hits, again.stats.decode.jobs,
            "a repeated escalation was decoded again"
        );

        let replayed: u64 = report
            .stats
            .shards
            .iter()
            .map(|s| s.replayed_tile_cycles)
            .sum();
        assert_eq!(
            replayed,
            spec.tiles as u64 * CYCLES,
            "a tile-cycle ran on a tableau"
        );

        match baseline {
            None => baseline = Some((report.outcomes.clone(), report.bus_bytes(), elapsed)),
            Some((ref outcomes, bus_bytes, single)) => {
                assert_eq!(&report.outcomes, outcomes, "outcomes diverged");
                assert_eq!(report.bus_bytes(), bus_bytes, "bus bytes diverged");
                println!(
                    "speedup vs 1 shard: {:.2}x\n",
                    single.as_secs_f64() / elapsed.as_secs_f64()
                );
            }
        }
    }
    println!("identical outcomes and bus bytes at every shard count.");
}
