//! Ablation — every pluggable decoder backend on identical noise.
//!
//! The paper's master controller runs Fowler's MWPM; we substitute the
//! union-find decoder and must show the substitution preserves
//! behaviour. With `DecoderChoice` the comparison widens to all four
//! decode engines on the same shots: accuracy (logical error rate),
//! modelled decode cycles, and the hardware-model JJ budget, emitted as
//! `BENCH_decoder_backends.json` at the repo root for trend tracking.
//!
//! Invariants asserted per operating point:
//!
//! * every backend's logical error rate is within statistical noise of
//!   exact matching (validates the MWPM substitution of DESIGN.md §1);
//! * the pipelined-UF hardware model reproduces software union-find's
//!   error rate *bit-for-bit* — it is the same matching, only costed.
//!
//! The memory experiment's graphs span `rounds + 1` rounds, which the
//! lookup-table backend does not tabulate: every `table` sample there is
//! its union-find fallback. The global decoder of a running system
//! decodes single-round escalations, so a second set of samples prices
//! each backend on those — the `decode_cost` of
//! [`run_reference`] on an escalation-heavy memory workload — where the
//! table must decode natively.

use quest_bench::{header, row};
use quest_runtime::{run_reference, WorkloadSpec};
use quest_stabilizer::{SeedableRng, StdRng};
use quest_surface::decoder::{Correction, CostReport, DecodeEngine, Decoder, DecoderChoice};
use quest_surface::{DecodingGraph, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId};
use std::cell::RefCell;
use std::io::Write as _;

const SHOTS: usize = 400;
const SEED: u64 = 77;
const POINTS: [(usize, f64); 3] = [(3, 5e-3), (3, 1e-2), (5, 5e-3)];
/// Single-round operating points: `(d, p)` of a memory run of
/// `ESCALATION_TILES` tiles and `ESCALATION_CYCLES` cycles on the
/// reference executor. At d = 3 the MCE's lookup decoder resolves every
/// single-round syndrome itself, so nothing escalates.
const ESCALATION_POINTS: [(usize, f64); 2] = [(5, 1e-2), (5, 2e-2)];
const ESCALATION_TILES: usize = 8;
const ESCALATION_CYCLES: u64 = 200;

/// Committed snapshot lives at the repo root (two levels above this
/// package), so the path is the same wherever cargo sets the CWD.
const REPORT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_decoder_backends.json"
);

/// Adapts the stateful [`DecodeEngine`] to the read-only [`Decoder`]
/// trait the memory experiment samples through. The engine's cost
/// ledger accumulates across every decode the experiment issues and is
/// read back after the run.
struct BackendAdapter(RefCell<DecodeEngine>);

impl BackendAdapter {
    fn new(choice: DecoderChoice) -> BackendAdapter {
        BackendAdapter(RefCell::new(choice.backend()))
    }

    fn cost(&self) -> CostReport {
        self.0.borrow().cost()
    }
}

impl Decoder for BackendAdapter {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.0.borrow_mut().decode(graph, events)
    }
}

/// One backend's measurement at one operating point.
struct Sample {
    backend: &'static str,
    distance: usize,
    p: f64,
    logical_rate: f64,
    cost: CostReport,
}

/// One backend's global decodes over one reference run.
struct EscalationSample {
    backend: &'static str,
    distance: usize,
    p: f64,
    escalations: u64,
    cost: CostReport,
}

fn main() {
    header(
        "Ablation: decoder backends — accuracy, cycles and JJ budget",
        "every backend preserves decoding quality; the pipelined-UF model matches software UF exactly",
    );
    row(&[
        "backend", "d", "p", "p_L", "decodes", "cycles", "max cyc", "JJs",
    ]);
    let mut samples: Vec<Sample> = Vec::new();
    for (d, p) in POINTS {
        let exp = MemoryExperiment::new(d, 2, MemoryBasis::Z);
        let noise = MemoryNoise::code_capacity(p);
        let mut rates = Vec::new();
        for choice in DecoderChoice::ALL {
            let adapter = BackendAdapter::new(choice);
            let mut rng = StdRng::seed_from_u64(SEED);
            let rate = exp.logical_error_rate(&noise, &adapter, SHOTS, &mut rng);
            let cost = adapter.cost();
            row(&[
                choice.name(),
                &d.to_string(),
                &format!("{p:.0e}"),
                &format!("{rate:.4}"),
                &cost.decodes.to_string(),
                &cost.cycles.to_string(),
                &cost.max_decode_cycles.to_string(),
                &cost.jj_count.to_string(),
            ]);
            rates.push((choice, rate));
            samples.push(Sample {
                backend: choice.name(),
                distance: d,
                p,
                logical_rate: rate,
                cost,
            });
        }
        let find = |c: DecoderChoice| {
            rates
                .iter()
                .find(|&&(ch, _)| ch == c)
                .map_or(f64::NAN, |&(_, r)| r)
        };
        let exact = find(DecoderChoice::Exact);
        for &(choice, rate) in &rates {
            assert!(
                (rate - exact).abs() < 0.05,
                "{choice} diverged from exact matching: {rate} vs {exact} at d={d}, p={p}"
            );
        }
        // The hardware model is the same matching, only costed: its
        // failures must be *identical* to software union-find's, not
        // merely statistically close.
        let uf = find(DecoderChoice::UnionFind);
        let pipelined = find(DecoderChoice::PipelinedUf);
        assert!(
            uf == pipelined,
            "pipelined-UF must reproduce union-find bit-for-bit: {pipelined} vs {uf} at d={d}"
        );
    }
    println!();
    println!(
        "check: all backends track exact matching within statistical noise; \
         pipelined-uf == union-find exactly"
    );
    let escalation_samples = escalations();
    write_report(&samples, &escalation_samples);
}

/// Every backend's global decodes of single-round escalations: the
/// `decode_cost` of one reference memory run per operating point.
fn escalations() -> Vec<EscalationSample> {
    println!();
    row(&[
        "backend", "d", "p", "escal.", "decodes", "fallback", "cycles", "JJs",
    ]);
    let mut samples = Vec::new();
    for (d, p) in ESCALATION_POINTS {
        for choice in DecoderChoice::ALL {
            let spec = WorkloadSpec {
                decoder: choice,
                ..WorkloadSpec::memory(d, ESCALATION_TILES, 1, p, SEED, ESCALATION_CYCLES)
            };
            let report = run_reference(&spec).expect("a valid reference spec");
            let cost = report.decode_cost;
            row(&[
                choice.name(),
                &d.to_string(),
                &format!("{p:.0e}"),
                &report.escalations.to_string(),
                &cost.decodes.to_string(),
                &cost.fallback_decodes.to_string(),
                &cost.cycles.to_string(),
                &cost.jj_count.to_string(),
            ]);
            assert!(
                report.escalations > 0,
                "{choice} at d={d}: nothing escalated"
            );
            assert_eq!(
                cost.decodes + cost.fallback_decodes,
                report.escalations,
                "{choice} at d={d}: one global decode per escalation"
            );
            if choice == DecoderChoice::Table {
                assert!(
                    cost.decodes > 0,
                    "table at d={d}: single-round escalations must decode natively"
                );
            }
            samples.push(EscalationSample {
                backend: choice.name(),
                distance: d,
                p,
                escalations: report.escalations,
                cost,
            });
        }
    }
    println!();
    println!("check: the table decodes single-round escalations natively");
    samples
}

/// Emits the measurements as a small JSON report for CI trend tracking.
/// Written by hand (no serde in the workspace): a flat object with an
/// array of per-backend memory-experiment samples, then one of
/// per-backend single-round escalation samples.
fn write_report(samples: &[Sample], escalation_samples: &[EscalationSample]) {
    let samples: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"backend\": \"{}\", \"distance\": {}, \"p\": {:e}, \
                 \"logical_rate\": {:e}, {}}}",
                s.backend,
                s.distance,
                s.p,
                s.logical_rate,
                cost_fields(&s.cost)
            )
        })
        .collect();
    let escalation_samples: Vec<String> = escalation_samples
        .iter()
        .map(|s| {
            format!(
                "{{\"backend\": \"{}\", \"distance\": {}, \"p\": {:e}, \
                 \"escalations\": {}, {}}}",
                s.backend,
                s.distance,
                s.p,
                s.escalations,
                cost_fields(&s.cost)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"seed\": {SEED},\n  \"shots_per_point\": {SHOTS},\n{},\n  \
         \"escalation_tiles\": {ESCALATION_TILES},\n  \
         \"escalation_cycles\": {ESCALATION_CYCLES},\n{}\n}}\n",
        json_array("samples", &samples),
        json_array("escalation_samples", &escalation_samples)
    );
    match std::fs::File::create(REPORT_PATH).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_decoder_backends.json"),
        Err(e) => println!("could not write BENCH_decoder_backends.json: {e}"),
    }
}

/// A cost ledger's fields, as JSON members.
fn cost_fields(cost: &CostReport) -> String {
    format!(
        "\"decodes\": {}, \"fallback_decodes\": {}, \"cycles\": {}, \
         \"max_decode_cycles\": {}, \"jj_count\": {}",
        cost.decodes, cost.fallback_decodes, cost.cycles, cost.max_decode_cycles, cost.jj_count
    )
}

/// A named array member with one row per line.
fn json_array(name: &str, rows: &[String]) -> String {
    format!("  \"{name}\": [\n    {}\n  ]", rows.join(",\n    "))
}
