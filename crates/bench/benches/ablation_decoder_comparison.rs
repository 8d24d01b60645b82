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
//!   exact matching (validates DESIGN.md substitution #3);
//! * the pipelined-UF hardware model reproduces software union-find's
//!   error rate *bit-for-bit* — it is the same matching, only costed.

use quest_bench::{header, row};
use quest_stabilizer::{SeedableRng, StdRng};
use quest_surface::decoder::{Correction, CostReport, DecodeEngine, Decoder, DecoderChoice};
use quest_surface::{DecodingGraph, MemoryBasis, MemoryExperiment, MemoryNoise, NodeId};
use std::cell::RefCell;
use std::io::Write as _;

const SHOTS: usize = 400;
const SEED: u64 = 77;
const POINTS: [(usize, f64); 3] = [(3, 5e-3), (3, 1e-2), (5, 5e-3)];

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
    write_report(&samples);
}

/// Emits the measurements as a small JSON report for CI trend tracking.
/// Written by hand (no serde in the workspace): a flat object with one
/// array of per-backend samples.
fn write_report(samples: &[Sample]) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"shots_per_point\": {SHOTS},\n"));
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"distance\": {}, \"p\": {:e}, \
             \"logical_rate\": {:e}, \"decodes\": {}, \"fallback_decodes\": {}, \
             \"cycles\": {}, \"max_decode_cycles\": {}, \"jj_count\": {}}}{sep}\n",
            s.backend,
            s.distance,
            s.p,
            s.logical_rate,
            s.cost.decodes,
            s.cost.fallback_decodes,
            s.cost.cycles,
            s.cost.max_decode_cycles,
            s.cost.jj_count
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::File::create(REPORT_PATH).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_decoder_backends.json"),
        Err(e) => println!("could not write BENCH_decoder_backends.json: {e}"),
    }
}
