//! The metric names the binary prints, in one place: `BENCHMARK.json`
//! must list exactly these (a unit test compares the two).

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every workload with `--trace 0`. Exact definitions are in
/// `README.md`.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("work_per_s", "work/s", "higher"),
    def("work_per_calib", "work/calib", "higher"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Printed by every workload with `--trace 1`.
pub const PER_LAYER: [MetricDef; 37] = [
    def("pass.simulate_share", "share", "higher"),
    def("pass.decode_share", "share", "lower"),
    def("pass.orchestrate_share", "share", "lower"),
    def("trace.pass_ratio", "ratio", "lower"),
    def("trace.selfsum_ratio", "ratio", "lower"),
    def("k.stabilizer.frame_x8_ns_per_shot_round", "ns", "lower"),
    def("k.stabilizer.frame_x1_ns_per_shot_round", "ns", "lower"),
    def("k.stabilizer.tableau_round_us", "us", "lower"),
    def("k.surface.sampler_build_ms", "ms", "lower"),
    def("k.surface.null_decode_ns_per_shot", "ns", "lower"),
    def("k.surface.uf_sparse_ns_per_shot", "ns", "lower"),
    def("k.surface.uf_planes_ns_per_shot", "ns", "lower"),
    def("k.surface.backend.union-find.ns_per_decode", "ns", "lower"),
    def(
        "k.surface.backend.union-find.cycles_per_decode",
        "cycles",
        "lower",
    ),
    def(
        "k.surface.backend.union-find.native_share",
        "share",
        "higher",
    ),
    def("k.surface.backend.exact.ns_per_decode", "ns", "lower"),
    def(
        "k.surface.backend.exact.cycles_per_decode",
        "cycles",
        "lower",
    ),
    def("k.surface.backend.exact.native_share", "share", "higher"),
    def("k.surface.backend.table.ns_per_decode", "ns", "lower"),
    def(
        "k.surface.backend.table.cycles_per_decode",
        "cycles",
        "lower",
    ),
    def("k.surface.backend.table.native_share", "share", "higher"),
    def(
        "k.surface.backend.pipelined-uf.ns_per_decode",
        "ns",
        "lower",
    ),
    def(
        "k.surface.backend.pipelined-uf.cycles_per_decode",
        "cycles",
        "lower",
    ),
    def(
        "k.surface.backend.pipelined-uf.native_share",
        "share",
        "higher",
    ),
    def("k.core.mce_cycle_us", "us", "lower"),
    def("k.core.reference_tile_cycle_us", "us", "lower"),
    def("k.core.delivery_ns_per_instr", "ns", "lower"),
    def("k.core.bus_bytes_per_tile_cycle", "bytes", "lower"),
    def("k.runtime.cycle_overhead_us", "us", "lower"),
    def("k.runtime.spawn_teardown_ms", "ms", "lower"),
    def("k.runtime.cycle_p50_us", "us", "lower"),
    def("k.runtime.cycle_p99_us", "us", "lower"),
    def("k.runtime.shard2_speedup", "ratio", "higher"),
    def("k.serve.submit_us", "us", "lower"),
    def("k.serve.job_overhead_ms", "ms", "lower"),
    def("k.serve.queue_p50_ms", "ms", "lower"),
    def("k.serve.run_p50_ms", "ms", "lower"),
];
