//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and where its value comes from.
//! `BENCHMARK.json` lists the same names (a test keeps them in step);
//! `perfbench/README.md` says which end-to-end metric each per-layer
//! metric should move, and on which workload.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/ref_s"),
    ("peak_rss_mb", "MB"),
    ("served_share", "share"),
    ("sim_us_per_op", "sim_us"),
    ("sim_p99_us", "sim_us"),
];

/// How a per-layer metric is computed from a traced run.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A simulated counter the workload read from the layer's public
    /// API (deterministic per seed); 0 when the workload does not drive
    /// the layer.
    Counter,
    /// Median duration of spans `layer`/`name`, scaled to the unit.
    Median(&'static str, &'static str),
    /// 99th percentile duration of spans `layer`/`name`.
    P99(&'static str, &'static str),
    /// Total duration of spans `layer`/`name` per traced iteration.
    PerIteration(&'static str, &'static str),
    /// The layer's self time per traced iteration.
    SelfTime(&'static str),
    /// Throughput of untraced iterations over traced ones, minus one, %.
    Overhead,
    /// Median operations per host (wall-clock) second, untraced.
    WallRate,
    /// Median reference seconds per host second, untraced.
    HostSpeed,
    /// Spans recorded per traced iteration.
    SpanCount,
}

use Source::*;

/// Per-layer metrics, printed by every traced run: `(name, unit, source)`.
pub const PER_LAYER: &[(&str, &str, Source)] = &[
    ("core.faults_missing", "count", Counter),
    ("core.faults_protection", "count", Counter),
    ("core.faults_cow", "count", Counter),
    ("core.crossings", "count", Counter),
    ("core.pages_migrated", "count", Counter),
    ("core.zero_fills", "count", Counter),
    ("core.translate.hit_rate", "share", Counter),
    ("core.virt_us_per_fault", "sim_us", Counter),
    (
        "core.touch_fault_host_ns.p50",
        "ns",
        Median("core", "touch_fault"),
    ),
    (
        "core.touch_fault_host_ns.p99",
        "ns",
        P99("core", "touch_fault"),
    ),
    (
        "core.touch_hit_host_ns.p50",
        "ns",
        Median("core", "touch_hit"),
    ),
    ("core.touch_hit_host_ns.p99", "ns", P99("core", "touch_hit")),
    ("core.self_ms", "ms", SelfTime("core")),
    ("managers.manager_calls", "count", Counter),
    ("managers.manager_time_us", "sim_us", Counter),
    ("managers.default.reclaimed", "count", Counter),
    ("managers.default.writebacks", "count", Counter),
    ("managers.default.swap_ins", "count", Counter),
    ("managers.default.laundry_rescues", "count", Counter),
    ("managers.default.laundry_rescue_share", "share", Counter),
    (
        "managers.tick_host_us.p50",
        "us",
        Median("managers", "tick"),
    ),
    ("managers.tick_host_us.p99", "us", P99("managers", "tick")),
    (
        "managers.machine_build_host_ms",
        "ms",
        Median("managers", "machine_build"),
    ),
    (
        "managers.shard.run_host_ms",
        "ms",
        Median("managers", "shard_run_with"),
    ),
    ("managers.shard.conserved", "bool", Counter),
    ("managers.shard.ledger_residual", "drams", Counter), // absolute value
    ("managers.market.revocations", "count", Counter),
    ("managers.market.seized", "count", Counter),
    ("managers.starved_lane_epochs", "count", Counter),
    ("managers.self_ms", "ms", SelfTime("managers")),
    ("sim.disk.reads", "count", Counter),
    ("sim.disk.writes", "count", Counter),
    ("baseline.elapsed_s", "sim_s", Counter),
    ("baseline.zero_fills", "count", Counter),
    (
        "baseline.run_host_ms",
        "ms",
        PerIteration("baseline", "run_on_ultrix"),
    ),
    ("baseline.self_ms", "ms", SelfTime("baseline")),
    ("workloads.table3_err_pct", "%", Counter),
    (
        "workloads.run_vpp_app_host_ms.diff",
        "ms",
        Median("workloads", "run_vpp_app.diff"),
    ),
    (
        "workloads.run_vpp_app_host_ms.uncompress",
        "ms",
        Median("workloads", "run_vpp_app.uncompress"),
    ),
    (
        "workloads.run_vpp_app_host_ms.latex",
        "ms",
        Median("workloads", "run_vpp_app.latex"),
    ),
    (
        "workloads.plan_host_ms",
        "ms",
        PerIteration("workloads", "plan"),
    ),
    ("workloads.self_ms", "ms", SelfTime("workloads")),
    ("dbms.lock_grants", "count", Counter),
    ("dbms.lock_waits", "count", Counter),
    ("dbms.lock_wait_share", "share", Counter),
    ("dbms.index_restorations", "count", Counter),
    ("dbms.table4_worst_err_pct", "%", Counter),
    (
        "dbms.run_host_ms.no_index",
        "ms",
        Median("dbms", "run.no_index"),
    ),
    (
        "dbms.run_host_ms.in_memory",
        "ms",
        Median("dbms", "run.in_memory"),
    ),
    (
        "dbms.run_host_ms.paging",
        "ms",
        Median("dbms", "run.paging"),
    ),
    (
        "dbms.run_host_ms.regeneration",
        "ms",
        Median("dbms", "run.regeneration"),
    ),
    ("dbms.self_ms", "ms", SelfTime("dbms")),
    ("economy.p99_us.premium", "sim_us", Counter),
    ("economy.p99_us.standard", "sim_us", Counter),
    ("economy.p99_us.spot", "sim_us", Counter),
    ("economy.peak_dram_rent", "drams", Counter),
    ("economy.demotions", "count", Counter),
    ("economy.tier_migrations", "count", Counter),
    (
        "economy.engine_config_host_ms",
        "ms",
        Median("economy", "engine_config"),
    ),
    (
        "economy.aggregate_host_ms",
        "ms",
        Median("economy", "aggregate"),
    ),
    ("economy.self_ms", "ms", SelfTime("economy")),
    ("bench.self_ms", "ms", SelfTime("bench")),
    ("bench.ops_per_host_s", "1/s", WallRate),
    ("bench.host_speed", "ref_s/s", HostSpeed),
    ("trace.overhead_pct", "%", Overhead),
    ("trace.spans_per_iteration", "count", SpanCount),
];

/// Nanoseconds per unit of a host-time metric.
pub fn ns_per_unit(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        other => panic!("{other} is not a host-time unit"),
    }
}

/// Whether `name` is a per-layer metric read from a workload counter.
pub fn is_counter(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|(n, _, s)| *n == name && matches!(s, Counter))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this catalogue prints.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
