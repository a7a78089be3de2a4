//! The metric tables: every name the result line can carry, with its
//! unit and direction. `BENCHMARK.json` lists the same names — a unit
//! test keeps the two from drifting apart.

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the lab waits for or pays; printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s", "lower"),
    m("exp_per_s", "1/s", "higher"),
    m("exp_p50_ms", "ms", "lower"),
    m("exp_p90_ms", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer probes and counts; printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 61] = [
    m("protowire.encode_shared_ns", "ns", "lower"),
    m("protowire.decode_ns", "ns", "lower"),
    m("etcd.put_ns.mem", "ns", "lower"),
    m("etcd.get_ns.mem", "ns", "lower"),
    m("etcd.range_ns.mem", "ns", "lower"),
    m("etcd.events_since_ns.mem", "ns", "lower"),
    m("etcd.fork_us.mem", "us", "lower"),
    m("etcd.put_ns.log", "ns", "lower"),
    m("etcd.get_ns.log", "ns", "lower"),
    m("etcd.range_ns.log", "ns", "lower"),
    m("etcd.events_since_ns.log", "ns", "lower"),
    m("etcd.fork_us.log", "us", "lower"),
    m("etcd.compact_us.log", "us", "lower"),
    m("etcd.commits_per_exp", "count", "lower"),
    m("etcd.disk_used_kb_max", "KiB", "lower"),
    m("etcd.writes_rejected_per_exp", "count", "lower"),
    m("apiserver.create_ns", "ns", "lower"),
    m("apiserver.update_ns", "ns", "lower"),
    m("apiserver.list_ns", "ns", "lower"),
    m("apiserver.poll_events_ns", "ns", "lower"),
    m("apiserver.fork_us", "us", "lower"),
    m("apiserver.decode_cache_hit_rate", "ratio", "higher"),
    m("apiserver.requests_per_exp", "count", "lower"),
    m("apiserver.cached_objects_max", "count", "lower"),
    m("kcm.step_idle_ns", "ns", "lower"),
    m("kcm.step_busy_us", "us", "lower"),
    m("scheduler.step_idle_ns", "ns", "lower"),
    m("scheduler.step_busy_us", "us", "lower"),
    m("kubelet.step_idle_ns", "ns", "lower"),
    m("kubelet.step_busy_us", "us", "lower"),
    m("netsim.refresh_ns", "ns", "lower"),
    m("netsim.request_ns", "ns", "lower"),
    m("cluster.prefix_build_ms", "ms", "lower"),
    m("cluster.fork_us", "us", "lower"),
    m("cluster.window_ms", "ms", "lower"),
    m("cluster.slice_p50_us", "us", "lower"),
    m("cluster.slice_max_us", "us", "lower"),
    m("cluster.idle_window_ms", "ms", "lower"),
    m("cluster.idle_window_share", "ratio", "lower"),
    m("cluster.idle_tick_est_ms", "ms", "lower"),
    m("faults.record_ms", "ms", "lower"),
    m("faults.plan_ms", "ms", "lower"),
    m("faults.specs_planned", "count", "higher"),
    m("core.golden_run_ms", "ms", "lower"),
    m("core.run_world_ms", "ms", "lower"),
    m("core.classify_us", "us", "lower"),
    m("core.timeline_us", "us", "lower"),
    m("core.run_world_self_share", "ratio", "higher"),
    m("core.fork_snapshots", "count", "lower"),
    m("core.fork_hit_rate", "ratio", "higher"),
    m("core.parallel_efficiency", "ratio", "higher"),
    m("core.tail_time_share", "ratio", "lower"),
    m("core.exp_p99_ms", "ms", "lower"),
    m("core.exp_max_ms", "ms", "lower"),
    m("core.failed_share", "ratio", "lower"),
    m("core.rows_digest_changed", "count", "lower"),
    m("bench.render_us_per_row", "us", "lower"),
    m("bench.roundtrip_us_per_row", "us", "lower"),
    m("telemetry.on_overhead_share", "ratio", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.span_coverage_min", "ratio", "higher"),
];
