//! The metric catalogue: every name the benchmark prints, with its unit
//! and which direction is better. `BENCHMARK.json` lists the same names.

use crate::layers::EVENT_KINDS;
use crate::timed::Hook;

/// A metric's name, unit and better direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of the default (untraced) run.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("sim_tasks_per_s", "tasks/s", "higher"),
        spec("setup_s", "s", "lower"),
        spec("peak_heap_mb", "MB", "lower"),
        spec("makespan_s", "s", "lower"),
        spec("gflops_sched", "GFlop/s", "higher"),
        spec("bytes_moved_gb", "GB", "lower"),
        spec("p50_latency_ms", "ms", "lower"),
        spec("p99_latency_ms", "ms", "lower"),
        spec("goodput_tps", "1/s", "higher"),
    ]
}

/// Ladder-rate labels of the `admit.*` metrics, one per
/// [`crate::workloads::RATES`] entry.
pub const RATE_LABELS: [&str; 4] = ["r4k", "r8k", "r12k", "r16k"];

/// Scheduler hooks reported as `sched.<hook>.{calls,ms}`.
pub const NOTIFY_HOOKS: [Hook; 5] = [
    Hook::OnLoadIssued,
    Hook::OnDataLoaded,
    Hook::OnDataEvicted,
    Hook::OnTaskComplete,
    Hook::OnTaskArrival,
];

/// Metrics of the traced run, layer by layer.
pub fn per_layer() -> Vec<Spec> {
    let mut m = vec![
        spec("workloads.generate_ms", "ms", "lower"),
        spec("sched.prepare_ms", "ms", "lower"),
        spec("sched.pop_task.calls", "count", "lower"),
        spec("sched.pop_task.ms", "ms", "lower"),
        spec("sched.pop_task.p50_ns", "ns", "lower"),
        spec("sched.pop_task.p99_ns", "ns", "lower"),
        spec("sched.pop_task.none_frac", "share", "lower"),
        spec("sched.choose_victim.calls", "count", "lower"),
        spec("sched.choose_victim.ms", "ms", "lower"),
        spec("sched.choose_victim.fallback_frac", "share", "lower"),
    ];
    for hook in NOTIFY_HOOKS {
        m.push(spec(
            format!("sched.{}.calls", hook.name()),
            "count",
            "lower",
        ));
        m.push(spec(format!("sched.{}.ms", hook.name()), "ms", "lower"));
    }
    m.extend([
        spec("sched.hook_share", "share", "lower"),
        spec("sched.prepare_share", "share", "lower"),
        spec("engine.self_ms", "ms", "lower"),
        spec("engine.self_share", "share", "lower"),
        spec("engine.events", "count", "lower"),
        spec("engine.ns_per_event", "ns", "lower"),
    ]);
    for kind in EVENT_KINDS {
        m.push(spec(format!("engine.events.{kind}"), "count", "lower"));
    }
    m.extend([
        spec("missing_cache.updates", "count", "lower"),
        spec("mem.loads", "count", "lower"),
        spec("mem.evictions", "count", "lower"),
        spec("mem.refetch_frac", "share", "lower"),
        spec("mem.bytes_over_compulsory", "ratio", "lower"),
    ]);
    for rate in RATE_LABELS {
        m.extend([
            spec(format!("admit.{rate}.deferred_frac"), "share", "lower"),
            spec(format!("admit.{rate}.shed"), "count", "lower"),
            spec(format!("admit.{rate}.expired"), "count", "lower"),
            spec(format!("admit.{rate}.failed_frac"), "share", "lower"),
            spec(format!("admit.{rate}.p99_queueing_ms"), "ms", "lower"),
        ]);
    }
    m.extend([
        spec("admit.max_rate_at_slo", "1/s", "higher"),
        spec("gpu.busy_frac", "share", "higher"),
        spec("gpu.stall_frac", "share", "lower"),
        spec("gpu.idle_frac", "share", "lower"),
        spec("bus.util", "share", "lower"),
        spec("cache.hit_rate", "share", "higher"),
        spec("load.imbalance", "ratio", "lower"),
        spec("trace.checksum_overhead", "ratio", "lower"),
        spec("trace.full_overhead", "ratio", "lower"),
        spec("obs.overhead", "ratio", "lower"),
        spec("obs.events", "count", "lower"),
        spec("host.allocs", "count", "lower"),
    ]);
    m
}
