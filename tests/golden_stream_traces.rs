//! Golden traces for the online serving mode: the same tiny workload as
//! `golden_traces.rs`, but fed through the admission loop on a fixed
//! seeded Poisson arrival trace. The snapshot pins the full event stream
//! — arrivals, admissions, defers, loads, evictions, task execution — so
//! any change to the admission loop, to a scheduler's horizon-limited
//! variant, or to stream event ordering shows up as a readable diff.
//!
//! To regenerate after an intentional change:
//! `MEMSCHED_UPDATE_GOLDEN=1 cargo test --test golden_stream_traces`.
//!
//! The last test is the zero-cost assertion: running the *batch* golden
//! workload online with every arrival at t = 0 must reproduce the batch
//! snapshot (`tests/golden/eager.trace`) exactly once the admission
//! bookkeeping lines are dropped — the serving mode costs nothing when
//! the horizon is full.

mod common;

use common::{check_golden, render_batch_golden, render_event, run_validated};
use memsched::platform::TraceEvent;
use memsched::prelude::*;
use memsched::workloads::constants::GEMM2D_DATA_BYTES;
use memsched::workloads::prefix::{prefix_tree, PrefixConfig};
use memsched::workloads::{gemm_2d, open_loop_arrivals, ArrivalPattern};

/// The batch golden workload with a fixed Poisson stream stamped on it:
/// gemm_2d(3) on 2 V100s at M = 4 tiles, arrivals at 2000 req/s from
/// seed 42 — slow enough that the horizon is genuinely partial, fast
/// enough that queues form.
fn stream_workload() -> (TaskSet, PlatformSpec) {
    let base = gemm_2d(3);
    let arrivals = open_loop_arrivals(
        &ArrivalPattern::Poisson {
            rate_per_sec: 2000.0,
        },
        42,
        base.num_tasks(),
    );
    let ts = base.with_arrivals(arrivals);
    let spec = PlatformSpec::v100(2).with_memory(4 * GEMM2D_DATA_BYTES);
    (ts, spec)
}

/// The router golden rides its native workload: a tiny seeded prefix
/// tree (depth 3 × fanout 2 — 14 nodes, 8 leaves) streamed at the same
/// Poisson rate, with memory tight enough that evictions appear in the
/// snapshot and pin `choose_victim` alongside the routing decisions.
fn prefix_stream_workload() -> (TaskSet, PlatformSpec) {
    let cfg = PrefixConfig {
        depth: 3,
        fanout: 2,
        tasks: 16,
        item_bytes: 1 << 20,
        zipf_s: 1.1,
        seed: 42,
    };
    let base = prefix_tree(&cfg);
    let arrivals = open_loop_arrivals(
        &ArrivalPattern::Poisson {
            rate_per_sec: 2000.0,
        },
        42,
        base.num_tasks(),
    );
    let ts = base.with_arrivals(arrivals);
    let spec = PlatformSpec::v100(2).with_memory(5 * cfg.item_bytes);
    (ts, spec)
}

fn render_stream_trace_on(
    named: &NamedScheduler,
    (ts, spec): (TaskSet, PlatformSpec),
    workload_line: &str,
) -> String {
    let config = RunConfig {
        trace: TraceMode::Full,
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    let (report, trace) = run_validated(&ts, &spec, named.build().as_mut(), &config);
    let mut out = format!(
        "# scheduler: {} (online)\n# workload: {workload_line}\n",
        report.scheduler
    );
    for ev in &trace {
        out.push_str(&render_event(ev));
        out.push('\n');
    }
    let stats = report.online.expect("stream run reports online stats");
    out.push_str(&format!(
        "# makespan={} loads={} evictions={} admitted={} deferred={} p50_latency={} p99_latency={}\n",
        report.makespan,
        report.total_loads,
        report.total_evictions,
        stats.tasks_admitted,
        stats.tasks_deferred,
        stats.p50_latency,
        stats.p99_latency,
    ));
    out
}

fn render_stream_trace(named: &NamedScheduler) -> String {
    render_stream_trace_on(
        named,
        stream_workload(),
        "gemm_2d(3) + poisson(2000/s, seed 42), 2x V100, M = 4 tiles",
    )
}

#[test]
fn golden_stream_eager() {
    check_golden(
        "eager.stream.trace",
        &render_stream_trace(&NamedScheduler::Eager),
    );
}

#[test]
fn golden_stream_dmdar() {
    check_golden(
        "dmdar.stream.trace",
        &render_stream_trace(&NamedScheduler::Dmdar),
    );
}

#[test]
fn golden_stream_mhfp() {
    check_golden(
        "mhfp.stream.trace",
        &render_stream_trace(&NamedScheduler::Mhfp),
    );
}

#[test]
fn golden_stream_darts_luf() {
    check_golden(
        "darts_luf.stream.trace",
        &render_stream_trace(&NamedScheduler::DartsLuf),
    );
}

/// The router family, on its native workload: a seeded prefix-tree
/// stream under memory pressure. Pins the `recomp + α·load` routing
/// decisions, the LUF-or-LRU eviction choices and the admission
/// interleaving in one readable snapshot.
#[test]
fn golden_stream_router() {
    let got = render_stream_trace_on(
        &NamedScheduler::Router,
        prefix_stream_workload(),
        "prefix(depth=3,fanout=2,tasks=16,seed=42) + poisson(2000/s, seed 42), \
         2x V100, M = 5 MiB",
    );
    check_golden("router.stream.trace", &got);
}

/// Zero-cost assertion: the batch golden snapshot is reproduced by an
/// online run whose arrivals are all at t = 0, admission lines aside.
/// This pins — in CI, against the checked-in batch snapshot — that
/// enabling the serving mode cannot perturb offline results.
#[test]
fn online_t0_reproduces_batch_golden() {
    let ts = gemm_2d(3).with_arrivals(vec![0; 9]);
    let spec = PlatformSpec::v100(2).with_memory(4 * GEMM2D_DATA_BYTES);
    let config = RunConfig {
        trace: TraceMode::Full,
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    let mut sched = NamedScheduler::Eager.build();
    let (report, trace) = run_validated(&ts, &spec, sched.as_mut(), &config);
    let decisions = trace.iter().filter(|ev| {
        !matches!(
            ev,
            TraceEvent::TaskArrived { .. }
                | TraceEvent::TaskAdmitted { .. }
                | TraceEvent::TaskDeferred { .. }
        )
    });
    let got = render_batch_golden(&report, decisions);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/eager.trace");
    let want = std::fs::read_to_string(path).expect("batch golden snapshot");
    assert_eq!(
        got, want,
        "t=0 online EAGER run does not reproduce the batch golden trace"
    );
}
