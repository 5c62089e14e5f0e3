//! Stream-invariant tests for the online serving mode, across all six
//! scheduler families (the per-run rules are
//! `memsched_platform::validate`'s):
//!
//! * random fault-free streams, and random streams with a mid-stream
//!   capacity shrink, pass the scenario fuzzer's check: causality,
//!   exactly-once outcomes and occupancy within the evolving capacity,
//!   on a deterministic rerun;
//! * the same seed replays a byte-identical event stream, including when
//!   the runs are distributed over 1, 2 or 8 pool workers;
//! * a mid-stream fail-stop under the admission loop and a 1k-task
//!   Poisson stream both pass the validator for every family;
//! * a fault-stranded deferral is shed under a shedding policy and
//!   stalls `DeferOnly`;
//! * at 2× overload, priority shedding keeps the p99 latency of admitted
//!   tasks within a fixed multiple of the underloaded baseline, and
//!   defer-only queueing does not.

mod common;

use common::{check_scenario, run_validated, small_spec, Faults, Scenarios};
use memsched::experiments::pool;
use memsched::platform::obs::Metrics;
use memsched::platform::{validate, RunConfig, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::FAMILIES;
use memsched::workloads::{deadline_stamps, gemm_2d, open_loop_arrivals, ArrivalPattern};
use proptest::prelude::*;

fn online_config() -> RunConfig {
    RunConfig {
        trace: TraceMode::Full,
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Causality and exactly-once outcomes on random fault-free streams:
    /// arrivals are time-ordered, no admit or start precedes the task's
    /// arrival, every task is admitted or dropped once and every admitted
    /// task starts and finishes exactly once, and the same seed replays
    /// the identical stream — the scenario fuzzer's check on its online
    /// fault-free slice.
    #[test]
    fn online_stream_causality(s in Scenarios { online: Some(true), faults: Faults::None }) {
        check_scenario(&s)?;
    }

    /// Mid-stream capacity shrink: occupancy (resident + in-flight) never
    /// exceeds the evolving per-GPU capacity while tasks are still
    /// arriving, and every arrival still has exactly one outcome.
    #[test]
    fn online_occupancy_respects_midstream_shrink(
        s in Scenarios { online: Some(true), faults: Faults::Shrink },
    ) {
        check_scenario(&s)?;
    }
}

/// The pool must not influence results: the same seeded Poisson stream
/// dispatched over 1, 2 and 8 workers yields byte-identical traces per
/// family (the worker count only changes wall-clock, never decisions).
#[test]
fn same_seed_streams_identical_across_worker_counts() {
    let ts = {
        let base = gemm_2d(5);
        let arrivals = open_loop_arrivals(
            &ArrivalPattern::Poisson {
                rate_per_sec: 800.0,
            },
            42,
            base.num_tasks(),
        );
        base.with_arrivals(arrivals)
    };
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let config = online_config();
    let run_all = |jobs: usize| -> Vec<String> {
        pool::run_indexed(&FAMILIES, jobs, |_, named| {
            let (report, trace) = run_validated(&ts, &spec, named.build().as_mut(), &config);
            format!("{}:{:?}", report.makespan, trace)
        })
    };
    let one = run_all(1);
    let two = run_all(2);
    let eight = run_all(8);
    assert_eq!(one, two, "streams diverge between 1 and 2 workers");
    assert_eq!(one, eight, "streams diverge between 1 and 8 workers");
}

/// Regression for the `serve --faults` composition gap: a mid-stream
/// fail-stop under the admission loop. Every task — including tasks
/// admitted to (or already running on) the failed GPU — completes
/// exactly once on the survivor, nothing starts on the dead GPU, and
/// nothing is shed under the default `DeferOnly` policy: the run passes
/// the validator.
#[test]
fn midstream_failstop_with_admission_completes_exactly_once() {
    let ts = {
        let base = gemm_2d(4); // 16 tasks
        let arrivals = open_loop_arrivals(
            &ArrivalPattern::Poisson {
                rate_per_sec: 2000.0,
            },
            7,
            base.num_tasks(),
        );
        base.with_arrivals(arrivals)
    };
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let config = RunConfig {
        // Mid-stream: ~4 of 16 mean inter-arrivals in.
        faults: FaultPlan::none().with_gpu_failure(1, 2_000_000),
        ..online_config()
    };
    for named in FAMILIES {
        let (report, _) = run_validated(&ts, &spec, named.build().as_mut(), &config);
        assert_eq!(
            report.gpu_failures, 1,
            "{named:?}: the failure must land mid-stream"
        );
    }
}

/// Regression for `recheck_deferred_after_fault` + `shed_unfit_deferred`:
/// a capacity shrink strands a deferred task whose footprint no longer
/// fits any GPU. Under a shedding policy the task is shed and the run
/// completes gracefully and passes the validator; under the
/// default `DeferOnly` the same run reports `SchedulerStuck` — the
/// pre-overload-control behaviour, pinned here on purpose.
#[test]
fn fault_stranded_deferred_task_shed_under_policy_stuck_under_defer_only() {
    let mut b = TaskSetBuilder::new();
    let data: Vec<DataId> = (0..4).map(|_| b.add_data(1)).collect();
    b.add_task(&data[..1], 1000.0); // task 0: 1 item, ~1 ms of compute
    b.add_task(&data[1..4], 1000.0); // task 1: 3 items — unfit after shrink
    let ts = b.build().with_arrivals(vec![0, 100]);
    let spec = small_spec(2, 4);
    // Backlog bound 1 keeps task 1 deferred behind task 0; at t = 0.2 ms
    // both GPUs shrink to 2 items, stranding its 3-item footprint.
    let config_for = |policy: ShedPolicy| RunConfig {
        trace: TraceMode::Full,
        admission: Some(AdmissionConfig {
            max_backlog: Some(1),
            policy,
        }),
        faults: FaultPlan::none()
            .with_capacity_shrink(0, 200_000, 2)
            .with_capacity_shrink(1, 200_000, 2),
        ..RunConfig::default()
    };

    for policy in [ShedPolicy::DeadlineShed, ShedPolicy::PriorityShed] {
        let config = config_for(policy);
        let mut sched = NamedScheduler::Eager.build();
        let (report, trace) = run_validated(&ts, &spec, sched.as_mut(), &config);
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted, 1, "{policy:?}");
        assert_eq!(stats.tasks_shed, 1, "{policy:?}");
        assert!(
            trace.contains(&TraceEvent::TaskShed {
                at: 200_000,
                task: 1
            }),
            "{policy:?}: stranded deferral must surface as TaskShed at the shrink"
        );
    }

    let mut sched = NamedScheduler::Eager.build();
    let err = memsched::platform::run_with_config(
        &ts,
        &spec,
        sched.as_mut(),
        &config_for(ShedPolicy::DeferOnly),
    )
    .expect_err("DeferOnly has no way out of a stranded deferral");
    assert!(
        matches!(
            err,
            RunError::SchedulerStuck {
                completed: 1,
                total: 2
            }
        ),
        "unexpected error: {err:?}"
    );
}

/// Acceptance sweep: every family digests a 1k-task Poisson stream, the
/// serving histograms land in the metrics registry (one latency and one
/// queueing-delay sample per completed task), and the stream's trace is
/// the projection of its observed events.
#[test]
fn all_families_complete_1k_task_poisson_stream() {
    let ts = {
        let base = gemm_2d(32); // 1024 tasks
        let arrivals = open_loop_arrivals(
            &ArrivalPattern::Poisson {
                rate_per_sec: 4000.0,
            },
            7,
            base.num_tasks(),
        );
        base.with_arrivals(arrivals)
    };
    let n = ts.num_tasks() as u64;
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(16 * tile);
    let config = online_config();
    for named in FAMILIES {
        let mut sched = named.build();
        let probe = Probe::unbounded();
        let (report, trace) =
            run_observed(&ts, &spec, sched.as_mut(), &config, &probe).expect("1k stream");
        if let Err(v) = validate(&ts, &spec, &config, &trace, &report) {
            panic!("{named:?}: {v}");
        }
        let events = probe.events();
        let projected: Vec<TraceEvent> = events.iter().filter_map(TraceEvent::from_obs).collect();
        assert_eq!(projected, trace, "{named:?}");
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted, n, "{named:?}");
        assert!(stats.p50_latency > 0, "{named:?}: empty latency histogram");
        assert!(stats.p50_latency <= stats.p99_latency, "{named:?}");
        assert!(stats.throughput_tps > 0.0, "{named:?}");

        let mut metrics = Metrics::new();
        metrics.ingest(&events);
        assert_eq!(metrics.task_latency().count(), n, "{named:?}");
        assert_eq!(metrics.queueing_delay().count(), n, "{named:?}");
    }
}

/// p99 admitted-task latency under 2× overload with `PriorityShed` must
/// stay within this multiple of the underloaded `DeferOnly` baseline.
const P99_BOUND_MULTIPLE: f64 = 10.0;

/// Overload control bounds the tail: the same Poisson stream of
/// DMDAR-scheduled 2D-GEMM tiles runs at half and at twice the platform's
/// service capacity. At 2× overload `PriorityShed` keeps the p99 latency
/// of admitted tasks within [`P99_BOUND_MULTIPLE`] of the underloaded
/// `DeferOnly` baseline, while `DeferOnly`, which queues every arrival,
/// blows past that same bound. Both sides are simulated, so the bound is
/// exact for every run.
#[test]
fn priority_shedding_bounds_p99_at_2x_overload() {
    for n in [16, 32] {
        let base = gemm_2d(n);
        let m = base.num_tasks();
        let tile = base.data_size(DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(4 * tile);
        // Service capacity: a batch run (every arrival at t = 0)
        // saturates the platform, so tasks/makespan is the sustainable
        // rate with transfers and memory pressure included.
        let (batch, _) = run_with_config(
            &base,
            &spec,
            NamedScheduler::Dmdar.build().as_mut(),
            &RunConfig::default(),
        )
        .expect("capacity probe");
        let capacity_tps = m as f64 / (batch.makespan as f64 / 1e9);
        // Deadlines allow about twenty queued services per task.
        let service_ns = (2e9 / capacity_tps).max(1.0) as u64;
        let stream = |rate_per_sec: f64| {
            let arrivals = open_loop_arrivals(&ArrivalPattern::Poisson { rate_per_sec }, 42, m);
            base.clone()
                .with_arrivals(arrivals)
                .with_deadlines(deadline_stamps(m, 20 * service_ns, 1.0, 42 ^ 0xD00D))
        };
        let serve = |ts: &TaskSet, policy: ShedPolicy| -> OnlineStats {
            let config = RunConfig {
                admission: Some(AdmissionConfig {
                    max_backlog: Some(8),
                    policy,
                }),
                ..RunConfig::default()
            };
            let (report, _) =
                run_with_config(ts, &spec, NamedScheduler::Dmdar.build().as_mut(), &config)
                    .expect("serving run");
            report.online.expect("online stats")
        };

        let baseline = serve(&stream(0.5 * capacity_tps), ShedPolicy::DeferOnly);
        assert_eq!(
            baseline.tasks_admitted, m as u64,
            "n={n}: baseline must admit all"
        );
        let over = stream(2.0 * capacity_tps);
        let ratio =
            |policy| serve(&over, policy).p99_latency as f64 / baseline.p99_latency.max(1) as f64;
        let shed = ratio(ShedPolicy::PriorityShed);
        assert!(
            shed <= P99_BOUND_MULTIPLE,
            "n={n}: PriorityShed p99 {shed:.2}x baseline exceeds the {P99_BOUND_MULTIPLE}x bound"
        );
        let defer = ratio(ShedPolicy::DeferOnly);
        assert!(
            defer > P99_BOUND_MULTIPLE,
            "n={n}: DeferOnly p99 {defer:.2}x baseline is bounded; the 2x rate is not overloading"
        );
    }
}
