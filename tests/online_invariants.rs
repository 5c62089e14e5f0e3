//! Stream-invariant property tests for the online serving mode, across
//! all six scheduler families:
//!
//! * no task starts before its arrival time, and the admission track is
//!   causally ordered (arrive ≤ admit ≤ start);
//! * every task completes exactly once, whatever the arrival pattern;
//! * per-GPU occupancy stays under the *current* capacity when a
//!   `CapacityShrink` fault lands mid-stream;
//! * the same seed replays a byte-identical event stream, including when
//!   the runs are distributed over 1, 2 or 8 pool workers;
//! * at 2× overload, priority shedding keeps the p99 latency of admitted
//!   tasks within a fixed multiple of the underloaded baseline, and
//!   defer-only queueing does not.

use memsched::experiments::pool;
use memsched::platform::obs::{Counter, Metrics};
use memsched::platform::{RunConfig, TraceEvent};
use memsched::prelude::*;
use memsched::workloads::{deadline_stamps, gemm_2d, open_loop_arrivals, ArrivalPattern};
use proptest::prelude::*;

const FAMILIES: [NamedScheduler; 6] = [
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::DartsLuf,
    NamedScheduler::Router,
];

/// Strategy: a random task set (unit data, 1–3 inputs per task) with a
/// random arrival stamp on every task.
fn arb_stream_taskset(max_data: usize, max_tasks: usize) -> impl Strategy<Value = TaskSet> {
    (2usize..=max_data, 1usize..=max_tasks)
        .prop_flat_map(|(nd, mt)| {
            let inputs =
                proptest::collection::vec(proptest::collection::vec(0..nd as u32, 1..=3), mt);
            let arrivals = proptest::collection::vec(0u64..20_000_000, mt);
            (Just(nd), inputs, arrivals)
        })
        .prop_map(|(nd, task_inputs, arrivals)| {
            let mut b = TaskSetBuilder::new();
            let data: Vec<DataId> = (0..nd).map(|_| b.add_data(1)).collect();
            for ins in task_inputs {
                let ids: Vec<DataId> = ins.iter().map(|&i| data[i as usize]).collect();
                b.add_task(&ids, 1000.0);
            }
            b.build().with_arrivals(arrivals)
        })
}

fn small_spec(gpus: usize, mem: u64) -> PlatformSpec {
    PlatformSpec {
        num_gpus: gpus,
        memory_bytes: mem, // unit-size items: capacity in items
        bus_bandwidth: 1e9,
        transfer_latency: 10,
        gpu_gflops: 1e-3,
        pipeline_depth: 2,
        gpu_gflops_override: None,
        nvlink_bandwidth: None,
        bus_groups: None,
    }
}

fn online_config() -> RunConfig {
    RunConfig {
        trace: TraceMode::Full,
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Causality and exactly-once completion on random streams: arrivals
    /// are time-ordered, no admit/start precedes the task's arrival, and
    /// every task is admitted once, started and finished exactly once.
    /// The same seed replays the identical stream.
    #[test]
    fn online_stream_causality(
        ts in arb_stream_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        prop_assume!(ts.num_tasks() >= gpus);
        let spec = small_spec(gpus, mem);
        let config = online_config();
        for named in FAMILIES {
            let mut sched = named.build();
            let (report, trace) =
                memsched::platform::run_with_config(&ts, &spec, sched.as_mut(), &config)
                    .unwrap();
            let mut sched2 = named.build();
            let (_r2, trace2) =
                memsched::platform::run_with_config(&ts, &spec, sched2.as_mut(), &config)
                    .unwrap();
            prop_assert_eq!(&trace, &trace2, "{:?}: non-deterministic stream", named);

            let n = ts.num_tasks();
            let mut arrived = vec![0u32; n];
            let mut admitted_at = vec![None::<u64>; n];
            let mut started = vec![0u32; n];
            let mut finished = vec![0u32; n];
            let mut last_arrival = 0u64;
            for ev in &trace {
                match *ev {
                    TraceEvent::TaskArrived { at, task } => {
                        arrived[task] += 1;
                        prop_assert!(
                            at >= last_arrival,
                            "{named:?}: arrivals out of order at t={at}"
                        );
                        last_arrival = at;
                        prop_assert_eq!(
                            at, ts.arrival(TaskId(task as u32)),
                            "{:?}: task {} arrived at the wrong time", named, task
                        );
                    }
                    TraceEvent::TaskAdmitted { at, task } => {
                        prop_assert!(
                            at >= ts.arrival(TaskId(task as u32)),
                            "{named:?}: task {task} admitted before its arrival"
                        );
                        prop_assert!(admitted_at[task].is_none(), "double admission");
                        admitted_at[task] = Some(at);
                    }
                    TraceEvent::TaskDeferred { at, task } => {
                        prop_assert!(
                            at >= ts.arrival(TaskId(task as u32)),
                            "{named:?}: task {task} deferred before its arrival"
                        );
                    }
                    TraceEvent::TaskStarted { at, task, .. } => {
                        started[task] += 1;
                        prop_assert!(
                            at >= ts.arrival(TaskId(task as u32)),
                            "{named:?}: task {task} started at {at} before its arrival"
                        );
                        let adm = admitted_at[task];
                        prop_assert!(
                            adm.is_some_and(|a| at >= a),
                            "{named:?}: task {task} started before admission"
                        );
                    }
                    TraceEvent::TaskFinished { task, .. } => finished[task] += 1,
                    _ => {}
                }
            }
            prop_assert!(arrived.iter().all(|&c| c == 1), "{named:?}: {arrived:?}");
            prop_assert!(started.iter().all(|&c| c == 1), "{named:?}: {started:?}");
            prop_assert!(finished.iter().all(|&c| c == 1), "{named:?}: {finished:?}");
            let stats = report.online.as_ref().expect("online run must report stats");
            prop_assert_eq!(stats.tasks_admitted as usize, n);
            prop_assert!(stats.p50_latency <= stats.p99_latency);
            prop_assert!(stats.p50_queueing <= stats.p99_queueing);
        }
    }

    /// Mid-stream capacity shrink: occupancy (resident + in-flight) never
    /// exceeds the evolving per-GPU capacity while tasks are still
    /// arriving, and the stream still completes exactly once per task.
    #[test]
    fn online_occupancy_respects_midstream_shrink(
        ts in arb_stream_taskset(10, 20),
        gpus in 2usize..4,
        mem in 4u64..8,
        shrink_gpu in 0usize..2,
        shrink_at in 0u64..20_000_000,
        shrink_to in 3u64..5,
    ) {
        prop_assume!(ts.num_tasks() >= gpus);
        let spec = small_spec(gpus, mem);
        let shrink_gpu = shrink_gpu % gpus;
        let config = RunConfig {
            faults: FaultPlan::none().with_capacity_shrink(
                shrink_gpu,
                shrink_at,
                shrink_to.min(mem),
            ),
            ..online_config()
        };
        for named in FAMILIES {
            let mut sched = named.build();
            let (_report, trace) =
                memsched::platform::run_with_config(&ts, &spec, sched.as_mut(), &config)
                    .unwrap();
            let mut cap = vec![spec.memory_bytes; gpus];
            let mut occupied = vec![0u64; gpus];
            let mut finished = vec![0u32; ts.num_tasks()];
            for ev in &trace {
                match *ev {
                    TraceEvent::LoadIssued { gpu, data, .. } => {
                        occupied[gpu] += ts.data_size(DataId(data as u32));
                        prop_assert!(
                            occupied[gpu] <= cap[gpu],
                            "{named:?}: GPU {gpu} occupancy {} exceeds capacity {}",
                            occupied[gpu], cap[gpu]
                        );
                    }
                    TraceEvent::Evicted { gpu, data, .. } => {
                        occupied[gpu] -= ts.data_size(DataId(data as u32));
                    }
                    TraceEvent::CapacityShrunk { gpu, capacity, .. } => {
                        prop_assert!(occupied[gpu] <= capacity);
                        cap[gpu] = capacity;
                    }
                    TraceEvent::TaskFinished { task, .. } => finished[task] += 1,
                    _ => {}
                }
            }
            prop_assert!(
                finished.iter().all(|&c| c == 1),
                "{named:?}: completion counts {finished:?}"
            );
        }
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
            &ArrivalPattern::Poisson { rate_per_sec: 800.0 },
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
            let mut sched = named.build();
            let (report, trace) =
                memsched::platform::run_with_config(&ts, &spec, sched.as_mut(), &config)
                    .expect("stream run");
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
/// exactly once on the survivor, every post-failure start lands on an
/// alive GPU, and nothing is shed under the default `DeferOnly` policy.
#[test]
fn midstream_failstop_with_admission_completes_exactly_once() {
    let ts = {
        let base = gemm_2d(4); // 16 tasks
        let arrivals = open_loop_arrivals(
            &ArrivalPattern::Poisson { rate_per_sec: 2000.0 },
            7,
            base.num_tasks(),
        );
        base.with_arrivals(arrivals)
    };
    let n = ts.num_tasks();
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let fail_at = 2_000_000; // mid-stream: ~4 of 16 mean inter-arrivals in
    let config = RunConfig {
        faults: FaultPlan::none().with_gpu_failure(1, fail_at),
        ..online_config()
    };
    for named in FAMILIES {
        let mut sched = named.build();
        let (report, trace) =
            memsched::platform::run_with_config(&ts, &spec, sched.as_mut(), &config)
                .expect("fail-stop stream run");
        let mut finished = vec![0u32; n];
        for ev in &trace {
            match *ev {
                TraceEvent::TaskStarted { at, gpu, task } => {
                    assert!(
                        gpu != 1 || at < fail_at,
                        "{named:?}: task {task} started on dead GPU 1 at t={at}"
                    );
                }
                TraceEvent::TaskFinished { at, gpu, task } => {
                    finished[task] += 1;
                    assert!(
                        gpu != 1 || at < fail_at,
                        "{named:?}: task {task} finished on dead GPU 1 at t={at}"
                    );
                }
                _ => {}
            }
        }
        assert!(
            finished.iter().all(|&c| c == 1),
            "{named:?}: completion counts {finished:?}"
        );
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted as usize, n, "{named:?}");
        assert_eq!(stats.tasks_shed, 0, "{named:?}: DeferOnly must not shed");
        assert_eq!(stats.deadline_expired, 0, "{named:?}");
    }
}

/// Regression for `recheck_deferred_after_fault` + `shed_unfit_deferred`:
/// a capacity shrink strands a deferred task whose footprint no longer
/// fits any GPU. Under a shedding policy the task is shed and the run
/// completes gracefully with an exactly-once outcome ledger; under the
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
        let mut sched = NamedScheduler::Eager.build();
        let (report, trace) =
            memsched::platform::run_with_config(&ts, &spec, sched.as_mut(), &config_for(policy))
                .expect("shedding run completes despite the stranded deferral");
        let stats = report.online.expect("online stats");
        assert_eq!(stats.tasks_admitted, 1, "{policy:?}");
        assert_eq!(stats.tasks_shed, 1, "{policy:?}");
        assert!(
            trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::TaskShed { task: 1, .. })),
            "{policy:?}: stranded deferral must surface as TaskShed"
        );
        assert!(
            !trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::TaskStarted { task: 1, .. })),
            "{policy:?}: a shed task must never start"
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
        matches!(err, RunError::SchedulerStuck { completed: 1, total: 2 }),
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
            &ArrivalPattern::Poisson { rate_per_sec: 4000.0 },
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
        assert_eq!(metrics.counter(Counter::TasksArrived), n, "{named:?}");
        assert_eq!(metrics.counter(Counter::TasksAdmitted), n, "{named:?}");
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
