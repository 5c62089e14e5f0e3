//! The engine calls a policy's optional hooks (`on_load_issued`,
//! `on_data_loaded`, `on_data_evicted`, `on_task_complete` and
//! `choose_victim`) exactly where the policy declares them
//! (`Scheduler::hooks`):
//!
//! 1. **None declared, none called.** Bare EAGER declares no optional
//!    hook, so a batch run under memory pressure makes no notification
//!    and no `choose_victim` call, though it loads, evicts and finishes
//!    every task.
//! 2. **One declared, called once per event.** A wrapper that declares a
//!    single hook gets one call per matching trace event (at least one
//!    `choose_victim` call per eviction) and no other optional call.
//!
//! Either way the run takes the decisions of the bare policy.
//!
//! The policies that park idle workers (`RuntimeView::park`) are polled
//! exactly as their parks and unparks say:
//!
//! 3. **A wrapper polls like the bare policy.** The requests ride on the
//!    view, so a forwarding wrapper that knows nothing of them and
//!    declares every hook (as perfbench's `Timed` does) makes the same
//!    polls as the bare Router, DMDAR and EAGER, in batch, online and
//!    with a GPU failure.
//! 4. **One empty poll per GPU at most.** On fault-free runs the Router
//!    and DMDAR answer `None` at most once per GPU.
//! 5. **A park without an unpark stalls the run.** A policy that parks
//!    a worker and never wakes it ends in `RunError::SchedulerStuck`.
//!
//! The bare Router takes no transfer hook: its load term reads the
//! engine's count of bytes in flight.

mod common;

use common::{assert_same_events, run_validated, without_walls};
use memsched::experiments::prefix_route::{sweep_spec, sweep_taskset, SweepConfig};
use memsched::platform::TraceEvent;
use memsched::prelude::*;
use memsched::schedulers::RouterScheduler;
use memsched::workloads::gemm_2d;
use std::collections::VecDeque;

/// The optional hooks, in the order of [`Counting::calls`].
const OPTIONAL: [Hooks; 5] = [
    Hooks::ON_LOAD_ISSUED,
    Hooks::ON_DATA_LOADED,
    Hooks::ON_DATA_EVICTED,
    Hooks::ON_TASK_COMPLETE,
    Hooks::CHOOSE_VICTIM,
];

/// Their method names, in the same order.
const NAMES: [&str; 5] = [
    "on_load_issued",
    "on_data_loaded",
    "on_data_evicted",
    "on_task_complete",
    "choose_victim",
];

/// Forwards every call to `inner`, declares `declared`, and counts the
/// calls of each optional hook and the polls of each GPU.
struct Counting {
    inner: Box<dyn Scheduler>,
    declared: Hooks,
    /// Calls per hook, in [`OPTIONAL`] order.
    calls: [u64; 5],
    /// Per GPU: `pop_task` calls and the `None` answers among them.
    polls: Vec<(u64, u64)>,
}

impl Counting {
    /// Wrap `inner`, forwarding its declaration.
    fn forwarding(inner: Box<dyn Scheduler>) -> Self {
        let declared = inner.hooks();
        Counting::declaring(inner, declared)
    }

    /// Wrap `inner` under the declaration `declared`.
    fn declaring(inner: Box<dyn Scheduler>, declared: Hooks) -> Self {
        Counting {
            inner,
            declared,
            calls: [0; 5],
            polls: Vec::new(),
        }
    }

    fn count(&mut self, hook: Hooks) {
        let i = OPTIONAL
            .iter()
            .position(|&h| h == hook)
            .expect("an optional hook");
        self.calls[i] += 1;
    }
}

impl Scheduler for Counting {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn hooks(&self) -> Hooks {
        self.declared
    }
    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.polls = vec![(0, 0); spec.num_gpus];
        self.inner.prepare(ts, spec);
    }
    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.polls = vec![(0, 0); spec.num_gpus];
        self.inner.prepare_stream(ts, spec);
    }
    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.inner.on_task_arrival(task, view);
    }
    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let popped = self.inner.pop_task(gpu, view);
        let polls = &mut self.polls[gpu.index()];
        polls.0 += 1;
        polls.1 += u64::from(popped.is_none());
        popped
    }
    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        self.count(Hooks::CHOOSE_VICTIM);
        self.inner.choose_victim(gpu, view)
    }
    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        self.count(Hooks::ON_TASK_COMPLETE);
        self.inner.on_task_complete(gpu, task, view);
    }
    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.count(Hooks::ON_LOAD_ISSUED);
        self.inner.on_load_issued(gpu, data, view);
    }
    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.count(Hooks::ON_DATA_LOADED);
        self.inner.on_data_loaded(gpu, data, view);
    }
    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.count(Hooks::ON_DATA_EVICTED);
        self.inner.on_data_evicted(gpu, data, view);
    }
    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        self.inner.on_gpu_failed(gpu, lost, view);
    }
    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe);
    }
}

/// A 64-task 2D GEMM on two GPUs with room for four tiles each, recorded
/// in full.
fn pressured_gemm() -> (TaskSet, PlatformSpec, RunConfig) {
    let ts = gemm_2d(8);
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let config = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    (ts, spec, config)
}

/// The number of trace events a call of `hook` matches.
fn events_of(trace: &[TraceEvent], hook: Hooks) -> u64 {
    let matches = |e: &&TraceEvent| match hook {
        Hooks::ON_LOAD_ISSUED => matches!(e, TraceEvent::LoadIssued { .. }),
        Hooks::ON_DATA_LOADED => matches!(e, TraceEvent::LoadDone { .. }),
        Hooks::ON_TASK_COMPLETE => matches!(e, TraceEvent::TaskFinished { .. }),
        // `on_data_evicted`, and the choice before each eviction.
        _ => matches!(e, TraceEvent::Evicted { .. }),
    };
    trace.iter().filter(matches).count() as u64
}

#[test]
fn bare_eager_gets_no_optional_hook_call() {
    let (ts, spec, config) = pressured_gemm();
    let mut eager = Counting::forwarding(Box::new(EagerScheduler::new()));
    assert_eq!(eager.hooks(), Hooks::NONE);
    let (report, trace) = run_validated(&ts, &spec, &mut eager, &config);
    assert_eq!(
        report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
        ts.num_tasks()
    );
    assert!(report.total_loads > 0 && report.total_evictions > 0);
    assert!(events_of(&trace, Hooks::ON_TASK_COMPLETE) > 0);
    assert_eq!(eager.calls, [0; 5], "calls per hook, in {NAMES:?} order");
}

#[test]
fn a_declared_hook_is_called_once_per_event_and_nothing_else() {
    let (ts, spec, config) = pressured_gemm();
    let (bare_report, bare_trace) = run_validated(&ts, &spec, &mut EagerScheduler::new(), &config);
    for (i, &hook) in OPTIONAL.iter().enumerate() {
        let mut one = Counting::declaring(Box::new(EagerScheduler::new()), hook);
        let (report, trace) = run_validated(&ts, &spec, &mut one, &config);
        let what = format!("declaring only {}", NAMES[i]);
        assert_same_events(&what, &bare_trace, &trace);
        assert_eq!(
            without_walls(bare_report.clone()),
            without_walls(report),
            "{what}"
        );
        let events = events_of(&trace, hook);
        assert!(events > 0, "{what}: no matching event");
        if hook == Hooks::CHOOSE_VICTIM {
            // A victim choice precedes every eviction; a choice that
            // finds everything pinned evicts nothing.
            assert!(one.calls[i] >= events, "{what}: {} calls", one.calls[i]);
        } else {
            assert_eq!(one.calls[i], events, "{what}");
        }
        let others: u64 = (0..5).filter(|&j| j != i).map(|j| one.calls[j]).sum();
        assert_eq!(
            others, 0,
            "{what}: calls per hook {:?}, in {NAMES:?} order",
            one.calls
        );
    }
}

/// The policies that park: they serve per-worker queues (the Router and
/// DMDAR) or one shared queue (EAGER).
const PARKING: [NamedScheduler; 3] = [
    NamedScheduler::Router,
    NamedScheduler::Dmdar,
    NamedScheduler::Eager,
];

/// A 300-request prefix stream at 2000 req/s on two GPUs at 4× cache
/// pressure, served online.
fn prefix_stream() -> (TaskSet, PlatformSpec, RunConfig) {
    let ts = sweep_taskset(&SweepConfig {
        tasks: 300,
        rate_per_sec: 2000.0,
        seed: 7,
    });
    let spec = sweep_spec(&ts, 4.0);
    let config = RunConfig {
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    (ts, spec, config)
}

/// A 64-task 2D GEMM on three GPUs. GPU 2 runs at a hundredth of its
/// speed from the start, which no policy foresees, and dies at twice
/// the fault-free EAGER makespan: the other two have drained their
/// queues by then and wait parked, so the orphans of GPU 2 can run only
/// if the policy wakes a survivor.
fn late_failure() -> (TaskSet, PlatformSpec, RunConfig) {
    let ts = gemm_2d(8);
    let spec = PlatformSpec::v100(3).with_memory(6 * ts.data_size(DataId(0)));
    let horizon = run(&ts, &spec, &mut EagerScheduler::new())
        .unwrap()
        .makespan;
    let config = RunConfig {
        faults: FaultPlan::none()
            .with_straggler(2, 0, 0.01)
            .with_gpu_failure(2, 2 * horizon),
        ..RunConfig::default()
    };
    (ts, spec, config)
}

/// The batch, online and GPU-failure runs, labelled.
fn parking_scenarios() -> Vec<(&'static str, TaskSet, PlatformSpec, RunConfig)> {
    let (batch_ts, batch_spec, _) = pressured_gemm();
    let (stream_ts, stream_spec, online) = prefix_stream();
    let (fail_ts, fail_spec, failing) = late_failure();
    vec![
        ("batch", batch_ts, batch_spec, RunConfig::default()),
        ("online", stream_ts, stream_spec, online),
        ("GPU failure", fail_ts, fail_spec, failing),
    ]
}

/// What an observed run of `sched` shows of its polls: the report (with
/// the trace checksum), the obs event count and the polls per GPU.
fn observe_polls(
    ts: &TaskSet,
    spec: &PlatformSpec,
    config: &RunConfig,
    mut sched: Counting,
) -> (RunReport, usize, Vec<(u64, u64)>) {
    let config = RunConfig {
        trace: TraceMode::Checksum,
        ..config.clone()
    };
    let probe = Probe::unbounded();
    let (report, _) = run_observed(ts, spec, &mut sched, &config, &probe)
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
    (report, probe.len(), sched.polls)
}

#[test]
fn a_wrapper_that_knows_nothing_of_parking_polls_like_the_bare_policy() {
    for (what, ts, spec, config) in parking_scenarios() {
        for named in &PARKING {
            let label = format!("{} {what}", named.label());
            let (bare, bare_events, bare_polls) =
                observe_polls(&ts, &spec, &config, Counting::forwarding(named.build()));
            let (wrapped, wrapped_events, wrapped_polls) = observe_polls(
                &ts,
                &spec,
                &config,
                Counting::declaring(named.build(), Hooks::ALL),
            );
            assert_eq!(bare_polls, wrapped_polls, "{label}: polls per GPU");
            assert_eq!(bare_events, wrapped_events, "{label}: obs events");
            assert!(bare.trace_checksum.is_some());
            assert_eq!(
                without_walls(bare.clone()),
                without_walls(wrapped),
                "{label}: reports and trace checksums"
            );
            assert_eq!(
                bare.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
                ts.num_tasks(),
                "{label}"
            );
            if what == "GPU failure" {
                assert_eq!(bare.gpu_failures, 1, "{label}: the death must fire");
                assert!(bare.tasks_redispatched > 0, "{label}: nothing orphaned");
            }
        }
    }
}

#[test]
fn router_and_dmdar_answer_none_at_most_once_per_gpu_without_faults() {
    for (what, ts, spec, config) in parking_scenarios() {
        if !config.faults.is_empty() {
            continue;
        }
        for named in [NamedScheduler::Router, NamedScheduler::Dmdar] {
            let (_, _, polls) =
                observe_polls(&ts, &spec, &config, Counting::forwarding(named.build()));
            let label = format!("{} {what}", named.label());
            assert!(
                polls.iter().all(|&(_, none)| none <= 1),
                "{label}: (polls, None answers) per GPU {polls:?}"
            );
            assert!(polls.iter().all(|&(calls, _)| calls > 0), "{label}");
        }
    }
}

#[test]
fn bare_router_gets_no_transfer_hook_call() {
    let (ts, spec, config) = prefix_stream();
    let mut router = Counting::forwarding(Box::new(RouterScheduler::new()));
    let (report, _) = run_with_config(&ts, &spec, &mut router, &config).unwrap();
    assert!(report.total_loads > 0 && report.total_evictions > 0);
    let transfer_hooks = [router.calls[0], router.calls[1]];
    assert_eq!(
        transfer_hooks,
        [0, 0],
        "{} and {} calls",
        NAMES[0],
        NAMES[1]
    );
    assert!(router.calls[3] > 0, "{} calls", NAMES[3]);
}

/// A FIFO over one shared queue that parks the worker on every pop and
/// never unparks one.
#[derive(Default)]
struct Sleepy {
    queue: VecDeque<TaskId>,
}

impl Scheduler for Sleepy {
    fn name(&self) -> String {
        "sleepy".into()
    }
    fn prepare(&mut self, ts: &TaskSet, _: &PlatformSpec) {
        self.queue = ts.tasks().collect();
    }
    fn pop_task(&mut self, _: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        view.park();
        self.queue.pop_front()
    }
}

#[test]
fn a_park_without_an_unpark_ends_in_scheduler_stuck() {
    let (ts, spec, _) = pressured_gemm();
    let err = run(&ts, &spec, &mut Sleepy::default()).unwrap_err();
    assert_eq!(
        err,
        RunError::SchedulerStuck {
            completed: 2,
            total: ts.num_tasks()
        },
        "each of the two GPUs runs the one task it got"
    );
}
