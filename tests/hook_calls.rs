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

mod common;

use common::{assert_same_events, run_validated, without_walls};
use memsched::platform::TraceEvent;
use memsched::prelude::*;
use memsched::workloads::gemm_2d;

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
/// calls of each optional hook.
struct Counting<S> {
    inner: S,
    declared: Hooks,
    /// Calls per hook, in [`OPTIONAL`] order.
    calls: [u64; 5],
}

impl<S: Scheduler> Counting<S> {
    /// Wrap `inner`, forwarding its declaration.
    fn forwarding(inner: S) -> Self {
        let declared = inner.hooks();
        Counting::declaring(inner, declared)
    }

    /// Wrap `inner` under the declaration `declared`.
    fn declaring(inner: S, declared: Hooks) -> Self {
        Counting {
            inner,
            declared,
            calls: [0; 5],
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

impl<S: Scheduler> Scheduler for Counting<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn hooks(&self) -> Hooks {
        self.declared
    }
    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.inner.prepare(ts, spec);
    }
    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        self.inner.pop_task(gpu, view)
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
    let mut eager = Counting::forwarding(EagerScheduler::new());
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
        let mut one = Counting::declaring(EagerScheduler::new(), hook);
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
