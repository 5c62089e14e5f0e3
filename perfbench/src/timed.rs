//! [`Timed`]: a forwarding [`Scheduler`] that times every call the
//! engine makes into the `schedulers` layer, from outside that layer.
//!
//! Each timed call leaves one [`Span`] (hook, start, duration). The
//! wrapper forwards every trait method — including the fault, online and
//! sharding hooks a benchmark workload never calls — so wrapped and bare
//! runs take identical decisions.

use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_platform::{PlatformSpec, Probe, RuntimeView, Scheduler};
use std::time::Instant;

/// A scheduler entry point that [`Timed`] records. Declared in
/// [`Hook::ALL`] order, so `hook as usize` indexes per-hook arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    /// `prepare` (batch) or `prepare_stream` (online): the static phase.
    Prepare,
    /// `pop_task`.
    PopTask,
    /// `choose_victim`.
    ChooseVictim,
    /// `on_load_issued`.
    OnLoadIssued,
    /// `on_data_loaded`.
    OnDataLoaded,
    /// `on_data_evicted`.
    OnDataEvicted,
    /// `on_task_complete`.
    OnTaskComplete,
    /// `on_task_arrival`.
    OnTaskArrival,
    /// `on_gpu_failed`, `on_transfer_retry` and `on_capacity_changed`.
    OnFault,
}

impl Hook {
    /// Every hook, in report order.
    pub const ALL: [Hook; 9] = [
        Hook::Prepare,
        Hook::PopTask,
        Hook::ChooseVictim,
        Hook::OnLoadIssued,
        Hook::OnDataLoaded,
        Hook::OnDataEvicted,
        Hook::OnTaskComplete,
        Hook::OnTaskArrival,
        Hook::OnFault,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Prepare => "prepare",
            Hook::PopTask => "pop_task",
            Hook::ChooseVictim => "choose_victim",
            Hook::OnLoadIssued => "on_load_issued",
            Hook::OnDataLoaded => "on_data_loaded",
            Hook::OnDataEvicted => "on_data_evicted",
            Hook::OnTaskComplete => "on_task_complete",
            Hook::OnTaskArrival => "on_task_arrival",
            Hook::OnFault => "on_fault",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which entry point.
    pub hook: Hook,
    /// Start, in nanoseconds since the wrapper's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A forwarding wrapper that records a [`Span`] per scheduler call.
pub struct Timed {
    inner: Box<dyn Scheduler + Send>,
    epoch: Instant,
    /// Every timed call, in call order.
    pub spans: Vec<Span>,
    /// `pop_task` calls answered `None` (wasted polls).
    pub pop_none: u64,
    /// `choose_victim` calls answered `None` (the engine falls back to
    /// LRU).
    pub victim_none: u64,
}

impl Timed {
    /// Wrap `inner`; span times count from `epoch`.
    pub fn new(inner: Box<dyn Scheduler + Send>, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            spans: Vec::new(),
            pop_none: 0,
            victim_none: 0,
        }
    }

    #[inline]
    fn time<R>(&mut self, hook: Hook, call: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let end = Instant::now();
        self.spans.push(Span {
            hook,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        out
    }
}

impl Scheduler for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.time(Hook::Prepare, |s| s.prepare(ts, spec))
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.time(Hook::Prepare, |s| s.prepare_stream(ts, spec))
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.time(Hook::OnTaskArrival, |s| s.on_task_arrival(task, view))
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let popped = self.time(Hook::PopTask, |s| s.pop_task(gpu, view));
        self.pop_none += u64::from(popped.is_none());
        popped
    }

    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        let victim = self.time(Hook::ChooseVictim, |s| s.choose_victim(gpu, view));
        self.victim_none += u64::from(victim.is_none());
        victim
    }

    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        self.time(Hook::OnTaskComplete, |s| {
            s.on_task_complete(gpu, task, view)
        })
    }

    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.time(Hook::OnLoadIssued, |s| s.on_load_issued(gpu, data, view))
    }

    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.time(Hook::OnDataLoaded, |s| s.on_data_loaded(gpu, data, view))
    }

    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.time(Hook::OnDataEvicted, |s| s.on_data_evicted(gpu, data, view))
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        self.time(Hook::OnFault, |s| s.on_gpu_failed(gpu, lost, view))
    }

    fn on_transfer_retry(
        &mut self,
        gpu: GpuId,
        data: DataId,
        attempt: u32,
        view: &RuntimeView<'_>,
    ) {
        self.time(Hook::OnFault, |s| {
            s.on_transfer_retry(gpu, data, attempt, view)
        })
    }

    fn on_capacity_changed(&mut self, gpu: GpuId, capacity: u64, view: &RuntimeView<'_>) {
        self.time(Hook::OnFault, |s| {
            s.on_capacity_changed(gpu, capacity, view)
        })
    }

    fn decomposes_per_group(&self) -> bool {
        self.inner.decomposes_per_group()
    }

    fn group_task_counts(&self, groups: &[usize], num_groups: usize) -> Option<Vec<usize>> {
        self.inner.group_task_counts(groups, num_groups)
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe)
    }
}
