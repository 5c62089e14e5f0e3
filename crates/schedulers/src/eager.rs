//! The EAGER baseline (§V-A): a single shared task queue in submission
//! order; idle GPUs pick up the next task on demand. LRU eviction.
//!
//! A GPU's worker parks once the queue is empty ([`RuntimeView::park`]),
//! and every worker is unparked when a task is queued
//! ([`RuntimeView::unpark`]).
//!
//! On the row-major 2D multiplication this is the paper's pathological
//! case: tasks along a row of `C` reuse the same block-row of `A` but
//! stream through every block-column of `B`, so once `B` no longer fits in
//! memory LRU reloads all of it for every row.

use memsched_model::{GpuId, TaskId, TaskSet};
use memsched_platform::obs::{GaugeKind, ObsEvent};
use memsched_platform::{Hooks, PlatformSpec, Probe, RuntimeView, Scheduler};
use std::collections::VecDeque;

/// Shared-queue scheduler: tasks are handed out in submission order to
/// whichever GPU asks first.
#[derive(Debug, Default)]
pub struct EagerScheduler {
    queue: VecDeque<TaskId>,
    probe: Option<Probe>,
}

impl EagerScheduler {
    /// New, empty scheduler (filled by [`Scheduler::prepare`]).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EagerScheduler {
    fn name(&self) -> String {
        "EAGER".into()
    }

    fn hooks(&self) -> Hooks {
        Hooks::NONE
    }

    fn prepare(&mut self, ts: &TaskSet, _spec: &PlatformSpec) {
        self.queue = ts.tasks().collect();
    }

    fn prepare_stream(&mut self, _ts: &TaskSet, _spec: &PlatformSpec) {
        // Online mode starts with an empty horizon; arrivals fill it.
        self.queue = VecDeque::new();
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        // Admission order is submission order, so with every arrival at
        // t = 0 the queue is exactly the batch `prepare` queue.
        self.queue.push_back(task);
        unpark_all(view);
    }

    fn pop_task(&mut self, _gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let t = self.queue.pop_front();
        if self.queue.is_empty() {
            view.park();
        }
        if let Some(p) = &self.probe {
            // The queue is shared, so the depth gauge is global.
            p.emit(ObsEvent::Gauge {
                t: view.now(),
                gpu: None,
                kind: GaugeKind::ReadyQueueDepth,
                value: self.queue.len() as f64,
            });
        }
        t
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    fn on_gpu_failed(&mut self, _gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        // Put the orphans back at the head in their original order: the
        // shared queue hands them to whichever survivor asks first.
        for &t in lost.iter().rev() {
            self.queue.push_front(t);
        }
        unpark_all(view);
    }
}

/// Wake every worker: the shared queue gained work any of them may take.
fn unpark_all(view: &RuntimeView<'_>) {
    for g in 0..view.spec().num_gpus {
        view.unpark(GpuId(g as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::figure1_example;
    use memsched_platform::run;

    #[test]
    fn executes_everything_in_order_single_gpu() {
        let ts = figure1_example();
        let mut sched = EagerScheduler::new();
        let spec = PlatformSpec::v100(1).with_memory(10);
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 9);
        assert_eq!(report.total_loads, 6, "all data fits: one load each");
    }

    #[test]
    fn splits_work_across_gpus() {
        let ts = figure1_example();
        let mut sched = EagerScheduler::new();
        let spec = PlatformSpec::v100(2).with_memory(10);
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert_eq!(report.per_gpu[0].tasks + report.per_gpu[1].tasks, 9);
        assert!(report.per_gpu[0].tasks > 0);
        assert!(report.per_gpu[1].tasks > 0);
    }

    #[test]
    fn lru_pathology_under_memory_pressure() {
        // 8×8 grid, memory of 8 data items: EAGER+LRU reloads columns.
        let ts = memsched_workloads::gemm_2d(8);
        let item = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(8 * item);
        let mut sched = EagerScheduler::new();
        let report = run(&ts, &spec, &mut sched).unwrap();
        // Far more than the compulsory 16 loads.
        assert!(report.total_loads > 30, "loads = {}", report.total_loads);
    }
}
