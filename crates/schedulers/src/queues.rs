//! The per-GPU task queues that DMDA(R), hMETIS+R, mHFP and the Router
//! serve (§IV-A–C). Each of them places tasks by its own rule; every GPU
//! then serves its own queue, in order or by the Ready rule. hMETIS+R and
//! mHFP let a GPU that has exhausted its allocated tasks while others
//! still have work steal **half of the remaining tasks of the most loaded
//! GPU, taken from the tail of its list**; without stealing, such a GPU's
//! worker parks ([`RuntimeView::park`]) until work is queued there again
//! ([`RuntimeView::unpark`]).

use crate::ready::{ready_pick, DEFAULT_READY_WINDOW};
use memsched_model::{GpuId, TaskId};
use memsched_platform::obs::{GaugeKind, ObsEvent};
use memsched_platform::{Probe, RuntimeView};
use std::collections::VecDeque;

/// Per-GPU task queues: in-order or Ready service, then tail-half
/// stealing or parking once a queue runs dry.
#[derive(Debug)]
pub(crate) struct GpuQueues {
    /// Double-ended, so that serving a task from the Ready window near
    /// the head shifts only the tasks ahead of it, and returned tasks go
    /// back to the head.
    queues: Vec<VecDeque<TaskId>>,
    /// Serve by the Ready rule instead of in queue order.
    pub(crate) ready: bool,
    /// A GPU whose queue ran dry steals instead of parking.
    steal: bool,
    /// Serve Ready through [`crate::ready::ready_pick_scan`]
    /// (differential testing only).
    #[cfg(feature = "naive")]
    pub(crate) naive_ready: bool,
    /// Observability probe (steal events, queue-depth gauges); absent on
    /// unobserved runs.
    probe: Option<Probe>,
}

impl GpuQueues {
    /// No queue yet; [`set`](Self::set) lays them out.
    pub(crate) fn new(ready: bool, steal: bool) -> Self {
        Self {
            queues: Vec::new(),
            ready,
            steal,
            #[cfg(feature = "naive")]
            naive_ready: false,
            probe: None,
        }
    }

    /// Attach an observability probe; steals then emit
    /// [`ObsEvent::Steal`] and pops sample the queue depth.
    pub(crate) fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    /// Replace the queues by `lists`, one per GPU.
    pub(crate) fn set(&mut self, lists: Vec<Vec<TaskId>>) {
        self.queues = lists.into_iter().map(VecDeque::from).collect();
    }

    /// The queues, one per GPU.
    pub(crate) fn lists(&self) -> &[VecDeque<TaskId>] {
        &self.queues
    }

    /// Append `task` to GPU `g`'s queue.
    pub(crate) fn push(&mut self, g: usize, task: TaskId) {
        self.queues[g].push_back(task);
    }

    /// Take GPU `g`'s whole queue, in service order.
    pub(crate) fn take(&mut self, g: usize) -> VecDeque<TaskId> {
        std::mem::take(&mut self.queues[g])
    }

    /// Pop the next task for `gpu`: the head of its queue, or its Ready
    /// pick. A dry queue first steals half of the most loaded GPU's tail
    /// when stealing; otherwise the worker parks once the queue is empty.
    pub(crate) fn pop(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let g = gpu.index();
        if self.queues[g].is_empty() && self.steal {
            if let Some((victim, take)) = self.try_steal(g) {
                if let Some(p) = &self.probe {
                    p.emit(ObsEvent::Steal {
                        t: view.now(),
                        from: victim as u32,
                        to: g as u32,
                        tasks: take,
                    });
                }
            }
        }
        let q = &mut self.queues[g];
        let task = if self.ready && !q.is_empty() {
            #[cfg(feature = "naive")]
            let pick = if self.naive_ready {
                crate::ready::ready_pick_scan
            } else {
                ready_pick
            };
            #[cfg(not(feature = "naive"))]
            let pick = ready_pick;
            let i = pick(q.make_contiguous(), gpu, view, DEFAULT_READY_WINDOW)?;
            q.remove(i)
        } else {
            q.pop_front()
        };
        // Only new work queued here refills a queue that cannot steal,
        // and whoever queues it unparks.
        if q.is_empty() && !self.steal {
            view.park();
        }
        let task = task?;
        if let Some(p) = &self.probe {
            p.emit(ObsEvent::Gauge {
                t: view.now(),
                gpu: Some(g as u32),
                kind: GaugeKind::ReadyQueueDepth,
                value: self.queues[g].len() as f64,
            });
        }
        Some(task)
    }

    /// Fault recovery: `gpu` died with `lost` tasks in its pipeline. The
    /// orphans go back to the head of its queue (they were next in line
    /// there). When stealing, the survivors fold that queue in as they go
    /// idle; otherwise it is handed out one task at a time, in service
    /// order, to the shortest alive queue (ties → lowest index), whose
    /// worker is unparked.
    pub(crate) fn return_lost(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        let g = gpu.index();
        for &t in lost.iter().rev() {
            self.queues[g].push_front(t);
        }
        if self.steal {
            return;
        }
        let alive: Vec<usize> = (0..self.queues.len())
            .filter(|&h| h != g && view.is_alive(GpuId(h as u32)))
            .collect();
        if alive.is_empty() {
            return; // no survivor: the engine aborts the run
        }
        for t in self.take(g) {
            let &h = alive
                .iter()
                .min_by_key(|&&h| (self.queues[h].len(), h))
                .expect("alive is non-empty");
            self.queues[h].push_back(t);
            view.unpark(GpuId(h as u32));
        }
    }

    /// Steal half (rounded down, at least one when possible) of the tail
    /// of the most loaded queue into queue `g`. Returns the victim and
    /// how many tasks moved, for the caller's steal event.
    fn try_steal(&mut self, g: usize) -> Option<(usize, u32)> {
        let victim = (0..self.queues.len())
            .filter(|&v| v != g)
            .max_by_key(|&v| self.queues[v].len())
            .filter(|&v| !self.queues[v].is_empty());
        let v = victim?;
        let vlen = self.queues[v].len();
        let take = (vlen / 2).max(1);
        self.queues[g] = self.queues[v].split_off(vlen - take);
        Some((v, take as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::{TaskSet, TaskSetBuilder};
    use memsched_platform::{
        run, run_observed, run_with_config, FaultPlan, PlatformSpec, RunConfig, RunReport,
        Scheduler, TraceEvent, TraceMode,
    };

    /// A policy that is nothing but its queues.
    struct Queued(GpuQueues);

    impl Scheduler for Queued {
        fn name(&self) -> String {
            "queues-test".into()
        }
        fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
            self.0.pop(gpu, view)
        }
        fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
            self.0.return_lost(gpu, lost, view);
        }
        fn attach_probe(&mut self, probe: Probe) {
            self.0.attach_probe(probe);
        }
    }

    /// Ready queues holding `lists`, stealing or not.
    fn queued(lists: Vec<Vec<TaskId>>, steal: bool) -> Queued {
        let mut q = GpuQueues::new(true, steal);
        q.set(lists);
        Queued(q)
    }

    fn uniform_tasks(m: usize) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d = b.add_data(10);
        for _ in 0..m {
            b.add_task(&[d], 1e6);
        }
        b.build()
    }

    fn tasks_per_gpu(report: &RunReport) -> Vec<usize> {
        report.per_gpu.iter().map(|g| g.tasks).collect()
    }

    /// Run `sched` with GPU 0 failing at t = 0.
    fn run_gpu0_failing(
        ts: &TaskSet,
        spec: &PlatformSpec,
        sched: &mut Queued,
    ) -> (RunReport, Vec<TraceEvent>) {
        let config = RunConfig {
            trace: TraceMode::Full,
            faults: FaultPlan::none().with_gpu_failure(0, 0),
            ..Default::default()
        };
        run_with_config(ts, spec, sched, &config).unwrap()
    }

    #[test]
    fn idle_gpu_steals_half_the_tail() {
        let ts = uniform_tasks(8);
        // Everything initially on GPU0.
        let mut sched = queued(vec![ts.tasks().collect(), Vec::new()], true);
        let spec = PlatformSpec::v100(2).with_memory(100);
        let report = run(&ts, &spec, &mut sched).unwrap();
        let tasks = tasks_per_gpu(&report);
        assert!(tasks[1] >= 2, "GPU1 should have stolen work: {tasks:?}");
        assert_eq!(tasks[0] + tasks[1], 8);
    }

    #[test]
    fn stealing_disabled_leaves_imbalance() {
        let ts = uniform_tasks(8);
        let mut sched = queued(vec![ts.tasks().collect(), Vec::new()], false);
        let spec = PlatformSpec::v100(2).with_memory(100);
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert_eq!(tasks_per_gpu(&report), vec![8, 0]);
    }

    #[test]
    fn steal_from_single_task_victim_takes_it() {
        // vlen / 2 rounds to zero for a one-task victim; the `.max(1)`
        // must still move that last task to the idle thief.
        let mut q = GpuQueues::new(true, true);
        q.set(vec![vec![TaskId(0)], Vec::new()]);
        assert_eq!(q.try_steal(1), Some((0, 1)));
        assert!(q.lists()[0].is_empty());
        assert_eq!(q.lists()[1], [TaskId(0)]);
    }

    #[test]
    fn steal_with_no_victims_is_a_clean_noop() {
        // Every queue empty (all survivors idle simultaneously): stealing
        // must neither panic nor move anything.
        let mut q = GpuQueues::new(true, true);
        q.set(vec![Vec::new(), Vec::new(), Vec::new()]);
        assert_eq!(q.try_steal(0), None);
        assert!(q.lists().iter().all(VecDeque::is_empty));
    }

    #[test]
    fn all_idle_survivors_drain_a_dead_queue_without_duplication() {
        // Three GPUs; GPU0 dies holding all the work. Both survivors go
        // idle at once and steal concurrently — every task must be served
        // exactly once across them.
        let ts = uniform_tasks(9);
        let mut sched = queued(vec![ts.tasks().collect(), Vec::new(), Vec::new()], true);
        let spec = PlatformSpec::v100(3).with_memory(100);
        let (report, _) = run_gpu0_failing(&ts, &spec, &mut sched);
        let tasks = tasks_per_gpu(&report);
        assert_eq!(tasks[0], 0, "GPU0 died at t = 0");
        assert_eq!(tasks[1] + tasks[2], 9);
        assert!(tasks[1] > 0 && tasks[2] > 0, "both survivors must steal");
    }

    #[test]
    fn no_steal_rehoming_preserves_service_order() {
        // When GPU0 dies its whole queue re-homes to the surviving GPU
        // one task at a time, in the original service order.
        let ts = uniform_tasks(6);
        let mut sched = queued(vec![ts.tasks().collect(), Vec::new()], false);
        let spec = PlatformSpec::v100(2).with_memory(100);
        let (report, trace) = run_gpu0_failing(&ts, &spec, &mut sched);
        assert_eq!(report.per_gpu[1].tasks, 6, "everything re-homed to GPU1");
        let order: Vec<usize> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaskFinished { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5], "service order preserved");
    }

    #[test]
    fn observed_steals_account_for_the_thiefs_tasks() {
        let ts = uniform_tasks(8);
        let mut sched = queued(vec![ts.tasks().collect(), Vec::new()], true);
        let spec = PlatformSpec::v100(2).with_memory(100);
        let probe = Probe::unbounded();
        let (report, _) =
            run_observed(&ts, &spec, &mut sched, &RunConfig::default(), &probe).unwrap();
        let steals: Vec<(u32, u32, u32)> = probe
            .events()
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Steal {
                    from, to, tasks, ..
                } => Some((from, to, tasks)),
                _ => None,
            })
            .collect();
        assert!(!steals.is_empty());
        assert!(steals.iter().all(|&(from, to, _)| from == 0 && to == 1));
        // GPU1 starts empty, so it runs exactly what it stole.
        let stolen: u32 = steals.iter().map(|&(_, _, tasks)| tasks).sum();
        assert_eq!(stolen as usize, report.per_gpu[1].tasks);
    }

    #[test]
    fn steal_and_rehome_cross_bus_groups() {
        // §IV-B's rule is global. On `v100_multibus(4, 2)` GPUs 0/1 sit
        // on bus 0 and GPUs 2/3 on bus 1; with queues [8, 0, 0, 0], GPU 3
        // running dry takes the tail half of GPU 0's queue.
        let mut q = GpuQueues::new(true, true);
        q.set(vec![
            (0..8).map(TaskId).collect(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ]);
        assert_eq!(q.try_steal(3), Some((0, 4)));
        assert_eq!(q.lists()[0], (0..4).map(TaskId).collect::<Vec<_>>());
        assert_eq!(q.lists()[3], (4..8).map(TaskId).collect::<Vec<_>>());

        // Stealing off: GPU 0 dies at t = 0 holding 8 tasks while GPU 1
        // (its own bus) still queues more after its first pops. The
        // orphans go one by one to the shortest alive queues, GPUs 2 and
        // 3 on the other bus, which share them.
        let ts = uniform_tasks(16);
        let lists = vec![
            (0..8).map(TaskId).collect(),
            (8..16).map(TaskId).collect(),
            Vec::new(),
            Vec::new(),
        ];
        let spec = PlatformSpec::v100_multibus(4, 2).with_memory(100);
        let (report, _) = run_gpu0_failing(&ts, &spec, &mut queued(lists, false));
        assert_eq!(tasks_per_gpu(&report), vec![0, 8, 4, 4]);
    }

    #[test]
    fn steal_takes_from_most_loaded() {
        let mut q = GpuQueues::new(true, true);
        q.set(vec![
            (0..2).map(TaskId).collect(),
            (2..12).map(TaskId).collect(),
            Vec::new(),
        ]);
        assert_eq!(q.try_steal(2), Some((1, 5)), "half of 10");
        assert_eq!(q.lists()[1].len(), 5);
        assert_eq!(q.lists()[0].len(), 2, "not the victim");
        // Stolen tasks are the tail of GPU1's list.
        assert_eq!(q.lists()[2], (7..12).map(TaskId).collect::<Vec<_>>());
    }
}
