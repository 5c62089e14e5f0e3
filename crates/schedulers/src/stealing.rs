//! Task stealing shared by hMETIS+R and mHFP (§IV-B, §IV-C): when a GPU
//! has exhausted its allocated tasks while others still have work, it
//! steals **half of the remaining tasks of the most loaded GPU, taken from
//! the tail of its list**.

use crate::ready::{ready_pick, DEFAULT_READY_WINDOW};
use memsched_model::{GpuId, TaskId};
use memsched_platform::obs::{GaugeKind, ObsEvent};
use memsched_platform::{Probe, RuntimeView};
use std::collections::VecDeque;

/// Per-GPU task queues with Ready service and tail-half stealing.
#[derive(Clone, Debug, Default)]
pub struct StealingQueues {
    /// Double-ended, so that serving a task from the Ready window near
    /// the head shifts only the tasks ahead of it, and returned tasks go
    /// back to the head.
    queues: Vec<VecDeque<TaskId>>,
    /// Whether stealing is enabled (disabled for ablations).
    steal: bool,
    /// Number of successful steals (for reporting/tests).
    pub steals: u64,
    /// Observability probe (steal events, queue-depth gauges); absent on
    /// unobserved runs.
    probe: Option<Probe>,
}

impl StealingQueues {
    /// Build from per-GPU queues.
    pub fn new(queues: Vec<Vec<TaskId>>, steal: bool) -> Self {
        Self {
            queues: queues.into_iter().map(VecDeque::from).collect(),
            steal,
            steals: 0,
            probe: None,
        }
    }

    /// Attach an observability probe; subsequent steals emit
    /// [`ObsEvent::Steal`] and pops sample per-GPU queue depth.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    /// Remaining tasks on `gpu`.
    pub fn len(&self, gpu: GpuId) -> usize {
        self.queues[gpu.index()].len()
    }

    /// Append `task` to `gpu`'s local queue (online arrival routing).
    pub fn push(&mut self, gpu: GpuId, task: TaskId) {
        self.queues[gpu.index()].push_back(task);
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Pop the next task for `gpu`: Ready pick from the local queue,
    /// stealing half of the most loaded GPU's tail first if empty.
    pub fn pop(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
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
        if q.is_empty() {
            return None;
        }
        let i = ready_pick(q.make_contiguous(), gpu, view, DEFAULT_READY_WINDOW)?;
        let task = q
            .remove(i)
            .expect("ready_pick returns an index within the queue");
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

    /// Fault recovery: `gpu` died with `lost` tasks in its pipeline.
    /// The orphans return to the head of the dead GPU's list (they were
    /// next in line there), and the ordinary stealing machinery folds the
    /// whole remaining tail into the survivors as they go idle. When
    /// stealing is disabled nobody would ever pull from the dead queue,
    /// so it is re-homed onto the least loaded alive GPU immediately.
    pub fn return_tasks(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        let g = gpu.index();
        for &t in lost.iter().rev() {
            self.queues[g].push_front(t);
        }
        if !self.steal {
            let orphans = std::mem::take(&mut self.queues[g]);
            let target = (0..self.queues.len())
                .filter(|&h| h != g && view.is_alive(GpuId(h as u32)))
                .min_by_key(|&h| (self.queues[h].len(), h));
            match target {
                Some(h) => self.queues[h].extend(orphans),
                None => self.queues[g] = orphans,
            }
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
        let stolen = self.queues[v].split_off(vlen - take);
        self.queues[g] = stolen;
        self.steals += 1;
        Some((v, take as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::{TaskSet, TaskSetBuilder};
    use memsched_platform::{run, PlatformSpec, Scheduler, TraceMode};

    struct StealSched(StealingQueues);

    impl Scheduler for StealSched {
        fn name(&self) -> String {
            "steal-test".into()
        }
        fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
            self.0.pop(gpu, view)
        }
    }

    fn uniform_tasks(m: usize) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let d = b.add_data(10);
        for _ in 0..m {
            b.add_task(&[d], 1e6);
        }
        b.build()
    }

    #[test]
    fn idle_gpu_steals_half_the_tail() {
        let ts = uniform_tasks(8);
        // Everything initially on GPU0.
        let queues = vec![ts.tasks().collect(), Vec::new()];
        let mut sched = StealSched(StealingQueues::new(queues, true));
        let spec = PlatformSpec::v100(2).with_memory(100);
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert!(sched.0.steals >= 1);
        assert!(
            report.per_gpu[1].tasks >= 2,
            "GPU1 should have stolen work: {:?}",
            report.per_gpu.iter().map(|g| g.tasks).collect::<Vec<_>>()
        );
        assert_eq!(report.per_gpu[0].tasks + report.per_gpu[1].tasks, 8);
    }

    #[test]
    fn stealing_disabled_leaves_imbalance() {
        let ts = uniform_tasks(8);
        let queues = vec![ts.tasks().collect(), Vec::new()];
        let mut sched = StealSched(StealingQueues::new(queues, false));
        let spec = PlatformSpec::v100(2).with_memory(100);
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert_eq!(sched.0.steals, 0);
        assert_eq!(report.per_gpu[0].tasks, 8);
        assert_eq!(report.per_gpu[1].tasks, 0);
    }

    #[test]
    fn steal_from_single_task_victim_takes_it() {
        // vlen / 2 rounds to zero for a one-task victim; the `.max(1)`
        // must still move that last task to the idle thief.
        let mut q = StealingQueues::new(vec![vec![TaskId(0)], Vec::new()], true);
        q.try_steal(1);
        assert_eq!(q.len(GpuId(0)), 0);
        assert_eq!(q.len(GpuId(1)), 1);
        assert_eq!(q.steals, 1);
    }

    #[test]
    fn steal_with_no_victims_is_a_clean_noop() {
        // Every queue empty (all survivors idle simultaneously): stealing
        // must neither panic nor count a steal, and pop returns None.
        let mut q = StealingQueues::new(vec![Vec::new(), Vec::new(), Vec::new()], true);
        q.try_steal(0);
        assert_eq!(q.steals, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn all_idle_survivors_drain_a_dead_queue_without_duplication() {
        // Three GPUs; GPU0 dies holding all the work. Both survivors go
        // idle at once and steal concurrently — every task must be served
        // exactly once across them.
        let ts = uniform_tasks(9);
        let queues = vec![ts.tasks().collect(), Vec::new(), Vec::new()];
        let sched = StealSched(StealingQueues::new(queues, true));
        let spec = PlatformSpec::v100(3).with_memory(100);
        let plan = memsched_platform::FaultPlan::none().with_gpu_failure(0, 0);
        let config = memsched_platform::RunConfig {
            faults: plan,
            ..Default::default()
        };
        struct StealRecover(StealSched);
        impl Scheduler for StealRecover {
            fn name(&self) -> String {
                "steal-recover".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.0.pop_task(gpu, view)
            }
            fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
                self.0 .0.return_tasks(gpu, lost, view);
            }
        }
        let mut recovering = StealRecover(sched);
        let report = memsched_platform::run_with_config(&ts, &spec, &mut recovering, &config)
            .unwrap()
            .0;
        assert_eq!(report.per_gpu[0].tasks, 0, "GPU0 died at t = 0");
        assert_eq!(report.per_gpu[1].tasks + report.per_gpu[2].tasks, 9);
        assert!(recovering.0 .0.steals >= 2, "both survivors must steal");
    }

    #[test]
    fn no_steal_rehoming_preserves_service_order() {
        // Stealing disabled: when GPU0 dies its whole queue re-homes to
        // the surviving GPU immediately, in the original service order.
        let ts = uniform_tasks(6);
        let queues = vec![ts.tasks().collect(), Vec::new()];
        struct Recover(StealingQueues);
        impl Scheduler for Recover {
            fn name(&self) -> String {
                "rehome-test".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.0.pop(gpu, view)
            }
            fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
                self.0.return_tasks(gpu, lost, view);
            }
        }
        let mut sched = Recover(StealingQueues::new(queues, false));
        let spec = PlatformSpec::v100(2).with_memory(100);
        let config = memsched_platform::RunConfig {
            trace: TraceMode::Full,
            faults: memsched_platform::FaultPlan::none().with_gpu_failure(0, 0),
            ..Default::default()
        };
        let (report, trace) =
            memsched_platform::run_with_config(&ts, &spec, &mut sched, &config).unwrap();
        assert_eq!(report.per_gpu[1].tasks, 6, "everything re-homed to GPU1");
        assert_eq!(sched.0.steals, 0);
        let order: Vec<usize> = trace
            .iter()
            .filter_map(|e| match e {
                memsched_platform::TraceEvent::TaskFinished { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5], "service order preserved");
    }

    #[test]
    fn observed_steals_emit_events_matching_the_counter() {
        let ts = uniform_tasks(8);
        let queues = vec![ts.tasks().collect(), Vec::new()];
        struct Observed(StealingQueues);
        impl Scheduler for Observed {
            fn name(&self) -> String {
                "steal-observed".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.0.pop(gpu, view)
            }
            fn attach_probe(&mut self, probe: memsched_platform::Probe) {
                self.0.attach_probe(probe);
            }
        }
        let mut sched = Observed(StealingQueues::new(queues, true));
        let spec = PlatformSpec::v100(2).with_memory(100);
        let probe = memsched_platform::Probe::unbounded();
        memsched_platform::run_observed(
            &ts,
            &spec,
            &mut sched,
            &memsched_platform::RunConfig::default(),
            &probe,
        )
        .unwrap();
        let steal_events: Vec<(u32, u32, u32)> = probe
            .events()
            .iter()
            .filter_map(|e| match *e {
                memsched_platform::ObsEvent::Steal {
                    from, to, tasks, ..
                } => Some((from, to, tasks)),
                _ => None,
            })
            .collect();
        assert_eq!(steal_events.len() as u64, sched.0.steals);
        assert!(steal_events
            .iter()
            .all(|&(from, to, tasks)| { from == 0 && to == 1 && tasks >= 1 }));
    }

    #[test]
    fn steal_and_rehome_cross_bus_groups() {
        // §IV-B's rule is global. On `v100_multibus(4, 2)` GPUs 0/1 sit
        // on bus 0 and GPUs 2/3 on bus 1; with queues [8, 0, 0, 0], GPU 3
        // running dry takes the tail half of GPU 0's queue.
        let mut q = StealingQueues::new(
            vec![
                (0..8).map(TaskId).collect(),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            ],
            true,
        );
        assert_eq!(q.try_steal(3), Some((0, 4)));
        assert_eq!(q.queues[0], (0..4).map(TaskId).collect::<Vec<_>>());
        assert_eq!(q.queues[3], (4..8).map(TaskId).collect::<Vec<_>>());

        // Stealing off: GPU 0 dies at t = 0 holding 8 tasks while GPU 1
        // (its own bus) still queues 4 after its first pops. The whole
        // queue re-homes to GPU 2 — the shortest alive queue, on the
        // other bus.
        let ts = uniform_tasks(16);
        let queues = vec![
            (0..8).map(TaskId).collect(),
            (8..16).map(TaskId).collect(),
            Vec::new(),
            Vec::new(),
        ];
        struct Recover(StealingQueues);
        impl Scheduler for Recover {
            fn name(&self) -> String {
                "rehome-test".into()
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.0.pop(gpu, view)
            }
            fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
                self.0.return_tasks(gpu, lost, view);
            }
        }
        let mut sched = Recover(StealingQueues::new(queues, false));
        let spec = PlatformSpec::v100_multibus(4, 2).with_memory(100);
        let config = memsched_platform::RunConfig {
            faults: memsched_platform::FaultPlan::none().with_gpu_failure(0, 0),
            ..Default::default()
        };
        let (report, _) =
            memsched_platform::run_with_config(&ts, &spec, &mut sched, &config).unwrap();
        let tasks: Vec<usize> = report.per_gpu.iter().map(|g| g.tasks).collect();
        assert_eq!(tasks, vec![0, 8, 8, 0]);
    }

    #[test]
    fn steal_takes_from_most_loaded() {
        let mut q = StealingQueues::new(
            vec![
                (0..2).map(TaskId).collect(),
                (2..12).map(TaskId).collect(),
                Vec::new(),
            ],
            true,
        );
        q.try_steal(2);
        assert_eq!(q.len(GpuId(2)), 5, "half of 10");
        assert_eq!(q.len(GpuId(1)), 5);
        assert_eq!(q.len(GpuId(0)), 2, "not the victim");
        // Stolen tasks are the tail of GPU1's list.
        assert_eq!(q.queues[2], (7..12).map(TaskId).collect::<Vec<_>>());
    }
}
