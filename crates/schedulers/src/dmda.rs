//! DMDA and DMDAR — StarPU's "Deque Model Data Aware" schedulers
//! (Algorithms 1 and 2, §IV-A).
//!
//! DMDA allocates tasks in submission order to the GPU with the smallest
//! predicted completion time
//!
//! ```text
//! C_k(T_i) = Σ_{D_j ∈ D(T_i), D_j ∉ InMem(k)} comm_k(D_j) + comp_k(T_i)
//! ```
//!
//! where `InMem(k)` is the set of data already allocated (and therefore
//! prefetch-requested) to GPU `k`. DMDAR adds the *Ready* strategy: each
//! GPU serves its local queue favouring the task with the most input data
//! already loaded.
//!
//! Each GPU serves only its own queue ([`GpuQueues`], without
//! stealing), so a GPU's worker parks when that queue runs dry and is
//! unparked when a task is allocated to it.

use crate::queues::GpuQueues;
use memsched_model::{GpuId, TaskId, TaskSet};
use memsched_platform::{Hooks, Nanos, PlatformSpec, Probe, RuntimeView, Scheduler};
use std::collections::VecDeque;

/// The DMDA family; [`DmdaScheduler::dmda`] builds the plain variant and
/// [`DmdaScheduler::dmdar`] the Ready one used throughout the paper.
#[derive(Debug)]
pub struct DmdaScheduler {
    /// Per-GPU allocated task queues, filled during `prepare` (or by
    /// arrivals online), served in order or by Ready.
    queues: GpuQueues,
    /// Predicted completion horizon per GPU — the Eq. (1) state, hoisted
    /// into the struct so the online mode can continue the allocation
    /// incrementally as tasks arrive.
    ready_at: Vec<Nanos>,
    /// Predicted per-GPU InMem sets (prefetch-requested data).
    in_mem: Vec<Vec<bool>>,
}

impl DmdaScheduler {
    fn new(ready: bool) -> Self {
        Self {
            queues: GpuQueues::new(ready, false),
            ready_at: Vec::new(),
            in_mem: Vec::new(),
        }
    }

    /// Plain DMDA: per-GPU FIFO service of the allocation order.
    pub fn dmda() -> Self {
        Self::new(false)
    }

    /// DMDAR: DMDA allocation + Ready reordering at runtime.
    pub fn dmdar() -> Self {
        Self::new(true)
    }

    /// Builder: serve Ready through [`crate::ready::ready_pick_scan`]
    /// (differential testing only).
    #[cfg(feature = "naive")]
    pub fn with_naive_ready(mut self) -> Self {
        self.queues.naive_ready = true;
        self
    }

    /// The per-GPU allocation computed by `prepare` (for tests).
    pub fn queues(&self) -> &[VecDeque<TaskId>] {
        self.queues.lists()
    }

    /// One Eq. (1) allocation step for `t`: route it to the GPU with the
    /// smallest predicted completion time, update the predicted horizon
    /// and InMem state, and unpark the chosen GPU's worker. Online, the
    /// `view`'s clock floors each GPU's horizon and its dead GPUs are
    /// skipped; the batch prepare passes `None` (floor 0, every GPU
    /// alive).
    fn allocate(
        &mut self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        t: TaskId,
        view: Option<&RuntimeView<'_>>,
    ) {
        let now = view.map_or(0, RuntimeView::now);
        let mut best: Option<(usize, Nanos)> = None;
        for g in 0..self.ready_at.len() {
            if view.is_some_and(|v| !v.is_alive(GpuId(g as u32))) {
                continue;
            }
            let comp = spec.compute_time_on(g, ts.flops(t));
            let comm: Nanos = ts
                .input_ids(t)
                .filter(|&d| !self.in_mem[g][d.index()])
                .map(|d| spec.comm_estimate(ts.data_size(d)))
                .sum();
            let c = self.ready_at[g].max(now) + comm + comp;
            if best.is_none_or(|(_, bc)| c < bc) {
                best = Some((g, c));
            }
        }
        // With every GPU dead the engine has already aborted; park the
        // task on GPU 0 to stay panic-free.
        let (g, c) = best.unwrap_or((0, now));
        self.queues.push(g, t);
        self.ready_at[g] = c;
        for d in ts.input_ids(t) {
            self.in_mem[g][d.index()] = true; // prefetch requested (Alg. 1 l.8-9)
        }
        if let Some(v) = view {
            v.unpark(GpuId(g as u32));
        }
    }

    /// Empty queues, horizons and InMem sets for `k` GPUs.
    fn reset(&mut self, k: usize, num_data: usize) {
        self.queues.set(vec![Vec::new(); k]);
        self.ready_at = vec![0; k];
        self.in_mem = vec![vec![false; num_data]; k];
    }
}

impl Scheduler for DmdaScheduler {
    fn name(&self) -> String {
        if self.queues.ready {
            "DMDAR".into()
        } else {
            "DMDA".into()
        }
    }

    fn hooks(&self) -> Hooks {
        Hooks::NONE
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.reset(spec.num_gpus, ts.num_data());
        for t in ts.tasks() {
            self.allocate(ts, spec, t, None);
        }
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        // Start from an empty horizon; `on_task_arrival` continues the
        // Eq. (1) allocation one task at a time.
        self.reset(spec.num_gpus, ts.num_data());
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.allocate(view.task_set(), view.spec(), task, Some(view));
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        self.queues.pop(gpu, view)
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.queues.attach_probe(probe);
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        // The dead GPU's interrupted pipeline tasks and its whole unserved
        // queue move one by one to the shortest surviving queue.
        self.queues.return_lost(gpu, lost, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_model::figure1_example;
    use memsched_platform::run;
    use memsched_workloads::gemm_2d;

    #[test]
    fn allocation_covers_all_tasks() {
        let ts = gemm_2d(6);
        let spec = PlatformSpec::v100(2);
        let mut s = DmdaScheduler::dmdar();
        s.prepare(&ts, &spec);
        let total: usize = s.queues().iter().map(VecDeque::len).sum();
        assert_eq!(total, 36);
        // Both GPUs get a sensible share.
        assert!(s.queues().iter().all(|q| q.len() >= 12));
    }

    #[test]
    fn completion_time_model_balances_load() {
        // Eq. (1) is a greedy earliest-completion rule: the allocation
        // must end up balanced, and the predicted data replication must
        // stay below full duplication (some affinity is exploited).
        let ts = gemm_2d(8);
        let spec = PlatformSpec::v100(2);
        let mut s = DmdaScheduler::dmda();
        s.prepare(&ts, &spec);
        let (a, b) = (s.queues()[0].len(), s.queues()[1].len());
        assert_eq!(a + b, 64);
        assert!(a.abs_diff(b) <= 16, "imbalanced: {a} vs {b}");
        // Count data replicated on both GPUs in the predicted InMem sets.
        let mut used = vec![[false; 2]; ts.num_data()];
        for (g, q) in s.queues().iter().enumerate() {
            for &t in q {
                for &d in ts.inputs(t) {
                    used[d as usize][g] = true;
                }
            }
        }
        let replicated = used.iter().filter(|u| u[0] && u[1]).count();
        assert!(
            replicated < ts.num_data(),
            "every data item replicated: no affinity at all"
        );
    }

    #[test]
    fn single_gpu_runs_everything() {
        let ts = figure1_example();
        let spec = PlatformSpec::v100(1).with_memory(6);
        let mut s = DmdaScheduler::dmdar();
        let report = run(&ts, &spec, &mut s).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 9);
        assert_eq!(report.total_loads, 6);
    }

    #[test]
    fn two_gpus_run_everything_under_pressure() {
        let ts = gemm_2d(6);
        let item = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(4 * item);
        let mut s = DmdaScheduler::dmdar();
        let report = run(&ts, &spec, &mut s).unwrap();
        assert_eq!(
            report.max_load() + report.per_gpu.iter().map(|g| g.tasks).min().unwrap(),
            36
        );
        assert!(report.total_loads >= 12, "compulsory loads at least");
    }

    #[test]
    fn dmdar_beats_dmda_on_reordered_benefit() {
        // Under memory pressure Ready should not be worse than FIFO.
        let ts = gemm_2d(8);
        let item = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100(1).with_memory(6 * item);
        let mut dmda = DmdaScheduler::dmda();
        let mut dmdar = DmdaScheduler::dmdar();
        let loads_fifo = run(&ts, &spec, &mut dmda).unwrap().total_loads;
        let loads_ready = run(&ts, &spec, &mut dmdar).unwrap().total_loads;
        assert!(
            loads_ready <= loads_fifo,
            "ready {loads_ready} vs fifo {loads_fifo}"
        );
    }

    #[test]
    fn heterogeneous_gpus_get_proportional_work() {
        // One GPU twice as fast: DMDA's completion-time model should give
        // it roughly two thirds of the tasks.
        let ts = gemm_2d(12);
        let spec = PlatformSpec::v100(2).with_heterogeneous_gflops(vec![2.0 * 13_253.0, 13_253.0]);
        let mut s = DmdaScheduler::dmda();
        s.prepare(&ts, &spec);
        let fast = s.queues()[0].len() as f64;
        let slow = s.queues()[1].len() as f64;
        assert!(
            fast / slow > 1.4 && fast / slow < 2.8,
            "fast/slow = {:.2}",
            fast / slow
        );
    }

    #[test]
    fn failed_gpu_rehomes_to_shortest_queue_on_any_bus() {
        // On `v100_multibus(4, 2)` (GPUs 0/1 on bus 0, GPUs 2/3 on bus
        // 1), GPU 0 dies at t = 0 holding 8 tasks while GPU 1 queues 8
        // more. The orphans go one by one to the shortest alive queue,
        // whichever bus it is on: GPUs 2 and 3 share them.
        struct Seeded(DmdaScheduler);
        impl Scheduler for Seeded {
            fn name(&self) -> String {
                self.0.name()
            }
            fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
                self.0.prepare(ts, spec);
                let tasks: Vec<TaskId> = ts.tasks().collect();
                self.0.queues.set(vec![
                    tasks[..8].to_vec(),
                    tasks[8..].to_vec(),
                    Vec::new(),
                    Vec::new(),
                ]);
            }
            fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
                self.0.pop_task(gpu, view)
            }
            fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
                self.0.on_gpu_failed(gpu, lost, view);
            }
        }
        let ts = gemm_2d(4);
        let spec = PlatformSpec::v100_multibus(4, 2);
        let config = memsched_platform::RunConfig {
            faults: memsched_platform::FaultPlan::none().with_gpu_failure(0, 0),
            ..Default::default()
        };
        let (report, _) = memsched_platform::run_with_config(
            &ts,
            &spec,
            &mut Seeded(DmdaScheduler::dmda()),
            &config,
        )
        .unwrap();
        let tasks: Vec<usize> = report.per_gpu.iter().map(|g| g.tasks).collect();
        assert_eq!(tasks, vec![0, 8, 4, 4]);
    }

    #[test]
    fn name_reflects_variant() {
        assert_eq!(DmdaScheduler::dmda().name(), "DMDA");
        assert_eq!(DmdaScheduler::dmdar().name(), "DMDAR");
    }
}
