//! hMETIS+R (Algorithm 3, §IV-B): hypergraph-partition the task set into
//! `K` balanced parts (one per GPU), then serve each part with the Ready
//! reordering and tail-half task stealing.

use crate::stealing::StealingQueues;
use memsched_hypergraph::{evaluate, partition, Hypergraph, PartitionConfig};
use memsched_model::{GpuId, TaskId, TaskSet};
use memsched_platform::{Hooks, PlatformSpec, Probe, RuntimeView, Scheduler};

/// The hMETIS+R scheduler.
#[derive(Debug, Default)]
pub struct HmetisRScheduler {
    /// Partitioner settings (`k` is overwritten with the GPU count).
    config: PartitionerOptions,
    queues: Option<StealingQueues>,
    /// Probe kept until `prepare` builds the queues that emit with it.
    probe: Option<Probe>,
    /// Connectivity−1 of the partition (for reports/tests).
    pub partition_cost: u64,
    /// Online mode: per-GPU bitmap of data items referenced by tasks
    /// already routed there, driving the greedy affinity placement.
    assigned_data: Vec<Vec<bool>>,
}

/// User-facing knobs of [`HmetisRScheduler`].
#[derive(Clone, Debug)]
pub struct PartitionerOptions {
    /// Random restarts (hMETIS `Nruns`; the paper uses 20).
    pub nruns: usize,
    /// RNG seed.
    pub seed: u64,
    /// Enable task stealing (Algorithm 3, line 5).
    pub steal: bool,
}

impl Default for PartitionerOptions {
    fn default() -> Self {
        Self {
            nruns: 20,
            seed: 0x5eed,
            steal: true,
        }
    }
}

impl HmetisRScheduler {
    /// Paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Custom configuration.
    pub fn with_options(config: PartitionerOptions) -> Self {
        Self {
            config,
            queues: None,
            probe: None,
            partition_cost: 0,
            assigned_data: Vec::new(),
        }
    }

    /// Build the task hypergraph of §IV-B: one vertex per task (weighted
    /// by flops) and one hyperedge per data item spanning its consumers.
    pub fn build_hypergraph(ts: &TaskSet) -> Hypergraph {
        // Consumer lists are sorted and distinct, so they are pin rows
        // as they stand.
        let mut net_offsets = vec![0u32];
        let mut net_pins = Vec::new();
        let mut nweights = Vec::new();
        for d in ts.data() {
            let pins = ts.consumers(d);
            if pins.len() >= 2 {
                net_pins.extend_from_slice(pins);
                net_offsets.push(net_pins.len() as u32);
                nweights.push(ts.data_size(d).max(1));
            }
        }
        // Scale flops into integer weights; all-equal tasks get weight 1.
        let min_flops = ts
            .tasks()
            .map(|t| ts.flops(t))
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        let vweights: Vec<u64> = ts
            .tasks()
            .map(|t| (ts.flops(t) / min_flops).round().max(1.0) as u64)
            .collect();
        Hypergraph::from_csr(ts.num_tasks(), net_offsets, net_pins, vweights, nweights)
    }
}

impl Scheduler for HmetisRScheduler {
    fn name(&self) -> String {
        "hMETIS+R".into()
    }

    fn hooks(&self) -> Hooks {
        Hooks::NONE
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        let k = spec.num_gpus;
        let hg = Self::build_hypergraph(ts);
        let parts = if k == 1 {
            vec![0u32; ts.num_tasks()]
        } else if ts.num_tasks() < k {
            // Too few tasks to split into `k` parts: task `t` gets GPU `t`.
            let parts: Vec<u32> = (0..ts.num_tasks() as u32).collect();
            self.partition_cost = evaluate(&hg, &parts, k).connectivity_minus_one;
            parts
        } else {
            let cfg = PartitionConfig::for_parts(k)
                .with_nruns(self.config.nruns)
                .with_seed(self.config.seed);
            let p = partition(&hg, &cfg);
            self.partition_cost = p.quality.connectivity_minus_one;
            p.parts
        };
        let mut queues: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for t in ts.tasks() {
            queues[parts[t.index()] as usize].push(t);
        }
        let mut sq = StealingQueues::new(queues, self.config.steal);
        if let Some(p) = &self.probe {
            sq.attach_probe(p.clone());
        }
        self.queues = Some(sq);
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        // A global partition needs the whole hypergraph; online we fall
        // back to greedy affinity routing (hMETIS-style cut avoidance on
        // the visible horizon) over empty stealing queues.
        let k = spec.num_gpus;
        self.partition_cost = 0;
        self.assigned_data = vec![vec![false; ts.num_data()]; k];
        let mut sq = StealingQueues::new(vec![Vec::new(); k], self.config.steal);
        if let Some(p) = &self.probe {
            sq.attach_probe(p.clone());
        }
        self.queues = Some(sq);
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        // Route the arrival to the alive GPU whose assigned horizon
        // shares the most input bytes with it (ties → shortest queue,
        // then lowest index), mirroring the partitioner's objective of
        // keeping each data item's consumers on one GPU.
        let ts = view.task_set();
        let q = self
            .queues
            .as_mut()
            .expect("prepare_stream() must run first");
        let mut best: Option<(usize, u64, usize)> = None;
        for (g, seen) in self.assigned_data.iter().enumerate() {
            if !view.is_alive(GpuId(g as u32)) {
                continue;
            }
            let affinity: u64 = ts
                .input_ids(task)
                .filter(|&d| seen[d.index()])
                .map(|d| ts.data_size(d))
                .sum();
            let len = q.len(GpuId(g as u32));
            let better = match best {
                None => true,
                Some((_, ba, blen)) => affinity > ba || (affinity == ba && len < blen),
            };
            if better {
                best = Some((g, affinity, len));
            }
        }
        // With every GPU dead the engine aborts; park on GPU 0.
        let g = best.map_or(0, |(g, _, _)| g);
        q.push(GpuId(g as u32), task);
        for d in ts.input_ids(task) {
            self.assigned_data[g][d.index()] = true;
        }
    }

    fn attach_probe(&mut self, probe: Probe) {
        if let Some(q) = self.queues.as_mut() {
            q.attach_probe(probe.clone());
        }
        self.probe = Some(probe);
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        self.queues
            .as_mut()
            .expect("prepare() must run first")
            .pop(gpu, view)
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        // The dead GPU's partition tail folds into the survivors through
        // the ordinary stealing machinery.
        if let Some(q) = self.queues.as_mut() {
            q.return_tasks(gpu, lost, view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_platform::run;
    use memsched_workloads::gemm_2d;

    #[test]
    fn hypergraph_mirrors_task_set() {
        let ts = gemm_2d(4);
        let hg = HmetisRScheduler::build_hypergraph(&ts);
        assert_eq!(hg.num_vertices(), 16);
        assert_eq!(hg.num_nets(), 8); // 4 rows + 4 columns
        assert_eq!(hg.num_pins(), 32);
    }

    #[test]
    fn partition_balances_and_runs_everything() {
        let ts = gemm_2d(6);
        let spec = PlatformSpec::v100(2);
        let mut sched = HmetisRScheduler::with_options(PartitionerOptions {
            nruns: 4,
            ..Default::default()
        });
        let report = run(&ts, &spec, &mut sched).unwrap();
        let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(total, 36);
        // Stealing keeps the split near-even.
        assert!(report.max_load() <= 24, "max load {}", report.max_load());
    }

    #[test]
    fn partition_has_low_cut_on_grid() {
        let ts = gemm_2d(8);
        let spec = PlatformSpec::v100(2);
        let mut sched = HmetisRScheduler::with_options(PartitionerOptions {
            nruns: 8,
            ..Default::default()
        });
        sched.prepare(&ts, &spec);
        // Nets are weighted by data size; a perfect row/column split cuts
        // one family of 8 nets. Allow 2x slack.
        let item = ts.data_size(memsched_model::DataId(0));
        assert!(
            sched.partition_cost <= 16 * item,
            "cut = {} items",
            sched.partition_cost as f64 / item as f64
        );
    }

    #[test]
    fn beats_eager_under_memory_pressure() {
        let ts = gemm_2d(10);
        let item = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(6 * item);
        let mut hm = HmetisRScheduler::with_options(PartitionerOptions {
            nruns: 4,
            ..Default::default()
        });
        let mut eager = crate::eager::EagerScheduler::new();
        let hm_loads = run(&ts, &spec, &mut hm).unwrap().total_loads;
        let eager_loads = run(&ts, &spec, &mut eager).unwrap().total_loads;
        assert!(
            hm_loads <= eager_loads,
            "hMETIS+R {hm_loads} vs EAGER {eager_loads}"
        );
    }

    #[test]
    fn single_gpu_degenerates_to_ready_fifo() {
        let ts = gemm_2d(4);
        let spec = PlatformSpec::v100(1);
        let mut sched = HmetisRScheduler::new();
        let report = run(&ts, &spec, &mut sched).unwrap();
        assert_eq!(report.per_gpu[0].tasks, 16);
    }
}
