//! ROUTER — the residency-aware request router (sixth scheduler
//! family), modeled on Preble's multi-GPU prefix-cache scheduler.
//!
//! Per task, every GPU is scored as
//!
//! ```text
//! score_k(T_i) = recomp_bytes_k(T_i) + α · load_k
//! ```
//!
//! where `recomp_bytes_k` is the bytes of `T_i`'s inputs not present on
//! GPU `k` — the cost of (re)materializing the missing part of its
//! prefix path — and `load_k` is the GPU's outstanding *routed* work in
//! bytes: the recomputation costs charged to it by earlier unfinished
//! placements (Preble's `mem_cost[selected] += recomp`) plus in-flight
//! transfer bytes. The task goes to the deterministic argmin (ties →
//! lowest GPU index). The first term rewards placing a request where
//! its shared ancestors already live; the second keeps a hot prefix
//! from welding the whole stream onto one GPU. Charging only the
//! *miss* bytes (not full footprints) matters: a warm request adds no
//! load, so affinity is self-reinforcing exactly when it is free.
//!
//! Online, `recomp_bytes` walks the task's inputs and counts those
//! neither resident on (or in flight to) GPU `k` nor already planned
//! there by an earlier routed request; in the batch prepare (no runtime
//! view yet) only the planned-`InMem` accounting DMDA uses applies. The
//! router never reads the engine's missing-input counters, so its runs
//! never build them. Eviction installs a pinned-ancestor hint
//! (LUF-style): the planned future uses of every data item on each GPU
//! are known from the routed queues, so the victim is the resident item
//! with the fewest planned uses — interior tree nodes shared by many
//! queued requests are evicted last.

use std::collections::VecDeque;

use memsched_model::{DataId, GpuId, TaskId, TaskSet};
use memsched_platform::obs::{GaugeKind, ObsEvent};
use memsched_platform::{Hooks, PlatformSpec, Probe, RuntimeView, Scheduler};

/// Default α in thousandths: 0.1 — a queued byte costs a tenth of a
/// recomputed byte. Affinity has to dominate for a prefix tree: the
/// recomp term is what keeps a shared prefix on one GPU, and an α near
/// 1.0 lets transient queue imbalance split hot subtrees across GPUs
/// (duplicating their bytes on both), while α = 0 collapses every
/// request onto GPU 0 and thrashes its cache. 0.1 keeps enough load
/// signal to spread cold subtrees without breaking warm affinity.
pub const DEFAULT_ALPHA_MILLI: u64 = 100;

/// The residency-aware router (see module docs).
#[derive(Debug)]
pub struct RouterScheduler {
    /// Load weight α in thousandths (`score = recomp + α·load`).
    alpha_milli: u64,
    /// Per-GPU FIFO of routed tasks.
    queues: Vec<VecDeque<TaskId>>,
    /// Per-GPU outstanding bytes: recomputation costs charged by tasks
    /// routed here and not yet completed.
    queued_bytes: Vec<u64>,
    /// Per-task recomputation cost charged at routing time (credited
    /// back on completion).
    routed_cost: Vec<u64>,
    /// Per-GPU bytes currently crossing the interconnect toward the GPU
    /// (maintained by `on_load_issued`/`on_data_loaded`).
    inflight_bytes: Vec<u64>,
    /// Per-GPU planned-residency sets (the DMDA `InMem` analogue):
    /// written by every routing decision, batch or online, and read by
    /// both scores — online alongside the GPU's actual residency.
    planned: Vec<Vec<bool>>,
    /// Per (GPU, data): planned future uses by routed-but-unfinished
    /// tasks — the LUF eviction hint.
    future_uses: Vec<Vec<u32>>,
    /// Observability probe (queue-depth gauges on pop).
    probe: Option<Probe>,
}

impl Default for RouterScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterScheduler {
    /// Router with the default α = 0.1 ([`DEFAULT_ALPHA_MILLI`]).
    pub fn new() -> Self {
        RouterScheduler {
            alpha_milli: DEFAULT_ALPHA_MILLI,
            queues: Vec::new(),
            queued_bytes: Vec::new(),
            routed_cost: Vec::new(),
            inflight_bytes: Vec::new(),
            planned: Vec::new(),
            future_uses: Vec::new(),
            probe: None,
        }
    }

    /// Builder: set α in thousandths (0 = pure affinity, no load term).
    pub fn with_alpha_milli(mut self, alpha_milli: u64) -> Self {
        self.alpha_milli = alpha_milli;
        self
    }

    /// The per-GPU routing computed so far (for tests).
    pub fn queues(&self) -> &[VecDeque<TaskId>] {
        &self.queues
    }

    fn reset(&mut self, num_gpus: usize, num_data: usize, num_tasks: usize) {
        self.queues = vec![VecDeque::new(); num_gpus];
        self.queued_bytes = vec![0; num_gpus];
        self.routed_cost = vec![0; num_tasks];
        self.inflight_bytes = vec![0; num_gpus];
        self.planned = vec![vec![false; num_data]; num_gpus];
        self.future_uses = vec![vec![0; num_data]; num_gpus];
    }

    /// `α·load` of GPU `g`, in score units (bytes).
    fn load_term(&self, g: usize) -> u64 {
        (self.queued_bytes[g] + self.inflight_bytes[g]) * self.alpha_milli / 1000
    }

    /// Enqueue `t` on `g`, charging its routing-time `recomp` cost to
    /// the GPU's load, and update the uses/planned accounting.
    fn commit(&mut self, ts: &TaskSet, g: usize, t: TaskId, recomp: u64) {
        self.queues[g].push_back(t);
        self.queued_bytes[g] += recomp;
        self.routed_cost[t.index()] = recomp;
        for &d in ts.inputs(t) {
            self.future_uses[g][d as usize] += 1;
            self.planned[g][d as usize] = true;
        }
    }

    /// Route `t` by the batch (planned-residency) score. `alive` filters
    /// candidate GPUs; with none alive the task parks on GPU 0 so the
    /// engine can surface the abort itself.
    fn route_planned(&mut self, ts: &TaskSet, t: TaskId, alive: impl Fn(usize) -> bool) {
        let mut best: Option<(u64, u64, usize)> = None;
        for g in 0..self.queues.len() {
            if !alive(g) {
                continue;
            }
            let recomp: u64 = ts
                .input_ids(t)
                .filter(|&d| !self.planned[g][d.index()])
                .map(|d| ts.data_size(d))
                .sum();
            let score = recomp + self.load_term(g);
            if best.is_none_or(|(bs, _, bg)| (score, g) < (bs, bg)) {
                best = Some((score, recomp, g));
            }
        }
        let (recomp, g) = best.map_or((ts.task_footprint(t), 0), |(_, r, g)| (r, g));
        self.commit(ts, g, t, recomp);
    }

    /// Route `t` by the runtime score: bytes the GPU would genuinely
    /// have to fetch, plus the load term. An input counts as free when
    /// it is resident (or already in flight) on the GPU *or* when an
    /// earlier request routed there has planned its fetch — the second
    /// clause is the prefix-affinity signal that keeps a burst of
    /// requests sharing a cold prefix from duplicating it across GPUs
    /// before the first fetch lands.
    fn route_runtime(&mut self, ts: &TaskSet, t: TaskId, view: &RuntimeView<'_>) {
        let mut best: Option<(u64, u64, usize)> = None;
        for g in 0..self.queues.len() {
            if !view.is_alive(GpuId(g as u32)) {
                continue;
            }
            let recomp: u64 = ts
                .input_ids(t)
                .filter(|&d| {
                    !self.planned[g][d.index()] && !view.is_resident_or_loading(GpuId(g as u32), d)
                })
                .map(|d| ts.data_size(d))
                .sum();
            let score = recomp + self.load_term(g);
            if best.is_none_or(|(bs, _, bg)| (score, g) < (bs, bg)) {
                best = Some((score, recomp, g));
            }
        }
        let (recomp, g) = best.map_or((ts.task_footprint(t), 0), |(_, r, g)| (r, g));
        self.commit(ts, g, t, recomp);
    }
}

impl Scheduler for RouterScheduler {
    fn name(&self) -> String {
        "ROUTER".into()
    }

    fn hooks(&self) -> Hooks {
        Hooks::CHOOSE_VICTIM
            | Hooks::ON_TASK_COMPLETE
            | Hooks::ON_LOAD_ISSUED
            | Hooks::ON_DATA_LOADED
    }

    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.reset(spec.num_gpus, ts.num_data(), ts.num_tasks());
        for t in ts.tasks() {
            self.route_planned(ts, t, |_| true);
        }
    }

    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.reset(spec.num_gpus, ts.num_data(), ts.num_tasks());
    }

    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.route_runtime(view.task_set(), task, view);
    }

    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let task = self.queues[gpu.index()].pop_front()?;
        if let Some(p) = &self.probe {
            p.emit(ObsEvent::Gauge {
                t: view.now(),
                gpu: Some(gpu.0),
                kind: GaugeKind::ReadyQueueDepth,
                value: self.queues[gpu.index()].len() as f64,
            });
        }
        Some(task)
    }

    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        // LUF over the routed horizon: evict the resident item with the
        // fewest planned future uses on this GPU (ascending-id scan, so
        // ties break toward the smallest id — the determinism contract).
        // Shared ancestors of queued requests have high use counts and
        // survive. Pinned data is skipped — the engine would reject it.
        //
        // When the minimum is zero the routed horizon says nothing about
        // the candidate (online queues are shallow; a hot ancestor
        // between two of its requests also reads zero), so the hint
        // defers to the engine's LRU fallback — recency is the better
        // predictor where the plan is silent. Only a positive count is
        // real knowledge worth overriding LRU with.
        let g = gpu.index();
        let mut best: Option<(u32, DataId)> = None;
        for d in view.resident(gpu) {
            if view.is_pinned(gpu, d) {
                continue;
            }
            let uses = self.future_uses[g][d.index()];
            if uses == 0 {
                return None; // no knowledge here: let LRU pick
            }
            if best.is_none_or(|(bu, _)| uses < bu) {
                best = Some((uses, d));
            }
        }
        best.map(|(_, d)| d)
    }

    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        let g = gpu.index();
        let ts = view.task_set();
        let cost = std::mem::take(&mut self.routed_cost[task.index()]);
        self.queued_bytes[g] = self.queued_bytes[g].saturating_sub(cost);
        for &d in ts.inputs(task) {
            let uses = &mut self.future_uses[g][d as usize];
            *uses = uses.saturating_sub(1);
        }
    }

    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.inflight_bytes[gpu.index()] += view.task_set().data_size(data);
    }

    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let g = gpu.index();
        self.inflight_bytes[g] =
            self.inflight_bytes[g].saturating_sub(view.task_set().data_size(data));
    }

    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        // Re-score the orphans — the interrupted pipeline first, then the
        // dead GPU's unserved queue, in original order — across the
        // survivors. Runtime residency is authoritative here even in
        // batch mode: the survivors' actual caches, not the stale
        // prepare-time plan, decide where recomputation is cheapest.
        let g = gpu.index();
        let mut orphans: Vec<TaskId> = lost.to_vec();
        orphans.extend(self.queues[g].drain(..));
        self.queued_bytes[g] = 0;
        self.inflight_bytes[g] = 0;
        self.future_uses[g].fill(0);
        self.planned[g].fill(false);
        let any_alive = (0..self.queues.len()).any(|h| view.is_alive(GpuId(h as u32)));
        if !any_alive {
            // Nothing to reroute to; the engine aborts the run.
            self.queues[g].extend(orphans);
            return;
        }
        let ts = view.task_set();
        for t in orphans {
            self.route_runtime(ts, t, view);
        }
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsched_platform::run;
    use memsched_workloads::gemm_2d;
    use memsched_workloads::prefix::{prefix_tree, tree_bytes, PrefixConfig};

    fn small_tree() -> memsched_model::TaskSet {
        prefix_tree(&PrefixConfig {
            depth: 3,
            fanout: 3,
            tasks: 60,
            item_bytes: 1 << 16,
            zipf_s: 1.1,
            seed: 11,
        })
    }

    #[test]
    fn batch_routing_covers_all_tasks() {
        let ts = small_tree();
        let spec = PlatformSpec::v100(2);
        let mut s = RouterScheduler::new();
        s.prepare(&ts, &spec);
        let total: usize = s.queues().iter().map(VecDeque::len).sum();
        assert_eq!(total, 60);
        assert!(
            s.queues().iter().all(|q| !q.is_empty()),
            "load term must spread a hot prefix across both GPUs"
        );
    }

    #[test]
    fn affinity_groups_shared_paths() {
        // With α = 0 (pure affinity) every task after the first that
        // shares the full hot path must land on the same GPU.
        let ts = small_tree();
        let spec = PlatformSpec::v100(2);
        let mut s = RouterScheduler::new().with_alpha_milli(0);
        s.prepare(&ts, &spec);
        let mut gpu_of_inputs = std::collections::HashMap::new();
        for (g, q) in s.queues().iter().enumerate() {
            for &t in q {
                gpu_of_inputs
                    .entry(ts.inputs(t).to_vec())
                    .or_insert_with(Vec::new)
                    .push(g);
            }
        }
        for (_, gpus) in gpu_of_inputs {
            assert!(
                gpus.windows(2).all(|w| w[0] == w[1]),
                "identical paths split across GPUs under pure affinity"
            );
        }
    }

    #[test]
    fn runs_the_prefix_workload_under_pressure() {
        let ts = small_tree();
        // 2× cache pressure: each GPU holds a quarter of the tree.
        let mem = (tree_bytes(&ts) / 4).max(4 * (1 << 16));
        let spec = PlatformSpec::v100(2).with_memory(mem);
        let mut s = RouterScheduler::new();
        let report = run(&ts, &spec, &mut s).unwrap();
        let tasks: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(tasks, 60);
    }

    #[test]
    fn router_beats_eager_on_transfer_bytes() {
        let ts = prefix_tree(&PrefixConfig {
            depth: 4,
            fanout: 3,
            tasks: 200,
            item_bytes: 1 << 18,
            zipf_s: 1.1,
            seed: 5,
        });
        let mem = (tree_bytes(&ts) / 4).max(16 * (1 << 18));
        let spec = PlatformSpec::v100(2).with_memory(mem);
        let router = run(&ts, &spec, &mut RouterScheduler::new()).unwrap();
        let eager = run(&ts, &spec, &mut crate::EagerScheduler::new()).unwrap();
        assert!(
            router.total_load_bytes < eager.total_load_bytes,
            "router {} vs eager {}",
            router.total_load_bytes,
            eager.total_load_bytes
        );
    }

    #[test]
    fn works_on_dense_gemm_too() {
        // The router is a general policy: it must complete non-tree
        // workloads (satellite engine-mode coverage, not a perf claim).
        let ts = gemm_2d(6);
        let tile = ts.data_size(DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(6 * tile);
        let report = run(&ts, &spec, &mut RouterScheduler::new()).unwrap();
        let tasks: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(tasks, 36);
    }

    #[test]
    fn name_is_router() {
        assert_eq!(RouterScheduler::new().name(), "ROUTER");
    }
}
