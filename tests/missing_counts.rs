//! The engine's missing-input counters (`RuntimeView::missing`) exist
//! only once a policy asks for them:
//!
//! 1. **Built mid-run, exact from then on.** A shared-queue policy
//!    leaves the counters alone for its first pops, so the first query
//!    builds them from non-empty residency. On every later hook it checks
//!    the count, bytes, sole missing input and pair partner of every
//!    queued or pipelined task on every GPU against the input-list scans,
//!    through memory-pressure evictions and a capacity-shrink fault.
//! 2. **Never built for policies that never ask.** EAGER (batch, with
//!    the shrink fault) and the Router (an online prefix stream) finish
//!    without the counters ever being built.

use memsched::experiments::prefix_route::{sweep_spec, sweep_taskset, SweepConfig};
use memsched::prelude::*;
use memsched::schedulers::RouterScheduler;
use memsched::workloads::gemm_2d;
use std::collections::VecDeque;

/// FIFO over one shared queue that first reads the missing-input
/// counters after `lazy_pops` pops, then checks them on every hook.
struct LateReader {
    queue: VecDeque<TaskId>,
    lazy_pops: usize,
    pops: usize,
    checks: usize,
    evictions_checked: usize,
    shrinks_checked: usize,
}

impl LateReader {
    fn new(lazy_pops: usize) -> Self {
        LateReader {
            queue: VecDeque::new(),
            lazy_pops,
            pops: 0,
            checks: 0,
            evictions_checked: 0,
            shrinks_checked: 0,
        }
    }

    /// Compare the counters with the scans; returns whether it did.
    fn check(&mut self, view: &RuntimeView<'_>) -> bool {
        let gpus = (0..view.spec().num_gpus).map(|g| GpuId(g as u32));
        if self.pops < self.lazy_pops {
            assert!(view.missing_built().is_none(), "built before any query");
            return false;
        }
        if view.missing_built().is_none() {
            assert!(
                gpus.clone().any(|g| view.used_bytes(g) > 0),
                "the first query should find data on some GPU"
            );
        }
        let missing = view.missing();
        let ts = view.task_set();
        let pipelined = gpus.clone().flat_map(|g| view.task_buffer(g));
        let tasks: Vec<TaskId> = self.queue.iter().copied().chain(pipelined).collect();
        for gpu in gpus {
            for &t in &tasks {
                let absent: Vec<DataId> = ts
                    .input_ids(t)
                    .filter(|&d| !view.is_resident_or_loading(gpu, d))
                    .collect();
                let at = format!("{gpu:?} {t:?} after {} pops", self.pops);
                assert_eq!(
                    missing.inputs(gpu, t),
                    view.missing_inputs_scan(gpu, t),
                    "{at}"
                );
                assert_eq!(missing.inputs(gpu, t), absent.len(), "{at}");
                assert_eq!(
                    missing.bytes(gpu, t),
                    view.missing_bytes_scan(gpu, t),
                    "{at}"
                );
                let sole = (absent.len() == 1).then(|| absent[0]);
                assert_eq!(missing.sole_input(gpu, t), sole, "{at}");
                for (i, &d) in absent.iter().enumerate() {
                    let partner = (absent.len() == 2).then(|| absent[1 - i]);
                    assert_eq!(missing.pair_partner(gpu, t, d), partner, "{at} {d:?}");
                }
            }
        }
        self.checks += 1;
        true
    }
}

impl Scheduler for LateReader {
    fn name(&self) -> String {
        "late-reader".into()
    }
    fn prepare(&mut self, ts: &TaskSet, _: &PlatformSpec) {
        self.queue = ts.tasks().collect();
    }
    fn pop_task(&mut self, _: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        self.check(view);
        let t = self.queue.pop_front()?;
        self.pops += 1;
        Some(t)
    }
    fn choose_victim(&mut self, _: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        self.check(view);
        None
    }
    fn on_task_complete(&mut self, _: GpuId, _: TaskId, view: &RuntimeView<'_>) {
        self.check(view);
    }
    fn on_load_issued(&mut self, _: GpuId, _: DataId, view: &RuntimeView<'_>) {
        self.check(view);
    }
    fn on_data_loaded(&mut self, _: GpuId, _: DataId, view: &RuntimeView<'_>) {
        self.check(view);
    }
    fn on_data_evicted(&mut self, _: GpuId, _: DataId, view: &RuntimeView<'_>) {
        if self.check(view) {
            self.evictions_checked += 1;
        }
    }
    fn on_capacity_changed(&mut self, _: GpuId, _: u64, view: &RuntimeView<'_>) {
        if self.check(view) {
            self.shrinks_checked += 1;
        }
    }
}

/// Forwards every hook to `inner` and asserts, after each, that the
/// missing-input counters were never built.
struct NeverBuilt<S> {
    inner: S,
    hooks: usize,
}

impl<S: Scheduler> NeverBuilt<S> {
    fn new(inner: S) -> Self {
        NeverBuilt { inner, hooks: 0 }
    }

    fn after(&mut self, view: &RuntimeView<'_>) {
        assert!(
            view.missing_built().is_none(),
            "{} built the missing-input counters",
            self.inner.name()
        );
        self.hooks += 1;
    }
}

impl<S: Scheduler> Scheduler for NeverBuilt<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn prepare(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.inner.prepare(ts, spec);
    }
    fn prepare_stream(&mut self, ts: &TaskSet, spec: &PlatformSpec) {
        self.inner.prepare_stream(ts, spec);
    }
    fn on_task_arrival(&mut self, task: TaskId, view: &RuntimeView<'_>) {
        self.inner.on_task_arrival(task, view);
        self.after(view);
    }
    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        let r = self.inner.pop_task(gpu, view);
        self.after(view);
        r
    }
    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        let r = self.inner.choose_victim(gpu, view);
        self.after(view);
        r
    }
    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        self.inner.on_task_complete(gpu, task, view);
        self.after(view);
    }
    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.inner.on_load_issued(gpu, data, view);
        self.after(view);
    }
    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.inner.on_data_loaded(gpu, data, view);
        self.after(view);
    }
    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.inner.on_data_evicted(gpu, data, view);
        self.after(view);
    }
    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        self.inner.on_gpu_failed(gpu, lost, view);
        self.after(view);
    }
    fn on_capacity_changed(&mut self, gpu: GpuId, capacity: u64, view: &RuntimeView<'_>) {
        self.inner.on_capacity_changed(gpu, capacity, view);
        self.after(view);
    }
}

/// A 64-task 2D GEMM on two GPUs with room for four tiles each, and a
/// shrink of GPU 0 to three tiles at half the fault-free EAGER makespan.
fn pressured_gemm() -> (TaskSet, PlatformSpec, RunConfig) {
    let ts = gemm_2d(8);
    let tile = ts.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let horizon = run(&ts, &spec, &mut EagerScheduler::new())
        .unwrap()
        .makespan;
    let config = RunConfig {
        faults: FaultPlan::none().with_capacity_shrink(0, horizon / 2, 3 * tile),
        ..RunConfig::default()
    };
    (ts, spec, config)
}

#[test]
fn counters_built_mid_run_match_the_scans_through_evictions_and_a_shrink() {
    let (ts, spec, config) = pressured_gemm();
    let mut policy = LateReader::new(10);
    let (report, _) = run_with_config(&ts, &spec, &mut policy, &config).unwrap();
    assert_eq!(
        report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
        ts.num_tasks()
    );
    assert!(policy.checks > 0, "the counters were never checked");
    assert!(
        policy.evictions_checked > 0,
        "no eviction after the counters were built"
    );
    assert_eq!(
        policy.shrinks_checked, 1,
        "the shrink came before the counters were built"
    );
}

#[test]
fn eager_and_router_never_build_the_counters() {
    let (ts, spec, config) = pressured_gemm();
    let mut eager = NeverBuilt::new(EagerScheduler::new());
    let (report, _) = run_with_config(&ts, &spec, &mut eager, &config).unwrap();
    assert!(report.total_evictions > 0, "the EAGER run never evicted");
    assert!(eager.hooks > 0);

    let stream = sweep_taskset(&SweepConfig {
        tasks: 300,
        rate_per_sec: 2000.0,
        seed: 7,
    });
    let online = RunConfig {
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    let mut router = NeverBuilt::new(RouterScheduler::new());
    let (report, _) =
        run_with_config(&stream, &sweep_spec(&stream, 4.0), &mut router, &online).unwrap();
    assert!(report.total_evictions > 0, "the Router run never evicted");
    assert!(router.hooks > 0);
}
