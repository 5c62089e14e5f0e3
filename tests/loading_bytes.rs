//! `RuntimeView::loading_bytes` counts the bytes in flight to each GPU,
//! which the Router's load term reads: transfers issued and not yet
//! delivered. An oracle wrapper checks the count of every live GPU, at
//! every callback the engine makes, against a residency walk that sums
//! the sizes of the GPU's `Loading` data. It runs through transfer
//! retries, NVLink peer copies, an online stream and a GPU failure.

use memsched::experiments::prefix_route::{sweep_spec, sweep_taskset, SweepConfig};
use memsched::prelude::*;
use memsched::schedulers::RouterScheduler;
use memsched::workloads::gemm_2d;

/// Forwards every call to `inner` after checking the count against the
/// walk. It declares every hook, so the engine calls it at every
/// callback.
struct Oracle {
    inner: Box<dyn Scheduler>,
    checks: u64,
    /// Checks that found bytes in flight to some GPU.
    in_flight: u64,
}

impl Oracle {
    fn check(&mut self, view: &RuntimeView<'_>) {
        let ts = view.task_set();
        let mut any = false;
        for g in 0..view.spec().num_gpus {
            let gpu = GpuId(g as u32);
            if !view.is_alive(gpu) {
                continue;
            }
            let walk: u64 = (0..ts.num_data() as u32)
                .map(DataId)
                .filter(|&d| view.is_resident_or_loading(gpu, d) && !view.is_resident(gpu, d))
                .map(|d| ts.data_size(d))
                .sum();
            assert_eq!(
                view.loading_bytes(gpu),
                walk,
                "{gpu:?} at {} ns, check {}",
                view.now(),
                self.checks
            );
            any |= walk > 0;
        }
        self.checks += 1;
        self.in_flight += u64::from(any);
    }
}

impl Scheduler for Oracle {
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
        self.check(view);
        self.inner.on_task_arrival(task, view);
    }
    fn pop_task(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<TaskId> {
        self.check(view);
        self.inner.pop_task(gpu, view)
    }
    fn choose_victim(&mut self, gpu: GpuId, view: &RuntimeView<'_>) -> Option<DataId> {
        self.check(view);
        self.inner.choose_victim(gpu, view)
    }
    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        self.check(view);
        self.inner.on_task_complete(gpu, task, view);
    }
    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.check(view);
        self.inner.on_load_issued(gpu, data, view);
    }
    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.check(view);
        self.inner.on_data_loaded(gpu, data, view);
    }
    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        self.check(view);
        self.inner.on_data_evicted(gpu, data, view);
    }
    fn on_gpu_failed(&mut self, gpu: GpuId, lost: &[TaskId], view: &RuntimeView<'_>) {
        self.check(view);
        self.inner.on_gpu_failed(gpu, lost, view);
    }
    fn on_transfer_retry(&mut self, _: GpuId, _: DataId, _: u32, view: &RuntimeView<'_>) {
        self.check(view);
    }
}

/// Run the oracle around `inner`; panic on an engine error or a wrong
/// count.
fn checked_run(
    ts: &TaskSet,
    spec: &PlatformSpec,
    config: &RunConfig,
    inner: Box<dyn Scheduler>,
) -> RunReport {
    let mut oracle = Oracle {
        inner,
        checks: 0,
        in_flight: 0,
    };
    let (report, _) = run_with_config(ts, spec, &mut oracle, config).unwrap();
    assert_eq!(
        report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
        ts.num_tasks()
    );
    assert!(
        oracle.in_flight > 0,
        "no check found bytes in flight ({} checks)",
        oracle.checks
    );
    report
}

/// A 64-task 2D GEMM on `spec` with room for four tiles per GPU.
fn pressured(spec: PlatformSpec) -> (TaskSet, PlatformSpec) {
    let ts = gemm_2d(8);
    let tile = ts.data_size(DataId(0));
    (ts, spec.with_memory(4 * tile))
}

#[test]
fn a_retried_transfer_keeps_its_bytes_in_flight() {
    let (ts, spec) = pressured(PlatformSpec::v100(2));
    let config = RunConfig {
        faults: FaultPlan::none().with_transfer_faults(TransferFaultSpec {
            seed: 3,
            fault_ppm: 200_000,
            max_attempts: 8,
            backoff_base: 500,
        }),
        ..RunConfig::default()
    };
    let report = checked_run(&ts, &spec, &config, Box::new(RouterScheduler::new()));
    assert!(report.transfer_retries > 0, "no transfer was retried");
}

/// With room for every tile, EAGER's shared queue hands a row of tasks
/// to both GPUs, so the next row finds its column tiles on the peer.
#[test]
fn nvlink_copies_count_on_their_destination() {
    let (ts, spec) = (gemm_2d(8), PlatformSpec::v100_nvlink(2));
    let report = checked_run(
        &ts,
        &spec,
        &RunConfig::default(),
        Box::new(EagerScheduler::new()),
    );
    assert!(
        report.per_gpu.iter().map(|g| g.nvlink_loads).sum::<u64>() > 0,
        "no load crossed NVLink"
    );
}

#[test]
fn an_online_stream_counts_its_transfers() {
    let ts = sweep_taskset(&SweepConfig {
        tasks: 300,
        rate_per_sec: 2000.0,
        seed: 7,
    });
    let config = RunConfig {
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    let report = checked_run(
        &ts,
        &sweep_spec(&ts, 4.0),
        &config,
        Box::new(RouterScheduler::new()),
    );
    assert!(report.total_evictions > 0, "the stream never evicted");
}

#[test]
fn survivors_of_a_gpu_failure_keep_their_counts() {
    let (ts, spec) = pressured(PlatformSpec::v100(3));
    let horizon = run(&ts, &spec, &mut RouterScheduler::new())
        .unwrap()
        .makespan;
    let config = RunConfig {
        faults: FaultPlan::none().with_gpu_failure(1, horizon / 2),
        ..RunConfig::default()
    };
    let report = checked_run(&ts, &spec, &config, Box::new(RouterScheduler::new()));
    assert_eq!(report.gpu_failures, 1);
    assert!(
        report.tasks_redispatched > 0,
        "the failure orphaned nothing"
    );
}
