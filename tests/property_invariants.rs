//! Property-based tests (proptest) over random task sets: invariants of
//! the model, the replay, the partitioner and the runtime engine.

mod common;

use common::{
    arb_taskset, check_scenario, run_validated, small_spec, without_walls, Faults, Scenarios,
};
use memsched::platform::{RuntimeView, Scheduler, TraceEvent};
use memsched::prelude::*;
use proptest::prelude::*;
use std::collections::VecDeque;

/// One runtime notification observed by [`RecordingScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HookEvent {
    LoadIssued { gpu: usize, data: usize },
    Loaded { gpu: usize, data: usize },
    Evicted { gpu: usize, data: usize },
    Completed { gpu: usize, task: usize },
}

/// A minimal FIFO scheduler that records every runtime notification it
/// receives together with the simulated time it observed, so the hook
/// protocol itself can be checked against the engine's event log.
#[derive(Default)]
struct RecordingScheduler {
    queue: VecDeque<TaskId>,
    hooks: Vec<(u64, HookEvent)>,
}

impl Scheduler for RecordingScheduler {
    fn name(&self) -> String {
        "recording-mock".into()
    }

    fn prepare(&mut self, ts: &TaskSet, _spec: &PlatformSpec) {
        self.queue = ts.tasks().collect();
        self.hooks.clear();
    }

    fn pop_task(&mut self, _gpu: GpuId, _view: &RuntimeView<'_>) -> Option<TaskId> {
        self.queue.pop_front()
    }

    fn on_task_complete(&mut self, gpu: GpuId, task: TaskId, view: &RuntimeView<'_>) {
        let ev = HookEvent::Completed {
            gpu: gpu.index(),
            task: task.index(),
        };
        self.hooks.push((view.now(), ev));
    }

    fn on_load_issued(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let ev = HookEvent::LoadIssued {
            gpu: gpu.index(),
            data: data.index(),
        };
        self.hooks.push((view.now(), ev));
    }

    fn on_data_loaded(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let ev = HookEvent::Loaded {
            gpu: gpu.index(),
            data: data.index(),
        };
        self.hooks.push((view.now(), ev));
    }

    fn on_data_evicted(&mut self, gpu: GpuId, data: DataId, view: &RuntimeView<'_>) {
        let ev = HookEvent::Evicted {
            gpu: gpu.index(),
            data: data.index(),
        };
        self.hooks.push((view.now(), ev));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay respects the memory bound and never loads less than the
    /// compulsory bound, under both eviction policies.
    #[test]
    fn replay_invariants(ts in arb_taskset(12, 24), cap in 3u64..10) {
        let order: Vec<TaskId> = ts.tasks().collect();
        let schedule = Schedule::from_lists(vec![order]);
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Belady] {
            let r = replay(&ts, &schedule, cap, policy).unwrap();
            prop_assert!(r.per_gpu[0].max_live_bytes <= cap);
            prop_assert!(r.total_loads() >= memsched::model::bounds::min_total_loads(&ts));
        }
    }

    /// Belady never loses to LRU on the same order (§III optimality).
    #[test]
    fn belady_leq_lru(ts in arb_taskset(12, 24), cap in 3u64..10) {
        let ids: Vec<TaskId> = ts.tasks().collect();
        let schedule = Schedule::from_lists(vec![ids]);
        let lru = replay(&ts, &schedule, cap, EvictionPolicy::Lru).unwrap();
        let belady = replay(&ts, &schedule, cap, EvictionPolicy::Belady).unwrap();
        prop_assert!(belady.total_loads() <= lru.total_loads());
    }

    /// Any order of the same tasks is a valid schedule, and replaying it
    /// under Belady stays within the memory bound.
    #[test]
    fn shuffled_schedules_validate(ts in arb_taskset(10, 16), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut ids: Vec<TaskId> = ts.tasks().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        let schedule = Schedule::from_lists(vec![ids]);
        prop_assert!(schedule.validate(&ts).is_ok());
        let r = replay(&ts, &schedule, 4, EvictionPolicy::Belady).unwrap();
        prop_assert!(r.per_gpu[0].max_live_bytes <= 4);
    }

    /// The runtime engine runs every task exactly once for the dynamic
    /// schedulers, for any random task set, with tracing off; the
    /// untraced report equals that of a traced run that passes the
    /// validator.
    #[test]
    fn engine_completes_random_tasksets(ts in arb_taskset(10, 20), gpus in 1usize..4) {
        let spec = small_spec(gpus, 4);
        let traced = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        for named in [NamedScheduler::Eager, NamedScheduler::DartsLuf, NamedScheduler::Dmdar] {
            let report = memsched::platform::run(&ts, &spec, named.build().as_mut()).unwrap();
            let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
            prop_assert_eq!(total, ts.num_tasks());
            // Loads at least cover every consumed data item once.
            prop_assert!(
                report.total_loads >= memsched::model::bounds::min_total_loads(&ts)
            );
            let (full, _) = run_validated(&ts, &spec, named.build().as_mut(), &traced);
            prop_assert_eq!(without_walls(report), without_walls(full), "{:?}", named);
        }
    }

    /// Partitioner invariants: every vertex gets a part in 0..k, parts are
    /// reasonably balanced, and connectivity-1 is consistent with a
    /// direct evaluation.
    #[test]
    fn partitioner_invariants(ts in arb_taskset(10, 24), k in 2usize..4) {
        prop_assume!(ts.num_tasks() >= k);
        let hg = memsched::schedulers::HmetisRScheduler::build_hypergraph(&ts);
        let cfg = memsched::hypergraph::PartitionConfig::for_parts(k)
            .with_nruns(2)
            .with_threads(1);
        let p = memsched::hypergraph::partition(&hg, &cfg);
        prop_assert_eq!(p.parts.len(), ts.num_tasks());
        prop_assert!(p.parts.iter().all(|&x| (x as usize) < k));
        let q = memsched::hypergraph::evaluate(&hg, &p.parts, k);
        prop_assert_eq!(q.connectivity_minus_one, p.quality.connectivity_minus_one);
        // Balance: no part exceeds total (trivial) and max is bounded by
        // total - (k-1) (each part non-empty is not guaranteed for tiny
        // degenerate inputs, so keep the check loose).
        prop_assert!(q.max_part_weight <= hg.total_vweight());
    }

    /// HFP packing is a permutation of the task set.
    #[test]
    fn hfp_pack_is_permutation(ts in arb_taskset(8, 16), k in 1usize..4) {
        let lists = memsched::schedulers::hfp_pack(&ts, 6, k);
        let mut all: Vec<TaskId> = lists.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<TaskId> = ts.tasks().collect();
        prop_assert_eq!(all, expect);
    }

    /// Fault-free batch scenarios pass the scenario fuzzer's check: per-GPU
    /// occupancy within M, no eviction of a running task's input, every
    /// task started and finished exactly once, and the rest of
    /// `validate`'s rules, on a deterministic rerun.
    #[test]
    fn engine_trace_invariants(s in Scenarios { online: Some(false), faults: Faults::None }) {
        check_scenario(&s)?;
    }

    /// The runtime notifications are a faithful mirror of the engine's
    /// event log: every load issue, load completion, eviction and task
    /// completion fires the matching scheduler hook exactly once, at the
    /// simulated time of the event, in the engine's (timestamp-ordered)
    /// event order. Incremental policies (DARTS) rely on this protocol.
    #[test]
    fn scheduler_hooks_mirror_trace(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let spec = small_spec(gpus, mem);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        let mut sched = RecordingScheduler::default();
        let (_report, trace) = run_validated(&ts, &spec, &mut sched, &config);
        let expected: Vec<(u64, HookEvent)> = trace
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::LoadIssued { at, gpu, data, .. } => {
                    Some((at, HookEvent::LoadIssued { gpu, data }))
                }
                TraceEvent::LoadDone { at, gpu, data } => {
                    Some((at, HookEvent::Loaded { gpu, data }))
                }
                TraceEvent::Evicted { at, gpu, data } => {
                    Some((at, HookEvent::Evicted { gpu, data }))
                }
                TraceEvent::TaskFinished { at, gpu, task } => {
                    Some((at, HookEvent::Completed { gpu, task }))
                }
                TraceEvent::TaskStarted { .. }
                | TraceEvent::GpuFailed { .. }
                | TraceEvent::TransferRetry { .. }
                | TraceEvent::CapacityShrunk { .. }
                | TraceEvent::GpuSlowed { .. }
                | TraceEvent::TaskArrived { .. }
                | TraceEvent::TaskAdmitted { .. }
                | TraceEvent::TaskDeferred { .. }
                | TraceEvent::TaskShed { .. }
                | TraceEvent::DeadlineExpired { .. } => None,
            })
            .collect();
        prop_assert!(!expected.is_empty(), "run produced no events");
        prop_assert!(
            expected.windows(2).all(|w| w[0].0 <= w[1].0),
            "event timestamps must be non-decreasing"
        );
        prop_assert_eq!(&sched.hooks, &expected);
    }

    /// Batch scenarios under a fail-stop, a capacity shrink, a straggler
    /// and a flaky bus at once pass the scenario fuzzer's check: the same
    /// seed replays an identical run, occupancy stays within the current
    /// (possibly shrunk) capacity, and every task finishes exactly once,
    /// any extra start sitting on the GPU that died.
    #[test]
    fn fault_recovery_invariants(s in Scenarios { online: Some(false), faults: Faults::Every }) {
        check_scenario(&s)?;
    }

    /// A bus that faults every delivery attempt exhausts the retry budget
    /// with a structured error naming the configured attempt cap — and
    /// does so identically on every run.
    #[test]
    fn fault_transfer_exhaustion(
        ts in arb_taskset(8, 12),
        max_attempts in 1u32..4,
        seed in any::<u64>(),
    ) {
        let spec = small_spec(2, 4);
        let config = RunConfig {
            faults: FaultPlan::none().with_transfer_faults(TransferFaultSpec {
                seed,
                fault_ppm: 1_000_000,
                max_attempts,
                backoff_base: 50,
            }),
            ..RunConfig::default()
        };
        let mut a = NamedScheduler::Eager.build();
        let err = memsched::platform::run_with_config(&ts, &spec, a.as_mut(), &config)
            .unwrap_err();
        match &err {
            memsched::platform::RunError::TransferFailed { attempts, .. } => {
                prop_assert_eq!(*attempts, max_attempts);
            }
            other => prop_assert!(false, "expected TransferFailed, got {other:?}"),
        }
        let mut b = NamedScheduler::Eager.build();
        let err2 = memsched::platform::run_with_config(&ts, &spec, b.as_mut(), &config)
            .unwrap_err();
        prop_assert_eq!(err, err2, "exhaustion must replay identically");
    }

    /// DMDA allocation covers every task exactly once.
    #[test]
    fn dmda_allocation_is_partition(ts in arb_taskset(8, 20), gpus in 1usize..4) {
        let spec = small_spec(gpus, 1000);
        let mut s = memsched::schedulers::DmdaScheduler::dmdar();
        use memsched::platform::Scheduler as _;
        s.prepare(&ts, &spec);
        let mut all: Vec<TaskId> = s.queues().iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<TaskId> = ts.tasks().collect();
        prop_assert_eq!(all, expect);
    }
}
