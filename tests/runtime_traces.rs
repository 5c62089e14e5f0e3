//! Trace-level integration tests over every scheduler: each run passes
//! `memsched_platform::validate` (residency, exactly-once execution,
//! load/eviction conservation), the overlap fold over the observed spans
//! agrees with the report, NVLink cuts PCI traffic, and traced runs
//! replay identically.

mod common;

use common::run_validated;
use memsched::obs::overlap;
use memsched::platform::{validate, RunConfig, TraceEvent};
use memsched::prelude::*;
use memsched::workloads::{self, constants::GEMM2D_DATA_BYTES};

/// A validated `TraceMode::Full` run of `named`.
fn traced(
    named: &NamedScheduler,
    ts: &TaskSet,
    spec: &PlatformSpec,
) -> (RunReport, Vec<TraceEvent>) {
    let config = RunConfig {
        trace: TraceMode::Full,
        ..Default::default()
    };
    run_validated(ts, spec, named.build().as_mut(), &config)
}

fn all_schedulers() -> Vec<NamedScheduler> {
    vec![
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::HmetisR,
        NamedScheduler::Mhfp,
        NamedScheduler::Darts,
        NamedScheduler::DartsLuf,
        NamedScheduler::DartsLufOpti3,
        NamedScheduler::Router,
    ]
}

/// Every scheduler's validated run of `gemm_2d(8)` on two V100s holding
/// `cap_items` tiles each.
fn validate_every_scheduler(cap_items: u64) -> Vec<(NamedScheduler, RunReport)> {
    let ts = workloads::gemm_2d(8);
    let spec = PlatformSpec::v100(2).with_memory(cap_items * GEMM2D_DATA_BYTES);
    all_schedulers()
        .into_iter()
        .map(|named| {
            let (report, _) = traced(&named, &ts, &spec);
            (named, report)
        })
        .collect()
}

/// No task starts before every one of its inputs was loaded onto its GPU
/// and not evicted since — the validator's residency rule, at 4 tiles,
/// the tightest memory of these tests, so evictions are frequent.
#[test]
fn tasks_only_start_with_resident_inputs() {
    validate_every_scheduler(4);
}

/// Every task starts and finishes exactly once, on the same GPU, with
/// start ≤ finish — the validator's execution ledger.
#[test]
fn every_task_runs_exactly_once() {
    validate_every_scheduler(6);
}

/// Per GPU, the trace's load, eviction and task counts equal the
/// report's (the validator's report-equals-fold rule); loads minus
/// evictions is the data still resident at the end, which never exceeds
/// the memory capacity.
#[test]
fn load_evict_conservation() {
    let cap_items = 5;
    for (named, report) in validate_every_scheduler(cap_items) {
        for g in &report.per_gpu {
            let final_resident = g.loads - g.evictions;
            assert!(
                final_resident <= cap_items,
                "{named:?}: a GPU ends with {final_resident} > {cap_items} items"
            );
        }
    }
}

/// Every scheduler's run at 6 tiles passes the validator, and the
/// overlap fold agrees with the report — on one PCI bus the merged
/// transfer time is exactly the bus's busy time, and the merged compute
/// time lies between the busiest GPU's and the sum over GPUs — and
/// overlap ratios are proper fractions.
#[test]
fn analysis_is_consistent_for_every_scheduler() {
    let ts = workloads::gemm_2d(10);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);
    for named in all_schedulers() {
        let probe = Probe::unbounded();
        let config = RunConfig {
            trace: TraceMode::Full,
            ..Default::default()
        };
        let (report, trace) = run_observed(&ts, &spec, named.build().as_mut(), &config, &probe)
            .unwrap_or_else(|e| panic!("{named:?}: {e}"));
        if let Err(v) = validate(&ts, &spec, &config, &trace, &report) {
            panic!("{named:?}: {v}");
        }
        let o = overlap(&probe.events()).unwrap();
        assert_eq!(o.transfer, report.bus_busy_ns[0], "{named:?}");
        let busy = report.per_gpu.iter().map(|g| g.busy);
        assert!(busy.clone().max().unwrap() <= o.compute, "{named:?}");
        assert!(o.compute <= busy.sum::<u64>(), "{named:?}");
        assert!(o.compute <= report.makespan, "{named:?}");
        assert!(o.both <= o.transfer.min(o.compute), "{named:?}");
        assert!((0.0..=1.0).contains(&o.ratio()), "{named:?}");
        // A memory-feasible workload keeps GPUs busy for part of the run.
        assert!(o.compute > 0, "{named:?}");
    }
}

/// NVLink recovers throughput for replication-heavy schedulers under
/// memory pressure, and the accounting splits PCI vs NVLink traffic.
#[test]
fn nvlink_reduces_pci_traffic() {
    let ts = workloads::gemm_2d(24);
    let mem = 8 * GEMM2D_DATA_BYTES;
    let pci = PlatformSpec::v100(4).with_memory(mem);
    let mut nvl = pci.clone();
    nvl.nvlink_bandwidth = Some(memsched::platform::NVLINK_BANDWIDTH);

    for named in [NamedScheduler::Eager, NamedScheduler::DartsLuf] {
        let mut s1 = named.build();
        let base = memsched::platform::run(&ts, &pci, s1.as_mut()).unwrap();
        let mut s2 = named.build();
        let linked = memsched::platform::run(&ts, &nvl, s2.as_mut()).unwrap();
        assert_eq!(base.nvlink_mb(), 0.0);
        assert!(
            linked.nvlink_mb() > 0.0,
            "{named:?}: expected some peer traffic"
        );
        assert!(
            linked.pci_transfers_mb() < base.transfers_mb(),
            "{named:?}: PCI traffic should shrink ({} vs {})",
            linked.pci_transfers_mb(),
            base.transfers_mb()
        );
        // Makespan should not regress (the fabric only adds capacity).
        assert!(
            linked.makespan <= base.makespan + base.makespan / 10,
            "{named:?}: NVLink regressed the makespan"
        );
    }
}

/// Deterministic replay: two traced runs of the same configuration are
/// identical event-for-event.
#[test]
fn traces_are_deterministic() {
    let ts = workloads::gemm_2d_random(10, 4);
    let spec = PlatformSpec::v100(2).with_memory(5 * GEMM2D_DATA_BYTES);
    for named in [NamedScheduler::DartsLuf, NamedScheduler::Dmdar] {
        let (r1, t1) = traced(&named, &ts, &spec);
        let (r2, t2) = traced(&named, &ts, &spec);
        assert_eq!(r1.makespan, r2.makespan, "{named:?}");
        assert_eq!(t1, t2, "{named:?}: traces differ between runs");
    }
}

/// hMETIS+R on a batch with fewer tasks than GPUs, which has no partition
/// into one part per GPU: task `t` is queued on GPU `t`, and the runs
/// validate.
#[test]
fn hmetis_r_runs_fewer_tasks_than_gpus() {
    let mut b = TaskSetBuilder::new();
    let shared = b.add_data(GEMM2D_DATA_BYTES);
    for _ in 0..2 {
        let own = b.add_data(GEMM2D_DATA_BYTES);
        b.add_task(&[shared, own], 1e9);
    }
    for (ts, gpus) in [(workloads::gemm_2d(1), 2), (b.build(), 3)] {
        let spec = PlatformSpec::v100(gpus);
        traced(&NamedScheduler::HmetisR, &ts, &spec);
        let mut sched = HmetisRScheduler::new();
        sched.prepare(&ts, &spec);
        let queued: Vec<Vec<TaskId>> = sched
            .queues()
            .iter()
            .map(|q| q.iter().copied().collect())
            .collect();
        let want: Vec<Vec<TaskId>> = (0..gpus)
            .map(|g| ts.tasks().filter(|t| t.index() == g).collect())
            .collect();
        assert_eq!(queued, want, "{} tasks on {gpus} GPUs", ts.num_tasks());
    }
}
