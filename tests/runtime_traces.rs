//! Trace-level integration tests: fine-grained invariants of the engine
//! that hold for every scheduler, verified from the event log.

use memsched::platform::{analysis, run_with_config, RunConfig, TraceEvent};
use memsched::prelude::*;
use memsched::workloads::{self, constants::GEMM2D_DATA_BYTES};
use std::collections::HashSet;

fn traced(
    named: &NamedScheduler,
    ts: &TaskSet,
    spec: &PlatformSpec,
) -> (RunReport, Vec<TraceEvent>) {
    let mut sched = named.build();
    run_with_config(
        ts,
        spec,
        sched.as_mut(),
        &RunConfig {
            trace: TraceMode::Full,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{named:?}: {e}"))
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

/// No task may start before every one of its inputs was loaded onto its
/// GPU (and not evicted since) — replayed directly from the trace.
#[test]
fn tasks_only_start_with_resident_inputs() {
    let ts = workloads::gemm_2d(8);
    let spec = PlatformSpec::v100(2).with_memory(5 * GEMM2D_DATA_BYTES);
    for named in all_schedulers() {
        let (_, trace) = traced(&named, &ts, &spec);
        let mut resident: Vec<HashSet<usize>> = vec![HashSet::new(); 2];
        for ev in &trace {
            match *ev {
                TraceEvent::LoadDone { gpu, data, .. } => {
                    resident[gpu].insert(data);
                }
                TraceEvent::Evicted { gpu, data, .. } => {
                    assert!(
                        resident[gpu].remove(&data),
                        "{named:?}: evicted non-resident D{data} on GPU{gpu}"
                    );
                }
                TraceEvent::TaskStarted { gpu, task, .. } => {
                    for &d in ts.inputs(TaskId(task as u32)) {
                        assert!(
                            resident[gpu].contains(&(d as usize)),
                            "{named:?}: T{task} started without D{d} on GPU{gpu}"
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Every task appears exactly once as Started and once as Finished, on
/// the same GPU, with start ≤ finish.
#[test]
fn every_task_runs_exactly_once() {
    let ts = workloads::gemm_2d(8);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);
    for named in all_schedulers() {
        let (_, trace) = traced(&named, &ts, &spec);
        let mut started = vec![None; ts.num_tasks()];
        let mut finished = vec![false; ts.num_tasks()];
        for ev in &trace {
            match *ev {
                TraceEvent::TaskStarted { at, gpu, task } => {
                    assert!(started[task].is_none(), "{named:?}: T{task} started twice");
                    started[task] = Some((at, gpu));
                }
                TraceEvent::TaskFinished { at, gpu, task } => {
                    let (s, g) = started[task].expect("finish without start");
                    assert_eq!(g, gpu, "{named:?}: T{task} moved GPUs mid-flight");
                    assert!(s <= at);
                    assert!(!finished[task], "{named:?}: T{task} finished twice");
                    finished[task] = true;
                }
                _ => {}
            }
        }
        assert!(finished.iter().all(|&f| f), "{named:?}: lost tasks");
    }
}

/// Per GPU, the trace's load, eviction and task counts equal the
/// report's; loads minus evictions equals the data still resident at the
/// end — and that never exceeds the memory capacity.
#[test]
fn load_evict_conservation() {
    let ts = workloads::gemm_2d(8);
    let cap_items = 5u64;
    let spec = PlatformSpec::v100(2).with_memory(cap_items * GEMM2D_DATA_BYTES);
    for named in all_schedulers() {
        let (report, trace) = traced(&named, &ts, &spec);
        for g in 0..2 {
            let loads = trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::LoadDone { gpu, .. } if *gpu == g))
                .count() as u64;
            let evictions = trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Evicted { gpu, .. } if *gpu == g))
                .count() as u64;
            let tasks = trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::TaskFinished { gpu, .. } if *gpu == g))
                .count();
            assert_eq!(loads, report.per_gpu[g].loads, "{named:?}");
            assert_eq!(evictions, report.per_gpu[g].evictions, "{named:?}");
            assert_eq!(tasks, report.per_gpu[g].tasks, "{named:?}");
            let final_resident = loads - evictions;
            assert!(
                final_resident <= cap_items,
                "{named:?}: GPU{g} ends with {final_resident} > {cap_items} items"
            );
        }
    }
}

/// The analysis module agrees with the report, and overlap ratios are
/// proper fractions.
#[test]
fn analysis_is_consistent_for_every_scheduler() {
    let ts = workloads::gemm_2d(10);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);
    for named in all_schedulers() {
        let (report, trace) = traced(&named, &ts, &spec);
        let a = analysis::analyze(&trace, spec.num_gpus);
        assert!(a.makespan <= report.makespan, "{named:?}");
        assert!(a.bus_utilization() <= 1.0, "{named:?}");
        assert!((0.0..=1.0).contains(&a.overlap_ratio()), "{named:?}");
        assert!(a.mean_gpu_occupancy() <= 1.0, "{named:?}");
        // A memory-feasible workload keeps GPUs mostly busy for the good
        // schedulers; at minimum, occupancy is non-zero.
        assert!(a.mean_gpu_occupancy() > 0.0, "{named:?}");
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
