//! Cross-substrate consistency: the discrete-event engine and the offline
//! replay model of §III must agree on load counts when driven with the
//! same order, memory and eviction policy.

use memsched::prelude::*;
use memsched::workloads;

/// With a FIFO scheduler, pipeline depth 1 (no prefetch ahead) and LRU
/// eviction, the engine performs exactly the loads the offline replay
/// predicts — the simulator *is* the model plus time.
#[test]
fn engine_matches_offline_replay_under_lru() {
    for n in [6usize, 10, 14] {
        for cap_items in [3u64, 5, 8, 12] {
            let ts = workloads::gemm_2d(n);
            let item = ts.data_size(DataId(0));
            let spec = PlatformSpec::v100(1)
                .with_memory(cap_items * item)
                .with_pipeline_depth(1);
            let mut sched = EagerScheduler::new();
            let report = run(&ts, &spec, &mut sched).unwrap();

            let mut schedule = Schedule::new(1);
            for t in ts.tasks() {
                schedule.push(GpuId(0), t);
            }
            let rep = replay(&ts, &schedule, spec.memory_bytes, EvictionPolicy::Lru).unwrap();
            assert_eq!(
                report.total_loads,
                rep.total_loads(),
                "n={n} cap={cap_items}: engine and replay disagree"
            );
            assert_eq!(report.total_load_bytes, rep.total_load_bytes());
        }
    }
}

/// The same consistency holds on the randomized submission order.
#[test]
fn engine_matches_offline_replay_random_order() {
    let ts = workloads::gemm_2d_random(12, 8);
    let item = ts.data_size(DataId(0));
    for cap_items in [4u64, 7, 10] {
        let spec = PlatformSpec::v100(1)
            .with_memory(cap_items * item)
            .with_pipeline_depth(1);
        let mut sched = EagerScheduler::new();
        let report = run(&ts, &spec, &mut sched).unwrap();
        let mut schedule = Schedule::new(1);
        for t in ts.tasks() {
            schedule.push(GpuId(0), t);
        }
        let rep = replay(&ts, &schedule, spec.memory_bytes, EvictionPolicy::Lru).unwrap();
        assert_eq!(report.total_loads, rep.total_loads(), "cap={cap_items}");
    }
}

/// Belady on the same order is a lower bound for what the online engine
/// (which cannot see the future) achieves — and prefetch pipelining may
/// only change loads, never undercut the offline optimum.
#[test]
fn offline_belady_lower_bounds_online_engine() {
    let ts = workloads::gemm_2d(12);
    let item = ts.data_size(DataId(0));
    for depth in [1usize, 2, 4, 8] {
        for cap_items in [4u64, 6, 10] {
            let spec = PlatformSpec::v100(1)
                .with_memory(cap_items * item)
                .with_pipeline_depth(depth);
            let mut sched = EagerScheduler::new();
            let report = run(&ts, &spec, &mut sched).unwrap();
            let mut schedule = Schedule::new(1);
            for t in ts.tasks() {
                schedule.push(GpuId(0), t);
            }
            let belady = replay(&ts, &schedule, spec.memory_bytes, EvictionPolicy::Belady).unwrap();
            assert!(
                report.total_loads >= belady.total_loads(),
                "depth={depth} cap={cap_items}: engine {} beat Belady {}",
                report.total_loads,
                belady.total_loads()
            );
        }
    }
}
