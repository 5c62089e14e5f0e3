//! Integration tests asserting the *qualitative shapes* of the paper's
//! findings at miniature scale: who wins, where the crossovers are, and
//! the invariants every strategy must respect.

use memsched::prelude::*;
use memsched::workloads::{self, constants::GEMM2D_DATA_BYTES};

fn loads_of(named: NamedScheduler, ts: &TaskSet, spec: &PlatformSpec) -> u64 {
    let mut sched = named.build();
    run(ts, spec, sched.as_mut())
        .unwrap_or_else(|e| panic!("{named:?}: {e}"))
        .total_loads
}

fn gflops_of(named: NamedScheduler, ts: &TaskSet, spec: &PlatformSpec) -> f64 {
    let mut sched = named.build();
    run(ts, spec, sched.as_mut())
        .unwrap_or_else(|e| panic!("{named:?}: {e}"))
        .gflops()
}

/// §V-B: when everything fits in memory, every scheduler is near the
/// roofline and performs the compulsory loads only.
#[test]
fn unconstrained_memory_everyone_near_roofline() {
    let ts = workloads::gemm_2d(12);
    let spec = PlatformSpec::v100(1); // 500 MB > 338 MB working set
    for named in [
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::Darts,
        NamedScheduler::DartsLuf,
        NamedScheduler::Mhfp,
    ] {
        let loads = loads_of(named.clone(), &ts, &spec);
        assert_eq!(loads, 24, "{named:?} must only do compulsory loads");
        let gf = gflops_of(named, &ts, &spec);
        assert!(gf > 0.7 * 13_253.0, "expected near roofline, got {gf:.0}");
    }
}

/// §V-B: the EAGER pathology — under memory pressure EAGER reloads the
/// whole B matrix per row while DARTS+LUF stays near the compulsory
/// bound. This is the headline crossover of Figures 3–4.
#[test]
fn eager_pathology_vs_darts_luf() {
    let n = 16;
    let ts = workloads::gemm_2d(n);
    // Memory for half of one input matrix.
    let spec = PlatformSpec::v100(1).with_memory((n as u64 / 2) * GEMM2D_DATA_BYTES);
    let eager = loads_of(NamedScheduler::Eager, &ts, &spec);
    let darts = loads_of(NamedScheduler::DartsLuf, &ts, &spec);
    assert!(
        eager as f64 >= 2.0 * darts as f64,
        "EAGER {eager} should at least double DARTS+LUF {darts}"
    );
    // DARTS+LUF stays within a small factor of the compulsory bound.
    assert!(
        darts <= 4 * 2 * n as u64,
        "DARTS+LUF loads {darts} vs compulsory {}",
        2 * n
    );
}

/// §V-D (Figure 9): randomizing the submission order hurts the
/// order-following schedulers, while DARTS — which derives its own order
/// from the data — keeps its transfer advantage over DMDAR on every
/// shuffled order. The paper's claim is about behavior averaged over
/// randomized orders, so this test averages over several shuffle seeds
/// instead of pinning one specific permutation (which would couple the
/// test to the RNG's exact stream).
#[test]
fn randomized_order_hurts_dmdar_more_than_darts() {
    let n = 14;
    let natural = workloads::gemm_2d(n);
    let spec = PlatformSpec::v100(2).with_memory(5 * GEMM2D_DATA_BYTES);

    let dmdar_nat = loads_of(NamedScheduler::Dmdar, &natural, &spec);
    let darts_nat = loads_of(NamedScheduler::DartsLuf, &natural, &spec);
    // DARTS beats DMDAR on the natural order to begin with.
    assert!(
        darts_nat < dmdar_nat,
        "DARTS {darts_nat} vs DMDAR {dmdar_nat} on natural order"
    );

    const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
    let mut dmdar_ratio_sum = 0.0;
    for seed in SEEDS {
        let randomized = workloads::gemm_2d_random(n, seed);
        let dmdar_rnd = loads_of(NamedScheduler::Dmdar, &randomized, &spec);
        let darts_rnd = loads_of(NamedScheduler::DartsLuf, &randomized, &spec);
        // On every shuffled order DARTS still transfers less than DMDAR.
        assert!(
            darts_rnd <= dmdar_rnd,
            "seed {seed}: DARTS {darts_rnd} vs DMDAR {dmdar_rnd} on random order"
        );
        dmdar_ratio_sum += dmdar_rnd as f64 / dmdar_nat as f64;
    }
    // DMDAR degrades measurably on average when the order is shuffled.
    let dmdar_mean_ratio = dmdar_ratio_sum / SEEDS.count() as f64;
    assert!(
        dmdar_mean_ratio > 1.0,
        "DMDAR mean randomized/natural ratio {dmdar_mean_ratio:.3} should exceed 1"
    );
}

/// Objective 1: every strategy keeps the load roughly balanced across
/// GPUs on a uniform workload.
#[test]
fn load_balance_is_respected() {
    let ts = workloads::gemm_2d(12);
    let spec = PlatformSpec::v100(4);
    for named in [
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::HmetisR,
        NamedScheduler::DartsLuf,
    ] {
        let mut sched = named.build();
        let report = run(&ts, &spec, sched.as_mut()).unwrap();
        let max = report.max_load();
        // 144 tasks on 4 GPUs: perfect is 36. Dynamic effects allow slack.
        assert!(max <= 60, "{named:?}: max load {max} too imbalanced");
        assert_eq!(
            report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
            144,
            "{named:?} lost tasks"
        );
    }
}

/// The simulator's conservation laws hold for every scheduler.
#[test]
fn conservation_laws() {
    let ts = workloads::gemm_2d(10);
    let spec = PlatformSpec::v100(2).with_memory(6 * GEMM2D_DATA_BYTES);
    for named in [
        NamedScheduler::Eager,
        NamedScheduler::Dmdar,
        NamedScheduler::HmetisR,
        NamedScheduler::Mhfp,
        NamedScheduler::Darts,
        NamedScheduler::DartsLuf,
    ] {
        let mut sched = named.build();
        let report = run(&ts, &spec, sched.as_mut()).unwrap();
        // Bytes are loads × item size (uniform workload).
        assert_eq!(
            report.total_load_bytes,
            report.total_loads * GEMM2D_DATA_BYTES,
            "{named:?}"
        );
        // At least the compulsory loads happened.
        assert!(report.total_loads >= 20, "{named:?}");
        // Makespan is at least the compute roofline.
        let roofline_ns = memsched::model::bounds::compute_roofline_seconds(&ts, 2, 13_253.0) * 1e9;
        assert!(
            report.makespan as f64 >= roofline_ns * 0.99,
            "{named:?}: makespan below roofline"
        );
    }
}

/// §V-E/G: on 3D products and sparse workloads, DARTS+LUF (with the
/// appropriate variant) transfers no more than DMDAR.
#[test]
fn darts_variants_hold_on_irregular_workloads() {
    let spec4 = PlatformSpec::v100(4).with_memory(8 * workloads::constants::TILE_BYTES);
    let ts3d = workloads::gemm_3d(6);
    let darts = loads_of(NamedScheduler::DartsLuf3, &ts3d, &spec4);
    let dmdar = loads_of(NamedScheduler::Dmdar, &ts3d, &spec4);
    assert!(
        darts <= dmdar + dmdar / 4,
        "3D: DARTS-3inputs {darts} vs DMDAR {dmdar}"
    );

    let sparse = workloads::sparse_2d(60, 0.05, 3);
    let spec = PlatformSpec::v100(4).with_memory(6 * GEMM2D_DATA_BYTES);
    let darts = loads_of(NamedScheduler::DartsLufOpti, &sparse, &spec);
    let eager = loads_of(NamedScheduler::Eager, &sparse, &spec);
    assert!(darts <= eager, "sparse: DARTS {darts} vs EAGER {eager}");
}

/// Offline model consistency: replaying the engine's LRU behaviour can
/// never beat Belady's rule on the same order (the optimality argument
/// of §III).
#[test]
fn belady_dominates_lru_for_any_schedule() {
    let ts = workloads::gemm_2d(10);
    for cap_items in [4u64, 6, 10, 20] {
        let cap = cap_items * GEMM2D_DATA_BYTES;
        let mut schedule = Schedule::new(1);
        for t in ts.tasks() {
            schedule.push(GpuId(0), t);
        }
        let lru = replay(&ts, &schedule, cap, EvictionPolicy::Lru).unwrap();
        let belady = replay(&ts, &schedule, cap, EvictionPolicy::Belady).unwrap();
        assert!(
            belady.total_loads() <= lru.total_loads(),
            "cap {cap_items}: Belady {} vs LRU {}",
            belady.total_loads(),
            lru.total_loads()
        );
    }
}

/// The Figure 1 worked example end-to-end through the real engine.
#[test]
fn figure1_example_runs_on_the_engine() {
    let ts = memsched::model::figure1_example();
    let spec = PlatformSpec {
        num_gpus: 2,
        memory_bytes: 2,
        bus_bandwidth: 1e9,
        transfer_latency: 10,
        gpu_gflops: 1e-6, // flops are tiny in this example
        pipeline_depth: 1,
        gpu_gflops_override: None,
        nvlink_bandwidth: None,
        bus_groups: None,
    };
    for named in [NamedScheduler::Eager, NamedScheduler::DartsLuf] {
        let mut sched = named.build();
        let report = run(&ts, &spec, sched.as_mut()).unwrap();
        assert_eq!(
            report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(),
            9,
            "{named:?}"
        );
        // With M = 2 unit-size slots, at least one data must be loaded per
        // task's missing input; the paper's example achieves 11 overall.
        assert!(report.total_loads >= 6, "{named:?}");
    }
}
