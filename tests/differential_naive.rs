//! Differential tests of the incremental scheduler hot paths against the
//! original full-scan implementations (the `naive` feature).
//!
//! The incremental DARTS/Ready state is only correct if it changes *no
//! scheduling decision*: for any task set, platform shape and seed, the
//! naive and incremental configurations must produce byte-identical
//! engine traces — same loads, same eviction victims, same task order,
//! same timestamps, and (for DARTS) the same RNG draw sequence, since a
//! diverging candidate count would shift every later tie-break.

use memsched::hypergraph::{bisect, bisect_naive, partition, Hypergraph, PartitionConfig};
use memsched::platform::{run_with_config, RunConfig, Scheduler, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::{
    hfp_pack_with, DartsConfig, DartsScheduler, DmdaScheduler, NamedScheduler, PackConfig,
};
use proptest::prelude::*;

/// Strategy: a random task set with up to `max_data` unit-size data items
/// and up to `max_tasks` tasks with 1–3 inputs each (the same shape the
/// engine property tests use).
fn arb_taskset(max_data: usize, max_tasks: usize) -> impl Strategy<Value = TaskSet> {
    (2usize..=max_data, 1usize..=max_tasks)
        .prop_flat_map(|(nd, mt)| {
            let inputs = proptest::collection::vec(
                proptest::collection::vec(0..nd as u32, 1..=3),
                mt,
            );
            (Just(nd), inputs)
        })
        .prop_map(|(nd, task_inputs)| {
            let mut b = TaskSetBuilder::new();
            let data: Vec<DataId> = (0..nd).map(|_| b.add_data(1)).collect();
            for ins in task_inputs {
                let ids: Vec<DataId> = ins.iter().map(|&i| data[i as usize]).collect();
                b.add_task(&ids, 1000.0);
            }
            b.build()
        })
}

/// Strategy: like [`arb_taskset`] but with non-uniform data sizes, so the
/// offline differentials exercise byte-weighted affinity ties, not just
/// counts.
fn arb_sized_taskset(max_data: usize, max_tasks: usize) -> impl Strategy<Value = TaskSet> {
    (2usize..=max_data, 1usize..=max_tasks)
        .prop_flat_map(|(nd, mt)| {
            let sizes = proptest::collection::vec(1u64..=4, nd);
            let inputs = proptest::collection::vec(
                proptest::collection::vec(0..nd as u32, 1..=3),
                mt,
            );
            (sizes, inputs)
        })
        .prop_map(|(sizes, task_inputs)| {
            let mut b = TaskSetBuilder::new();
            let data: Vec<DataId> = sizes.iter().map(|&s| b.add_data(s)).collect();
            for ins in task_inputs {
                let ids: Vec<DataId> = ins.iter().map(|&i| data[i as usize]).collect();
                b.add_task(&ids, 1000.0);
            }
            b.build()
        })
}

/// Strategy: a random weighted hypergraph (vertex/net weights 1–3, nets of
/// 2–4 pins that may collapse to singletons after dedup — both bisection
/// implementations must treat those identically).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..=28, 2usize..=28)
        .prop_flat_map(|(nv, nn)| {
            let nets = proptest::collection::vec(
                proptest::collection::vec(0..nv as u32, 2..=4),
                nn,
            );
            let vweights = proptest::collection::vec(1u64..=3, nv);
            let nweights = proptest::collection::vec(1u64..=3, nn);
            (Just(nv), nets, vweights, nweights)
        })
        .prop_map(|(nv, nets, vweights, nweights)| Hypergraph::new(nv, nets, vweights, nweights))
}

/// Strategy: a weighted hypergraph large enough to coarsen (above the
/// 160-vertex target) and to carry a net of more than 256 pins, the size
/// above which matching ignores a net and FM does not requeue its pins.
/// Two planted clusters, A of 257–290 vertices and B of 170–310, hold
/// local 2–12-pin nets (pins within 24 ids of a random centre); a few
/// nets span both. The big net is all of A plus up to 2 pins of B and
/// weighs 4–32, so when A fits one side it starts nearly uncut and its
/// boundary updates move gains that FM does not requeue.
fn arb_large_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (257usize..=290, 170usize..=310)
        .prop_flat_map(|(a, b)| {
            let nv = a + b;
            let local = proptest::collection::vec(
                (
                    any::<bool>(),
                    0..nv as u32,
                    proptest::collection::vec(0u32..24, 2..=12),
                ),
                nv / 2..=nv,
            );
            let cross = proptest::collection::vec(
                (
                    proptest::collection::vec(0..a as u32, 2..=6),
                    proptest::collection::vec(a as u32..nv as u32, 2..=6),
                ),
                2..=8,
            );
            let big = (
                proptest::collection::vec(a as u32..nv as u32, 0..=2),
                4u64..=32,
            );
            let vweights = proptest::collection::vec(1u64..=3, nv);
            // One weight per small net: at most nv local + 8 cross.
            let nweights = proptest::collection::vec(1u64..=3, nv + 8);
            (Just(a), local, cross, big, vweights, nweights)
        })
        .prop_map(
            |(a, local, cross, (extra, big_weight), vweights, mut nweights)| {
                let nv = vweights.len() as u32;
                let a = a as u32;
                let mut nets: Vec<Vec<u32>> = local
                    .into_iter()
                    .map(|(in_a, centre, offsets)| {
                        let (base, size) = if in_a { (0, a) } else { (a, nv - a) };
                        offsets
                            .into_iter()
                            .map(|o| base + (centre + o) % size)
                            .collect()
                    })
                    .collect();
                nets.extend(cross.into_iter().map(|(ua, ub)| [ua, ub].concat()));
                nweights.truncate(nets.len());
                nets.push((0..a).chain(extra).collect());
                nweights.push(big_weight);
                Hypergraph::new(nv as usize, nets, vweights, nweights)
            },
        )
}

fn small_spec(gpus: usize, mem: u64) -> PlatformSpec {
    PlatformSpec {
        num_gpus: gpus,
        memory_bytes: mem, // unit-size items: capacity in items
        bus_bandwidth: 1e9,
        transfer_latency: 10,
        gpu_gflops: 1e-3,
        pipeline_depth: 2,
        gpu_gflops_override: None,
        nvlink_bandwidth: None,
        bus_groups: None,
    }
}

fn trace_of(
    ts: &TaskSet,
    spec: &PlatformSpec,
    sched: &mut dyn Scheduler,
) -> (RunReport, Vec<TraceEvent>) {
    let config = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    run_with_config(ts, spec, sched, &config).expect("differential run")
}

/// Assert the two configurations of one scheduler produce byte-identical
/// decision streams on `ts`.
fn assert_equivalent(
    ts: &TaskSet,
    spec: &PlatformSpec,
    label: &str,
    naive: &mut dyn Scheduler,
    incremental: &mut dyn Scheduler,
) {
    let (naive_report, naive_trace) = trace_of(ts, spec, naive);
    let (incr_report, incr_trace) = trace_of(ts, spec, incremental);
    // The scheduler name must not encode the mode: the golden snapshots
    // embed it, so a differing header would make them mode-dependent.
    assert_eq!(
        naive_report.scheduler, incr_report.scheduler,
        "{label}: name must not leak the implementation mode"
    );
    if naive_trace != incr_trace {
        // Locate the first diverging event for a readable failure.
        let i = naive_trace
            .iter()
            .zip(&incr_trace)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| naive_trace.len().min(incr_trace.len()));
        panic!(
            "{label}: decision streams diverge at event {i}:\n  naive:       {:?}\n  incremental: {:?}",
            naive_trace.get(i),
            incr_trace.get(i),
        );
    }
    assert_eq!(naive_report.makespan, incr_report.makespan, "{label}");
    assert_eq!(naive_report.total_loads, incr_report.total_loads, "{label}");
    assert_eq!(
        naive_report.total_evictions, incr_report.total_evictions,
        "{label}"
    );
    let naive_tasks: Vec<usize> = naive_report.per_gpu.iter().map(|g| g.tasks).collect();
    let incr_tasks: Vec<usize> = incr_report.per_gpu.iter().map(|g| g.tasks).collect();
    assert_eq!(naive_tasks, incr_tasks, "{label}");
}

/// The scheduler families the engine-core differential sweeps: one
/// representative per family of the paper's evaluation.
const ENGINE_FAMILIES: &[NamedScheduler] = &[
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::DartsLuf,
    NamedScheduler::Router,
];

/// Run `named` once on the pre-refactor engine core (`naive_core`: binary
/// heap, per-event full progress scan) and once on the flat core
/// (calendar queue, dirty-GPU worklist), under the same fault plan, and
/// assert the event streams are byte-identical. On success, additionally
/// run the flat core in [`TraceMode::Checksum`] and assert the streaming
/// checksum folds to exactly `trace_checksum` of the materialized trace.
fn engine_cores_equivalent(
    ts: &TaskSet,
    spec: &PlatformSpec,
    faults: &FaultPlan,
    named: &NamedScheduler,
) {
    // hMETIS+R's partitioner requires at least one task per part; the
    // degenerate fewer-tasks-than-GPUs shape is not an engine-core case.
    if *named == NamedScheduler::HmetisR && ts.num_tasks() < spec.num_gpus {
        return;
    }
    let label = named.label();
    let heap_config = RunConfig {
        trace: TraceMode::Full,
        naive_core: true,
        faults: faults.clone(),
        ..RunConfig::default()
    };
    let calendar_config = RunConfig {
        trace: TraceMode::Full,
        faults: faults.clone(),
        ..RunConfig::default()
    };
    let heap = run_with_config(ts, spec, named.build().as_mut(), &heap_config);
    let calendar = run_with_config(ts, spec, named.build().as_mut(), &calendar_config);
    match (heap, calendar) {
        (Ok((heap_report, heap_trace)), Ok((cal_report, cal_trace))) => {
            if heap_trace != cal_trace {
                let i = heap_trace
                    .iter()
                    .zip(&cal_trace)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| heap_trace.len().min(cal_trace.len()));
                panic!(
                    "{label}: event streams diverge at event {i}:\n  heap:     {:?}\n  calendar: {:?}",
                    heap_trace.get(i),
                    cal_trace.get(i),
                );
            }
            assert_eq!(heap_report.makespan, cal_report.makespan, "{label}");
            assert_eq!(heap_report.total_loads, cal_report.total_loads, "{label}");
            assert_eq!(
                heap_report.total_evictions, cal_report.total_evictions,
                "{label}"
            );
            assert_eq!(heap_report.gpu_failures, cal_report.gpu_failures, "{label}");
            let heap_tasks: Vec<usize> = heap_report.per_gpu.iter().map(|g| g.tasks).collect();
            let cal_tasks: Vec<usize> = cal_report.per_gpu.iter().map(|g| g.tasks).collect();
            assert_eq!(heap_tasks, cal_tasks, "{label}");

            let checksum_config = RunConfig {
                trace: TraceMode::Checksum,
                faults: faults.clone(),
                ..RunConfig::default()
            };
            let (ck_report, ck_trace) =
                run_with_config(ts, spec, named.build().as_mut(), &checksum_config)
                    .expect("checksum rerun of a successful run");
            assert!(ck_trace.is_empty(), "{label}: checksum mode materialized events");
            assert_eq!(
                ck_report.trace_checksum,
                Some(trace_checksum(&cal_trace)),
                "{label}: streaming checksum disagrees with the materialized trace"
            );
        }
        // Both cores may legitimately abort (e.g. transfer retries
        // exhausted) — but they must abort identically.
        (Err(heap_err), Err(cal_err)) => {
            assert_eq!(
                format!("{heap_err:?}"),
                format!("{cal_err:?}"),
                "{label}: cores abort differently"
            );
        }
        (heap, calendar) => panic!(
            "{label}: cores disagree on the outcome:\n  heap:     {:?}\n  calendar: {:?}",
            heap.as_ref().map(|(r, _)| r.makespan),
            calendar.as_ref().map(|(r, _)| r.makespan),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every DARTS variant: plain LRU-evicting, LUF, LUF+3inputs,
    /// LUF+OPTI, LUF+threshold — the incremental candidate index, missing
    /// caches, planned-use counters and Fenwick draw must reproduce the
    /// full-scan run event for event.
    #[test]
    fn darts_incremental_matches_naive(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
        seed in 0u64..1000,
    ) {
        let spec = small_spec(gpus, mem);
        let variants: Vec<(&str, DartsConfig)> = vec![
            ("darts-lru", DartsConfig::lru()),
            ("darts-luf", DartsConfig::luf()),
            ("darts-luf-3inputs", DartsConfig::luf().with_three_inputs()),
            ("darts-luf-opti", DartsConfig::luf().with_opti()),
            ("darts-luf-threshold", DartsConfig::luf().with_threshold(3)),
            (
                "darts-luf-opti-3inputs",
                DartsConfig::luf().with_opti().with_three_inputs(),
            ),
        ];
        for (label, cfg) in variants {
            let cfg = cfg.with_seed(seed);
            let mut naive = DartsScheduler::new(cfg.clone().with_naive());
            let mut incremental = DartsScheduler::new(cfg);
            assert_equivalent(&ts, &spec, label, &mut naive, &mut incremental);
        }
    }

    /// DMDAR's Ready window pick: the hoisted fast path must select the
    /// same task as the reference `missing_bytes_scan` on every pop.
    #[test]
    fn dmdar_ready_matches_naive(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let spec = small_spec(gpus, mem);
        let mut naive = DmdaScheduler::dmdar().with_naive_ready();
        let mut incremental = DmdaScheduler::dmdar();
        assert_equivalent(&ts, &spec, "dmdar", &mut naive, &mut incremental);
    }

    /// mHFP offline packing: the index-accelerated `pack` must emit the
    /// same `k` task lists — same packages, same task order inside each,
    /// same list order — as the paper's quadratic greedy, across memory
    /// bounds tight enough to freeze packages and loose enough to skip
    /// phase 1 entirely.
    #[test]
    fn hfp_pack_indexed_matches_naive(
        ts in arb_sized_taskset(12, 24),
        mem in 1u64..48,
        k in 1usize..5,
    ) {
        let fast = hfp_pack_with(&ts, &PackConfig::new(mem, k));
        let naive = hfp_pack_with(&ts, &PackConfig::new(mem, k).with_naive());
        prop_assert_eq!(&fast, &naive, "package lists diverge (mem={}, k={})", mem, k);
    }

    /// Multilevel bisection: the incremental FM (persistent side counts,
    /// delta rollback, changed-gain pushes) and the in-place greedy seed
    /// pool must reproduce the original bisection's part vector and cost
    /// for every seed.
    #[test]
    fn bisect_incremental_matches_naive(
        hg in arb_hypergraph(),
        seed in 0u64..1000,
        eps_idx in 0usize..3,
    ) {
        let eps = [0.01f64, 0.05, 0.2][eps_idx];
        let total = hg.total_vweight();
        let w0 = total / 2;
        let w1 = total - w0;
        let fast = bisect(&hg, w0, w1, eps, seed);
        let naive = bisect_naive(&hg, w0, w1, eps, seed);
        prop_assert_eq!(fast, naive, "seed {}", seed);
    }

    /// Full K-way partitioning (recursive bisection + restarts): identical
    /// part vectors with and without the naive bisection.
    #[test]
    fn partition_incremental_matches_naive(
        hg in arb_hypergraph(),
        k in 2usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(hg.num_vertices() >= k);
        let cfg = PartitionConfig::for_parts(k)
            .with_nruns(3)
            .with_seed(seed)
            .with_threads(1);
        let fast = partition(&hg, &cfg);
        let naive = partition(&hg, &cfg.clone().with_naive());
        prop_assert_eq!(fast.parts, naive.parts, "seed {}", seed);
    }

    /// Multilevel bisection on hypergraphs that coarsen and carry a net
    /// above the matching cap: live-pin matching must pick the partners of
    /// the full-pin scan at every level, and boundary-only FM requeues
    /// must push what the naive per-net pushes do, big-net drift included.
    #[test]
    fn bisect_large_matches_naive(
        hg in arb_large_hypergraph(),
        seed in 0u64..1000,
        eps_idx in 0usize..3,
    ) {
        let eps = [0.01f64, 0.05, 0.2][eps_idx];
        let total = hg.total_vweight();
        let w0 = total / 2;
        let w1 = total - w0;
        let fast = bisect(&hg, w0, w1, eps, seed);
        let naive = bisect_naive(&hg, w0, w1, eps, seed);
        prop_assert_eq!(fast, naive, "seed {}", seed);
    }

    /// K-way partitioning of the same hypergraphs through the restart
    /// pool: identical part vectors with and without the naive bisection.
    #[test]
    fn partition_large_matches_naive(
        hg in arb_large_hypergraph(),
        k in 2usize..5,
        seed in 0u64..1000,
        threads in 1usize..4,
    ) {
        let cfg = PartitionConfig::for_parts(k)
            .with_nruns(3)
            .with_seed(seed)
            .with_threads(threads);
        let fast = partition(&hg, &cfg);
        let naive = partition(&hg, &cfg.clone().with_naive());
        prop_assert_eq!(fast.parts, naive.parts, "seed {}", seed);
    }

    /// Engine core: the calendar event queue plus dirty-GPU worklist must
    /// reproduce the binary-heap core's trace byte for byte across every
    /// scheduler family on fault-free runs, and the streaming checksum
    /// must fold the same stream.
    #[test]
    fn engine_calendar_matches_heap(
        ts in arb_taskset(10, 24),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let spec = small_spec(gpus, mem);
        for named in ENGINE_FAMILIES {
            engine_cores_equivalent(&ts, &spec, &FaultPlan::none(), named);
        }
    }

    /// Engine core under faults: GPU fail-stop, seeded transient transfer
    /// faults, and straggler-plus-capacity-shrink plans must replay
    /// identically on both cores — fault events go through the same
    /// `(time, seq)` ordering contract as everything else.
    #[test]
    fn engine_calendar_matches_heap_under_faults(
        ts in arb_taskset(10, 24),
        gpus in 1usize..4,
        mem in 3u64..8,
        fault_kind in 0usize..3,
        seed in 0u64..1000,
    ) {
        let spec = small_spec(gpus, mem);
        let faults = match fault_kind {
            // Fail-stop of the last GPU mid-run (tasks run ~1e6 ns under
            // `small_spec`); with one GPU the plan stays empty — killing
            // the only worker is covered by the error-equality arm anyway.
            0 if gpus >= 2 => FaultPlan::none().with_gpu_failure(gpus - 1, 1_500_000),
            1 => FaultPlan::none().with_transfer_faults(TransferFaultSpec {
                seed,
                fault_ppm: 200_000,
                max_attempts: 6,
                backoff_base: 500,
            }),
            2 => FaultPlan::none()
                .with_straggler(0, 500_000, 0.5)
                .with_capacity_shrink(0, 800_000, mem.saturating_sub(1).max(3)),
            _ => FaultPlan::none(),
        };
        for named in ENGINE_FAMILIES {
            engine_cores_equivalent(&ts, &spec, &faults, named);
        }
    }
}
