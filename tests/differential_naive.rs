//! Differential tests of the incremental scheduler hot paths against the
//! original full-scan implementations (the `naive` feature).
//!
//! The incremental DARTS/Ready state is only correct if it changes *no
//! scheduling decision*: for any task set, platform shape and seed, the
//! naive and incremental configurations must produce byte-identical
//! engine traces — same loads, same eviction victims, same task order,
//! same timestamps, and (for DARTS) the same RNG draw sequence, since a
//! diverging candidate count would shift every later tie-break.
//!
//! Two `#[ignore]`d release-mode tests run where debug builds are too
//! slow. One repeats the identity on the `scale` workload preset and
//! asserts how much faster the indexed mHFP packing is than the paper's
//! quadratic greedy; the other partitions task hypergraphs that coarsen
//! through several levels with both bisections:
//! `cargo test --release --test differential_naive -- --ignored`.

mod common;

use common::{
    arb_taskset, arb_taskset_sized, assert_same_events, run_validated, small_spec, without_walls,
};
use memsched::hypergraph::{bisect, bisect_naive, partition, Hypergraph, PartitionConfig};
use memsched::platform::{run_with_config, RunConfig, Scheduler, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::{
    hfp_pack_with, DartsConfig, DartsScheduler, DmdaScheduler, NamedScheduler, PackConfig,
    FAMILIES,
};
use memsched::workloads::{cholesky, gemm_2d_random, scale_preset};
use proptest::prelude::*;
use std::time::Instant;

/// Strategy: an [`arb_taskset`] stream for the online engine-core
/// differential. Arrival stamps come from a grid of 0.5 ms steps plus
/// multiples of 11 ns, which is where transfers (11 ns for a unit item)
/// and computations (1 ms per task) complete under [`small_spec`], so
/// arrivals tie with completions and with each other. The stamps repeat
/// and follow no task-id order. Deadlines and tenant classes give the
/// shedding policies something to act on.
fn arb_online_taskset(max_data: usize, max_tasks: usize) -> impl Strategy<Value = TaskSet> {
    arb_taskset(max_data, max_tasks)
        .prop_flat_map(|ts| {
            let n = ts.num_tasks();
            let stamps = proptest::collection::vec((0u64..6, 0u64..4), n);
            let deadlines = proptest::collection::vec(0usize..4, n);
            let classes = proptest::collection::vec(0u32..3, n);
            (Just(ts), stamps, deadlines, classes)
        })
        .prop_map(|(ts, stamps, deadlines, classes)| {
            let arrivals = stamps.iter().map(|&(a, b)| a * 500_000 + b * 11).collect();
            let deadlines = deadlines
                .iter()
                .map(|&i| [0, 1_000_000, 2_000_000, 4_000_000][i])
                .collect();
            ts.with_arrivals(arrivals)
                .with_deadlines(deadlines)
                .with_classes(classes)
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

/// Strategy: a linear weighted hypergraph large enough to coarsen, shaped
/// like the task hypergraphs the figures partition (each task lies on a
/// few data lines, and two lines meet in at most one task). It keeps more
/// than 160 cells of a 13–30 × 13–30 grid, numbered in a random order,
/// with one net per row, column and diagonal over its kept cells (nets of
/// one cell dropped). Two cells share at most one line, so no two nets
/// share two vertices: the finest level's net-pair index is empty and
/// matching there is the pointer walk alone.
/// Vertex weights are 1–3 and net weights 1–40. In half the cases the
/// grid keeps more than 256 cells and one more net holds all of them:
/// above the matching cap, it is ignored by matching and by the index,
/// and the level stays linear.
fn arb_linear_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (any::<bool>(), 13usize..=30, 13usize..=30)
        .prop_flat_map(|(big, r, c)| {
            // A grid with a big net has at least 17 × 17 > 256 cells.
            let (rows, cols) = if big { (r.max(17), c.max(17)) } else { (r, c) };
            let cells = rows * cols;
            let keep = if big { 257 } else { 161 };
            let drops = proptest::collection::vec(0..cells, 0..=cells - keep);
            let keys = proptest::collection::vec(any::<u32>(), cells);
            let vweights = proptest::collection::vec(1u64..=3, cells);
            // One weight per row, column and diagonal, and one for the big net.
            let nweights = proptest::collection::vec(1u64..=40, 2 * (rows + cols));
            (Just((big, rows, cols)), drops, keys, vweights, nweights)
        })
        .prop_map(|((big, rows, cols), drops, keys, vweights, nweights)| {
            let mut kept = vec![true; rows * cols];
            for d in drops {
                kept[d] = false;
            }
            let mut order: Vec<usize> = (0..rows * cols).filter(|&x| kept[x]).collect();
            order.sort_by_key(|&x| (keys[x], x));
            let n = order.len() as u32;
            // Rows, then columns, then the diagonals `i − j`, then the big net.
            let mut lines: Vec<Vec<u32>> = vec![Vec::new(); nweights.len()];
            for (id, &x) in order.iter().enumerate() {
                let (i, j) = (x / cols, x % cols);
                for line in [i, rows + j, rows + cols + i + cols - 1 - j] {
                    lines[line].push(id as u32);
                }
            }
            if big {
                *lines.last_mut().expect("one slot per net") = (0..n).collect();
            }
            let (nets, nweights): (Vec<Vec<u32>>, Vec<u64>) = lines
                .into_iter()
                .zip(nweights)
                .filter(|(l, _)| l.len() >= 2)
                .unzip();
            let vweights = order.iter().map(|&x| vweights[x]).collect();
            Hypergraph::new(n as usize, nets, vweights, nweights)
        })
}

/// Strategy: a sparse weighted hypergraph that is not linear, large
/// enough to coarsen: a 13–24 × 13–24 grid (169–576 cells, numbered in a
/// random order) with a net per row, per column and per 2×2 block (cut
/// short at odd edges, one-cell nets dropped). Two cells of one block
/// and row, or block and column, share two nets, so the finest level
/// takes the net-pair index with a list per such pair. Vertex and net
/// weights are 1–3, so pointer candidates and neighbours that share two
/// nets tie on score.
fn arb_block_grid_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (13usize..=24, 13usize..=24)
        .prop_flat_map(|(rows, cols)| {
            let cells = rows * cols;
            let nets = rows + cols + rows.div_ceil(2) * cols.div_ceil(2);
            let keys = proptest::collection::vec(any::<u32>(), cells);
            let vweights = proptest::collection::vec(1u64..=3, cells);
            let nweights = proptest::collection::vec(1u64..=3, nets);
            (Just((rows, cols)), keys, vweights, nweights)
        })
        .prop_map(|((rows, cols), keys, vweights, nweights)| {
            let mut order: Vec<usize> = (0..rows * cols).collect();
            order.sort_by_key(|&x| (keys[x], x));
            let mut id = vec![0u32; rows * cols];
            for (k, &x) in order.iter().enumerate() {
                id[x] = k as u32;
            }
            let cell = |i: usize, j: usize| id[i * cols + j];
            let mut nets: Vec<Vec<u32>> = Vec::new();
            nets.extend((0..rows).map(|i| (0..cols).map(|j| cell(i, j)).collect()));
            nets.extend((0..cols).map(|j| (0..rows).map(|i| cell(i, j)).collect()));
            for bi in (0..rows).step_by(2) {
                for bj in (0..cols).step_by(2) {
                    nets.push(
                        (bi..rows.min(bi + 2))
                            .flat_map(|i| (bj..cols.min(bj + 2)).map(move |j| (i, j)))
                            .map(|(i, j)| cell(i, j))
                            .collect(),
                    );
                }
            }
            let (nets, nweights): (Vec<Vec<u32>>, Vec<u64>) = nets
                .into_iter()
                .zip(nweights)
                .filter(|(net, _)| net.len() >= 2)
                .unzip();
            Hypergraph::new(rows * cols, nets, vweights, nweights)
        })
}

/// A validated `TraceMode::Full` batch run.
fn trace_of(
    ts: &TaskSet,
    spec: &PlatformSpec,
    sched: &mut dyn Scheduler,
) -> (RunReport, Vec<TraceEvent>) {
    let config = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    run_validated(ts, spec, sched, &config)
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
    let what = format!("{label}: naive vs incremental decision streams");
    assert_same_events(&what, &naive_trace, &incr_trace);
    assert_eq!(without_walls(naive_report), without_walls(incr_report), "{label}");
}

/// Run `named` once on the pre-refactor engine core (`naive_core`: binary
/// heap, per-event full progress scan, every future arrival pushed at run
/// start) and once on the flat core (calendar queue, dirty-GPU worklist,
/// one pending arrival at a time), both under `base` (its fault plan and
/// admission settings), and assert the event streams and the reports,
/// wall fields aside, are identical. On success, additionally run the
/// flat core in [`TraceMode::Checksum`] and assert the streaming checksum
/// folds to exactly `trace_checksum` of the materialized trace.
fn engine_cores_equivalent(
    ts: &TaskSet,
    spec: &PlatformSpec,
    base: &RunConfig,
    named: &NamedScheduler,
) {
    let label = named.label();
    let heap_config = RunConfig {
        trace: TraceMode::Full,
        naive_core: true,
        ..base.clone()
    };
    let calendar_config = RunConfig {
        trace: TraceMode::Full,
        ..base.clone()
    };
    let heap = run_with_config(ts, spec, named.build().as_mut(), &heap_config);
    let calendar = run_with_config(ts, spec, named.build().as_mut(), &calendar_config);
    match (heap, calendar) {
        (Ok((heap_report, heap_trace)), Ok((cal_report, cal_trace))) => {
            let what = format!("{label}: heap vs calendar event streams");
            assert_same_events(&what, &heap_trace, &cal_trace);
            assert_eq!(
                without_walls(heap_report),
                without_walls(cal_report),
                "{label}: reports differ"
            );

            let checksum_config = RunConfig {
                trace: TraceMode::Checksum,
                ..base.clone()
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

    /// Multilevel bisection on linear hypergraphs: the pointer matching of
    /// a linear level must pick the partners of the full-pin scan, nets
    /// above the matching cap ignored, and the FM pass cut-off must keep
    /// the naive moves.
    #[test]
    fn bisect_linear_matches_naive(
        hg in arb_linear_hypergraph(),
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

    /// K-way partitioning of linear hypergraphs through the restart pool:
    /// identical part vectors with and without the naive bisection.
    #[test]
    fn partition_linear_matches_naive(
        hg in arb_linear_hypergraph(),
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

    /// Multilevel bisection on block grids, whose finest level is sparse
    /// but not linear: the pointer and net-pair candidates must pick the
    /// partners of the full-pin scan, ties on score included, and the
    /// segment-stack greedy growth the naive vertices.
    #[test]
    fn bisect_block_grid_matches_naive(
        hg in arb_block_grid_hypergraph(),
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

    /// K-way partitioning of block grids through the restart pool:
    /// identical part vectors with and without the naive bisection.
    #[test]
    fn partition_block_grid_matches_naive(
        hg in arb_block_grid_hypergraph(),
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
        for named in &FAMILIES {
            engine_cores_equivalent(&ts, &spec, &RunConfig::default(), named);
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
        let config = RunConfig {
            faults,
            ..RunConfig::default()
        };
        for named in &FAMILIES {
            engine_cores_equivalent(&ts, &spec, &config, named);
        }
    }

    /// Engine core in online mode: the flat core keeps one pending
    /// arrival on the timeline under a sequence number reserved at run
    /// start, the reference core pushes them all up front. Every shed
    /// policy, with and without faults, must replay identically, so an
    /// arrival keeps its place against every event and arrival it ties
    /// with.
    #[test]
    fn engine_calendar_matches_heap_online(
        ts in arb_online_taskset(10, 24),
        gpus in 1usize..4,
        mem in 3u64..8,
        backlog in 0usize..4,
        seed in 0u64..1000,
    ) {
        let spec = small_spec(gpus, mem);
        let max_backlog = [None, Some(1), Some(2), Some(4)][backlog];
        // Fault instants sit on the arrival grid, so arrivals tie with
        // them too.
        let mut faults = FaultPlan::none()
            .with_straggler(0, 500_000, 0.5)
            .with_capacity_shrink(0, 1_000_000, mem.saturating_sub(1).max(3))
            .with_transfer_faults(TransferFaultSpec {
                seed,
                fault_ppm: 200_000,
                max_attempts: 6,
                backoff_base: 500,
            });
        if gpus >= 2 {
            faults = faults.with_gpu_failure(gpus - 1, 1_500_000);
        }
        for policy in [ShedPolicy::DeferOnly, ShedPolicy::DeadlineShed, ShedPolicy::PriorityShed] {
            for plan in [FaultPlan::none(), faults.clone()] {
                let config = RunConfig {
                    faults: plan,
                    admission: Some(AdmissionConfig { max_backlog, policy }),
                    ..RunConfig::default()
                };
                for named in &FAMILIES {
                    engine_cores_equivalent(&ts, &spec, &config, named);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Engine core past one bitset word: on 70 GPUs the flat core's
    /// worklist sweep and stall wake cross from the first word of GPU
    /// bits into the second. Each set of 140–200 tasks runs three ways:
    /// in batch, where with pipeline depth 2 the first sweep hands two
    /// tasks to each of the 70 GPUs, 64–69 included; in batch with GPU
    /// 66 killed mid-run, so a dead GPU's mark leaves the worklist; and
    /// online with the second half of the tasks arriving at 0.5 ms,
    /// while the first half still runs, so their admission must wake
    /// the stalled GPUs of both words.
    #[test]
    fn engine_calendar_matches_heap_on_70_gpus(
        ts in arb_taskset_sized(40, 140..=200),
        mem in 3u64..8,
    ) {
        let spec = small_spec(70, mem);
        let n = ts.num_tasks();
        let bursts = ts
            .clone()
            .with_arrivals((0..n).map(|t| if t < n / 2 { 0 } else { 500_000 }).collect());
        let batch = RunConfig::default();
        let failing = RunConfig {
            faults: FaultPlan::none().with_gpu_failure(66, 1_500_000),
            ..RunConfig::default()
        };
        let online = RunConfig {
            admission: Some(AdmissionConfig::default()),
            ..RunConfig::default()
        };
        for named in &FAMILIES {
            engine_cores_equivalent(&ts, &spec, &batch, named);
            engine_cores_equivalent(&ts, &spec, &failing, named);
            engine_cores_equivalent(&bursts, &spec, &online, named);
        }
    }
}

/// The indexed mHFP packing must beat the paper's quadratic greedy by at
/// least this factor on the full `scale` preset...
const MHFP_SPEEDUP_FLOOR_FULL: f64 = 5.0;
/// ...and by this factor on the quick one, whose smaller task sets leave
/// the quadratic reference less room to lose.
const MHFP_SPEEDUP_FLOOR_QUICK: f64 = 2.0;

/// Fastest of three runs of `f`, with the output of the last.
fn best_of_three<T>(f: impl Fn() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let started = Instant::now();
        out = Some(f());
        best = best.min(started.elapsed().as_secs_f64());
    }
    (out.expect("three runs"), best)
}

/// The `scale` preset on two GPUs with a quarter of the working set each,
/// so mHFP's phase 1 has a real memory bound and the eviction paths stay
/// hot. On every workload the indexed and the naive mHFP packing emit the
/// same package lists, and the indexed one is at least
/// [`MHFP_SPEEDUP_FLOOR_FULL`] (full preset) or
/// [`MHFP_SPEEDUP_FLOOR_QUICK`] (quick preset) times faster. On the quick
/// preset DARTS+LUF, DARTS+LUF-3inputs and DMDAR also replay their
/// full-scan references event for event.
///
/// Run with `cargo test --release --test differential_naive -- --ignored`.
#[test]
#[ignore = "wall-time floor; execute in release mode explicitly"]
fn scale_preset_mhfp_floor_and_hot_path_identity() {
    for (quick, floor) in [
        (true, MHFP_SPEEDUP_FLOOR_QUICK),
        (false, MHFP_SPEEDUP_FLOOR_FULL),
    ] {
        for w in scale_preset(quick) {
            let ts = w.generate();
            let label = w.label();
            let spec = PlatformSpec::v100(2).with_memory(ts.working_set_bytes() / 4);
            let cfg = PackConfig::new(spec.memory_bytes, spec.num_gpus);
            let (naive, naive_s) = best_of_three(|| hfp_pack_with(&ts, &cfg.clone().with_naive()));
            let (fast, fast_s) = best_of_three(|| hfp_pack_with(&ts, &cfg));
            assert_eq!(naive, fast, "{label}: mHFP package lists diverge");
            let speedup = naive_s / fast_s;
            assert!(
                speedup >= floor,
                "{label}: indexed mHFP packing only {speedup:.2}x faster than the naive one, \
                 floor {floor}x"
            );
            if quick {
                for (name, cfg) in [
                    ("DARTS+LUF", DartsConfig::luf()),
                    ("DARTS+LUF-3inputs", DartsConfig::luf().with_three_inputs()),
                ] {
                    let mut naive = DartsScheduler::new(cfg.clone().with_naive());
                    let mut incremental = DartsScheduler::new(cfg);
                    let label = format!("{label} {name}");
                    assert_equivalent(&ts, &spec, &label, &mut naive, &mut incremental);
                }
                let mut naive = DmdaScheduler::dmdar().with_naive_ready();
                let mut incremental = DmdaScheduler::dmdar();
                let label = format!("{label} DMDAR");
                assert_equivalent(&ts, &spec, &label, &mut naive, &mut incremental);
            }
        }
    }
}

/// The fast and the naive `partition` on the task hypergraphs hMETIS+R
/// builds for a 2D GEMM (`gemm_2d_random(80, 42)`, 6,400 tasks) and a
/// Cholesky factorisation (`cholesky(24)`), for 2 and 4 parts with two
/// restarts each: identical part vectors. Their first bisections coarsen
/// through five or six levels, the finer ones on the net-pair index and
/// the three coarsest on the scan, a depth no proptest input reaches.
///
/// Run with `cargo test --release --test differential_naive -- --ignored`.
#[test]
#[ignore = "naive partitions of task hypergraphs; execute in release mode explicitly"]
fn partition_matches_naive_on_task_hypergraphs() {
    for (label, ts) in [
        ("gemm_2d_random(80, 42)", gemm_2d_random(80, 42)),
        ("cholesky(24)", cholesky(24)),
    ] {
        let hg = HmetisRScheduler::build_hypergraph(&ts);
        for k in [2, 4] {
            let cfg = PartitionConfig::for_parts(k).with_nruns(2);
            let fast = partition(&hg, &cfg);
            let naive = partition(&hg, &cfg.clone().with_naive());
            assert_eq!(fast.parts, naive.parts, "{label}, k = {k}");
        }
    }
}
