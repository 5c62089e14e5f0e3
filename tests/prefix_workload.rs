//! Property and differential tests for the prefix-tree workload
//! generator (`workloads::prefix`) and the sweep built on it:
//!
//! 1. **Chain property** — every generated task's input set is exactly
//!    one root-to-leaf chain of the BFS tree: `depth` ascending node
//!    ids, each the parent of the next, starting at a parentless
//!    level-0 node.
//! 2. **Seeded determinism across workers** — the `prefix_route` sweep
//!    digests byte-identically on 1, 2 and 8 pool workers (`--jobs`
//!    can only change wall-clock, never decisions), and a same-seed
//!    rerun replays the same rows.
//! 3. **Zipf monotonicity** — the rank-0 leaf outdraws the coldest
//!    leaf, and raising the Zipf exponent never cools the head.
//! 4. **Depth-1 differential** — a 1-deep tree degenerates to the
//!    independent single-input-tasks shape: rebuilding the same tasks
//!    by hand through `TaskSetBuilder` yields a byte-identical engine
//!    trace under both a batch and a streaming run.
//! 5. **Routing margin** — at 2× cache pressure the residency-aware
//!    Router moves at most 0.7× EAGER's bytes, with a p99 latency no
//!    worse, on the quick and the full sweep stream.

use memsched::experiments::pool;
use memsched::experiments::prefix_route::{
    run_cell, schedulers, sweep_spec, sweep_taskset, SweepConfig,
};
use memsched::platform::run_with_config;
use memsched::prelude::*;
use memsched::workloads::prefix::{
    leaf_count, node_count, parent_of, prefix_tree, task_leaf, PrefixConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: inputs are exactly a root-to-leaf parent chain.
    #[test]
    fn task_inputs_are_root_to_leaf_chains(
        depth in 1usize..=5,
        fanout in 1usize..=4,
        tasks in 1usize..=40,
        seed in 0u64..1000,
    ) {
        let cfg = PrefixConfig {
            depth,
            fanout,
            tasks,
            item_bytes: 1 << 12,
            zipf_s: 1.0,
            seed,
        };
        let ts = prefix_tree(&cfg);
        prop_assert_eq!(ts.num_data(), node_count(depth, fanout));
        for t in ts.tasks() {
            let path: Vec<usize> =
                ts.inputs(t).iter().map(|&d| d as usize).collect();
            prop_assert_eq!(path.len(), depth, "one node per level");
            prop_assert_eq!(
                parent_of(path[0], depth, fanout), None,
                "paths start at a level-0 node"
            );
            for w in path.windows(2) {
                prop_assert_eq!(
                    parent_of(w[1], depth, fanout),
                    Some(w[0]),
                    "consecutive inputs must be parent and child"
                );
            }
            // The deepest input is a leaf the popularity accounting
            // can name.
            let leaf = task_leaf(&ts, t, depth, fanout);
            prop_assert!(leaf < leaf_count(depth, fanout));
        }
    }

    /// Invariant 3 (head vs tail): under a hot Zipf head the rank-0
    /// leaf outdraws the coldest rank, for every seed.
    #[test]
    fn zipf_head_outdraws_tail(seed in 0u64..200) {
        let cfg = PrefixConfig {
            depth: 2,
            fanout: 4,
            tasks: 3000,
            item_bytes: 1 << 12,
            zipf_s: 1.2,
            seed,
        };
        let ts = prefix_tree(&cfg);
        let counts = leaf_counts(&ts, cfg.depth, cfg.fanout);
        prop_assert!(
            counts[0] > counts[counts.len() - 1],
            "rank 0 drew {} <= coldest {}",
            counts[0],
            counts[counts.len() - 1]
        );
    }

    /// Invariant 3 (monotonicity in the exponent): raising `zipf_s`
    /// never cools the head — the rank-0 share is non-decreasing across
    /// 0.0 (uniform), 0.6, 1.2 and 1.8.
    #[test]
    fn zipf_head_share_is_monotone_in_s(seed in 0u64..100) {
        let share = |s: f64| {
            let cfg = PrefixConfig {
                depth: 2,
                fanout: 4,
                tasks: 4000,
                item_bytes: 1 << 12,
                zipf_s: s,
                seed,
            };
            let ts = prefix_tree(&cfg);
            leaf_counts(&ts, cfg.depth, cfg.fanout)[0]
        };
        let shares: Vec<usize> =
            [0.0, 0.6, 1.2, 1.8].iter().map(|&s| share(s)).collect();
        for w in shares.windows(2) {
            prop_assert!(
                w[0] <= w[1],
                "hotter exponent cooled the head: {:?}",
                shares
            );
        }
    }
}

/// Per-leaf draw counts, hottest rank first.
fn leaf_counts(ts: &TaskSet, depth: usize, fanout: usize) -> Vec<usize> {
    let mut counts = vec![0usize; leaf_count(depth, fanout)];
    for t in ts.tasks() {
        counts[task_leaf(ts, t, depth, fanout)] += 1;
    }
    counts
}

/// Invariant 2: the `prefix_route` sweep digests identically on 1, 2
/// and 8 pool workers, and a same-seed rerun replays the same rows.
#[test]
fn sweep_rows_stable_across_jobs() {
    let cfg = SweepConfig {
        tasks: 60,
        rate_per_sec: 3000.0,
        seed: 11,
    };
    let ts = sweep_taskset(&cfg);
    let cells: Vec<(f64, memsched::schedulers::NamedScheduler)> = [0.5, 2.0]
        .iter()
        .flat_map(|&p| schedulers().into_iter().map(move |s| (p, s)))
        .collect();
    let digest_all = |jobs: usize| -> Vec<String> {
        pool::run_indexed(&cells, jobs, |_, (pressure, named)| {
            let spec = sweep_spec(&ts, *pressure);
            let report = run_cell(&ts, &spec, named).expect("cell runs");
            let o = report.online.expect("online run");
            format!(
                "{}@{pressure}: makespan={} moved={} p99={} evict={}",
                report.scheduler,
                report.makespan,
                report.total_load_bytes,
                o.p99_latency,
                report.total_evictions
            )
        })
    };
    let one = digest_all(1);
    assert_eq!(one, digest_all(2), "1 vs 2 workers diverge");
    assert_eq!(one, digest_all(8), "1 vs 8 workers diverge");
    assert_eq!(one, digest_all(1), "same-seed rerun diverges");
}

/// Invariant 4: a depth-1 tree is the independent single-input-tasks
/// shape. Rebuilding the same tasks by hand must give a byte-identical
/// engine trace, batch and streaming alike.
#[test]
fn depth_one_matches_independent_tasks() {
    let cfg = PrefixConfig {
        depth: 1,
        fanout: 12,
        tasks: 80,
        item_bytes: 1 << 16,
        zipf_s: 0.9,
        seed: 5,
    };
    let tree = prefix_tree(&cfg);

    // The independent-tasks reconstruction: one data item per node, one
    // single-input task per request — the shape the pre-prefix
    // generators produce.
    let mut b = TaskSetBuilder::new();
    let data: Vec<DataId> = tree.data().map(|d| b.add_data(tree.data_size(d))).collect();
    for t in tree.tasks() {
        let ins = tree.inputs(t);
        assert_eq!(ins.len(), 1, "virtual root must carry no data");
        b.add_task(&[data[ins[0] as usize]], tree.flops(t));
    }
    let flat = b.build();

    let spec = PlatformSpec::v100(2).with_memory(8 * cfg.item_bytes);
    for arrivals in [None, Some(3_000_000u64)] {
        let stamp = |ts: &TaskSet| match arrivals {
            None => ts.clone(),
            // A fixed-stride arrival ramp exercises the admission loop.
            Some(stride) => ts.clone().with_arrivals(
                (0..ts.num_tasks() as u64).map(|i| i * stride).collect(),
            ),
        };
        let config = RunConfig {
            admission: arrivals.map(|_| AdmissionConfig::default()),
            ..RunConfig::default()
        };
        let run_one = |ts: &TaskSet| {
            let mut sched = memsched::schedulers::NamedScheduler::Dmdar.build();
            run_with_config(&stamp(ts), &spec, sched.as_mut(), &config)
                .expect("run succeeds")
        };
        let (report_t, trace_t) = run_one(&tree);
        let (report_f, trace_f) = run_one(&flat);
        assert_eq!(trace_t, trace_f, "traces diverge (arrivals: {arrivals:?})");
        assert_eq!(report_t.makespan, report_f.makespan);
        assert_eq!(
            report_t.total_load_bytes,
            report_f.total_load_bytes
        );
    }
}

/// At 2× cache pressure the Router may move at most this fraction of
/// EAGER's bytes.
const ROUTER_MAX_BYTES_VS_EAGER: f64 = 0.7;

/// Invariant 5: residency-aware routing pays for itself in bytes not
/// moved, without giving the tail back. Both sides are simulated, so
/// the margin is exact for every run of the same stream.
#[test]
fn router_beats_eager_bytes_and_p99_at_2x_pressure() {
    for cfg in [SweepConfig::quick(42), SweepConfig::full(42)] {
        let ts = sweep_taskset(&cfg);
        let spec = sweep_spec(&ts, 2.0);
        let cell = |named: NamedScheduler| run_cell(&ts, &spec, &named).expect("cell runs");
        let router = cell(NamedScheduler::Router);
        let eager = cell(NamedScheduler::Eager);
        let ratio = router.total_load_bytes as f64 / eager.total_load_bytes.max(1) as f64;
        assert!(
            ratio <= ROUTER_MAX_BYTES_VS_EAGER,
            "{} requests: router moved {ratio:.3}x EAGER's bytes, bound {ROUTER_MAX_BYTES_VS_EAGER}x",
            cfg.tasks
        );
        let p99 = |r: &RunReport| r.online.as_ref().expect("online run").p99_latency;
        assert!(
            p99(&router) <= p99(&eager),
            "{} requests: router p99 {} ns exceeds EAGER p99 {} ns",
            cfg.tasks,
            p99(&router),
            p99(&eager)
        );
    }
}
