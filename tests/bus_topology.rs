//! Bus topology is opt-in: `bus_groups: None` and an explicit one-bus
//! grouping (`vec![0; k]`) must be byte-identical for every scheduler
//! family, so the per-bus engine state cannot perturb the single-bus
//! platform the paper models.

use memsched::prelude::*;
use proptest::prelude::*;

/// Strategy: a random task set with up to `max_data` unit-size data items
/// and up to `max_tasks` tasks with 1–3 inputs each (the same shape the
/// engine differential tests use).
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

/// Zero the wall-clock fields that legitimately differ between runs.
fn strip_walls(mut r: RunReport) -> RunReport {
    r.prepare_wall = 0;
    r.sched_wall = 0;
    for g in &mut r.per_gpu {
        g.sched_wall = 0;
    }
    r
}

/// All six scheduler families.
const ALL_FAMILIES: &[NamedScheduler] = &[
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::DartsLuf,
    NamedScheduler::Router,
];

/// hMETIS+R's partitioner requires at least one task per part; the
/// degenerate fewer-tasks-than-GPUs shape is not a differential case.
fn skip_degenerate(named: &NamedScheduler, ts: &TaskSet, gpus: usize) -> bool {
    *named == NamedScheduler::HmetisR && ts.num_tasks() < gpus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `bus_groups: None` and the explicit one-bus grouping must be
    /// byte-identical — same trace, same report — for every family: the
    /// per-bus engine state collapses to the single-bus behavior when
    /// every GPU shares bus 0.
    #[test]
    fn one_bus_grouping_is_byte_identical_to_ungrouped(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let flat = small_spec(gpus, mem);
        let grouped = small_spec(gpus, mem).with_bus_groups(vec![0; gpus]);
        let config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        for named in ALL_FAMILIES {
            if skip_degenerate(named, &ts, gpus) {
                continue;
            }
            let label = named.label();
            let (flat_report, flat_trace) =
                run_with_config(&ts, &flat, named.build().as_mut(), &config)
                    .unwrap_or_else(|e| panic!("{label}: flat run failed: {e}"));
            let (grp_report, grp_trace) =
                run_with_config(&ts, &grouped, named.build().as_mut(), &config)
                    .unwrap_or_else(|e| panic!("{label}: grouped run failed: {e}"));
            prop_assert_eq!(&flat_trace, &grp_trace, "{}: traces diverge", label);
            prop_assert_eq!(
                strip_walls(flat_report),
                strip_walls(grp_report),
                "{}: reports diverge",
                label
            );
        }
    }
}
