//! Differential tests pinning the online scheduler variants to their
//! batch counterparts: when every arrival is at t = 0 the admission loop
//! releases the whole task set before the first decision, so an online
//! run must make byte-identical scheduling decisions to the batch run —
//! same loads, same eviction victims, same task order, same timestamps.
//! Only the admission bookkeeping events (arrive/admit) may differ, and
//! they are filtered out before comparison.
//!
//! This is the zero-cost guarantee behind the serving mode: DARTS
//! re-scores its data-driven selection and mHFP re-packs incrementally,
//! yet with the full horizon visible both must collapse to the paper's
//! offline algorithms.

mod common;

use common::{arb_taskset, assert_same_events, run_validated, small_spec, without_walls};
use memsched::platform::{RunConfig, Scheduler, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::{DartsConfig, DartsScheduler, DmdaScheduler};
use proptest::prelude::*;

/// Engine trace minus the admission bookkeeping — what is left is pure
/// scheduling: loads, evictions, task starts/finishes.
fn decisions_of(trace: Vec<TraceEvent>) -> Vec<TraceEvent> {
    trace
        .into_iter()
        .filter(|ev| {
            !matches!(
                ev,
                TraceEvent::TaskArrived { .. }
                    | TraceEvent::TaskAdmitted { .. }
                    | TraceEvent::TaskDeferred { .. }
            )
        })
        .collect()
}

/// Run `batch` offline and `online` on the same task set with every
/// arrival at t = 0, validate both runs, and assert identical decision
/// streams.
fn assert_online_matches_batch(
    ts: &TaskSet,
    spec: &PlatformSpec,
    label: &str,
    batch: &mut dyn Scheduler,
    online: &mut dyn Scheduler,
) {
    let batch_config = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    let online_config = RunConfig {
        admission: Some(AdmissionConfig::default()),
        ..batch_config.clone()
    };
    // `with_arrivals` of all zeros flips the task set into stream mode
    // without moving any arrival off the origin.
    let streamed = ts.clone().with_arrivals(vec![0; ts.num_tasks()]);

    let (b_report, b_trace) = run_validated(ts, spec, batch, &batch_config);
    let (o_report, o_trace) = run_validated(&streamed, spec, online, &online_config);
    let b_decisions = decisions_of(b_trace);
    let o_decisions = decisions_of(o_trace);
    let what = format!("{label}: batch vs online t=0 decisions");
    assert_same_events(&what, &b_decisions, &o_decisions);
    let stats = o_report
        .online
        .clone()
        .expect("online run must report stats");
    let o_report = RunReport {
        online: None,
        ..o_report
    };
    assert_eq!(without_walls(b_report), without_walls(o_report), "{label}");
    assert_eq!(stats.tasks_admitted as usize, ts.num_tasks(), "{label}");
    assert_eq!(stats.tasks_deferred, 0, "{label}: t=0 defers nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every DARTS variant: the arrival-release path must rebuild exactly
    /// the state `prepare` computes, so the data-driven selection (and
    /// its RNG draw sequence) is unchanged when the horizon is full.
    #[test]
    fn online_darts_matches_batch_at_t0(
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
        ];
        for (label, cfg) in variants {
            let cfg = cfg.with_seed(seed);
            let mut batch = DartsScheduler::new(cfg.clone());
            let mut online = DartsScheduler::new(cfg);
            assert_online_matches_batch(&ts, &spec, label, &mut batch, &mut online);
        }
    }

    /// mHFP: the lazy incremental re-pack over the visible horizon must
    /// reduce to the full offline packing when every task is visible at
    /// the first pop — same packages, same order, same steals.
    #[test]
    fn online_mhfp_matches_batch_at_t0(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let spec = small_spec(gpus, mem);
        let mut batch = NamedScheduler::Mhfp.build();
        let mut online = NamedScheduler::Mhfp.build();
        assert_online_matches_batch(&ts, &spec, "mhfp", batch.as_mut(), online.as_mut());
    }

    /// EAGER and DMDA(R) requeue naturally: arrival order is task order
    /// at t = 0, so the queues and the Eq. (1) completion estimates are
    /// identical to the batch `prepare`.
    #[test]
    fn online_eager_and_dmda_match_batch_at_t0(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
    ) {
        let spec = small_spec(gpus, mem);
        let mut batch = EagerScheduler::new();
        let mut online = EagerScheduler::new();
        assert_online_matches_batch(&ts, &spec, "eager", &mut batch, &mut online);
        let mut batch = DmdaScheduler::dmda();
        let mut online = DmdaScheduler::dmda();
        assert_online_matches_batch(&ts, &spec, "dmda", &mut batch, &mut online);
        let mut batch = DmdaScheduler::dmdar();
        let mut online = DmdaScheduler::dmdar();
        assert_online_matches_batch(&ts, &spec, "dmdar", &mut batch, &mut online);
    }
}
