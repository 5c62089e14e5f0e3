//! Property tests of the observability subsystem over random workloads:
//! every recorded trace is well-formed, the Chrome export is valid JSON
//! that round-trips through `serde_json` and renders each timeline span,
//! in order, on its own track and each instant once, the registry's
//! transfer histogram holds one sample per reported load, the report's
//! per-GPU split sums to the makespan, attaching a probe never changes a
//! decision (the golden-trace guarantee, checked here as trace equality
//! between the observed and unobserved runs), and the engine trace is
//! exactly the projection of the observed stream — which
//! `memsched_platform::validate` then checks against the report, the
//! busy/stall/idle split included.

mod common;

use common::{arb_taskset, small_spec};
use memsched::obs::{check_well_formed, chrome_trace_json, Metrics, ObsEvent, SpanKind};
use memsched::platform::{validate, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::FAMILIES;
use memsched::workloads::{
    assign_classes, deadline_stamps, gemm_2d, open_loop_arrivals, ArrivalPattern,
};
use proptest::prelude::*;
use serde_json::{Number, Value};
use std::collections::BTreeSet;

/// The `Full` trace projected out of an observed event stream.
fn projection(events: &[ObsEvent]) -> Vec<TraceEvent> {
    events.iter().filter_map(TraceEvent::from_obs).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free observed runs: well-formed trace, a valid run, a
    /// transfer histogram matching the report, a split covering the run,
    /// decision identity.
    #[test]
    fn observed_runs_are_well_formed_and_decision_identical(
        ts in arb_taskset(10, 20),
        gpus in 1usize..4,
        mem in 3u64..8,
        sched_idx in 0usize..6,
    ) {
        let spec = small_spec(gpus, mem);
        let named = &FAMILIES[sched_idx];
        let config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };

        // Baseline, no probe anywhere near it.
        let mut plain = named.build();
        let (plain_report, plain_trace) =
            run_with_config(&ts, &spec, plain.as_mut(), &config).unwrap();

        let mut sched = named.build();
        let probe = Probe::unbounded();
        let (report, trace) =
            run_observed(&ts, &spec, sched.as_mut(), &config, &probe).unwrap();
        let events = probe.events();

        // Observation changes no decision: identical engine traces, and
        // the trace is the projection of the observed stream.
        prop_assert!(!plain_trace.is_empty());
        prop_assert_eq!(&plain_trace, &trace, "{}", named.build().name());
        prop_assert_eq!(plain_report.makespan, report.makespan);
        prop_assert_eq!(&projection(&events), &trace);

        // Well-formed: spans nested per track, timestamps monotone,
        // every begin matched.
        let timeline = check_well_formed(&events).unwrap();

        // The trace, and so the observed stream, agrees with the report.
        if let Err(v) = validate(&ts, &spec, &config, &trace, &report) {
            return Err(format!("{named:?}: {v}"));
        }

        // The registry times each delivered transfer once.
        let mut metrics = Metrics::new();
        metrics.ingest(&events);
        prop_assert_eq!(metrics.transfer_duration().count(), report.total_loads);

        // Per-GPU: the engine's split (which `validate` re-derived from
        // the trace above) sums to the makespan.
        for (g, st) in report.per_gpu.iter().enumerate() {
            prop_assert_eq!(
                st.busy + st.stall + st.idle,
                report.makespan,
                "gpu {} split does not cover the run",
                g
            );
        }

        // Chrome export: valid JSON that round-trips, one `X` entry per
        // timeline span in timeline order on the span's own track, and one
        // `i` or `C` entry per instant.
        let text = chrome_trace_json(&events).unwrap();
        let doc = serde_json::parse_value(&text).unwrap();
        let re_parsed = serde_json::parse_value(&serde_json::to_string(&doc).unwrap()).unwrap();
        prop_assert_eq!(&re_parsed, &doc);
        let entries = doc.field("traceEvents", "trace").unwrap().as_arr().unwrap();
        let phase = |ph: &'static str| {
            entries
                .iter()
                .filter(move |e| e.field("ph", "event").unwrap().as_str() == Some(ph))
        };
        let us = |ns: u64| Value::Num(Number::F(ns as f64 / 1000.0));
        prop_assert_eq!(phase("X").count(), timeline.spans.len());
        for (entry, span) in phase("X").zip(&timeline.spans) {
            let at = |key: &str| entry.field(key, "span").unwrap();
            let cat = match span.kind {
                SpanKind::Transfer { .. } => "transfer",
                SpanKind::Compute { .. } => "compute",
            };
            prop_assert_eq!(at("tid"), &Value::Num(Number::U(span.track.tid())));
            prop_assert_eq!(at("ts"), &us(span.begin));
            prop_assert_eq!(at("dur"), &us(span.end - span.begin));
            prop_assert_eq!(at("cat").as_str(), Some(cat));
        }
        prop_assert_eq!(phase("i").count() + phase("C").count(), timeline.instants.len());
    }

    /// With transient transfer faults injected, the trace stays
    /// well-formed, the trace is still the projection of the observed
    /// stream and the run valid (retry instants included), and every retry
    /// closes an undelivered span.
    #[test]
    fn faulted_observed_runs_keep_their_books(
        ts in arb_taskset(8, 14),
        gpus in 1usize..3,
        fault_ppm in 50_000u32..500_000,
    ) {
        let spec = small_spec(gpus, 4);
        let config = RunConfig {
            faults: FaultPlan::none().with_transfer_faults(TransferFaultSpec {
                seed: 11,
                fault_ppm,
                max_attempts: 10,
                backoff_base: 100,
            }),
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        let mut sched = NamedScheduler::Eager.build();
        let probe = Probe::unbounded();
        let (report, trace) = run_observed(&ts, &spec, sched.as_mut(), &config, &probe).unwrap();
        let events = probe.events();
        check_well_formed(&events).unwrap();
        prop_assert_eq!(&projection(&events), &trace);
        if let Err(v) = validate(&ts, &spec, &config, &trace, &report) {
            return Err(v.to_string());
        }
        let undelivered = events
            .iter()
            .filter(
                |e| matches!(e, ObsEvent::TransferEnd { delivered: false, .. }),
            )
            .count() as u64;
        prop_assert!(undelivered >= report.transfer_retries, "every retry closes a span");
    }
}

/// The projection identity and a valid run on every family and every
/// kind of run — batch, a fail/shrink/slow/flaky fault plan, and an
/// overloaded online stream under `PriorityShed` with deadlines — which
/// together emit all 14 `TraceEvent` variants.
#[test]
fn full_trace_is_the_projection_of_the_observed_stream() {
    let batch = gemm_2d(6);
    let tile = batch.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    let full = RunConfig {
        trace: TraceMode::Full,
        ..RunConfig::default()
    };
    let m = batch.num_tasks();
    let stream = batch
        .clone()
        .with_arrivals(open_loop_arrivals(
            &ArrivalPattern::Poisson {
                rate_per_sec: 8000.0,
            },
            5,
            m,
        ))
        .with_deadlines(deadline_stamps(m, 2_000_000, 1.0, 5))
        .with_classes(
            assign_classes(m, &[3.0, 2.0, 1.0], 5)
                .into_iter()
                .map(|c| c as u32)
                .collect(),
        );
    let online = RunConfig {
        admission: Some(AdmissionConfig {
            max_backlog: Some(2),
            policy: ShedPolicy::PriorityShed,
        }),
        ..full.clone()
    };

    let mut seen = BTreeSet::new();
    for named in FAMILIES {
        // Fault times are fractions of this family's fault-free makespan,
        // so every fault lands mid-run.
        let horizon = run(&batch, &spec, named.build().as_mut()).unwrap().makespan;
        let faulted = RunConfig {
            faults: FaultPlan::none()
                .with_gpu_failure(1, horizon / 2)
                .with_capacity_shrink(0, horizon / 4, 3 * tile)
                .with_straggler(0, horizon / 3, 0.5)
                .with_transfer_faults(TransferFaultSpec {
                    seed: 3,
                    fault_ppm: 200_000,
                    max_attempts: 16,
                    backoff_base: 100,
                }),
            ..full.clone()
        };
        for (ts, config) in [(&batch, &full), (&batch, &faulted), (&stream, &online)] {
            let probe = Probe::unbounded();
            let (report, trace) = run_observed(ts, &spec, named.build().as_mut(), config, &probe)
                .unwrap_or_else(|e| panic!("{named:?}: {e}"));
            assert_eq!(projection(&probe.events()), trace, "{named:?}");
            if let Err(v) = validate(ts, &spec, config, &trace, &report) {
                panic!("{named:?}: {v}");
            }
            // Variant names, from the `Debug` rendering.
            seen.extend(
                trace
                    .iter()
                    .filter_map(|ev| format!("{ev:?}").split(' ').next().map(str::to_owned)),
            );
        }
    }
    assert_eq!(
        seen.len(),
        14,
        "every TraceEvent variant is exercised: {seen:?}"
    );
}
