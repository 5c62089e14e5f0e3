//! `Timed` must be transparent: wrapping a scheduler changes no decision
//! of any family in batch, online (`PriorityShed`) or faulted runs, and
//! every trait method reaches the wrapped scheduler.

use memsched_model::TaskSet;
use memsched_perfbench::check::fingerprint;
use memsched_perfbench::timed::{Hook, Timed};
use memsched_platform::{
    run_observed, run_with_config, AdmissionConfig, FaultPlan, PlatformSpec, Probe, RunConfig,
    RunReport, Scheduler, ShedPolicy, TraceMode,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::{
    assign_classes, deadline_stamps, gemm_2d, open_loop_arrivals, ArrivalPattern,
};
use std::time::Instant;

const FAMILIES: [NamedScheduler; 6] = [
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::DartsLuf,
    NamedScheduler::Router,
];

/// 64 tasks over 16 data items on two GPUs that hold six items each, so
/// every family evicts.
fn batch() -> (TaskSet, PlatformSpec) {
    let ts = gemm_2d(8);
    let item = ts.data_size(memsched_model::DataId(0));
    (ts, PlatformSpec::v100(2).with_memory(6 * item))
}

/// The same tasks as an overloaded stream with deadlines and classes.
fn stream() -> (TaskSet, PlatformSpec) {
    let (ts, spec) = batch();
    let n = ts.num_tasks();
    let ts = ts
        .with_arrivals(open_loop_arrivals(
            &ArrivalPattern::Poisson {
                rate_per_sec: 8000.0,
            },
            5,
            n,
        ))
        .with_deadlines(deadline_stamps(n, 2_000_000, 1.0, 6))
        .with_classes(
            assign_classes(n, &[1.0; 3], 7)
                .into_iter()
                .map(|c| c as u32)
                .collect(),
        );
    (ts, spec)
}

/// A GPU death, a capacity shrink and flaky transfers, all mid-run.
fn faults() -> FaultPlan {
    FaultPlan::parse("fail:1@6ms;shrink:0@2ms=60mb;flaky:ppm=100000,seed=3,attempts=12")
        .expect("valid fault plan")
}

fn run_both(
    named: &NamedScheduler,
    ts: &TaskSet,
    spec: &PlatformSpec,
    config: &RunConfig,
) -> (RunReport, RunReport, Timed) {
    let config = RunConfig {
        trace: TraceMode::Checksum,
        ..config.clone()
    };
    let mut bare = named.build();
    let (want, _) = run_with_config(ts, spec, bare.as_mut(), &config)
        .unwrap_or_else(|e| panic!("{named:?} bare: {e}"));
    let mut timed = Timed::new(named.build(), Instant::now());
    let (got, _) = run_with_config(ts, spec, &mut timed, &config)
        .unwrap_or_else(|e| panic!("{named:?} timed: {e}"));
    (want, got, timed)
}

fn assert_transparent(what: &str, named: &NamedScheduler, want: &RunReport, got: &RunReport) {
    assert_eq!(
        fingerprint(want),
        fingerprint(got),
        "{what} {named:?}: reports differ"
    );
    assert!(want.trace_checksum.is_some());
    assert_eq!(
        want.trace_checksum, got.trace_checksum,
        "{what} {named:?}: event streams differ"
    );
}

#[test]
fn timed_is_transparent_in_batch_online_and_faulted_runs() {
    let (ts, spec) = batch();
    let (stream_ts, stream_spec) = stream();
    let online = RunConfig {
        admission: Some(AdmissionConfig {
            max_backlog: Some(4),
            policy: ShedPolicy::PriorityShed,
        }),
        ..RunConfig::default()
    };
    let faulted = RunConfig {
        faults: faults(),
        ..RunConfig::default()
    };
    for named in &FAMILIES {
        let (want, got, timed) = run_both(named, &ts, &spec, &RunConfig::default());
        assert_transparent("batch", named, &want, &got);
        assert!(timed.spans.iter().any(|s| s.hook == Hook::PopTask));
        assert_eq!(
            timed
                .spans
                .iter()
                .filter(|s| s.hook == Hook::Prepare)
                .count(),
            1
        );

        let (want, got, timed) = run_both(named, &stream_ts, &stream_spec, &online);
        assert_transparent("online", named, &want, &got);
        assert!(timed.spans.iter().any(|s| s.hook == Hook::OnTaskArrival));
        let shed = want.online.as_ref().expect("online stats").tasks_shed;
        assert!(shed > 0, "{named:?}: the stream should overload admission");

        let (want, got, timed) = run_both(named, &ts, &spec, &faulted);
        assert_transparent("faulted", named, &want, &got);
        assert_eq!(want.gpu_failures, 1, "{named:?}: the GPU death must fire");
        assert!(want.transfer_retries > 0, "{named:?}: transfers must retry");
        assert!(timed.spans.iter().any(|s| s.hook == Hook::OnFault));
    }
}

#[test]
fn timed_forwards_probe_and_sharding_queries() {
    let (ts, spec) = batch();
    for named in &FAMILIES {
        // attach_probe: policies that emit their own obs events (steals,
        // queue gauges) emit them through the wrapper too.
        let config = RunConfig::default();
        let bare_probe = Probe::unbounded();
        let mut bare = named.build();
        run_observed(&ts, &spec, bare.as_mut(), &config, &bare_probe).expect("bare observed run");
        let timed_probe = Probe::unbounded();
        let mut timed = Timed::new(named.build(), Instant::now());
        run_observed(&ts, &spec, &mut timed, &config, &timed_probe).expect("timed observed run");
        assert_eq!(
            bare_probe.len(),
            timed_probe.len(),
            "{named:?}: obs events differ"
        );

        let mut bare = named.build();
        let mut timed = Timed::new(named.build(), Instant::now());
        bare.prepare(&ts, &spec);
        timed.prepare(&ts, &spec);
        assert_eq!(bare.name(), timed.name());
        assert_eq!(bare.decomposes_per_group(), timed.decomposes_per_group());
        assert_eq!(
            bare.group_task_counts(&[0, 1], 2),
            timed.group_task_counts(&[0, 1], 2),
            "{named:?}"
        );
    }
}
