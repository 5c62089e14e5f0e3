//! Every scheduler family must survive a mid-run GPU fail-stop: the dead
//! GPU's pipeline and unserved queue reroute to the survivors, every task
//! still completes exactly once, and a same-seed replay is byte-identical.

use memsched_platform::{
    run, run_with_config, validate, FaultPlan, PlatformSpec, RunConfig, TraceMode,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::gemm_2d;

const FAMILIES: &[NamedScheduler] = &[
    NamedScheduler::Eager,
    NamedScheduler::Dmdar,
    NamedScheduler::HmetisR,
    NamedScheduler::Mhfp,
    NamedScheduler::Darts,
    NamedScheduler::DartsLuf,
];

/// A failure time early enough that plenty of work remains on the dead
/// GPU, late enough that its pipeline is primed (gemm tasks run ~ms).
const FAIL_AT: u64 = 2_000_000;

fn faulted(plan: FaultPlan) -> RunConfig {
    RunConfig {
        trace: TraceMode::Full,
        faults: plan,
        ..Default::default()
    }
}

#[test]
fn every_family_survives_a_gpu_failure() {
    let ts = gemm_2d(6);
    let spec = PlatformSpec::v100(3);
    let config = faulted(FaultPlan::none().with_gpu_failure(1, FAIL_AT));
    for family in FAMILIES {
        let (report, trace) = run_with_config(&ts, &spec, family.build().as_mut(), &config)
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        // Exactly-once completion, nothing started on the dead GPU after
        // its failure, and the rest of the validator's rules.
        if let Err(v) = validate(&ts, &spec, &config, &trace, &report) {
            panic!("{}: {v}", family.label());
        }
        assert_eq!(report.gpu_failures, 1, "{}", family.label());
    }
}

#[test]
fn losing_a_whole_bus_group_moves_its_work_across_buses() {
    // On `v100_multibus(4, 2)` GPUs 0 and 1 share bus 0 and both die.
    // Stealing and the re-homing of dead queues are global (§IV-B), so
    // GPUs 2 and 3 on bus 1 finish everything.
    let ts = gemm_2d(6);
    let spec = PlatformSpec::v100_multibus(4, 2);
    let plan = FaultPlan::none()
        .with_gpu_failure(0, FAIL_AT)
        .with_gpu_failure(1, FAIL_AT);
    for family in FAMILIES {
        let label = family.label();
        let (report, _) =
            run_with_config(&ts, &spec, family.build().as_mut(), &faulted(plan.clone()))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        let total: usize = report.per_gpu.iter().map(|g| g.tasks).sum();
        assert_eq!(total, 36, "{label}: tasks lost or duplicated");
        assert_eq!(report.gpu_failures, 2, "{label}");
    }
}

#[test]
fn failure_runs_replay_identically() {
    let ts = gemm_2d(5);
    let spec = PlatformSpec::v100(2);
    let plan = FaultPlan::none().with_gpu_failure(0, FAIL_AT);
    for family in FAMILIES {
        let (ra, ta) = run_with_config(&ts, &spec, family.build().as_mut(), &faulted(plan.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        let (rb, tb) = run_with_config(&ts, &spec, family.build().as_mut(), &faulted(plan.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        assert_eq!(
            ta,
            tb,
            "{}: same plan must replay identically",
            family.label()
        );
        assert_eq!(ra.makespan, rb.makespan, "{}", family.label());
    }
}

#[test]
fn degradation_is_graceful_not_fatal() {
    // Losing one of three GPUs stretches the makespan but the run still
    // completes; the degradation factor stays within the work lost.
    let ts = gemm_2d(6);
    let spec = PlatformSpec::v100(3);
    let plan = FaultPlan::none().with_gpu_failure(2, FAIL_AT);
    for family in FAMILIES {
        let healthy = run(&ts, &spec, family.build().as_mut())
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        let (faulty, _) =
            run_with_config(&ts, &spec, family.build().as_mut(), &faulted(plan.clone()))
                .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        let d = faulty.degradation_vs(&healthy);
        // Rerouting occasionally lands on a slightly better schedule than
        // the healthy allocation (it is a different decision sequence), so
        // only gross speedups are suspicious.
        assert!(
            d > 0.9,
            "{}: faulty run much faster than healthy ({d:.3})",
            family.label()
        );
        assert!(
            d < 4.0,
            "{}: degradation {d:.3} way beyond the lost third",
            family.label()
        );
    }
}
