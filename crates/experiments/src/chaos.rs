//! Chaos composition for the serving tier: seeded random fault plans ×
//! overload traffic, every completed cell checked by
//! [`memsched_platform::validate`].
//!
//! One seed fully determines one *composition* — an overloaded,
//! deadline- and class-stamped request stream, a two-GPU platform, a
//! randomized fault plan and a backlog bound. The soak harness
//! (`tests/chaos_soak.rs`) and the standalone `chaos` driver binary run
//! the same matrix through this module, so a failure found by either
//! reproduces from its seed alone.

use memsched_model::{DataId, TaskId, TaskSet};
use memsched_platform::{
    run_with_config, validate, AdmissionConfig, FaultPlan, PlatformSpec, RunConfig, RunError,
    RunReport, ShedPolicy, TraceEvent, TraceMode, TransferFaultSpec, V100_GFLOPS,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::{
    assign_classes, deadline_stamps, gemm_2d, open_loop_arrivals, ArrivalPattern,
};

/// The three admission shed policies the chaos matrix sweeps.
pub const POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::DeferOnly,
    ShedPolicy::DeadlineShed,
    ShedPolicy::PriorityShed,
];

/// SplitMix64 step: the harness's only randomness, all derived from the
/// composition seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One randomized composition: an overloaded deadline/class-stamped
/// stream, a platform, a fault plan and a backlog bound.
pub struct Chaos {
    /// The overloaded stream with deadline and class metadata attached.
    pub ts: TaskSet,
    /// The same stream *without* overload metadata (for the `DeferOnly`
    /// conservative-extension check).
    pub plain: TaskSet,
    /// The two-GPU serving platform.
    pub spec: PlatformSpec,
    /// The seeded fault plan (each ingredient lands with probability ½).
    pub faults: FaultPlan,
    /// The admitted-backlog bound (also the `PriorityShed` queue cap).
    pub backlog: usize,
}

/// Build the composition for `seed`.
pub fn compose(seed: u64) -> Chaos {
    let mut s = seed;
    // Overload traffic: gemm_2d at 2–4× the rate the golden stream
    // (2000/s on this platform) already queues at.
    let n = 3 + (splitmix(&mut s) % 2) as usize; // 9 or 16 tasks
    let rate = 4000.0 + 2000.0 * (splitmix(&mut s) % 3) as f64;
    let base = gemm_2d(n);
    let m = base.num_tasks();
    let arrivals = open_loop_arrivals(
        &ArrivalPattern::Poisson { rate_per_sec: rate },
        seed ^ 0xA5A5,
        m,
    );
    let plain = base.with_arrivals(arrivals);
    let tile = plain.data_size(DataId(0));
    let spec = PlatformSpec::v100(2).with_memory(4 * tile);
    // Deadline budget anchored at ~20 single-task service times with the
    // scale swept across under- and over-provisioned budgets.
    let service_ns = (plain.flops(TaskId(0)) / V100_GFLOPS).max(1.0) as u64;
    let scale = 0.25 + (splitmix(&mut s) % 8) as f64 * 0.5;
    let ts = plain
        .clone()
        .with_deadlines(deadline_stamps(m, 20 * service_ns, scale, seed ^ 0xD00D))
        .with_classes(
            assign_classes(m, &[3.0, 2.0, 1.0], seed ^ 0xC1A5)
                .into_iter()
                .map(|c| c as u32)
                .collect(),
        );
    // Randomized fault plan: each ingredient lands with probability 1/2,
    // at most one fail-stop so a survivor always remains.
    let horizon = (m as u64) * 1_000_000; // ~the stream's span in ns
    let mut faults = FaultPlan::none();
    if splitmix(&mut s) & 1 == 0 {
        faults =
            faults.with_gpu_failure((splitmix(&mut s) % 2) as usize, splitmix(&mut s) % horizon);
    }
    if splitmix(&mut s) & 1 == 0 {
        faults = faults.with_capacity_shrink(
            (splitmix(&mut s) % 2) as usize,
            splitmix(&mut s) % horizon,
            3 * tile,
        );
    }
    if splitmix(&mut s) & 1 == 0 {
        faults = faults.with_straggler(
            (splitmix(&mut s) % 2) as usize,
            splitmix(&mut s) % horizon,
            0.25 + (splitmix(&mut s) % 3) as f64 * 0.25,
        );
    }
    if splitmix(&mut s) & 1 == 0 {
        faults = faults.with_transfer_faults(TransferFaultSpec {
            seed: splitmix(&mut s),
            fault_ppm: 100_000,
            max_attempts: 16,
            backoff_base: 100,
        });
    }
    let backlog = 1 + (splitmix(&mut s) % 4) as usize;
    Chaos {
        ts,
        plain,
        spec,
        faults,
        backlog,
    }
}

/// The run configuration for one cell of the matrix.
pub fn config_for(chaos: &Chaos, policy: ShedPolicy) -> RunConfig {
    RunConfig {
        trace: TraceMode::Full,
        faults: chaos.faults.clone(),
        admission: Some(AdmissionConfig {
            max_backlog: Some(chaos.backlog),
            policy,
        }),
        ..RunConfig::default()
    }
}

/// Run one cell of the matrix.
pub fn run_cell(
    chaos: &Chaos,
    named: &NamedScheduler,
    policy: ShedPolicy,
) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
    let mut sched = named.build();
    run_with_config(
        &chaos.ts,
        &chaos.spec,
        sched.as_mut(),
        &config_for(chaos, policy),
    )
}

/// Digest one cell: the full trace (or the structured error) as a
/// string, so worker counts and reruns compare byte-for-byte.
pub fn digest(chaos: &Chaos, named: &NamedScheduler, policy: ShedPolicy) -> String {
    match run_cell(chaos, named, policy) {
        Ok((report, trace)) => format!("{}:{:?}", report.makespan, trace),
        Err(e) => format!("ERR:{e:?}"),
    }
}

/// How a checked cell ended (see [`check_cell`]).
pub enum Outcome {
    /// The run completed and passed the validator.
    Done(Box<RunReport>),
    /// `DeferOnly` wedged on a fault-stranded deferral, which that policy
    /// has no way to drop, after `completed` tasks.
    Stuck {
        /// Tasks completed before the run stalled.
        completed: usize,
    },
}

/// Run one cell and check it: a completed run must pass
/// [`validate`], and the only failure accepted is `SchedulerStuck` under
/// `DeferOnly`. `Err` carries the violation or the unexpected error.
pub fn check_cell(
    chaos: &Chaos,
    named: &NamedScheduler,
    policy: ShedPolicy,
) -> Result<Outcome, String> {
    match run_cell(chaos, named, policy) {
        Ok((report, trace)) => {
            let config = config_for(chaos, policy);
            validate(&chaos.ts, &chaos.spec, &config, &trace, &report)
                .map_err(|v| v.to_string())?;
            Ok(Outcome::Done(Box::new(report)))
        }
        Err(RunError::SchedulerStuck { completed, .. }) if policy == ShedPolicy::DeferOnly => {
            Ok(Outcome::Stuck { completed })
        }
        Err(e) => Err(format!("unexpected error: {e}")),
    }
}
