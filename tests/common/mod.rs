//! Helpers shared by the integration tests: the random task-set strategy,
//! the small test platform, the scenario fuzzer's strategy and check, the
//! validated traced run, the event-stream and wall-field-free report
//! comparisons, and the golden-snapshot renderer and comparer. Each test
//! binary uses only part of the module.
#![allow(dead_code)]

use memsched::experiments::chaos::POLICIES;
use memsched::platform::{validate, TraceEvent};
use memsched::prelude::*;
use memsched::schedulers::FAMILIES;
use proptest::prelude::*;
use std::path::PathBuf;

/// Strategy: a random task set with 2–`max_data` unit-size data items and
/// 1–`max_tasks` tasks of 1000 flops with 1–3 inputs each.
pub fn arb_taskset(max_data: usize, max_tasks: usize) -> impl Strategy<Value = TaskSet> {
    arb_taskset_sized(max_data, 1..=max_tasks)
}

/// As [`arb_taskset`], with the task count drawn from `tasks`.
pub fn arb_taskset_sized(
    max_data: usize,
    tasks: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = TaskSet> {
    (2usize..=max_data, tasks)
        .prop_flat_map(|(nd, mt)| {
            let inputs =
                proptest::collection::vec(proptest::collection::vec(0..nd as u32, 1..=3), mt);
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

/// The small test platform: `gpus` GPUs of `mem` bytes each (a capacity
/// in items for unit-size data), a 1 GB/s bus with 10 ns latency (11 ns
/// per unit item), 1 ms per 1000-flop task, pipeline depth 2.
pub fn small_spec(gpus: usize, mem: u64) -> PlatformSpec {
    PlatformSpec {
        num_gpus: gpus,
        memory_bytes: mem,
        bus_bandwidth: 1e9,
        transfer_latency: 10,
        gpu_gflops: 1e-3,
        pipeline_depth: 2,
        gpu_gflops_override: None,
        nvlink_bandwidth: None,
        bus_groups: None,
    }
}

/// One fuzzer case: a task set, a platform and a run configuration that
/// records `TraceMode::Full`.
#[derive(Debug)]
pub struct Scenario {
    pub ts: TaskSet,
    pub spec: PlatformSpec,
    pub config: RunConfig,
}

/// The faults a [`Scenarios`] draw may plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    /// No fault: a fault-free run.
    None,
    /// A capacity shrink and nothing else.
    Shrink,
    /// All four: a fail-stop, a shrink, a straggler and a flaky bus.
    Every,
    /// Any subset of the four, each drawn with even odds.
    Any,
}

impl Faults {
    /// Whether a draw plans one fault (`shrink` says which kind).
    fn plans(self, shrink: bool, draw: &mut impl FnMut(u64, u64) -> u64) -> bool {
        match self {
            Faults::None => false,
            Faults::Shrink => shrink,
            Faults::Every => true,
            Faults::Any => draw(0, 1) == 1,
        }
    }
}

/// The scenario fuzzer's strategy, drawing [`Scenario`]s:
///
/// * 2–10 data items, all of size 1 or each of size 1–3, and 1–20 tasks
///   of 1 ms with 1–3 inputs (so fewer tasks than GPUs at times);
/// * 1–3 GPUs (2–3 under [`Faults::Every`], so the fail-stop lands)
///   holding the largest task footprint plus 0–4 bytes, a transfer
///   latency of 10 ns or 0.5 ms (so transfers are either negligible or
///   overlap compute, shrinks and failures), pipeline depth 1–4, NVLink
///   on or off, one PCI bus or two;
/// * batch or online as `online` fixes or, when `None`, draws it; an
///   online draw adds arrivals in the first 20 ms, deadlines (a quarter
///   of them none), classes 0–2, a shed policy and a backlog bound
///   (none, or 1–5);
/// * the `faults` of a fail-stop of one GPU (with 2 or more GPUs), a
///   capacity shrink to the largest task footprint (the tightest that
///   leaves every task runnable), a straggler, and a flaky bus at 150,000
///   ppm with 16 attempts, each landing in the first 10 ms.
pub struct Scenarios {
    pub online: Option<bool>,
    pub faults: Faults,
}

/// Every scenario the fuzzer can draw.
pub const ANY_SCENARIO: Scenarios = Scenarios {
    online: None,
    faults: Faults::Any,
};

impl Strategy for Scenarios {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        let mut draw = |lo: u64, hi: u64| lo + rng.below(hi - lo + 1);
        let gpus = draw(if self.faults == Faults::Every { 2 } else { 1 }, 3) as usize;
        let mixed = draw(0, 1) == 1;
        let mut b = TaskSetBuilder::new();
        let data: Vec<DataId> = (0..draw(2, 10))
            .map(|_| b.add_data(if mixed { draw(1, 3) } else { 1 }))
            .collect();
        for _ in 0..draw(1, 20) {
            let inputs: Vec<DataId> = (0..draw(1, 3))
                .map(|_| data[draw(0, data.len() as u64 - 1) as usize])
                .collect();
            b.add_task(&inputs, 1000.0);
        }
        let mut ts = b.build();
        let footprint = ts.tasks().map(|t| ts.task_footprint(t)).max().unwrap_or(1);
        let mem = footprint + draw(0, 4);
        let mut spec = PlatformSpec {
            transfer_latency: [10, 500_000][draw(0, 1) as usize],
            pipeline_depth: draw(1, 4) as usize,
            nvlink_bandwidth: (draw(0, 1) == 1).then_some(4e9),
            ..small_spec(gpus, mem)
        };
        if gpus >= 2 && draw(0, 1) == 1 {
            spec = spec.with_bus_groups((0..gpus).map(|g| g * 2 / gpus).collect());
        }
        let mut config = RunConfig {
            trace: TraceMode::Full,
            ..RunConfig::default()
        };
        if self.online.unwrap_or_else(|| draw(0, 1) == 1) {
            let m = ts.num_tasks();
            let arrivals = (0..m).map(|_| draw(0, 20_000_000)).collect();
            let deadlines = (0..m)
                .map(|_| {
                    if draw(0, 3) == 0 {
                        0
                    } else {
                        draw(50_000, 20_000_000)
                    }
                })
                .collect();
            let classes = (0..m).map(|_| draw(0, 2) as u32).collect();
            ts = ts
                .with_arrivals(arrivals)
                .with_deadlines(deadlines)
                .with_classes(classes);
            config.admission = Some(AdmissionConfig {
                policy: POLICIES[draw(0, 2) as usize],
                max_backlog: match draw(0, 5) {
                    0 => None,
                    b => Some(b as usize),
                },
            });
        }
        let last_gpu = gpus as u64 - 1;
        let mut faults = FaultPlan::none();
        if gpus >= 2 && self.faults.plans(false, &mut draw) {
            faults = faults.with_gpu_failure(draw(0, last_gpu) as usize, draw(0, 10_000_000));
        }
        if self.faults.plans(true, &mut draw) {
            let (gpu, at) = (draw(0, last_gpu) as usize, draw(0, 10_000_000));
            faults = faults.with_capacity_shrink(gpu, at, footprint);
        }
        if self.faults.plans(false, &mut draw) {
            let (gpu, at) = (draw(0, last_gpu) as usize, draw(0, 10_000_000));
            faults = faults.with_straggler(gpu, at, draw(25, 99) as f64 / 100.0);
        }
        if self.faults.plans(false, &mut draw) {
            faults = faults.with_transfer_faults(TransferFaultSpec {
                seed: draw(0, u32::MAX.into()),
                fault_ppm: 150_000,
                max_attempts: 16,
                backoff_base: 100,
            });
        }
        config.faults = faults;
        Scenario { ts, spec, config }
    }
}

/// Run all six scheduler families twice on `s`. The two runs must agree
/// (same trace, same report without its wall-clock fields), and the
/// first must pass `validate`. The only failure accepted is
/// `SchedulerStuck` under `DeferOnly` with a fault planned (a fault can
/// strand a deferred task that policy has no way to drop), and the rerun
/// must stall the same way.
pub fn check_scenario(s: &Scenario) -> Result<(), String> {
    let stuck_allowed = !s.config.faults.is_empty()
        && s.config
            .admission
            .as_ref()
            .is_some_and(|a| a.policy == ShedPolicy::DeferOnly);
    for named in FAMILIES {
        let [first, second] =
            [0, 1].map(|_| run_with_config(&s.ts, &s.spec, named.build().as_mut(), &s.config));
        match (first, second) {
            (Ok((report, trace)), Ok((report2, trace2))) => {
                prop_assert_eq!(&trace, &trace2, "{:?}: the rerun's trace differs", named);
                prop_assert_eq!(
                    without_walls(report.clone()),
                    without_walls(report2),
                    "{:?}: the rerun's report differs",
                    named
                );
                if let Err(v) = validate(&s.ts, &s.spec, &s.config, &trace, &report) {
                    return Err(format!("{named:?}: {v}\n{s:?}"));
                }
            }
            (Err(e @ RunError::SchedulerStuck { .. }), Err(e2)) if stuck_allowed => {
                prop_assert_eq!(e, e2, "{:?}: the rerun stalls differently", named);
            }
            (a, b) => {
                return Err(format!(
                    "{named:?}: the runs end in {:?} and {:?}\n{s:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ));
            }
        }
    }
    Ok(())
}

/// Run `sched` on `ts` under `config`, which must record
/// `TraceMode::Full`; panic on an engine error or a `validate` violation,
/// and return the report and the trace.
pub fn run_validated(
    ts: &TaskSet,
    spec: &PlatformSpec,
    sched: &mut dyn Scheduler,
    config: &RunConfig,
) -> (RunReport, Vec<TraceEvent>) {
    let (report, trace) = run_with_config(ts, spec, sched, config)
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
    if let Err(v) = validate(ts, spec, config, &trace, &report) {
        panic!("{}: {v}", report.scheduler);
    }
    (report, trace)
}

/// Panic unless `a` and `b` are the same event stream, naming the first
/// event where they part.
pub fn assert_same_events(what: &str, a: &[TraceEvent], b: &[TraceEvent]) {
    if a != b {
        let i = a
            .iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        panic!(
            "{what} diverge at event {i}:\n  {:?}\n  {:?}",
            a.get(i),
            b.get(i)
        );
    }
}

/// `r` with its wall-clock fields zeroed: everything left is simulated.
pub fn without_walls(mut r: RunReport) -> RunReport {
    r.prepare_wall = 0;
    r.sched_wall = 0;
    for g in &mut r.per_gpu {
        g.sched_wall = 0;
    }
    r
}

/// Stable one-line rendering of an event for the golden snapshots; the
/// admission events render on the `adm` pseudo-track. Field order and
/// formatting are part of the snapshot contract — do not reorder.
pub fn render_event(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::LoadIssued {
            at,
            gpu,
            data,
            done_at,
        } => format!("{at:>12} gpu{gpu} load-issued  data={data} done_at={done_at}"),
        TraceEvent::LoadDone { at, gpu, data } => {
            format!("{at:>12} gpu{gpu} load-done    data={data}")
        }
        TraceEvent::Evicted { at, gpu, data } => {
            format!("{at:>12} gpu{gpu} evicted      data={data}")
        }
        TraceEvent::TaskStarted { at, gpu, task } => {
            format!("{at:>12} gpu{gpu} task-started task={task}")
        }
        TraceEvent::TaskFinished { at, gpu, task } => {
            format!("{at:>12} gpu{gpu} task-finished task={task}")
        }
        TraceEvent::GpuFailed { at, gpu } => format!("{at:>12} gpu{gpu} gpu-failed"),
        TraceEvent::TransferRetry {
            at,
            gpu,
            data,
            attempt,
        } => format!("{at:>12} gpu{gpu} transfer-retry data={data} attempt={attempt}"),
        TraceEvent::CapacityShrunk { at, gpu, capacity } => {
            format!("{at:>12} gpu{gpu} capacity-shrunk capacity={capacity}")
        }
        TraceEvent::GpuSlowed { at, gpu, factor } => {
            format!("{at:>12} gpu{gpu} gpu-slowed factor={factor}")
        }
        TraceEvent::TaskArrived { at, task } => format!("{at:>12} adm  task-arrived  task={task}"),
        TraceEvent::TaskAdmitted { at, task } => format!("{at:>12} adm  task-admitted task={task}"),
        TraceEvent::TaskDeferred { at, task } => format!("{at:>12} adm  task-deferred task={task}"),
        TraceEvent::TaskShed { at, task } => format!("{at:>12} adm  task-shed     task={task}"),
        TraceEvent::DeadlineExpired { at, task } => {
            format!("{at:>12} adm  deadline-expired task={task}")
        }
    }
}

/// The batch golden format (the `gemm_2d(3)` workload on 2 V100s at
/// M = 4 tiles): a header, one line per event, and the run's totals.
pub fn render_batch_golden<'a>(
    report: &RunReport,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> String {
    let mut out = format!(
        "# scheduler: {}\n# workload: gemm_2d(3), 2x V100, M = 4 tiles\n",
        report.scheduler
    );
    for ev in events {
        out.push_str(&render_event(ev));
        out.push('\n');
    }
    out.push_str(&format!(
        "# makespan={} loads={} evictions={}\n",
        report.makespan, report.total_loads, report.total_evictions
    ));
    out
}

/// Diff `got` against the snapshot `tests/golden/{name}`, naming the first
/// differing line; with `MEMSCHED_UPDATE_GOLDEN` set, write it instead.
pub fn check_golden(name: &str, got: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var("MEMSCHED_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); run with MEMSCHED_UPDATE_GOLDEN=1 to create")
    });
    if got != want {
        let diverge = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "golden {name} differs at line {}:\n  expected: {}\n  actual:   {}\n\
             (rerun with MEMSCHED_UPDATE_GOLDEN=1 if the change is intentional)",
            diverge + 1,
            want.lines().nth(diverge).unwrap_or("<eof>"),
            got.lines().nth(diverge).unwrap_or("<eof>"),
        );
    }
}
