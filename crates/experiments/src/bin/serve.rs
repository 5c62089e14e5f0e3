//! Online serving load sweep: drive every scheduler family with a
//! seeded request stream through the engine's admission loop and report
//! serving metrics (p50/p99 task latency, queueing delay, sustained
//! throughput).
//!
//! ```text
//! serve [--arrival-rate R1,R2,…] [--pattern poisson|bursty]
//!       [--closed-loop CLIENTS] [--duration SECS] [--tasks N]
//!       [--workload gemm|prefix]
//!       [--sched eager|dmda|dmdar|hmetis|mhfp|darts|router|all]
//!       [--shed defer|deadline|priority] [--deadline-scale F]
//!       [--classes N] [--backlog N]
//!       [--seed N] [--jobs N] [--faults SPEC] [--out CSV] [--quick]
//!       [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! Each (scheduler × rate) cell generates `rate × duration` tasks on a
//! 2D-GEMM grid — or, under `--workload prefix`, as requests over a
//! shared prefix tree (the multi-GPU KV/prefix-cache serving scenario;
//! the per-GPU memory is sized to half the tree, 1× aggregate cache
//! pressure on the two-GPU spec) — stamps them with open-loop arrivals,
//! and runs the stream with admission control enabled. `--tasks N` pins the per-cell
//! task count directly instead (the grid rounds up to the next square),
//! which is how the million-task serving runs are driven: pair it with
//! a high `--arrival-rate` so arrivals, not the horizon, bound the run. Results are printed as a
//! table and optionally written as CSV (`--out`). `--faults` composes a
//! deterministic fault plan into every cell, so degraded-capacity
//! serving is measurable with the same flag grammar as the figure
//! binaries; malformed flags exit with status 2 before anything runs.
//! `--trace-out`/`--metrics-out` re-run the representative cell (first
//! scheduler, highest rate) observed, validate it, and export the
//! Chrome trace — with the arrival/admit/defer admission track — and
//! the metrics JSON: the report's counts, per-GPU split and serving
//! statistics (latencies among them) beside the registry's decisions,
//! gauges and transfer and decision-latency histograms. A run that
//! breaks the model writes neither file and exits 1.
//!
//! `--closed-loop N` switches the traffic class: `N` clients each keep
//! one request in flight, thinking for an exponential time between the
//! estimated completion of one request and the issue of the next. The
//! sweep still iterates `--arrival-rate`, which in closed-loop mode is
//! the *aggregate target* rate — the mean think time is sized as
//! `clients / rate` minus the per-task service estimate, so a saturated
//! system sees back-to-back requests while an unloaded one idles
//! between them. The CSV gains a `clients` column (0 = open loop).
//!
//! Overload control: `--shed` selects the admission [`ShedPolicy`]
//! (default `defer`, today's byte-identical defer-only loop).
//! `--deadline-scale F` stamps every request with a seeded per-task
//! completion budget of `F × 20 × service_estimate` (jittered ±50 %), so
//! `F = 1` roughly tolerates a twenty-deep queue and smaller values bite
//! sooner. `--classes N` splits the stream into `N` equally likely
//! tenant classes (higher class = higher priority under `priority`
//! shedding) and `--backlog N` bounds the admitted backlog — under
//! `priority` it also caps the deferred queue, which is what makes
//! bounded-backlog shedding actually bound memory. The CSV gains
//! `shed`, `deadline_expired`, `deadline_violations`, `goodput_tps` and
//! `;`-joined per-class drop/completion columns.

use memsched_experiments::cli::{check_flags, parse_scheds, value_of};
use memsched_experiments::obs::{self, ObsOut};
use memsched_experiments::pool;
use memsched_model::{DataId, TaskSet};
use memsched_platform::{
    run_with_config, AdmissionConfig, FaultPlan, PlatformSpec, RunConfig, RunReport, ShedPolicy,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::{
    assign_classes, closed_loop_arrivals, deadline_stamps, gemm_2d, open_loop_arrivals,
    prefix::{self, PrefixConfig},
    prefix_tree, ArrivalPattern,
};

#[derive(Clone, Debug, PartialEq)]
enum PatternKind {
    Poisson,
    Bursty,
}

impl PatternKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "poisson" => Ok(Self::Poisson),
            "bursty" => Ok(Self::Bursty),
            other => Err(format!(
                "--pattern {other:?}: expected \"poisson\" or \"bursty\""
            )),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Self::Poisson => "poisson",
            Self::Bursty => "bursty",
        }
    }

    /// The arrival process at a given long-run mean rate. The bursty
    /// shape alternates 20 ms phases at 1.6× and 0.4× the rate, so the
    /// blended mean matches the requested rate.
    fn at_rate(&self, rate_per_sec: f64) -> ArrivalPattern {
        match self {
            Self::Poisson => ArrivalPattern::Poisson { rate_per_sec },
            Self::Bursty => ArrivalPattern::Bursty {
                on_rate_per_sec: 1.6 * rate_per_sec,
                off_rate_per_sec: 0.4 * rate_per_sec,
                on_ns: 20_000_000,
                off_ns: 20_000_000,
            },
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum WorkloadKind {
    /// The 2D-GEMM request grid (default; byte-identical to the
    /// pre-`--workload` serve).
    Gemm,
    /// Shared-prefix-tree requests ([`prefix`]): tasks sharing an
    /// ancestor share its data, so residency-aware routing pays off.
    Prefix,
}

impl WorkloadKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "gemm" => Ok(Self::Gemm),
            "prefix" => Ok(Self::Prefix),
            other => Err(format!(
                "--workload {other:?}: expected \"gemm\" or \"prefix\""
            )),
        }
    }
}

#[derive(Clone, Debug)]
struct ServeArgs {
    rates: Vec<f64>,
    pattern: PatternKind,
    workload: WorkloadKind,
    duration_s: f64,
    /// Pinned per-cell task count; `None` sizes cells as rate × duration.
    tasks: Option<usize>,
    /// Closed-loop traffic: this many clients, each with one request in
    /// flight. `None` keeps the open-loop arrival process.
    closed_loop: Option<usize>,
    scheds: Vec<NamedScheduler>,
    /// Admission overload-control policy (default: defer-only).
    shed: ShedPolicy,
    /// Deadline stamp scale; `None` leaves tasks deadline-free.
    deadline_scale: Option<f64>,
    /// Number of equally likely tenant classes (1 = class-less).
    classes: usize,
    /// Admitted-backlog bound (and deferred-queue cap under `priority`).
    backlog: Option<usize>,
    seed: u64,
    jobs: usize,
    faults: FaultPlan,
    out: Option<String>,
    obs: ObsOut,
}

const KNOWN_VALUE_FLAGS: &[&str] = &[
    "--arrival-rate",
    "--pattern",
    "--workload",
    "--closed-loop",
    "--duration",
    "--tasks",
    "--sched",
    "--shed",
    "--deadline-scale",
    "--classes",
    "--backlog",
    "--seed",
    "--jobs",
    "--faults",
    "--out",
];

fn parse_from(args: Vec<String>) -> Result<ServeArgs, String> {
    check_flags(
        &args,
        &["--quick"],
        &[KNOWN_VALUE_FLAGS, &ObsOut::FLAGS].concat(),
    )?;
    let value_of = |flag: &str| value_of(&args, flag);
    let quick = args.iter().any(|a| a == "--quick");

    let mut rates: Vec<f64> = match value_of("--arrival-rate") {
        Some(spec) => spec
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| format!("--arrival-rate {s:?}: not a number"))
                    .and_then(|r| {
                        if r.is_finite() && r > 0.0 {
                            Ok(r)
                        } else {
                            Err(format!("--arrival-rate {s:?}: must be positive and finite"))
                        }
                    })
            })
            .collect::<Result<_, _>>()?,
        None => vec![200.0, 500.0, 1000.0],
    };
    if rates.is_empty() {
        return Err("--arrival-rate: empty rate list".to_string());
    }
    let pattern = match value_of("--pattern") {
        Some(p) => PatternKind::parse(&p)?,
        None => PatternKind::Poisson,
    };
    let workload = match value_of("--workload") {
        Some(w) => WorkloadKind::parse(&w)?,
        None => WorkloadKind::Gemm,
    };
    let mut duration_s = match value_of("--duration") {
        Some(d) => {
            let d = d
                .parse::<f64>()
                .map_err(|_| format!("--duration {d:?}: not a number"))?;
            if !(d.is_finite() && d > 0.0) {
                return Err(format!("--duration {d}: must be positive and finite"));
            }
            d
        }
        None => 1.0,
    };
    let tasks = count_of(value_of("--tasks"), "--tasks", "must be positive")?;
    let closed_loop = count_of(
        value_of("--closed-loop"),
        "--closed-loop",
        "need at least one client",
    )?;
    let scheds = parse_scheds(&value_of("--sched").unwrap_or_else(|| "all".to_string()))?;
    let shed = match value_of("--shed") {
        Some(p) => ShedPolicy::parse(&p)?,
        None => ShedPolicy::default(),
    };
    let deadline_scale = match value_of("--deadline-scale") {
        Some(f) => {
            let s = f
                .parse::<f64>()
                .map_err(|_| format!("--deadline-scale {f:?}: not a number"))?;
            if !(s.is_finite() && s > 0.0) {
                return Err(format!("--deadline-scale {s}: must be positive and finite"));
            }
            Some(s)
        }
        None => None,
    };
    let classes = count_of(
        value_of("--classes"),
        "--classes",
        "need at least one class",
    )?
    .unwrap_or(1);
    let backlog = count_of(value_of("--backlog"), "--backlog", "must be positive")?;
    if shed == ShedPolicy::PriorityShed && backlog.is_none() {
        return Err(
            "--shed priority needs --backlog N (the deferred-queue cap it enforces)".to_string(),
        );
    }
    let seed = match value_of("--seed") {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("--seed {s:?}: not a u64"))?,
        None => 42,
    };
    let jobs_arg = match value_of("--jobs") {
        Some(j) => Some(
            j.parse::<usize>()
                .map_err(|_| format!("--jobs {j:?}: not a number"))?,
        ),
        None => None,
    };
    let faults = match value_of("--faults") {
        Some(spec) => FaultPlan::parse(&spec).map_err(|e| format!("--faults {spec:?}: {e}"))?,
        None => FaultPlan::default(),
    };
    let out = value_of("--out");
    if let Some(p) = &out {
        obs::validate_out_path("--out", p)?;
    }
    let obs = ObsOut::parse(value_of)?;
    if quick {
        rates.truncate(1);
        duration_s = duration_s.min(0.25);
    }
    Ok(ServeArgs {
        rates,
        pattern,
        workload,
        duration_s,
        tasks,
        closed_loop,
        scheds,
        shed,
        deadline_scale,
        classes,
        backlog,
        seed,
        jobs: pool::resolve_jobs(jobs_arg),
        faults,
        out,
        obs,
    })
}

/// A flag's value as a count of at least one; `zero` says why 0 is
/// refused.
fn count_of(value: Option<String>, flag: &str, zero: &str) -> Result<Option<usize>, String> {
    value
        .map(|v| match v.parse::<usize>() {
            Ok(0) => Err(format!("{flag} 0: {zero}")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag} {v:?}: not a number")),
        })
        .transpose()
}

/// The stream workload for one cell: a 2D-GEMM grid (or a prefix-tree
/// request stream under `--workload prefix`) sized to carry
/// `rate × duration` tasks — or exactly `--tasks` when pinned — stamped
/// with open-loop arrivals, or closed-loop ones under `--closed-loop`.
fn stream_taskset(args: &ServeArgs, rate: f64) -> TaskSet {
    let target = args
        .tasks
        .unwrap_or_else(|| (rate * args.duration_s).ceil().max(1.0) as usize);
    let ts = match args.workload {
        WorkloadKind::Gemm => {
            let n = (target as f64).sqrt().ceil().max(2.0) as usize;
            gemm_2d(n)
        }
        WorkloadKind::Prefix => prefix_tree(&PrefixConfig::serving_default(target, args.seed)),
    };
    let arrivals = match args.closed_loop {
        Some(clients) => {
            // Aggregate target rate → per-client cycle time `clients/rate`;
            // the think time is what remains after the service estimate
            // (one tile task at the V100 roofline).
            let service_ns =
                (ts.flops(memsched_model::TaskId(0)) / memsched_platform::V100_GFLOPS) as u64;
            let cycle_ns = (clients as f64 / rate * 1e9) as u64;
            let think_ns = cycle_ns.saturating_sub(service_ns).max(1);
            closed_loop_arrivals(ts.num_tasks(), clients, think_ns, service_ns, args.seed)
        }
        None => open_loop_arrivals(&args.pattern.at_rate(rate), args.seed, ts.num_tasks()),
    };
    let mut ts = ts.with_arrivals(arrivals);
    if let Some(scale) = args.deadline_scale {
        // Budget anchor: 20× the single-tile service estimate, so
        // `--deadline-scale 1` tolerates a twenty-deep queue before the
        // budget bites. Derived seed keeps deadline jitter independent of
        // the arrival stream.
        let service_ns =
            (ts.flops(memsched_model::TaskId(0)) / memsched_platform::V100_GFLOPS).max(1.0) as u64;
        let stamps = deadline_stamps(
            ts.num_tasks(),
            20 * service_ns,
            scale,
            args.seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        ts = ts.with_deadlines(stamps);
    }
    if args.classes > 1 {
        let cls = assign_classes(
            ts.num_tasks(),
            &vec![1.0; args.classes],
            args.seed ^ 0xda94_2042_e4dd_58b5,
        );
        ts = ts.with_classes(cls.into_iter().map(|c| c as u32).collect());
    }
    ts
}

/// The serving platform for one cell: two V100s under mild memory
/// pressure — half the working set per GPU (at least four tiles for
/// GEMM; for the prefix tree this is 1× aggregate cache pressure, with
/// a floor of 2× the largest request footprint so every task fits).
fn stream_spec(args: &ServeArgs, ts: &TaskSet) -> PlatformSpec {
    let per_gpu = match args.workload {
        WorkloadKind::Gemm => {
            let tile = ts.data_size(DataId(0));
            (ts.num_data() as u64 / 2).max(4) * tile
        }
        WorkloadKind::Prefix => {
            let max_footprint = ts.tasks().map(|t| ts.task_footprint(t)).max().unwrap_or(0);
            (prefix::tree_bytes(ts) / 2).max(2 * max_footprint)
        }
    };
    PlatformSpec::v100(2).with_memory(per_gpu)
}

fn serve_config(args: &ServeArgs) -> RunConfig {
    RunConfig {
        faults: args.faults.clone(),
        admission: Some(AdmissionConfig {
            max_backlog: args.backlog,
            policy: args.shed,
        }),
        ..RunConfig::default()
    }
}

/// `;`-joined per-class counter column (CSV-safe; empty when class-less
/// and nothing was dropped).
fn class_column(v: &[u64]) -> String {
    v.iter().map(u64::to_string).collect::<Vec<_>>().join(";")
}

struct CellResult {
    scheduler: String,
    rate: f64,
    tasks: usize,
    report: RunReport,
}

fn run_cell(args: &ServeArgs, named: &NamedScheduler, rate: f64) -> Result<CellResult, String> {
    let ts = stream_taskset(args, rate);
    let spec = stream_spec(args, &ts);
    let mut sched = named.build();
    let config = serve_config(args);
    let (report, _trace) = run_with_config(&ts, &spec, sched.as_mut(), &config)
        .map_err(|e| format!("{} @ {rate}/s: {e}", named.label()))?;
    Ok(CellResult {
        scheduler: report.scheduler.clone(),
        rate,
        tasks: ts.num_tasks(),
        report,
    })
}

const CSV_HEADER: &str = "scheduler,pattern,clients,rate_per_sec,tasks,makespan_ns,p50_latency_ns,\
                          p99_latency_ns,mean_latency_ns,p50_queueing_ns,p99_queueing_ns,\
                          throughput_tps,admitted,deferred,shed_policy,shed,deadline_expired,\
                          deadline_violations,goodput_tps,shed_per_class,completed_per_class";

/// The traffic label of the CSV and the metrics JSON.
fn pattern_label(args: &ServeArgs) -> &'static str {
    if args.closed_loop.is_some() {
        "closed-loop"
    } else {
        args.pattern.label()
    }
}

fn csv_row(args: &ServeArgs, c: &CellResult) -> String {
    let o = c.report.online.clone().unwrap_or_default();
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{:.3},{},{}",
        c.scheduler,
        pattern_label(args),
        args.closed_loop.unwrap_or(0),
        c.rate,
        c.tasks,
        c.report.makespan,
        o.p50_latency,
        o.p99_latency,
        o.mean_latency,
        o.p50_queueing,
        o.p99_queueing,
        o.throughput_tps,
        o.tasks_admitted,
        o.tasks_deferred,
        args.shed.as_str(),
        o.tasks_shed,
        o.deadline_expired,
        o.deadline_violations,
        o.goodput_tps,
        class_column(&o.shed_per_class),
        class_column(&o.completed_per_class),
    )
}

/// Observed re-run of the representative cell (first scheduler, highest
/// rate) for `--trace-out` / `--metrics-out`.
fn export_obs(args: &ServeArgs) -> Result<(), String> {
    if !args.obs.is_active() {
        return Ok(());
    }
    let named = args.scheds.first().expect("non-empty scheduler list");
    let rate = args.rates.iter().cloned().fold(f64::MIN, f64::max);
    let ts = stream_taskset(args, rate);
    let header = vec![
        ("bin", "serve".into()),
        ("pattern", pattern_label(args).into()),
        ("clients", (args.closed_loop.unwrap_or(0) as u64).into()),
        ("rate_per_sec", rate.into()),
        ("shed_policy", args.shed.as_str().into()),
    ];
    let spec = stream_spec(args, &ts);
    args.obs.export(
        &ts,
        &spec,
        named.build().as_mut(),
        &serve_config(args),
        header,
    )
}

fn main() {
    let args = match parse_from(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    let cells: Vec<(NamedScheduler, f64)> = args
        .scheds
        .iter()
        .flat_map(|s| args.rates.iter().map(move |&r| (s.clone(), r)))
        .collect();
    let results = pool::run_indexed(&cells, args.jobs, |_, (named, rate)| {
        run_cell(&args, named, *rate)
    });

    println!(
        "{:<14} {:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8} {:>6} {:>10}",
        "scheduler",
        "rate/s",
        "tasks",
        "makespan_ms",
        "p50_lat_us",
        "p99_lat_us",
        "p50_queue_us",
        "thru/s",
        "deferred",
        "shed",
        "goodput/s"
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for res in results {
        match res {
            Ok(c) => {
                let o = c.report.online.clone().unwrap_or_default();
                println!(
                    "{:<14} {:>8} {:>7} {:>12.3} {:>12.1} {:>12.1} {:>12.1} {:>10.1} {:>8} {:>6} {:>10.1}",
                    c.scheduler,
                    c.rate,
                    c.tasks,
                    c.report.makespan as f64 / 1e6,
                    o.p50_latency as f64 / 1e3,
                    o.p99_latency as f64 / 1e3,
                    o.p50_queueing as f64 / 1e3,
                    o.throughput_tps,
                    o.tasks_deferred,
                    o.tasks_shed + o.deadline_expired,
                    o.goodput_tps
                );
                rows.push(csv_row(&args, &c));
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &args.out {
        let mut text = String::from(CSV_HEADER);
        text.push('\n');
        for r in &rows {
            text.push_str(r);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} ({} rows)", rows.len());
    }

    if let Err(e) = export_obs(&args) {
        eprintln!("error: {e}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        parse_from(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn zero_backlog_is_rejected() {
        let err = parse(&["--backlog", "0"]).unwrap_err();
        assert!(err.contains("--backlog 0"), "got {err:?}");
        // `--flag=VALUE` spelling goes through the same validation.
        let err = parse(&["--backlog=0"]).unwrap_err();
        assert!(err.contains("--backlog 0"), "got {err:?}");
        assert_eq!(parse(&["--backlog", "4"]).unwrap().backlog, Some(4));
    }

    #[test]
    fn rates_and_durations_must_be_finite() {
        for (flag, bad) in [
            ("--arrival-rate", "inf"),
            ("--duration", "inf"),
            ("--duration", "NaN"),
        ] {
            let spaced = vec![flag.to_string(), bad.to_string()];
            for args in [spaced, vec![format!("{flag}={bad}")]] {
                let err = parse_from(args).unwrap_err();
                assert!(err.starts_with(flag), "got {err:?}");
                assert!(err.contains("finite"), "got {err:?}");
            }
        }
        let err = parse(&["--arrival-rate", "100,inf"]).unwrap_err();
        assert!(err.contains("--arrival-rate \"inf\""), "got {err:?}");
        let args = parse(&["--arrival-rate=100,250", "--duration=0.5"]).unwrap();
        assert_eq!((args.rates, args.duration_s), (vec![100.0, 250.0], 0.5));
    }

    #[test]
    fn priority_shed_requires_backlog() {
        let err = parse(&["--shed", "priority"]).unwrap_err();
        assert!(err.contains("--backlog"), "got {err:?}");
        // The pair that the lone flag was missing parses fine…
        let args = parse(&["--shed", "priority", "--backlog", "8"]).unwrap();
        assert_eq!(args.shed, ShedPolicy::PriorityShed);
        assert_eq!(args.backlog, Some(8));
        // …and a zero backlog does not satisfy the requirement.
        let err = parse(&["--shed", "priority", "--backlog", "0"]).unwrap_err();
        assert!(err.contains("--backlog 0"), "got {err:?}");
    }

    #[test]
    fn workload_flag_parses() {
        assert_eq!(parse(&[]).unwrap().workload, WorkloadKind::Gemm);
        assert_eq!(
            parse(&["--workload", "gemm"]).unwrap().workload,
            WorkloadKind::Gemm
        );
        assert_eq!(
            parse(&["--workload", "prefix"]).unwrap().workload,
            WorkloadKind::Prefix
        );
        assert_eq!(
            parse(&["--workload=prefix"]).unwrap().workload,
            WorkloadKind::Prefix
        );
        let err = parse(&["--workload", "bogus"]).unwrap_err();
        assert!(err.contains("--workload"), "got {err:?}");
    }

    #[test]
    fn router_is_a_known_scheduler() {
        let args = parse(&["--sched", "router"]).unwrap();
        assert_eq!(args.scheds, vec![NamedScheduler::Router]);
        let all = parse(&["--sched", "all"]).unwrap();
        assert_eq!(all.scheds, memsched_schedulers::FAMILIES.to_vec());
        let err = parse(&["--sched", "nope"]).unwrap_err();
        assert!(
            err.contains("router"),
            "the hint should list router: {err:?}"
        );
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--workload"])
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn obs_flags_need_their_values() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        let typo = "unknown flag \"--metric-out\"";
        assert_eq!(err(&["--quick", "--metric-out", "m.json"]), typo);
        assert_eq!(err(&["--quick", "--metric-out=m.json"]), typo);
        assert_eq!(
            err(&["--quick", "--trace-out"]),
            "--trace-out: missing value"
        );
        assert_eq!(
            err(&["--trace-out", "--quick"]),
            "--trace-out: missing value"
        );
        assert_eq!(
            err(&["--metrics-out", "--seed", "1"]),
            "--metrics-out: missing value"
        );
        // `--trace-out` has one format, so a format flag is unknown
        // (spelled in two parts so a search for it finds no user).
        let format_flag = ["--trace", "format"].join("-");
        assert_eq!(
            err(&[&format_flag, "chrome"]),
            format!("unknown flag {format_flag:?}")
        );
        // The `=` form passes any value, a leading `--` included.
        let args = parse(&["--trace-out=--t.json", "--quick"]).unwrap();
        assert_eq!(args.obs.trace_out.as_deref(), Some("--t.json"));
    }
}
