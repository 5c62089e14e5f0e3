//! `perf`, the repository benchmark.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml --bin perf -- \
//!     --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! With `--trace 0` (the default) it generates the workload's inputs,
//! runs one unmeasured warm-up rep, then runs reps with tracing off for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! runs rounds of one rep per [`Mode`] for `--seconds` and prints the
//! per-layer metrics; `--trace-out` writes the rep and scheduler-hook
//! spans as Chrome JSON. Both time a fresh generation of the inputs
//! after every rep or round, so `setup_s` is a median over the whole run.
//!
//! Every rep is checked (see `check.rs`); a failed check names the
//! workload and the check on stderr and exits 1. Standard output ends
//! with one detail line (noise record, quartiles) and then the result
//! line `{"correct", "attempted", "failed", "metrics"}`. A readable table
//! goes to stderr. `PERF.md` defines every metric.

use memsched_model::bounds;
use memsched_perfbench::check::{same_outcome, Failure};
use memsched_perfbench::host::{self, CountingAlloc, NoiseSample};
use memsched_perfbench::metrics::{self, NOTIFY_HOOKS, RATE_LABELS};
use memsched_perfbench::stats::{median, nearest_rank, quartiles};
use memsched_perfbench::timed::{Hook, Span};
use memsched_perfbench::workloads::{
    Cell, Size, Workload, OVERLOAD_RATE, RATES, REFERENCE_RATE, SLO_FAILED_SHARE, SLO_P99_NS,
};
use memsched_perfbench::{run_rep, Mode, Rep};
use memsched_platform::RunReport;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::exit;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perf --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
  NAME: gemm2d_darts | gemm2d_hmetis | gemm3d_eager | prefix_serve";

/// Fewest measured reps (untraced) or rounds (traced).
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 42, 20, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// Simulation runs attempted and ended in a `RunError`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn rep(
        &mut self,
        w: Workload,
        cells: &[Cell],
        mode: Mode,
        epoch: Instant,
    ) -> Result<Rep, Failure> {
        self.attempted += cells.len() as u64;
        let rep = run_rep(w, cells, mode, epoch);
        if matches!(&rep, Err(f) if f.check == "run_error") {
            self.failed += 1;
        }
        rep
    }
}

/// What one invocation reports: its metrics and the detail record.
struct Outcome {
    metrics: BTreeMap<String, f64>,
    detail: Vec<(&'static str, Value)>,
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perf: {e}\n{USAGE}");
        exit(2)
    });
    let mut tally = Tally::default();
    let outcome = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    let specs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let result = |correct: bool, metrics: Value| {
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", int(tally.attempted)),
            ("failed", int(tally.failed)),
            ("metrics", metrics),
        ])
    };
    match outcome {
        Ok(out) => {
            eprintln!("{:<36} {:>16}  unit", args.workload.name(), "value");
            let mut printed = Vec::new();
            for s in &specs {
                let v = *out
                    .metrics
                    .get(&s.name)
                    .unwrap_or_else(|| panic!("metric {} was not computed", s.name));
                eprintln!("{:<36} {:>16.6}  {}", s.name, v, s.unit);
                printed.push((
                    s.name.clone(),
                    obj([("value", num(v)), ("unit", Value::Str(s.unit.into()))]),
                ));
            }
            for (k, v) in &out.detail {
                if let Value::Num(_) | Value::Null | Value::Str(_) = v {
                    eprintln!("{k:<36} {}", json(v));
                }
            }
            println!("{}", json(&obj(out.detail)));
            println!("{}", json(&result(true, Value::Obj(printed))));
        }
        Err(f) => {
            eprintln!("perf: workload {}: check failed: {f}", args.workload.name());
            println!("{}", json(&result(false, Value::Obj(Vec::new()))));
            exit(1);
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number, written with every digit (non-finite values as `null`).
fn num(x: f64) -> Value {
    Value::Num(Number::F(x))
}

fn int(n: u64) -> Value {
    Value::Num(Number::U(n))
}

/// Compact JSON text.
fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value serializes")
}

/// One `setup_s` sample: seconds to generate the inputs. An untimed
/// generation goes first so that every timed one finds the allocator in
/// the same state; otherwise first-touch page faults land in some samples
/// and not others, and `gemm3d_eager`'s median flipped between 2.3 and
/// 4 ms from run to run.
fn setup_sample(w: Workload, seed: u64) -> f64 {
    drop(std::hint::black_box(w.cells(seed, Size::FULL)));
    let t = Instant::now();
    let cells = std::hint::black_box(w.cells(seed, Size::FULL));
    let seconds = t.elapsed().as_secs_f64();
    drop(cells);
    seconds
}

/// Reports of the cells at ladder rung `rate` (the single report of a
/// batch workload).
fn at_rate<'a>(cells: &[Cell], reports: &'a [RunReport], rate: usize) -> Vec<&'a RunReport> {
    cells
        .iter()
        .zip(reports)
        .filter(|(c, _)| c.rate.is_none_or(|r| r == rate))
        .map(|(_, r)| r)
        .collect()
}

fn median_by(reports: &[&RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn online(r: &RunReport) -> &memsched_platform::OnlineStats {
    r.online.as_ref().expect("serving cells run online")
}

fn quartile_json(values: &[f64]) -> Value {
    let [q1, q2, q3] = quartiles(values);
    obj([("q1", num(q1)), ("median", num(q2)), ("q3", num(q3))])
}

fn common_detail(args: &Args, reps: usize, setup: &[f64]) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", int(args.seed)),
        ("seconds", int(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "git_revision",
            host::git_revision().map_or(Value::Null, Value::Str),
        ),
        ("nproc", int(host::nproc() as u64)),
        ("reps", int(reps as u64)),
        ("setup_reps", int(setup.len() as u64)),
        ("setup_s", quartile_json(setup)),
    ]
}

fn noise_detail(before: &NoiseSample, after: &NoiseSample) -> [(&'static str, Value); 2] {
    [
        (
            "runqueue_wait_share",
            before.runqueue_wait_share(after).map_or(Value::Null, num),
        ),
        (
            "steal_share",
            before.steal_share(after).map_or(Value::Null, num),
        ),
    ]
}

/// The default run: end-to-end metrics with tracing off.
fn untraced(args: &Args, tally: &mut Tally) -> Result<Outcome, Failure> {
    let w = args.workload;
    let cells = w.cells(args.seed, Size::FULL);
    let mut setup = Vec::new();
    let epoch = Instant::now();
    // Unmeasured warm-up. It keeps the event logs' digests: a batch
    // run's latency quantiles are its task completion times.
    let warm = tally.rep(w, &cells, Mode::Full, epoch)?;
    let before = NoiseSample::now();
    let began = Instant::now();
    let (mut walls, mut peaks, mut gflops) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < MIN_REPS || began.elapsed() < Duration::from_secs(args.seconds) {
        let rep = tally.rep(w, &cells, Mode::Off, epoch)?;
        for (want, got) in warm.reports.iter().zip(&rep.reports) {
            same_outcome("deterministic", want, got)?;
        }
        walls.push(rep.wall_ns as f64 / 1e9);
        peaks.push(rep.heap.peak_bytes as f64 / 1e6);
        gflops.push(median_by(
            &at_rate(&cells, &rep.reports, REFERENCE_RATE),
            RunReport::gflops_with_sched,
        ));
        setup.push(setup_sample(w, args.seed));
    }
    let after = NoiseSample::now();

    // Throughput is the fastest rep's. Neighbours on a shared host slow
    // whole stretches of a run: on a 2-core VM the median rep of
    // `gemm2d_darts` ranged from 24 to 40 ms over ten same-seed runs
    // (33 % IQR), its fastest rep from 22.7 to 26.7 ms (3.7 %).
    let tasks: usize = cells.iter().map(|c| c.ts.num_tasks()).sum();
    let throughput: Vec<f64> = walls.iter().map(|s| tasks as f64 / s).collect();
    let reference = at_rate(&cells, &warm.reports, REFERENCE_RATE);
    let makespan_s = median_by(&reference, |r| r.makespan as f64 / 1e9);
    let (p50_ms, p99_ms, goodput) = if w.is_serving() {
        let overload = at_rate(&cells, &warm.reports, OVERLOAD_RATE);
        (
            median_by(&reference, |r| online(r).p50_latency as f64 / 1e6),
            median_by(&reference, |r| online(r).p99_latency as f64 / 1e6),
            median_by(&overload, |r| online(r).goodput_tps),
        )
    } else {
        let d = &warm.digests[0];
        (
            d.completion_p50 as f64 / 1e6,
            d.completion_p99 as f64 / 1e6,
            tasks as f64 / makespan_s,
        )
    };
    let metrics = BTreeMap::from(
        [
            (
                "sim_tasks_per_s",
                throughput.iter().copied().fold(0.0, f64::max),
            ),
            ("setup_s", median(&setup)),
            ("peak_heap_mb", median(&peaks)),
            ("makespan_s", makespan_s),
            ("gflops_sched", median(&gflops)),
            (
                "bytes_moved_gb",
                median_by(&reference, |r| r.total_load_bytes as f64 / 1e9),
            ),
            ("p50_latency_ms", p50_ms),
            ("p99_latency_ms", p99_ms),
            ("goodput_tps", goodput),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    let mut detail = common_detail(args, walls.len(), &setup);
    detail.extend(noise_detail(&before, &after));
    detail.extend([
        ("rep_wall_s", quartile_json(&walls)),
        ("sim_tasks_per_s", quartile_json(&throughput)),
        ("peak_heap_mb", quartile_json(&peaks)),
        ("gflops_sched", quartile_json(&gflops)),
    ]);
    Ok(Outcome { metrics, detail })
}

/// Per-hook call counts and nanoseconds of one `Timed` rep.
struct HookTotals {
    calls: [f64; Hook::ALL.len()],
    ns: [f64; Hook::ALL.len()],
    pop_p50_ns: f64,
    pop_p99_ns: f64,
    pop_none: f64,
    victim_none: f64,
}

impl HookTotals {
    fn of(rep: &Rep) -> Self {
        let mut t = HookTotals {
            calls: [0.0; Hook::ALL.len()],
            ns: [0.0; Hook::ALL.len()],
            pop_p50_ns: 0.0,
            pop_p99_ns: 0.0,
            pop_none: rep.pop_none as f64,
            victim_none: rep.victim_none as f64,
        };
        let mut pops = Vec::new();
        for s in &rep.spans {
            t.calls[s.hook as usize] += 1.0;
            t.ns[s.hook as usize] += s.dur_ns as f64;
            if s.hook == Hook::PopTask {
                pops.push(s.dur_ns);
            }
        }
        pops.sort_unstable();
        t.pop_p50_ns = nearest_rank(&pops, 0.5) as f64;
        t.pop_p99_ns = nearest_rank(&pops, 0.99) as f64;
        t
    }

    /// `(calls, ns)` of one hook.
    fn get(&self, h: Hook) -> (f64, f64) {
        (self.calls[h as usize], self.ns[h as usize])
    }

    /// Nanoseconds in every hook but `prepare`.
    fn dynamic_ns(&self) -> f64 {
        self.ns.iter().sum::<f64>() - self.get(Hook::Prepare).1
    }
}

/// Median over reps of one [`HookTotals`] field.
fn median_hooks(totals: &[HookTotals], f: impl Fn(&HookTotals) -> f64) -> f64 {
    median(&totals.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: per-layer metrics.
fn traced(args: &Args, tally: &mut Tally) -> Result<Outcome, Failure> {
    let w = args.workload;
    let cells = w.cells(args.seed, Size::FULL);
    let mut setup = Vec::new();
    let epoch = Instant::now();
    let warm = tally.rep(w, &cells, Mode::Off, epoch)?;
    let before = NoiseSample::now();
    let began = Instant::now();
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut allocs = Vec::new();
    let mut hooks = Vec::new();
    let mut full = Vec::new();
    let mut obs_events = 0;
    let mut rep_spans = Vec::new();
    let mut last_hook_spans: Vec<Span> = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_REPS || began.elapsed() < Duration::from_secs(args.seconds) {
        for mode in Mode::ALL {
            let rep = tally.rep(w, &cells, mode, epoch)?;
            let what = match mode {
                Mode::Timed => "timed_transparent",
                Mode::Observed => "observed_equals_plain",
                _ => "deterministic",
            };
            for (want, got) in warm.reports.iter().zip(&rep.reports) {
                same_outcome(what, want, got)?;
            }
            walls
                .entry(mode.name())
                .or_default()
                .push(rep.wall_ns as f64);
            rep_spans.push((mode, rounds, rep.start_ns, rep.end_ns));
            match mode {
                Mode::Off => allocs.push(rep.heap.allocs as f64),
                Mode::Timed => {
                    hooks.push(HookTotals::of(&rep));
                    if args.trace_out.is_some() {
                        last_hook_spans = rep.spans;
                    }
                }
                Mode::Full => full = rep.digests,
                Mode::Checksum => {
                    for (r, d) in rep.reports.iter().zip(&full) {
                        if r.trace_checksum != Some(d.checksum) {
                            return Err(Failure {
                                check: "checksum_modes",
                                detail: format!(
                                    "Checksum mode {:?} != Full-trace checksum {:#x}",
                                    r.trace_checksum, d.checksum
                                ),
                            });
                        }
                    }
                }
                Mode::Observed => obs_events = rep.obs_events,
            }
        }
        setup.push(setup_sample(w, args.seed));
        rounds += 1;
    }
    let after = NoiseSample::now();
    if let Some(path) = &args.trace_out {
        write_chrome(path, &rep_spans, &last_hook_spans).map_err(|e| Failure {
            check: "trace_out",
            detail: format!("{path}: {e}"),
        })?;
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let wall = |mode: Mode| median(&walls[mode.name()]);
    let off_ns = wall(Mode::Off);
    put("workloads.generate_ms", median(&setup) * 1e3);

    // Scheduler layer, timed from outside by `Timed`. Engine self time is
    // the untimed rep's wall minus the hooks, so it carries none of the
    // wrapper's clock reads.
    let prepare_ns = median_hooks(&hooks, |h| h.get(Hook::Prepare).1);
    let dynamic_ns = median_hooks(&hooks, HookTotals::dynamic_ns);
    let self_ns = (off_ns - prepare_ns - dynamic_ns).max(0.0);
    let (pop_calls, _) = hooks[0].get(Hook::PopTask);
    let (victim_calls, _) = hooks[0].get(Hook::ChooseVictim);
    put("sched.prepare_ms", prepare_ns / 1e6);
    put("sched.pop_task.calls", pop_calls);
    put(
        "sched.pop_task.ms",
        median_hooks(&hooks, |h| h.get(Hook::PopTask).1) / 1e6,
    );
    put(
        "sched.pop_task.p50_ns",
        median_hooks(&hooks, |h| h.pop_p50_ns),
    );
    put(
        "sched.pop_task.p99_ns",
        median_hooks(&hooks, |h| h.pop_p99_ns),
    );
    put(
        "sched.pop_task.none_frac",
        ratio(hooks[0].pop_none, pop_calls),
    );
    put("sched.choose_victim.calls", victim_calls);
    put(
        "sched.choose_victim.ms",
        median_hooks(&hooks, |h| h.get(Hook::ChooseVictim).1) / 1e6,
    );
    put(
        "sched.choose_victim.fallback_frac",
        ratio(hooks[0].victim_none, victim_calls),
    );
    for hook in NOTIFY_HOOKS {
        put(
            &format!("sched.{}.calls", hook.name()),
            hooks[0].get(hook).0,
        );
        put(
            &format!("sched.{}.ms", hook.name()),
            median_hooks(&hooks, |h| h.get(hook).1) / 1e6,
        );
    }
    put("sched.hook_share", dynamic_ns / off_ns);
    put("sched.prepare_share", prepare_ns / off_ns);

    // Engine, from the Full-trace digests of every cell.
    let events: u64 = full.iter().map(|d| d.events).sum();
    put("engine.self_ms", self_ns / 1e6);
    put("engine.self_share", self_ns / off_ns);
    put("engine.events", events as f64);
    put("engine.ns_per_event", ratio(self_ns, events as f64));
    for (i, kind) in memsched_perfbench::layers::EVENT_KINDS.iter().enumerate() {
        put(
            &format!("engine.events.{kind}"),
            full.iter().map(|d| d.counts[i]).sum::<u64>() as f64,
        );
    }
    put(
        "missing_cache.updates",
        full.iter().map(|d| d.missing_cache_updates).sum::<u64>() as f64,
    );

    // Modelled memory, GPUs and bus: the reference cells, the ones the
    // end-to-end bytes, makespan and latency come from.
    let refs: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].rate.is_none_or(|r| r == REFERENCE_RATE))
        .collect();
    let sum = |f: &dyn Fn(usize) -> f64| refs.iter().map(|&i| f(i)).sum::<f64>();
    let rep = &warm.reports;
    put("mem.loads", sum(&|i| rep[i].total_loads as f64));
    put("mem.evictions", sum(&|i| rep[i].total_evictions as f64));
    put(
        "mem.refetch_frac",
        ratio(
            sum(&|i| full[i].refetches as f64),
            sum(&|i| full[i].loads as f64),
        ),
    );
    put(
        "mem.bytes_over_compulsory",
        ratio(
            sum(&|i| rep[i].total_load_bytes as f64),
            sum(&|i| bounds::min_total_load_bytes(&cells[i].ts) as f64),
        ),
    );
    let lane = |f: &dyn Fn(&memsched_platform::GpuRunStats) -> u64| {
        sum(&|i| rep[i].per_gpu.iter().map(f).sum::<u64>() as f64)
    };
    let gpu_time = sum(&|i| (rep[i].makespan * rep[i].per_gpu.len() as u64) as f64);
    put("gpu.busy_frac", lane(&|g| g.busy) / gpu_time);
    put("gpu.stall_frac", lane(&|g| g.stall) / gpu_time);
    put("gpu.idle_frac", lane(&|g| g.idle) / gpu_time);
    put(
        "bus.util",
        ratio(
            sum(&|i| rep[i].bus_busy_ns.iter().sum::<u64>() as f64),
            sum(&|i| rep[i].makespan as f64),
        ),
    );
    let hits = lane(&|g| g.cache_hit_bytes);
    put(
        "cache.hit_rate",
        ratio(hits, hits + lane(&|g| g.cache_miss_bytes)),
    );
    put(
        "load.imbalance",
        median(
            &refs
                .iter()
                .map(|&i| {
                    let r = &rep[i];
                    let total: usize = r.per_gpu.iter().map(|g| g.tasks).sum();
                    ratio(r.max_load() as f64 * r.per_gpu.len() as f64, total as f64)
                })
                .collect::<Vec<_>>(),
        ),
    );

    // Admission, one set per ladder rung (zero for batch workloads).
    let mut max_rate_at_slo = 0.0;
    for (rung, label) in RATE_LABELS.iter().enumerate() {
        let at: Vec<&RunReport> = cells
            .iter()
            .zip(rep)
            .filter(|(c, _)| c.rate == Some(rung))
            .map(|(_, r)| r)
            .collect();
        let arrivals: f64 = cells
            .iter()
            .filter(|c| c.rate == Some(rung))
            .map(|c| c.ts.num_tasks() as f64)
            .sum();
        let total = |f: &dyn Fn(&memsched_platform::OnlineStats) -> u64| {
            at.iter().map(|r| f(online(r))).sum::<u64>() as f64
        };
        let failed = total(&|o| o.tasks_shed + o.deadline_expired + o.deadline_violations);
        let p99 = if at.is_empty() {
            0.0
        } else {
            median_by(&at, |r| online(r).p99_latency as f64)
        };
        if !at.is_empty() && p99 <= SLO_P99_NS as f64 && ratio(failed, arrivals) <= SLO_FAILED_SHARE
        {
            max_rate_at_slo = RATES[rung];
        }
        put(
            &format!("admit.{label}.deferred_frac"),
            ratio(total(&|o| o.tasks_deferred), arrivals),
        );
        put(&format!("admit.{label}.shed"), total(&|o| o.tasks_shed));
        put(
            &format!("admit.{label}.expired"),
            total(&|o| o.deadline_expired),
        );
        put(
            &format!("admit.{label}.failed_frac"),
            ratio(failed, arrivals),
        );
        put(
            &format!("admit.{label}.p99_queueing_ms"),
            if at.is_empty() {
                0.0
            } else {
                median_by(&at, |r| online(r).p99_queueing as f64 / 1e6)
            },
        );
    }
    put("admit.max_rate_at_slo", max_rate_at_slo);

    put("trace.checksum_overhead", wall(Mode::Checksum) / off_ns);
    put("trace.full_overhead", wall(Mode::Full) / off_ns);
    put("obs.overhead", wall(Mode::Observed) / off_ns);
    put("obs.events", obs_events as f64);
    put("host.allocs", median(&allocs));

    let mut detail = common_detail(args, rounds, &setup);
    detail.extend(noise_detail(&before, &after));
    detail.push((
        "rep_wall_ms",
        obj(Mode::ALL.map(|mode| {
            (
                mode.name(),
                quartile_json(
                    &walls[mode.name()]
                        .iter()
                        .map(|ns| ns / 1e6)
                        .collect::<Vec<_>>(),
                ),
            )
        })),
    ));
    detail.push((
        "per_layer",
        obj(m.iter().map(|(k, v)| (k.clone(), num(*v)))),
    ));
    Ok(Outcome { metrics: m, detail })
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hook spans written by `--trace-out`: a serving rep makes millions,
/// which no trace viewer loads; the first ones show the pattern.
const CHROME_HOOK_SPANS: usize = 250_000;

/// Write the rep spans and the first [`CHROME_HOOK_SPANS`] hook spans of
/// the last timed rep as Chrome trace JSON (one track; hook spans nest
/// inside their rep).
fn write_chrome(
    path: &str,
    reps: &[(Mode, usize, u64, u64)],
    hooks: &[Span],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut event = |out: &mut std::io::BufWriter<std::fs::File>,
                     name: &str,
                     cat: &str,
                     start: u64,
                     dur: u64,
                     parent: &str|
     -> std::io::Result<()> {
        let sep = if first { "" } else { "," };
        first = false;
        write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{parent}\"}}}}",
            start as f64 / 1e3,
            dur as f64 / 1e3
        )
    };
    let mut timed_parent = String::new();
    for &(mode, round, start, end) in reps {
        event(&mut out, mode.name(), "rep", start, end - start, "")?;
        if mode == Mode::Timed {
            timed_parent = format!("timed#{round}");
        }
    }
    for s in hooks.iter().take(CHROME_HOOK_SPANS) {
        event(
            &mut out,
            s.hook.name(),
            "schedulers",
            s.start_ns,
            s.dur_ns,
            &timed_parent,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
