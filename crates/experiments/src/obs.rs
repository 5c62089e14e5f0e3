//! Observed-run export for the figure binaries (`--trace-out`,
//! `--trace-format`, `--metrics-out`) plus the Chrome-trace linter
//! behind the `trace_lint` binary.
//!
//! A figure sweep runs dozens of cells; recording all of them would
//! produce gigabytes of spans nobody opens. Instead the harness re-runs
//! **one representative cell** — the last sweep point (largest working
//! set, where contention is most visible) with the point's first
//! scheduler — through [`memsched_platform::run_observed`] and writes:
//!
//! - the timeline in Chrome Trace Event Format (Perfetto,
//!   `chrome://tracing`) or Paje (`.trace`, ViTE) — `--trace-out`;
//! - a metrics JSON (counters, histograms, gauge timeseries, per-GPU
//!   busy/stall/idle split, bus-utilization timeline) — `--metrics-out`.
//!
//! Both paths are validated at argument-parse time (parent directory
//! must exist, path must not be a directory), matching the `--faults`
//! convention: a bad invocation exits with status 2 and a readable
//! message before any cell runs.

use crate::harness::FigureSpec;
use memsched_platform::obs::{bus_utilization, chrome_trace_json, paje_trace, Metrics, Probe};
use memsched_platform::{run_observed, RunConfig};
use serde::{Number, Value};
use std::path::Path;

/// Timeline export format selected by `--trace-format`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome Trace Event Format JSON (Perfetto, `chrome://tracing`).
    #[default]
    Chrome,
    /// Paje `.trace` (ViTE, the StarPU-native visualization path).
    Paje,
}

impl TraceFormat {
    /// Parse a `--trace-format` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "chrome" => Ok(Self::Chrome),
            "paje" => Ok(Self::Paje),
            other => Err(format!(
                "--trace-format {other:?}: expected \"chrome\" or \"paje\""
            )),
        }
    }
}

/// Observability outputs requested on the command line; inactive (both
/// paths `None`) unless `--trace-out` / `--metrics-out` were given.
#[derive(Clone, Debug, Default)]
pub struct ObsOut {
    /// `--trace-out PATH`: timeline destination.
    pub trace_out: Option<String>,
    /// `--trace-format chrome|paje` (default chrome).
    pub trace_format: TraceFormat,
    /// `--metrics-out PATH`: metrics JSON destination.
    pub metrics_out: Option<String>,
}

impl ObsOut {
    /// Whether any output was requested.
    pub fn is_active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// A copy with `.fig06` (etc.) inserted before each path's
    /// extension, so `all_figures` can fan one `--trace-out` over every
    /// figure without the files clobbering each other.
    pub fn suffixed(&self, id: &str) -> ObsOut {
        ObsOut {
            trace_out: self.trace_out.as_deref().map(|p| suffix_path(p, id)),
            trace_format: self.trace_format,
            metrics_out: self.metrics_out.as_deref().map(|p| suffix_path(p, id)),
        }
    }
}

/// `results/trace.json` + `fig06` → `results/trace.fig06.json`.
fn suffix_path(path: &str, id: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{id}.{ext}")
        }
        _ => format!("{path}.{id}"),
    }
}

/// Reject unusable output paths before any cell runs: the path must not
/// be a directory and its parent directory must already exist. Returns
/// a message naming the flag, ready for the parser's exit-2 path.
pub fn validate_out_path(flag: &str, path: &str) -> Result<(), String> {
    if path.is_empty() {
        return Err(format!("{flag}: path is empty"));
    }
    let p = Path::new(path);
    if p.is_dir() {
        return Err(format!("{flag} {path:?}: path is a directory"));
    }
    let parent = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if !parent.is_dir() {
        return Err(format!(
            "{flag} {path:?}: parent directory {:?} does not exist",
            parent.display()
        ));
    }
    Ok(())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Run the figure's representative cell observed and write the
/// requested files. No-op when nothing was requested. The cell is the
/// **last sweep point, first scheduler** — deterministic, so repeated
/// invocations produce identical traces.
pub fn export_figure(fig: &FigureSpec, out: &ObsOut) -> Result<(), String> {
    if !out.is_active() {
        return Ok(());
    }
    let point = fig
        .points
        .last()
        .ok_or_else(|| format!("{}: no sweep points to observe", fig.id))?;
    let named = point
        .schedulers
        .first()
        .ok_or_else(|| format!("{}: observed point has no schedulers", fig.id))?;
    let ts = point.workload.generate();
    let mut sched = named.build();
    let probe = Probe::unbounded();
    let config = RunConfig {
        faults: fig.faults.clone(),
        ..RunConfig::default()
    };
    let (report, _trace) = run_observed(&ts, &fig.spec, sched.as_mut(), &config, &probe)
        .map_err(|e| format!("{}: observed cell failed: {e}", fig.id))?;
    let events = probe.events();

    if let Some(path) = &out.trace_out {
        let text = match out.trace_format {
            TraceFormat::Chrome => chrome_trace_json(&events)
                .map_err(|e| format!("{}: chrome export: {e}", fig.id))?,
            TraceFormat::Paje => {
                paje_trace(&events).map_err(|e| format!("{}: paje export: {e}", fig.id))?
            }
        };
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {path} ({} events, {} · {} on {})",
            events.len(),
            point.workload.label(),
            report.scheduler,
            fig.id
        );
    }

    if let Some(path) = &out.metrics_out {
        let text = render_metrics(fig, &events, &report, &probe)?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Number of equal slices the bus-utilization timeline is bucketed into.
const BUS_BUCKETS: usize = 50;

/// Metrics JSON for one observed run: registry (counters, histograms,
/// gauge snapshots) plus the derived per-GPU busy/stall/idle split and
/// the bus-utilization timeline.
fn render_metrics(
    fig: &FigureSpec,
    events: &[memsched_platform::ObsEvent],
    report: &memsched_platform::RunReport,
    probe: &Probe,
) -> Result<String, String> {
    let makespan = report.makespan;
    // Snapshot cadence: ~64 slices of the run (at least 1 ns apart).
    let mut metrics = Metrics::with_snapshots((makespan / 64).max(1));
    metrics.ingest(events);
    let util = bus_utilization(events, BUS_BUCKETS, makespan)
        .map_err(|e| format!("{}: bus utilization: {e}", fig.id))?;

    let per_gpu: Vec<Value> = report
        .per_gpu
        .iter()
        .enumerate()
        .map(|(g, st)| {
            obj(vec![
                ("gpu", Value::Num(Number::U(g as u64))),
                ("busy_ns", Value::Num(Number::U(st.busy))),
                ("stall_ns", Value::Num(Number::U(st.stall))),
                ("idle_ns", Value::Num(Number::U(st.idle))),
                ("tasks", Value::Num(Number::U(st.tasks as u64))),
                ("loads", Value::Num(Number::U(st.loads))),
                ("evictions", Value::Num(Number::U(st.evictions))),
                ("cache_hit_bytes", Value::Num(Number::U(st.cache_hit_bytes))),
                ("cache_miss_bytes", Value::Num(Number::U(st.cache_miss_bytes))),
            ])
        })
        .collect();

    let root = obj(vec![
        ("figure", Value::Str(fig.id.to_string())),
        (
            "workload",
            Value::Str(
                fig.points
                    .last()
                    .map(|p| p.workload.label())
                    .unwrap_or_default(),
            ),
        ),
        ("scheduler", Value::Str(report.scheduler.clone())),
        ("makespan_ns", Value::Num(Number::U(makespan))),
        ("events", Value::Num(Number::U(events.len() as u64))),
        ("dropped_events", Value::Num(Number::U(probe.dropped()))),
        ("per_gpu", Value::Arr(per_gpu)),
        (
            "bus_utilization",
            Value::Arr(util.into_iter().map(|v| Value::Num(Number::F(v))).collect()),
        ),
        ("metrics", metrics.to_value()),
    ]);
    serde_json::to_string_pretty(&root).map_err(|e| format!("serialize metrics: {e}"))
}

/// Summary counts of a linted Chrome trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeLint {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// `"ph": "X"` complete spans.
    pub spans: usize,
    /// `"ph": "i"` instants.
    pub instants: usize,
    /// `"ph": "C"` counter samples.
    pub counters: usize,
    /// `"ph": "M"` metadata entries.
    pub metadata: usize,
    /// Distinct `tid`s seen.
    pub tracks: usize,
    /// Distinct PCI-bus `tid`s seen (1 on single-bus platforms; one per
    /// bus group on multi-bus platforms).
    pub bus_tracks: usize,
    /// Admission-track instants (arrive/admit/defer), zero on batch runs.
    pub admission: usize,
}

/// Chrome `tid` ranges of the simulator's fixed track layout
/// (`Track::tid` in the obs crate): GPUs are `0..1000`, the PCI buses
/// `1000` (bus 0) and `1100 + n` (bus `n ≥ 1`), NVLink `1001`.
fn is_bus_tid(tid: u64) -> bool {
    tid == 1000 || (1100..2000).contains(&tid)
}

fn is_interconnect_tid(tid: u64) -> bool {
    is_bus_tid(tid) || tid == 1001
}

fn num_of(v: &Value) -> Option<f64> {
    match v {
        Value::Num(Number::U(u)) => Some(*u as f64),
        Value::Num(Number::I(i)) => Some(*i as f64),
        Value::Num(Number::F(f)) => Some(*f),
        _ => None,
    }
}

fn require_num(ev: &Value, key: &str, i: usize) -> Result<f64, String> {
    let v = ev
        .field(key, "event")
        .map_err(|_| format!("event {i}: missing {key:?}"))?;
    num_of(v).ok_or_else(|| format!("event {i}: {key:?} is not a number"))
}

/// Validate a parsed Chrome Trace Event JSON document: the structural
/// schema (`traceEvents` array; every event carries `ph`/`pid`/`tid`;
/// spans carry numeric non-negative `ts`/`dur`) plus the simulator's
/// own guarantees:
///
/// * spans on one track never overlap (per-GPU compute is sequential
///   and each PCI bus is FIFO — on multi-bus platforms every bus group
///   gets its own track, checked independently);
/// * transfer spans live on interconnect tracks (a PCI bus or NVLink)
///   and compute spans on GPU tracks — a transfer rendered onto a GPU
///   track would hide a bus-serialization bug;
/// * within each track, spans appear in the file in non-decreasing
///   `ts` order — the order the Chrome exporter writes, so an exporter
///   that reorders spans is caught here.
pub fn lint_chrome(doc: &Value) -> Result<ChromeLint, String> {
    let events = doc
        .field("traceEvents", "trace")
        .map_err(|_| "top level: missing \"traceEvents\"".to_string())?
        .as_arr()
        .ok_or_else(|| "\"traceEvents\" is not an array".to_string())?;

    let mut lint = ChromeLint {
        events: events.len(),
        ..ChromeLint::default()
    };
    // (tid, ts, ts+dur) of every span, for the per-track overlap check.
    let mut spans: Vec<(u64, f64, f64)> = Vec::new();
    let mut tids: Vec<u64> = Vec::new();
    // Last span begin per track, for the exporter-order check.
    let mut last_begin: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    // Admission-track state: arrivals must be time-ordered, and a task
    // can only be admitted at or after its recorded arrival.
    let mut last_arrival = f64::NEG_INFINITY;
    let mut arrivals: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    // Tasks dropped by the overload-control policy: dropped at most once,
    // and never admitted afterwards.
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .field("ph", "event")
            .map_err(|_| format!("event {i}: missing \"ph\""))?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" is not a string"))?;
        if ev.field("name", "event").is_err() {
            return Err(format!("event {i}: missing \"name\""));
        }
        let tid = require_num(ev, "tid", i)? as u64;
        require_num(ev, "pid", i)?;
        tids.push(tid);
        match ph {
            "X" => {
                lint.spans += 1;
                let ts = require_num(ev, "ts", i)?;
                let dur = require_num(ev, "dur", i)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                match ev.field("cat", "event").ok().and_then(Value::as_str) {
                    Some("transfer") if !is_interconnect_tid(tid) => {
                        return Err(format!(
                            "event {i}: transfer span on non-interconnect track {tid}"
                        ));
                    }
                    Some("compute") if tid >= 1000 => {
                        return Err(format!(
                            "event {i}: compute span on non-GPU track {tid}"
                        ));
                    }
                    _ => {}
                }
                if let Some(&prev) = last_begin.get(&tid) {
                    if ts + EPS_US < prev {
                        return Err(format!(
                            "event {i}: track {tid} spans out of canonical order \
                             ({ts} after {prev})"
                        ));
                    }
                }
                last_begin.insert(tid, last_begin.get(&tid).copied().unwrap_or(ts).max(ts));
                spans.push((tid, ts, ts + dur));
            }
            "i" => {
                lint.instants += 1;
                let ts = require_num(ev, "ts", i)?;
                let cat = ev.field("cat", "event").ok().and_then(Value::as_str);
                if cat == Some("admission") {
                    lint.admission += 1;
                    let name = ev
                        .field("name", "event")
                        .ok()
                        .and_then(Value::as_str)
                        .unwrap_or_default();
                    let task = ev
                        .field("args", "event")
                        .ok()
                        .and_then(|a| a.field("task", "args").ok())
                        .and_then(num_of)
                        .ok_or_else(|| {
                            format!("event {i}: admission instant without args.task")
                        })? as u64;
                    if let Some(rest) = name.strip_prefix("arrive ") {
                        let _ = rest;
                        if ts + EPS_US < last_arrival {
                            return Err(format!(
                                "event {i}: arrivals out of order ({ts} after {last_arrival})"
                            ));
                        }
                        last_arrival = last_arrival.max(ts);
                        arrivals.insert(task, ts);
                    } else if name.starts_with("admit ") || name.starts_with("defer ") {
                        let arrived = arrivals.get(&task).copied().ok_or_else(|| {
                            format!("event {i}: task {task} admitted/deferred before arriving")
                        })?;
                        if ts + EPS_US < arrived {
                            return Err(format!(
                                "event {i}: task {task} admitted at {ts} before its arrival \
                                 at {arrived}"
                            ));
                        }
                        if name.starts_with("admit ") && dropped.contains(&task) {
                            return Err(format!(
                                "event {i}: task {task} admitted after being shed/expired"
                            ));
                        }
                    } else if name.starts_with("shed ") || name.starts_with("expire ") {
                        let arrived = arrivals.get(&task).copied().ok_or_else(|| {
                            format!("event {i}: task {task} shed/expired before arriving")
                        })?;
                        if ts + EPS_US < arrived {
                            return Err(format!(
                                "event {i}: task {task} shed at {ts} before its arrival \
                                 at {arrived}"
                            ));
                        }
                        if !dropped.insert(task) {
                            return Err(format!("event {i}: task {task} dropped twice"));
                        }
                    } else {
                        return Err(format!(
                            "event {i}: unexpected admission instant {name:?}"
                        ));
                    }
                }
            }
            "C" => {
                lint.counters += 1;
                require_num(ev, "ts", i)?;
            }
            "M" => lint.metadata += 1,
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    tids.sort_unstable();
    tids.dedup();
    lint.tracks = tids.len();
    lint.bus_tracks = tids.iter().filter(|&&t| is_bus_tid(t)).count();

    spans.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
    // ts/dur are microsecond doubles converted from exact nanosecond
    // integers; summing them can overshoot by an ulp, so abutting spans
    // get one simulator tick (1 ns = 1e-3 us) of tolerance.
    const EPS_US: f64 = 1e-3;
    for w in spans.windows(2) {
        let ((tid_a, _, end_a), (tid_b, start_b, _)) = (w[0], w[1]);
        if tid_a == tid_b && start_b + EPS_US < end_a {
            return Err(format!(
                "track {tid_a}: overlapping spans (ends {end_a}, next begins {start_b})"
            ));
        }
    }
    Ok(lint)
}

/// Summary of a linted metrics JSON (`--metrics-out` output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsLint {
    /// Histograms checked.
    pub histograms: usize,
    /// Whether the run carried admission traffic (online serving mode).
    pub online: bool,
}

fn require_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    let f = v
        .field(key, ctx)
        .map_err(|_| format!("{ctx}: missing {key:?}"))
        .and_then(|x| num_of(x).ok_or_else(|| format!("{ctx}.{key}: not a number")))?;
    Ok(f as u64)
}

/// Sanity-check a metrics JSON produced by `--metrics-out`: every
/// histogram must satisfy `p50 ≤ p99` with `min ≤ p50 ≤ p99 ≤ 2·max`
/// when non-empty (quantiles are log2 bucket upper bounds, so they may
/// overshoot the exact max by less than 2×), and on online runs the latency histogram must hold one
/// sample per completed task while the admission counters stay
/// consistent (`admitted ≤ arrived`, `deferred ≤ arrived`, and the
/// exactly-once outcome `admitted + shed + expired = arrived`).
pub fn lint_metrics(doc: &Value) -> Result<MetricsLint, String> {
    let m = doc
        .field("metrics", "root")
        .map_err(|_| "top level: missing \"metrics\"".to_string())?;
    let histograms = m
        .field("histograms", "metrics")
        .map_err(|_| "metrics: missing \"histograms\"".to_string())?;
    let counters = m
        .field("counters", "metrics")
        .map_err(|_| "metrics: missing \"counters\"".to_string())?;

    let mut lint = MetricsLint::default();
    let entries = match histograms {
        Value::Obj(entries) => entries,
        _ => return Err("\"histograms\" is not an object".to_string()),
    };
    let mut latency_count = 0u64;
    for (name, h) in entries {
        let ctx = format!("histograms.{name}");
        let count = require_u64(h, "count", &ctx)?;
        let p50 = require_u64(h, "p50", &ctx)?;
        let p99 = require_u64(h, "p99", &ctx)?;
        let max = require_u64(h, "max", &ctx)?;
        if p50 > p99 {
            return Err(format!("{ctx}: p50 {p50} > p99 {p99}"));
        }
        if count > 0 {
            let min = require_u64(h, "min", &ctx)?;
            // Quantiles come from log2 bucket upper bounds, so they can
            // overshoot the exact max by up to 2× — never more.
            if min > p50 || p99 > max.saturating_mul(2) {
                return Err(format!(
                    "{ctx}: quantiles not ordered (min {min}, p50 {p50}, p99 {p99}, max {max})"
                ));
            }
        }
        if name == "task_latency_ns" {
            latency_count = count;
        }
        lint.histograms += 1;
    }

    let arrived = require_u64(counters, "tasks_arrived", "counters")?;
    let admitted = require_u64(counters, "tasks_admitted", "counters")?;
    let deferred = require_u64(counters, "tasks_deferred", "counters")?;
    let shed = require_u64(counters, "tasks_shed", "counters")?;
    let expired = require_u64(counters, "deadlines_expired", "counters")?;
    let tasks = require_u64(counters, "tasks", "counters")?;
    if arrived > 0 {
        lint.online = true;
        if admitted > arrived || deferred > arrived {
            return Err(format!(
                "admission counters inconsistent: arrived {arrived}, admitted {admitted}, \
                 deferred {deferred}"
            ));
        }
        // Exactly-once admission outcome: a completed serving run admits
        // or drops every arrival, with nothing left in the queue.
        if admitted + shed + expired != arrived {
            return Err(format!(
                "admission outcomes don't cover arrivals: arrived {arrived}, \
                 admitted {admitted}, shed {shed}, expired {expired}"
            ));
        }
        if latency_count != tasks {
            return Err(format!(
                "task_latency_ns holds {latency_count} samples but {tasks} tasks completed"
            ));
        }
    } else if shed + expired != 0 {
        return Err(format!(
            "batch run (no arrivals) sheds tasks (shed {shed}, expired {expired})"
        ));
    } else if latency_count != 0 {
        return Err(format!(
            "batch run (no arrivals) carries {latency_count} latency samples"
        ));
    }

    // Counter identity: the registry's cache byte counters are derived
    // from the event stream, the per-GPU report fields from the engine's
    // own accounting — two independent pipelines that must agree (unless
    // the probe dropped events, in which case the registry undercounts).
    let hit = require_u64(counters, "cache_hit_bytes", "counters")?;
    let miss = require_u64(counters, "cache_miss_bytes", "counters")?;
    let dropped = require_u64(doc, "dropped_events", "root").unwrap_or(0);
    if let Ok(Value::Arr(gpus)) = doc.field("per_gpu", "root") {
        let mut rep_hit = 0u64;
        let mut rep_miss = 0u64;
        for (g, entry) in gpus.iter().enumerate() {
            let ctx = format!("per_gpu[{g}]");
            rep_hit += require_u64(entry, "cache_hit_bytes", &ctx)?;
            rep_miss += require_u64(entry, "cache_miss_bytes", &ctx)?;
        }
        if dropped == 0 && (rep_hit != hit || rep_miss != miss) {
            return Err(format!(
                "cache counters disagree with the per-GPU report: registry \
                 hit {hit} / miss {miss}, report hit {rep_hit} / miss {rep_miss}"
            ));
        }
    }
    Ok(lint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn trace_format_parses_or_rejects() {
        assert_eq!(TraceFormat::parse("chrome").unwrap(), TraceFormat::Chrome);
        assert_eq!(TraceFormat::parse("paje").unwrap(), TraceFormat::Paje);
        assert!(TraceFormat::parse("vite").is_err());
    }

    #[test]
    fn out_path_validation_matches_the_faults_convention() {
        assert!(validate_out_path("--trace-out", "").is_err());
        assert!(validate_out_path("--trace-out", "/definitely/not/here/x.json").is_err());
        assert!(validate_out_path("--trace-out", "/tmp").is_err(), "directory");
        assert!(validate_out_path("--trace-out", "trace.json").is_ok());
        assert!(validate_out_path("--metrics-out", "/tmp/metrics.json").is_ok());
    }

    #[test]
    fn suffixing_keeps_the_extension() {
        assert_eq!(suffix_path("results/t.json", "fig06"), "results/t.fig06.json");
        assert_eq!(suffix_path("trace", "fig03"), "trace.fig03");
        assert_eq!(suffix_path("a.b/trace", "fig03"), "a.b/trace.fig03");
    }

    fn lint_str(json: &str) -> Result<ChromeLint, String> {
        lint_chrome(&serde_json::parse_value(json).expect("valid JSON"))
    }

    #[test]
    fn multi_bus_trace_counts_bus_tracks() {
        let lint = lint_str(
            r#"{"traceEvents": [
                {"name": "T0", "cat": "compute", "ph": "X", "pid": 0, "tid": 0,
                 "ts": 0.0, "dur": 1.0},
                {"name": "D0", "cat": "transfer", "ph": "X", "pid": 0, "tid": 1000,
                 "ts": 0.0, "dur": 1.0},
                {"name": "D1", "cat": "transfer", "ph": "X", "pid": 0, "tid": 1101,
                 "ts": 0.0, "dur": 1.0}
            ]}"#,
        )
        .expect("lintable");
        assert_eq!(lint.spans, 3);
        assert_eq!(lint.tracks, 3);
        assert_eq!(lint.bus_tracks, 2, "bus 0 (tid 1000) + bus 1 (tid 1101)");
    }

    #[test]
    fn transfer_span_on_gpu_track_is_rejected() {
        let err = lint_str(
            r#"{"traceEvents": [
                {"name": "D0", "cat": "transfer", "ph": "X", "pid": 0, "tid": 3,
                 "ts": 0.0, "dur": 1.0}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("non-interconnect"), "{err}");
        let err = lint_str(
            r#"{"traceEvents": [
                {"name": "T0", "cat": "compute", "ph": "X", "pid": 0, "tid": 1000,
                 "ts": 0.0, "dur": 1.0}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("non-GPU"), "{err}");
    }

    #[test]
    fn spans_out_of_canonical_order_are_rejected() {
        // Disjoint spans, so the overlap check alone would pass; only the
        // exporter-order check catches the swap.
        let err = lint_str(
            r#"{"traceEvents": [
                {"name": "D1", "cat": "transfer", "ph": "X", "pid": 0, "tid": 1000,
                 "ts": 5.0, "dur": 1.0},
                {"name": "D0", "cat": "transfer", "ph": "X", "pid": 0, "tid": 1000,
                 "ts": 0.0, "dur": 1.0}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("canonical order"), "{err}");
    }

    #[test]
    fn multi_bus_observed_run_lints_with_per_bus_tracks() {
        use memsched_platform::{run_observed, PlatformSpec};
        let ts = memsched_workloads::gemm_2d(6);
        let tile = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100_multibus(4, 2).with_memory(16 * tile);
        let mut sched = memsched_schedulers::DmdaScheduler::dmda();
        let probe = Probe::unbounded();
        run_observed(&ts, &spec, &mut sched, &RunConfig::default(), &probe).expect("run");
        let text = chrome_trace_json(&probe.events()).expect("chrome export");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let lint = lint_chrome(&doc).expect("multi-bus trace must lint clean");
        assert_eq!(lint.bus_tracks, 2, "one track per bus group");
        assert!(lint.spans > 0);
    }

    #[test]
    fn export_writes_lintable_trace_and_metrics() {
        let dir = std::env::temp_dir().join("memsched_obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let metrics = dir.join("m.json");
        let fig = figures::quick(figures::fig03());
        let out = ObsOut {
            trace_out: Some(trace.to_str().unwrap().into()),
            trace_format: TraceFormat::Chrome,
            metrics_out: Some(metrics.to_str().unwrap().into()),
        };
        export_figure(&fig, &out).expect("export");

        let doc = serde_json::parse_value(&std::fs::read_to_string(&trace).unwrap())
            .expect("valid JSON");
        let lint = lint_chrome(&doc).expect("lintable");
        assert!(lint.spans > 0, "trace must contain spans");
        assert!(lint.tracks >= 2, "GPU + bus tracks at least");

        let m = serde_json::parse_value(&std::fs::read_to_string(&metrics).unwrap())
            .expect("valid metrics JSON");
        let per_gpu = m.field("per_gpu", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(per_gpu.len(), fig.spec.num_gpus);
        let makespan = match m.field("makespan_ns", "metrics").unwrap() {
            Value::Num(Number::U(u)) => *u,
            other => panic!("makespan_ns not a u64: {other:?}"),
        };
        for g in per_gpu {
            let part = |k: &str| match g.field(k, "gpu").unwrap() {
                Value::Num(Number::U(u)) => *u,
                other => panic!("{k} not a u64: {other:?}"),
            };
            assert_eq!(part("busy_ns") + part("stall_ns") + part("idle_ns"), makespan);
        }
        let util = m.field("bus_utilization", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(util.len(), BUS_BUCKETS);

        // Paje output is non-empty and ViTE-shaped (header + states).
        let out = ObsOut {
            trace_out: Some(trace.to_str().unwrap().into()),
            trace_format: TraceFormat::Paje,
            metrics_out: None,
        };
        export_figure(&fig, &out).expect("paje export");
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("%EventDef"), "paje header missing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_rejects_malformed_documents() {
        let bad = serde_json::parse_value("{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
        assert!(lint_chrome(&bad).is_err(), "span without name/ts/dur");
        let not_obj = serde_json::parse_value("[1, 2]").unwrap();
        assert!(lint_chrome(&not_obj).is_err());
        let overlap = serde_json::parse_value(
            "{\"traceEvents\": [\
             {\"name\": \"a\", \"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": 0, \"dur\": 10},\
             {\"name\": \"b\", \"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": 5, \"dur\": 10}]}",
        )
        .unwrap();
        assert!(lint_chrome(&overlap).is_err(), "overlapping spans on one track");
    }
}
