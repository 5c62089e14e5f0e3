//! Observed-run export for the figure binaries and `serve`
//! (`--trace-out`, `--trace-format`, `--metrics-out`) plus the linters
//! behind the `trace_lint` binary.
//!
//! A sweep runs dozens of cells; recording all of them would produce
//! gigabytes of spans nobody opens. Instead the binary re-runs **one
//! representative cell** through [`ObsOut::export`] — a figure's last
//! sweep point (largest working set, where contention is most visible)
//! with the point's first scheduler, or `serve`'s first scheduler at its
//! highest rate — and writes:
//!
//! - the timeline in Chrome Trace Event Format (Perfetto,
//!   `chrome://tracing`) or Paje (`.trace`, ViTE) — `--trace-out`;
//! - a metrics JSON — `--metrics-out`. Each count appears once, taken
//!   from the run report: the fault totals, the per-GPU tasks, loads,
//!   evictions, cache bytes and busy/stall/idle split, and the `online`
//!   serving statistics. Beside them sit what only the event stream
//!   tells: the bus-utilization timeline and the [`Metrics`] registry
//!   (decisions, steals, gauges, histograms, snapshots).
//!
//! Both paths are validated at argument-parse time (parent directory
//! must exist, path must not be a directory), matching the `--faults`
//! convention: a bad invocation exits with status 2 and a readable
//! message before any cell runs.

use crate::harness::FigureSpec;
use memsched_model::TaskSet;
use memsched_platform::obs::{bus_utilization, chrome_trace_json, paje_trace, Metrics, Probe};
use memsched_platform::{
    run_observed, ObsEvent, OnlineStats, PlatformSpec, RunConfig, RunReport, Scheduler,
};
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
    /// The value flags [`ObsOut::parse`] reads, for a binary's
    /// [`check_flags`](crate::cli::check_flags) list.
    pub const FLAGS: [&'static str; 3] = ["--trace-out", "--trace-format", "--metrics-out"];

    /// Parse [`ObsOut::FLAGS`] through a binary's `value_of` flag
    /// lookup, rejecting unusable paths and formats here, before any
    /// cell runs.
    pub fn parse(value_of: impl Fn(&str) -> Option<String>) -> Result<ObsOut, String> {
        let [trace_flag, format_flag, metrics_flag] = Self::FLAGS;
        let trace_out = value_of(trace_flag);
        if let Some(p) = &trace_out {
            validate_out_path(trace_flag, p)?;
        }
        let metrics_out = value_of(metrics_flag);
        if let Some(p) = &metrics_out {
            validate_out_path(metrics_flag, p)?;
        }
        let trace_format = match value_of(format_flag) {
            Some(f) => TraceFormat::parse(&f)?,
            None => TraceFormat::default(),
        };
        Ok(ObsOut {
            trace_out,
            trace_format,
            metrics_out,
        })
    }

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

    /// Run `ts` on `spec` under `sched` and `config` with a probe attached
    /// and write the requested files; a no-op when nothing was requested.
    /// `header` opens the metrics JSON with what the caller ran (a figure
    /// and its workload, or `serve`'s stream parameters).
    pub fn export(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        sched: &mut dyn Scheduler,
        config: &RunConfig,
        header: Vec<(&str, Value)>,
    ) -> Result<(), String> {
        if !self.is_active() {
            return Ok(());
        }
        let probe = Probe::unbounded();
        let (report, _trace) = run_observed(ts, spec, sched, config, &probe)
            .map_err(|e| format!("observed cell failed: {e}"))?;
        let events = probe.events();

        if let Some(path) = &self.trace_out {
            let text = match self.trace_format {
                TraceFormat::Chrome => {
                    chrome_trace_json(&events).map_err(|e| format!("chrome export: {e}"))?
                }
                TraceFormat::Paje => {
                    paje_trace(&events).map_err(|e| format!("paje export: {e}"))?
                }
            };
            std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path} ({} events, {})", events.len(), report.scheduler);
        }
        if let Some(path) = &self.metrics_out {
            let text = render_metrics(header, &events, &report, probe.dropped())?;
            std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
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

fn num(v: u64) -> Value {
    Value::Num(Number::U(v))
}

/// Observe the figure's representative cell and write the requested
/// files. No-op when nothing was requested. The cell is the **last
/// sweep point, first scheduler** — deterministic, so repeated
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
    let config = RunConfig {
        faults: fig.faults.clone(),
        ..RunConfig::default()
    };
    let header = vec![
        ("figure", Value::Str(fig.id.to_string())),
        ("workload", Value::Str(point.workload.label())),
    ];
    let ts = point.workload.generate();
    out.export(&ts, &fig.spec, named.build().as_mut(), &config, header)
        .map_err(|e| format!("{}: {e}", fig.id))
}

/// Number of equal slices the bus-utilization timeline is bucketed into.
const BUS_BUCKETS: usize = 50;

/// Metrics JSON for one observed run: the caller's `header`, the report's
/// counts, per-GPU split and serving statistics, then the
/// bus-utilization timeline and the registry.
fn render_metrics(
    mut root: Vec<(&str, Value)>,
    events: &[ObsEvent],
    report: &RunReport,
    dropped: u64,
) -> Result<String, String> {
    let makespan = report.makespan;
    // Snapshot cadence: ~64 slices of the run (at least 1 ns apart).
    let mut metrics = Metrics::with_snapshots((makespan / 64).max(1));
    metrics.ingest(events);
    let util = bus_utilization(events, BUS_BUCKETS, makespan)
        .map_err(|e| format!("bus utilization: {e}"))?;

    let per_gpu: Vec<Value> = report
        .per_gpu
        .iter()
        .enumerate()
        .map(|(g, st)| {
            obj(vec![
                ("gpu", num(g as u64)),
                ("busy_ns", num(st.busy)),
                ("stall_ns", num(st.stall)),
                ("idle_ns", num(st.idle)),
                ("tasks", num(st.tasks as u64)),
                ("loads", num(st.loads)),
                ("evictions", num(st.evictions)),
                ("cache_hit_bytes", num(st.cache_hit_bytes)),
                ("cache_miss_bytes", num(st.cache_miss_bytes)),
            ])
        })
        .collect();

    root.extend([
        ("scheduler", Value::Str(report.scheduler.clone())),
        ("makespan_ns", num(makespan)),
        ("events", num(events.len() as u64)),
        ("dropped_events", num(dropped)),
        ("transfer_retries", num(report.transfer_retries)),
        ("gpu_failures", num(report.gpu_failures)),
        ("per_gpu", Value::Arr(per_gpu)),
    ]);
    if let Some(o) = &report.online {
        root.push(("online", online_value(o)));
    }
    root.extend([
        (
            "bus_utilization",
            Value::Arr(util.into_iter().map(|v| Value::Num(Number::F(v))).collect()),
        ),
        ("metrics", metrics.to_value()),
    ]);
    serde_json::to_string_pretty(&obj(root)).map_err(|e| format!("serialize metrics: {e}"))
}

/// The `online` section of the metrics JSON.
fn online_value(o: &OnlineStats) -> Value {
    obj(vec![
        ("tasks_admitted", num(o.tasks_admitted)),
        ("tasks_deferred", num(o.tasks_deferred)),
        ("p50_latency_ns", num(o.p50_latency)),
        ("p99_latency_ns", num(o.p99_latency)),
        ("mean_latency_ns", num(o.mean_latency)),
        ("p50_queueing_ns", num(o.p50_queueing)),
        ("p99_queueing_ns", num(o.p99_queueing)),
        ("throughput_tps", Value::Num(Number::F(o.throughput_tps))),
        ("tasks_shed", num(o.tasks_shed)),
        ("deadline_expired", num(o.deadline_expired)),
        ("deadline_violations", num(o.deadline_violations)),
        ("goodput_tps", Value::Num(Number::F(o.goodput_tps))),
    ])
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
/// overshoot the exact max by less than 2×). Counts come from the report
/// sections: a run with an `online` section completes exactly the tasks
/// it admitted (the `per_gpu` task counts) and its latency histogram
/// holds one sample per completion; a batch run holds no latency samples.
pub fn lint_metrics(doc: &Value) -> Result<MetricsLint, String> {
    let m = doc
        .field("metrics", "root")
        .map_err(|_| "top level: missing \"metrics\"".to_string())?;
    let histograms = m
        .field("histograms", "metrics")
        .map_err(|_| "metrics: missing \"histograms\"".to_string())?;

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

    let gpus = doc
        .field("per_gpu", "root")
        .ok()
        .and_then(Value::as_arr)
        .ok_or_else(|| "top level: missing \"per_gpu\"".to_string())?;
    let mut completed = 0;
    for (g, entry) in gpus.iter().enumerate() {
        completed += require_u64(entry, "tasks", &format!("per_gpu[{g}]"))?;
    }
    if let Ok(online) = doc.field("online", "root") {
        lint.online = true;
        let admitted = require_u64(online, "tasks_admitted", "online")?;
        if admitted != completed {
            return Err(format!(
                "online run admitted {admitted} tasks but completed {completed}"
            ));
        }
        if latency_count != completed {
            return Err(format!(
                "task_latency_ns holds {latency_count} samples but {completed} tasks completed"
            ));
        }
    } else if latency_count != 0 {
        return Err(format!(
            "batch run (no \"online\" section) carries {latency_count} latency samples"
        ));
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
        assert!(!lint_metrics(&m).expect("batch metrics lint clean").online);

        // The `serve` path: an online stream through `ObsOut::export`.
        use memsched_platform::{AdmissionConfig, PlatformSpec};
        use memsched_workloads::{gemm_2d, open_loop_arrivals, ArrivalPattern};
        let base = gemm_2d(6);
        let pattern = ArrivalPattern::Poisson { rate_per_sec: 4000.0 };
        let stream = base.clone().with_arrivals(open_loop_arrivals(&pattern, 3, base.num_tasks()));
        let tile = stream.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100(2).with_memory(8 * tile);
        let config = RunConfig {
            admission: Some(AdmissionConfig::default()),
            ..RunConfig::default()
        };
        let mut sched = memsched_schedulers::NamedScheduler::Dmdar.build();
        let header = vec![("bin", Value::Str("serve".into()))];
        let serve_out = ObsOut {
            trace_out: None,
            trace_format: TraceFormat::Chrome,
            metrics_out: Some(metrics.to_str().unwrap().into()),
        };
        serve_out.export(&stream, &spec, sched.as_mut(), &config, header).expect("online export");
        let m = serde_json::parse_value(&std::fs::read_to_string(&metrics).unwrap())
            .expect("valid metrics JSON");
        assert!(lint_metrics(&m).expect("online metrics lint clean").online);
        let per_gpu = m.field("per_gpu", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(per_gpu.len(), 2);

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
    fn lint_metrics_checks_counts_against_the_report_sections() {
        const DOC: &str = r#"{"per_gpu": [{"tasks": 3}, {"tasks": 2}], ONLINE
            "metrics": {"histograms": {
                "transfer_duration_ns":
                    {"count": 4, "min": 100, "p50": P50, "p99": 256, "max": 200},
                "task_latency_ns": {"count": LAT, "min": 50, "p50": 64, "p99": 128, "max": 90}
            }}}"#;
        let doc = |online: &str, latency: u64, p50: u64| {
            let text = DOC
                .replace("ONLINE", online)
                .replace("LAT", &latency.to_string())
                .replace("P50", &p50.to_string());
            serde_json::parse_value(&text).expect("valid JSON")
        };
        let online = r#""online": {"tasks_admitted": 5},"#;
        let batch = lint_metrics(&doc("", 0, 128)).expect("batch document");
        assert_eq!(batch, MetricsLint { histograms: 2, online: false });
        let served = lint_metrics(&doc(online, 5, 128)).expect("online document");
        assert_eq!(served, MetricsLint { histograms: 2, online: true });

        let admitted_6 = r#""online": {"tasks_admitted": 6},"#;
        for (bad, want) in [
            (doc(online, 5, 512), "p50 512 > p99 256"),
            (doc(admitted_6, 5, 128), "admitted 6 tasks but completed 5"),
            (doc(online, 4, 128), "holds 4 samples but 5 tasks completed"),
            (doc("", 5, 128), "batch run (no \"online\" section) carries 5 latency samples"),
        ] {
            let err = lint_metrics(&bad).unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err}");
        }
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
