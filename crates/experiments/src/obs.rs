//! Observed-run export for the figure binaries and `serve`
//! (`--trace-out`, `--trace-format`, `--metrics-out`).
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
//! The files are checked at their source. The cell is recorded with a
//! [`TraceMode::Full`] trace and must pass [`validate`] (memory bound,
//! inputs resident at start, bus FIFO, the fault and admission ledgers,
//! report equal to the trace) before anything is written; a violation
//! becomes the export's error, so the binary exits 1 with the
//! validator's message. The exporters build their spans with
//! `check_well_formed`, so no two spans on one track overlap.
//!
//! Both paths are validated at argument-parse time (parent directory
//! must exist, path must not be a directory), matching the `--faults`
//! convention: a bad invocation exits with status 2 and a readable
//! message before any cell runs.

use crate::harness::FigureSpec;
use memsched_model::TaskSet;
use memsched_platform::obs::{bus_utilization, chrome_trace_json, paje_trace, Metrics, Probe};
use memsched_platform::{
    run_observed, validate, ObsEvent, OnlineStats, PlatformSpec, RunConfig, RunReport, Scheduler,
    TraceMode,
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

    /// Run `ts` on `spec` under `sched` and `config` with a probe attached,
    /// [`validate`] the run and write the requested files; a no-op when
    /// nothing was requested. The run records a [`TraceMode::Full`] trace
    /// whatever `config.trace` says, and a violation is returned before
    /// any file is written. `header` opens the metrics JSON with what the
    /// caller ran (a figure and its workload, or `serve`'s stream
    /// parameters).
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
        let config = RunConfig {
            trace: TraceMode::Full,
            ..config.clone()
        };
        let probe = Probe::unbounded();
        let (report, trace) = run_observed(ts, spec, sched, &config, &probe)
            .map_err(|e| format!("observed cell failed: {e}"))?;
        validate(ts, spec, &config, &trace, &report)
            .map_err(|v| format!("observed cell is invalid: {v}"))?;
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
            eprintln!(
                "wrote {path} ({} events, {})",
                events.len(),
                report.scheduler
            );
        }
        if let Some(path) = &self.metrics_out {
            let text = render_metrics(header, &events, &report)?;
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
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use memsched_platform::obs::Track;
    use std::collections::BTreeSet;

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
        assert!(
            validate_out_path("--trace-out", "/tmp").is_err(),
            "directory"
        );
        assert!(validate_out_path("--trace-out", "trace.json").is_ok());
        assert!(validate_out_path("--metrics-out", "/tmp/metrics.json").is_ok());
    }

    #[test]
    fn suffixing_keeps_the_extension() {
        assert_eq!(
            suffix_path("results/t.json", "fig06"),
            "results/t.fig06.json"
        );
        assert_eq!(suffix_path("trace", "fig03"), "trace.fig03");
        assert_eq!(suffix_path("a.b/trace", "fig03"), "a.b/trace.fig03");
    }

    fn read_json(path: &Path) -> Value {
        serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).expect("valid JSON")
    }

    /// The unsigned integer at `key` of a JSON object.
    fn u64_at(v: &Value, key: &str) -> u64 {
        match v.field(key, "object").unwrap() {
            Value::Num(Number::U(u)) => *u,
            other => panic!("{key} not a u64: {other:?}"),
        }
    }

    /// The `"ph": "X"` span entries of a Chrome trace.
    fn spans(doc: &Value) -> Vec<&Value> {
        let events = doc.field("traceEvents", "trace").unwrap().as_arr().unwrap();
        events
            .iter()
            .filter(|e| e.field("ph", "event").unwrap().as_str() == Some("X"))
            .collect()
    }

    /// The sample count of the registry's `task_latency_ns` histogram.
    fn latency_samples(metrics: &Value) -> u64 {
        let registry = metrics.field("metrics", "root").unwrap();
        let histograms = registry.field("histograms", "metrics").unwrap();
        u64_at(
            histograms.field("task_latency_ns", "histograms").unwrap(),
            "count",
        )
    }

    #[test]
    fn multi_bus_observed_run_lints_with_per_bus_tracks() {
        let ts = memsched_workloads::gemm_2d(6);
        let tile = ts.data_size(memsched_model::DataId(0));
        let spec = PlatformSpec::v100_multibus(4, 2).with_memory(16 * tile);
        let mut sched = memsched_schedulers::DmdaScheduler::dmda();
        let dir = std::env::temp_dir().join("memsched_obs_multibus_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let out = ObsOut {
            trace_out: Some(trace.to_str().unwrap().into()),
            trace_format: TraceFormat::Chrome,
            metrics_out: None,
        };
        out.export(&ts, &spec, &mut sched, &RunConfig::default(), Vec::new())
            .expect("a multi-bus run validates");
        let doc = read_json(&trace);
        let transfer_tids: BTreeSet<u64> = spans(&doc)
            .into_iter()
            .filter(|e| e.field("cat", "event").unwrap().as_str() == Some("transfer"))
            .map(|e| u64_at(e, "tid"))
            .collect();
        assert_eq!(
            transfer_tids,
            BTreeSet::from([Track::Bus.tid(), Track::BusN(1).tid()]),
            "one track per bus group"
        );
        std::fs::remove_dir_all(&dir).ok();
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

        let doc = read_json(&trace);
        let span_tids: BTreeSet<u64> = spans(&doc).into_iter().map(|e| u64_at(e, "tid")).collect();
        assert!(span_tids.len() >= 2, "spans on GPU and bus tracks at least");

        let m = read_json(&metrics);
        let per_gpu = m.field("per_gpu", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(per_gpu.len(), fig.spec.num_gpus);
        let makespan = u64_at(&m, "makespan_ns");
        for g in per_gpu {
            let split = u64_at(g, "busy_ns") + u64_at(g, "stall_ns") + u64_at(g, "idle_ns");
            assert_eq!(split, makespan);
        }
        let util = m
            .field("bus_utilization", "metrics")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(util.len(), BUS_BUCKETS);
        assert!(
            m.field("online", "metrics").is_err(),
            "a batch run has no online section"
        );
        assert_eq!(
            latency_samples(&m),
            0,
            "a batch run holds no latency samples"
        );

        // The `serve` path: an online stream through `ObsOut::export`.
        use memsched_platform::AdmissionConfig;
        use memsched_workloads::{gemm_2d, open_loop_arrivals, ArrivalPattern};
        let base = gemm_2d(6);
        let pattern = ArrivalPattern::Poisson {
            rate_per_sec: 4000.0,
        };
        let stream = base
            .clone()
            .with_arrivals(open_loop_arrivals(&pattern, 3, base.num_tasks()));
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
        serve_out
            .export(&stream, &spec, sched.as_mut(), &config, header)
            .expect("online export");
        let m = read_json(&metrics);
        assert!(
            m.field("online", "metrics").is_ok(),
            "a serving run has an online section"
        );
        let per_gpu = m.field("per_gpu", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(per_gpu.len(), 2);
        let completed: u64 = per_gpu.iter().map(|g| u64_at(g, "tasks")).sum();
        assert_eq!(
            latency_samples(&m),
            completed,
            "one latency sample per completion"
        );

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
}
