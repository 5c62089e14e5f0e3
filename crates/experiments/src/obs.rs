//! Observed-run export for the figure binaries and `serve`
//! (`--trace-out`, `--metrics-out`).
//!
//! A sweep runs dozens of cells; recording all of them would produce
//! gigabytes of spans nobody opens. Instead the binary re-runs **one
//! representative cell** through [`ObsOut::export`] — a figure's last
//! sweep point (largest working set, where contention is most visible)
//! with the point's first scheduler, or `serve`'s first scheduler at its
//! highest rate — and writes:
//!
//! - the timeline in Chrome Trace Event Format (Perfetto,
//!   `chrome://tracing`) — `--trace-out`;
//! - a metrics JSON — `--metrics-out`. Each count appears once, taken
//!   from the run report: the fault totals, the per-GPU tasks, loads,
//!   evictions, cache bytes and busy/stall/idle split, and the `online`
//!   serving statistics. Beside them sit what only the event stream
//!   tells: the bus-utilization timeline and the [`Metrics`] registry
//!   (decisions, steals, gauges, the transfer-duration and
//!   decision-latency histograms, snapshots).
//!
//! The files are checked at their source. The cell is recorded with a
//! [`TraceMode::Full`] trace and must pass [`validate`] (memory bound,
//! inputs resident at start, bus FIFO, the fault and admission ledgers,
//! report equal to the trace) before anything is written; a violation
//! becomes the export's error, so the binary exits 1 with the
//! validator's message. The exporter builds its spans with
//! `check_well_formed`, so no two spans on one track overlap.
//!
//! Both paths are validated at argument-parse time (parent directory
//! must exist, path must not be a directory), matching the `--faults`
//! convention: a bad invocation exits with status 2 and a readable
//! message before any cell runs.

use crate::harness::FigureSpec;
use memsched_model::TaskSet;
use memsched_platform::obs::{bus_utilization, chrome_trace_json, Metrics, Probe};
use memsched_platform::{
    run_observed, validate, ObsEvent, OnlineStats, PlatformSpec, RunConfig, RunReport, Scheduler,
    TraceMode,
};
use serde_json::Value;
use std::path::Path;

/// Observability outputs requested on the command line; inactive (both
/// paths `None`) unless `--trace-out` / `--metrics-out` were given.
#[derive(Clone, Debug, Default)]
pub struct ObsOut {
    /// `--trace-out PATH`: Chrome trace destination.
    pub trace_out: Option<String>,
    /// `--metrics-out PATH`: metrics JSON destination.
    pub metrics_out: Option<String>,
}

impl ObsOut {
    /// The value flags [`ObsOut::parse`] reads, for a binary's
    /// [`check_flags`](crate::cli::check_flags) list.
    pub const FLAGS: [&'static str; 2] = ["--trace-out", "--metrics-out"];

    /// Parse [`ObsOut::FLAGS`] through a binary's `value_of` flag
    /// lookup, rejecting unusable paths here, before any cell runs.
    pub fn parse(value_of: impl Fn(&str) -> Option<String>) -> Result<ObsOut, String> {
        let [trace_flag, metrics_flag] = Self::FLAGS;
        let trace_out = value_of(trace_flag);
        if let Some(p) = &trace_out {
            validate_out_path(trace_flag, p)?;
        }
        let metrics_out = value_of(metrics_flag);
        if let Some(p) = &metrics_out {
            validate_out_path(metrics_flag, p)?;
        }
        Ok(ObsOut {
            trace_out,
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
            let text = chrome_trace_json(&events).map_err(|e| format!("chrome export: {e}"))?;
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
        ("figure", fig.id.into()),
        ("workload", point.workload.label().into()),
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
            Value::from_iter([
                ("gpu", (g as u64).into()),
                ("busy_ns", st.busy.into()),
                ("stall_ns", st.stall.into()),
                ("idle_ns", st.idle.into()),
                ("tasks", (st.tasks as u64).into()),
                ("loads", st.loads.into()),
                ("evictions", st.evictions.into()),
                ("cache_hit_bytes", st.cache_hit_bytes.into()),
                ("cache_miss_bytes", st.cache_miss_bytes.into()),
            ])
        })
        .collect();

    root.extend([
        ("scheduler", report.scheduler.as_str().into()),
        ("makespan_ns", makespan.into()),
        ("events", (events.len() as u64).into()),
        ("transfer_retries", report.transfer_retries.into()),
        ("gpu_failures", report.gpu_failures.into()),
        ("per_gpu", Value::Arr(per_gpu)),
    ]);
    if let Some(o) = &report.online {
        root.push(("online", online_value(o)));
    }
    root.extend([
        (
            "bus_utilization",
            Value::Arr(util.into_iter().map(Value::from).collect()),
        ),
        ("metrics", metrics.to_value()),
    ]);
    serde_json::to_string_pretty(&Value::from_iter(root))
        .map_err(|e| format!("serialize metrics: {e}"))
}

/// The `online` section of the metrics JSON.
fn online_value(o: &OnlineStats) -> Value {
    Value::from_iter([
        ("tasks_admitted", o.tasks_admitted.into()),
        ("tasks_deferred", o.tasks_deferred.into()),
        ("p50_latency_ns", o.p50_latency.into()),
        ("p99_latency_ns", o.p99_latency.into()),
        ("mean_latency_ns", o.mean_latency.into()),
        ("p50_queueing_ns", o.p50_queueing.into()),
        ("p99_queueing_ns", o.p99_queueing.into()),
        ("throughput_tps", o.throughput_tps.into()),
        ("tasks_shed", o.tasks_shed.into()),
        ("deadline_expired", o.deadline_expired.into()),
        ("deadline_violations", o.deadline_violations.into()),
        ("goodput_tps", o.goodput_tps.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use memsched_platform::obs::Track;
    use serde_json::Number;
    use std::collections::BTreeSet;

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
        let header = vec![("bin", "serve".into())];
        let serve_out = ObsOut {
            trace_out: None,
            metrics_out: Some(metrics.to_str().unwrap().into()),
        };
        serve_out
            .export(&stream, &spec, sched.as_mut(), &config, header)
            .expect("online export");
        let m = read_json(&metrics);
        let online = m.field("online", "metrics").expect("an online section");
        let per_gpu = m.field("per_gpu", "metrics").unwrap().as_arr().unwrap();
        assert_eq!(per_gpu.len(), 2);
        let completed: u64 = per_gpu.iter().map(|g| u64_at(g, "tasks")).sum();
        assert_eq!(
            u64_at(online, "tasks_admitted"),
            completed,
            "every admitted task completes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
