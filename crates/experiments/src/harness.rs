//! Sweep harness: runs a set of schedulers over a size sweep of a
//! workload family and prints the series of one paper figure.

use crate::pool;
use memsched_model::TaskSet;
use memsched_platform::{
    run, run_with_config, FaultPlan, PlatformSpec, RunConfig, RunError, RunReport,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::Workload;
use serde_json::Value;
use std::sync::{Arc, OnceLock};

/// Which metric the figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Throughput in GFlop/s (higher is better) — Figures 3, 5, 6, 8–13.
    Gflops,
    /// Total data transferred in MB (lower is better) — Figures 4, 7.
    TransfersMb,
}

/// One measured cell of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Figure id, e.g. "fig03".
    pub figure: String,
    /// Workload label.
    pub workload: String,
    /// Working-set size in MB (the x axis).
    pub ws_mb: f64,
    /// Number of GPUs.
    pub gpus: usize,
    /// Scheduler label.
    pub scheduler: String,
    /// Simulated throughput ignoring scheduling cost.
    pub gflops: f64,
    /// Throughput including measured scheduling wall time (the paper's
    /// default reporting).
    pub gflops_with_sched: f64,
    /// Total host→GPU transfers in MB.
    pub transfers_mb: f64,
    /// Number of load operations.
    pub loads: u64,
    /// Number of evictions.
    pub evictions: u64,
    /// Simulated makespan in milliseconds.
    pub makespan_ms: f64,
    /// Static scheduling phase (partitioning/packing) wall time in ms.
    pub prepare_ms: f64,
    /// Dynamic scheduling callbacks wall time in ms.
    pub sched_ms: f64,
    /// `max_k nb_k` (Objective 1).
    pub max_load: usize,
    /// Transfer retries from injected transient faults (0 without
    /// `--faults`).
    pub retries: u64,
    /// Tasks re-dispatched after injected fail-stop GPU faults.
    pub redispatched: u64,
    /// Mean per-GPU time executing tasks, ms (simulated; deterministic).
    pub busy_ms: f64,
    /// Mean per-GPU time starved on in-flight transfers, ms. For each
    /// GPU `busy + stall + idle == makespan` exactly, so these three
    /// columns localize where the throughput of a row went.
    pub stall_ms: f64,
    /// Mean per-GPU time with no work and no pending transfer, ms.
    pub idle_ms: f64,
}

impl Row {
    fn from_report(
        figure: &str,
        workload: &Workload,
        ws_mb: f64,
        gpus: usize,
        r: &RunReport,
    ) -> Self {
        let k = r.per_gpu.len().max(1) as f64;
        let mean_ms = |f: fn(&memsched_platform::GpuRunStats) -> u64| {
            r.per_gpu.iter().map(f).sum::<u64>() as f64 / k / 1e6
        };
        Self {
            figure: figure.to_string(),
            workload: workload.label(),
            ws_mb,
            gpus,
            scheduler: r.scheduler.clone(),
            gflops: r.gflops(),
            gflops_with_sched: r.gflops_with_sched(),
            transfers_mb: r.transfers_mb(),
            loads: r.total_loads,
            evictions: r.total_evictions,
            makespan_ms: r.makespan as f64 / 1e6,
            prepare_ms: r.prepare_wall as f64 / 1e6,
            sched_ms: r.sched_wall as f64 / 1e6,
            max_load: r.max_load(),
            retries: r.transfer_retries,
            redispatched: r.tasks_redispatched,
            busy_ms: mean_ms(|g| g.busy),
            stall_ms: mean_ms(|g| g.stall),
            idle_ms: mean_ms(|g| g.idle),
        }
    }

    /// A copy with every wall-clock-derived field zeroed.
    ///
    /// `prepare_ms`, `sched_ms` and `gflops_with_sched` measure host wall
    /// time, so they vary run to run; everything else is simulated and
    /// exactly reproducible. Canonical rows are what the determinism
    /// guarantee is stated over: serializing the canonical rows of a sweep
    /// yields byte-identical output for any worker count.
    pub fn canonical(&self) -> Row {
        Row {
            gflops_with_sched: 0.0,
            prepare_ms: 0.0,
            sched_ms: 0.0,
            ..self.clone()
        }
    }

    /// The row as a JSON object: one key per field, in declaration order
    /// (the CSV's column order).
    fn to_value(&self) -> Value {
        Value::from_iter([
            ("figure", self.figure.as_str().into()),
            ("workload", self.workload.as_str().into()),
            ("ws_mb", self.ws_mb.into()),
            ("gpus", (self.gpus as u64).into()),
            ("scheduler", self.scheduler.as_str().into()),
            ("gflops", self.gflops.into()),
            ("gflops_with_sched", self.gflops_with_sched.into()),
            ("transfers_mb", self.transfers_mb.into()),
            ("loads", self.loads.into()),
            ("evictions", self.evictions.into()),
            ("makespan_ms", self.makespan_ms.into()),
            ("prepare_ms", self.prepare_ms.into()),
            ("sched_ms", self.sched_ms.into()),
            ("max_load", (self.max_load as u64).into()),
            ("retries", self.retries.into()),
            ("redispatched", self.redispatched.into()),
            ("busy_ms", self.busy_ms.into()),
            ("stall_ms", self.stall_ms.into()),
            ("idle_ms", self.idle_ms.into()),
        ])
    }
}

/// Rows as a pretty JSON array, one object per row.
fn rows_json(rows: &[Row]) -> String {
    let rows = rows.iter().map(Row::to_value).collect();
    serde_json::to_string_pretty(&Value::Arr(rows)).expect("a JSON value prints")
}

/// Rows in canonical form (wall-clock fields zeroed) as pretty JSON.
/// Two sweeps of the same figure produce byte-identical canonical JSON
/// regardless of worker count — see `tests/determinism.rs`.
pub fn canonical_json(rows: &[Row]) -> String {
    rows_json(&rows.iter().map(Row::canonical).collect::<Vec<_>>())
}

/// One point of the sweep: a workload instance plus the schedulers that
/// the paper plots at this size (expensive static schedulers are dropped
/// from large sizes, exactly as the paper does for mHFP).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The workload at this size.
    pub workload: Workload,
    /// Schedulers to run at this point.
    pub schedulers: Vec<NamedScheduler>,
}

/// Description of one figure to regenerate.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Figure id ("fig03" … "fig13").
    pub id: &'static str,
    /// Human title (matches the paper caption).
    pub title: &'static str,
    /// Platform (GPU count, memory clamp).
    pub spec: PlatformSpec,
    /// The sweep.
    pub points: Vec<SweepPoint>,
    /// Plotted metric.
    pub metric: Metric,
    /// Faults injected into every cell (`--faults`; empty by default, in
    /// which case runs are identical to the fault-free harness).
    pub faults: FaultPlan,
}

impl FigureSpec {
    /// Run every cell (size × scheduler) with the default worker count
    /// (`MEMSCHED_JOBS`, else the machine's parallelism). Results are
    /// sorted by (working set, scheduler). Errs on the first failed cell
    /// (infeasible fault plan, exhausted transfer retries, …).
    pub fn run(&self) -> Result<Vec<Row>, RunError> {
        self.run_with_jobs(pool::resolve_jobs(None))
    }

    /// Run every cell using up to `jobs` worker threads.
    ///
    /// Cells are fanned over the pool in a fixed order and collected back
    /// by index, so the returned rows are identical for any `jobs` value
    /// (modulo the wall-clock fields — see [`Row::canonical`]). Each sweep
    /// point's `TaskSet` is generated exactly once, on whichever worker
    /// gets there first, and shared across that point's schedulers via
    /// `Arc` instead of being regenerated per cell.
    pub fn run_with_jobs(&self, jobs: usize) -> Result<Vec<Row>, RunError> {
        // Materialize cells as (point index, scheduler): the point index
        // keys the shared TaskSet cache.
        let cells: Vec<(usize, NamedScheduler)> = self
            .points
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| p.schedulers.iter().map(move |s| (pi, s.clone())))
            .collect();

        // One lazily-filled slot per sweep point. `OnceLock::get_or_init`
        // guarantees the generator runs exactly once even when several
        // workers reach the same point concurrently.
        let cache: Vec<OnceLock<Arc<TaskSet>>> =
            self.points.iter().map(|_| OnceLock::new()).collect();

        let mut rows = pool::run_indexed(&cells, jobs, |_, (pi, named)| {
            let point = &self.points[*pi];
            let ts = cache[*pi]
                .get_or_init(|| Arc::new(point.workload.generate()))
                .clone();
            self.run_cell_on(&ts, &point.workload, named)
        })
        .into_iter()
        .collect::<Result<Vec<Row>, RunError>>()?;

        rows.sort_by(|a, b| {
            a.ws_mb
                .total_cmp(&b.ws_mb)
                .then_with(|| a.scheduler.cmp(&b.scheduler))
        });
        Ok(rows)
    }

    /// Run a single cell against an already-generated task set.
    pub fn run_cell_on(
        &self,
        ts: &TaskSet,
        workload: &Workload,
        named: &NamedScheduler,
    ) -> Result<Row, RunError> {
        let ws_mb = ts.working_set_bytes() as f64 / 1e6;
        let mut sched = named.build();
        let report = if self.faults.is_empty() {
            run(ts, &self.spec, sched.as_mut())?
        } else {
            let config = RunConfig {
                faults: self.faults.clone(),
                ..RunConfig::default()
            };
            run_with_config(ts, &self.spec, sched.as_mut(), &config)?.0
        };
        Ok(Row::from_report(
            self.id,
            workload,
            ws_mb,
            self.spec.num_gpus,
            &report,
        ))
    }

    /// Run a single cell, generating the task set from scratch.
    pub fn run_cell(&self, workload: &Workload, named: &NamedScheduler) -> Result<Row, RunError> {
        self.run_cell_on(&workload.generate(), workload, named)
    }

    /// The roofline of the figure: the aggregate platform throughput.
    pub fn roofline_gflops(&self) -> f64 {
        self.spec.total_gflops()
    }

    /// Render rows as CSV (header + one line per row).
    pub fn to_csv(&self, rows: &[Row]) -> String {
        let mut out = String::from(
            "figure,workload,ws_mb,gpus,scheduler,gflops,gflops_with_sched,\
             transfers_mb,loads,evictions,makespan_ms,prepare_ms,sched_ms,max_load,\
             retries,redispatched,busy_ms,stall_ms,idle_ms\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{},{},{:.1},{},{},{:.1},{:.1},{:.1},{},{},{:.3},{:.3},{:.3},{},{},{},\
                 {:.3},{:.3},{:.3}\n",
                r.figure,
                r.workload.replace(',', ";"),
                r.ws_mb,
                r.gpus,
                r.scheduler,
                r.gflops,
                r.gflops_with_sched,
                r.transfers_mb,
                r.loads,
                r.evictions,
                r.makespan_ms,
                r.prepare_ms,
                r.sched_ms,
                r.max_load,
                r.retries,
                r.redispatched,
                r.busy_ms,
                r.stall_ms,
                r.idle_ms
            ));
        }
        out
    }

    /// Render a compact human-readable table of the figure's metric:
    /// one line per working-set size, one column per scheduler.
    pub fn to_table(&self, rows: &[Row]) -> String {
        let mut schedulers: Vec<&str> = rows.iter().map(|r| r.scheduler.as_str()).collect();
        schedulers.sort_unstable();
        schedulers.dedup();
        let mut sizes: Vec<f64> = rows.iter().map(|r| r.ws_mb).collect();
        sizes.sort_by(f64::total_cmp);
        sizes.dedup();

        let metric_of = |r: &Row| match self.metric {
            Metric::Gflops => r.gflops_with_sched,
            Metric::TransfersMb => r.transfers_mb,
        };

        let mut out = format!(
            "# {} — {}\n# metric: {}\n",
            self.id,
            self.title,
            match self.metric {
                Metric::Gflops => "GFlop/s (scheduling time included)",
                Metric::TransfersMb => "data transfers (MB)",
            }
        );
        out.push_str(&format!("{:>10}", "WS(MB)"));
        for s in &schedulers {
            out.push_str(&format!(" {s:>24}"));
        }
        out.push('\n');
        for &ws in &sizes {
            out.push_str(&format!("{ws:>10.0}"));
            for s in &schedulers {
                let cell = rows
                    .iter()
                    .find(|r| r.ws_mb == ws && r.scheduler == *s)
                    .map(|r| format!("{:.0}", metric_of(r)))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(" {cell:>24}"));
            }
            out.push('\n');
        }
        if self.metric == Metric::Gflops {
            out.push_str(&format!(
                "# roofline: {:.0} GFlop/s\n",
                self.roofline_gflops()
            ));
        }
        out
    }

    /// Run the figure and print the table, the paper-shape check verdicts
    /// and the CSV to stdout; also write JSON when `json_path` is given.
    /// Uses the default worker count (see [`pool::resolve_jobs`]). Errs
    /// (instead of panicking) when any cell fails or the JSON cannot be
    /// written, so the fig binaries can exit with a readable message.
    pub fn run_and_print(&self, json_path: Option<&str>) -> Result<(), String> {
        self.run_and_print_with_jobs(json_path, pool::resolve_jobs(None))
    }

    /// [`FigureSpec::run_and_print`] with an explicit worker count.
    pub fn run_and_print_with_jobs(
        &self,
        json_path: Option<&str>,
        jobs: usize,
    ) -> Result<(), String> {
        let rows = self.run_with_jobs(jobs).map_err(|e| e.to_string())?;
        print!("{}", self.to_table(&rows));
        if self.metric == Metric::Gflops {
            let checks = crate::checks::shape_checks(self.id, &rows, self.roofline_gflops());
            print!("{}", crate::checks::render(&checks));
        }
        println!();
        print!("{}", self.to_csv(&rows));
        if let Some(path) = json_path {
            std::fs::write(path, rows_json(&rows)).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_figure() -> FigureSpec {
        let item = memsched_workloads::constants::GEMM2D_DATA_BYTES;
        FigureSpec {
            id: "test",
            title: "tiny",
            spec: PlatformSpec::v100(2).with_memory(6 * item),
            points: vec![
                SweepPoint {
                    workload: Workload::Gemm2d { n: 4 },
                    schedulers: vec![NamedScheduler::Eager, NamedScheduler::DartsLuf],
                },
                SweepPoint {
                    workload: Workload::Gemm2d { n: 6 },
                    schedulers: vec![NamedScheduler::Eager],
                },
            ],
            metric: Metric::Gflops,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn run_produces_one_row_per_cell() {
        let fig = tiny_figure();
        let rows = fig.run().expect("fault-free run");
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].ws_mb <= w[1].ws_mb));
        for r in &rows {
            assert!(r.gflops > 0.0);
            assert!(r.gflops_with_sched <= r.gflops + 1e-9);
            assert!(r.loads >= 8, "at least compulsory loads");
        }
    }

    #[test]
    fn csv_and_table_are_well_formed() {
        let fig = tiny_figure();
        let rows = fig.run().expect("fault-free run");
        let csv = fig.to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("figure,workload"));
        let table = fig.to_table(&rows);
        assert!(table.contains("DARTS+LUF"));
        assert!(table.contains("EAGER"));
        assert!(table.contains("roofline"));
    }

    #[test]
    fn run_with_jobs_matches_serial_run() {
        let fig = tiny_figure();
        let serial = canonical_json(&fig.run_with_jobs(1).unwrap());
        for jobs in [2, 4] {
            assert_eq!(canonical_json(&fig.run_with_jobs(jobs).unwrap()), serial);
        }
    }

    #[test]
    fn canonical_zeroes_only_wall_clock_fields() {
        let fig = tiny_figure();
        let rows = fig.run_with_jobs(2).unwrap();
        for r in &rows {
            let c = r.canonical();
            assert_eq!(c.gflops_with_sched, 0.0);
            assert_eq!(c.prepare_ms, 0.0);
            assert_eq!(c.sched_ms, 0.0);
            assert_eq!(c.gflops, r.gflops);
            assert_eq!(c.loads, r.loads);
            assert_eq!(c.makespan_ms, r.makespan_ms);
        }
    }

    #[test]
    fn canonical_json_bytes_are_pinned() {
        let row = Row {
            figure: "fig03".into(),
            workload: "gemm \"2d\"\t\\".into(),
            ws_mb: 14.0,
            gpus: 2,
            scheduler: "DARTS+LUF".into(),
            gflops: 1234.5,
            gflops_with_sched: 1200.25,
            transfers_mb: 0.1,
            loads: 16,
            evictions: 0,
            makespan_ms: 2.5,
            prepare_ms: 0.75,
            sched_ms: 0.125,
            max_load: 8,
            retries: 1,
            redispatched: 0,
            busy_ms: 2.0,
            stall_ms: 0.25,
            idle_ms: 0.25,
        };
        let other = Row {
            figure: "fig04".into(),
            ws_mb: 1e-7,
            transfers_mb: 1e21,
            loads: u64::MAX,
            ..row.clone()
        };
        let expected = r#"[
  {
    "figure": "fig03",
    "workload": "gemm \"2d\"\t\\",
    "ws_mb": 14.0,
    "gpus": 2,
    "scheduler": "DARTS+LUF",
    "gflops": 1234.5,
    "gflops_with_sched": 0.0,
    "transfers_mb": 0.1,
    "loads": 16,
    "evictions": 0,
    "makespan_ms": 2.5,
    "prepare_ms": 0.0,
    "sched_ms": 0.0,
    "max_load": 8,
    "retries": 1,
    "redispatched": 0,
    "busy_ms": 2.0,
    "stall_ms": 0.25,
    "idle_ms": 0.25
  },
  {
    "figure": "fig04",
    "workload": "gemm \"2d\"\t\\",
    "ws_mb": 1e-7,
    "gpus": 2,
    "scheduler": "DARTS+LUF",
    "gflops": 1234.5,
    "gflops_with_sched": 0.0,
    "transfers_mb": 1e21,
    "loads": 18446744073709551615,
    "evictions": 0,
    "makespan_ms": 2.5,
    "prepare_ms": 0.0,
    "sched_ms": 0.0,
    "max_load": 8,
    "retries": 1,
    "redispatched": 0,
    "busy_ms": 2.0,
    "stall_ms": 0.25,
    "idle_ms": 0.25
  }
]"#;
        assert_eq!(canonical_json(&[row, other]), expected);
    }

    #[test]
    fn breakdown_columns_sum_to_makespan() {
        let fig = tiny_figure();
        for r in fig.run().unwrap() {
            assert!(r.busy_ms > 0.0, "{}: no busy time", r.scheduler);
            // The per-GPU split is exact in ns; the ms means may lose at
            // most a rounding ulp each.
            let sum = r.busy_ms + r.stall_ms + r.idle_ms;
            assert!(
                (sum - r.makespan_ms).abs() < 1e-6,
                "{}: busy+stall+idle {sum} != makespan {}",
                r.scheduler,
                r.makespan_ms
            );
        }
    }

    #[test]
    fn roofline_scales_with_gpu_count() {
        let fig = tiny_figure();
        assert_eq!(fig.roofline_gflops(), 2.0 * 13_253.0);
    }

    #[cfg(unix)]
    #[test]
    fn unwritable_json_path_is_an_error_not_a_panic() {
        // A symlink into a missing directory passes the parse-time path
        // check (its parent exists and it is no directory), but the write
        // fails.
        let dir = std::env::temp_dir().join("memsched_json_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let link = dir.join("rows.json");
        std::fs::remove_file(&link).ok();
        std::os::unix::fs::symlink(dir.join("missing").join("rows.json"), &link).unwrap();
        let path = link.to_str().unwrap();
        crate::obs::validate_out_path("--json", path).expect("passes the parse-time check");
        let err = tiny_figure()
            .run_and_print_with_jobs(Some(path), 1)
            .unwrap_err();
        assert!(err.starts_with(&format!("write {path}: ")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
