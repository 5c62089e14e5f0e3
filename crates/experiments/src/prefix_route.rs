//! The cache-pressure routing sweep behind the `prefix_route` binary
//! and the routing-margin test in `tests/prefix_workload.rs`: a seeded
//! prefix-tree request stream (the multi-GPU KV/prefix-cache serving
//! scenario) swept over cache pressure — tree bytes / aggregate GPU
//! memory — comparing the residency-aware Router against DMDAR, DARTS
//! and EAGER on p99 latency, bytes transferred, and prefix-cache hit
//! rate.
//!
//! Pressure is the x-axis of the scenario: at 0.5× the whole tree fits
//! in the two GPUs and every policy converges once the tree is warm; at
//! 2–4× placement decides what gets re-fetched, which is where the
//! Router's `recomp_bytes + α·load` score pays.

use memsched_model::TaskSet;
use memsched_platform::{
    run_with_config, AdmissionConfig, PlatformSpec, RunConfig, RunError, RunReport,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::{
    open_loop_arrivals, prefix, ArrivalPattern, PrefixConfig,
};

/// Cache-pressure points of the sweep: tree bytes / aggregate GPU
/// memory. 0.5× (everything fits) through 4× (three quarters of every
/// path must be re-fetched somewhere).
pub const PRESSURES: &[f64] = &[0.5, 1.0, 2.0, 4.0];

/// The four families the scenario compares (the paper's baselines plus
/// the Router).
pub fn schedulers() -> Vec<NamedScheduler> {
    vec![
        NamedScheduler::Router,
        NamedScheduler::Dmdar,
        NamedScheduler::DartsLuf,
        NamedScheduler::Eager,
    ]
}

/// Sweep configuration: one prefix-tree stream shared by every
/// (pressure × scheduler) cell.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Requests in the stream.
    pub tasks: usize,
    /// Poisson arrival rate stamped onto the stream.
    pub rate_per_sec: f64,
    /// Generation + arrival seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The default sweep: 4000 requests over the serving-default tree,
    /// long enough for every policy's steady state to dominate warm-up.
    pub fn full(seed: u64) -> Self {
        SweepConfig {
            tasks: 4000,
            rate_per_sec: 2000.0,
            seed,
        }
    }

    /// CI-friendly sweep: same tree and rate, half the requests. Still
    /// past the warm-up knee — the Router/EAGER transfer gap at 2× is
    /// established by ~2000 requests — so the routing-margin test
    /// asserts the same margins on both.
    pub fn quick(seed: u64) -> Self {
        SweepConfig {
            tasks: 2000,
            rate_per_sec: 2000.0,
            seed,
        }
    }
}

/// The request stream: serving-default prefix tree with Poisson
/// open-loop arrivals. Pure function of the config.
pub fn sweep_taskset(cfg: &SweepConfig) -> TaskSet {
    let ts = prefix::prefix_tree(&PrefixConfig::serving_default(cfg.tasks, cfg.seed));
    let arrivals = open_loop_arrivals(
        &ArrivalPattern::Poisson {
            rate_per_sec: cfg.rate_per_sec,
        },
        cfg.seed,
        ts.num_tasks(),
    );
    ts.with_arrivals(arrivals)
}

/// The two-V100 platform at a given cache pressure: per-GPU memory is
/// `tree_bytes / (2 × pressure)`, floored at twice the largest request
/// footprint so every task always fits.
pub fn sweep_spec(ts: &TaskSet, pressure: f64) -> PlatformSpec {
    assert!(pressure > 0.0, "cache pressure must be positive");
    let tree = prefix::tree_bytes(ts);
    let max_footprint = ts.tasks().map(|t| ts.task_footprint(t)).max().unwrap_or(0);
    let per_gpu = ((tree as f64 / (2.0 * pressure)) as u64).max(2 * max_footprint);
    PlatformSpec::v100(2).with_memory(per_gpu)
}

/// One cell of the sweep, run online (admission loop, defer-only).
pub fn run_cell(
    ts: &TaskSet,
    spec: &PlatformSpec,
    named: &NamedScheduler,
) -> Result<RunReport, RunError> {
    let mut sched = named.build();
    let config = RunConfig {
        admission: Some(AdmissionConfig::default()),
        ..RunConfig::default()
    };
    run_with_config(ts, spec, sched.as_mut(), &config).map(|(report, _)| report)
}

/// One row of the sweep result.
#[derive(Clone, Debug)]
pub struct PressureRow {
    /// Scheduler display name.
    pub scheduler: String,
    /// Cache pressure of the cell (tree bytes / aggregate memory).
    pub pressure: f64,
    /// Requests served.
    pub tasks: usize,
    /// Tree bytes (the pressure numerator).
    pub tree_bytes: u64,
    /// The full report (latency quantiles under `online`).
    pub report: RunReport,
}

impl PressureRow {
    /// CSV header matching [`PressureRow::csv`].
    pub const CSV_HEADER: &'static str = "scheduler,pressure_x,tasks,tree_mb,makespan_ns,\
                                          p50_latency_ns,p99_latency_ns,throughput_tps,\
                                          transferred_mb,cache_hit_rate,evictions";

    /// Render the row as one CSV line.
    pub fn csv(&self) -> String {
        let o = self.report.online.clone().unwrap_or_default();
        format!(
            "{},{},{},{:.1},{},{},{},{:.3},{:.1},{:.4},{}",
            self.scheduler,
            self.pressure,
            self.tasks,
            self.tree_bytes as f64 / 1e6,
            self.report.makespan,
            o.p50_latency,
            o.p99_latency,
            o.throughput_tps,
            self.report.transfers_mb(),
            self.report.cache_hit_rate(),
            self.report.total_evictions,
        )
    }
}

/// Run the full (pressure × scheduler) sweep serially, in deterministic
/// cell order. The task set is generated once and shared.
pub fn run_sweep(cfg: &SweepConfig) -> Result<Vec<PressureRow>, RunError> {
    let ts = sweep_taskset(cfg);
    let tree = prefix::tree_bytes(&ts);
    let mut rows = Vec::new();
    for &pressure in PRESSURES {
        let spec = sweep_spec(&ts, pressure);
        for named in schedulers() {
            let report = run_cell(&ts, &spec, &named)?;
            rows.push(PressureRow {
                scheduler: report.scheduler.clone(),
                pressure,
                tasks: ts.num_tasks(),
                tree_bytes: tree,
                report,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_tracks_pressure() {
        let cfg = SweepConfig {
            tasks: 50,
            rate_per_sec: 1000.0,
            seed: 1,
        };
        let ts = sweep_taskset(&cfg);
        let tree = prefix::tree_bytes(&ts);
        let half = sweep_spec(&ts, 0.5);
        let four = sweep_spec(&ts, 4.0);
        // 0.5× pressure: aggregate memory is 2× the tree, so each of the
        // two GPUs holds the whole tree.
        assert_eq!(half.memory_bytes, tree);
        assert!(four.memory_bytes < half.memory_bytes);
    }

    #[test]
    fn quick_sweep_produces_all_cells() {
        let cfg = SweepConfig {
            tasks: 60,
            rate_per_sec: 3000.0,
            seed: 7,
        };
        let rows = run_sweep(&cfg).expect("sweep runs");
        assert_eq!(rows.len(), PRESSURES.len() * schedulers().len());
        for row in &rows {
            let o = row.report.online.as_ref().expect("online run");
            assert_eq!(o.tasks_admitted, 60, "{} lost tasks", row.scheduler);
            assert!(!row.csv().is_empty());
        }
    }
}
