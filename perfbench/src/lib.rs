//! The repository benchmark's library: workloads, the [`Timed`]
//! scheduler wrapper, output checks, host counters and the rep runner.
//! `src/bin/perf.rs` is the benchmark program; `PERF.md` documents the
//! metrics.

pub mod check;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod timed;
pub mod workloads;

use check::{check_report, Failure};
use host::{heap_use, HeapUse};
use layers::Digest;
use memsched_platform::{
    obs, run_observed, run_with_config, Probe, RunConfig, RunReport, TraceMode,
};
use std::time::Instant;
use timed::{Span, Timed};
use workloads::{Cell, Workload};

/// How a rep records what the simulator does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `TraceMode::Off`, bare scheduler: what users run.
    Off,
    /// `TraceMode::Full`: the event log is kept.
    Full,
    /// `TraceMode::Checksum`: the event stream is folded into a hash.
    Checksum,
    /// `TraceMode::Off` with the scheduler behind [`Timed`].
    Timed,
    /// `run_observed` into an unbounded obs `Recorder`.
    Observed,
}

impl Mode {
    /// Every mode, in the order a traced round runs them.
    pub const ALL: [Mode; 5] = [
        Mode::Off,
        Mode::Timed,
        Mode::Full,
        Mode::Checksum,
        Mode::Observed,
    ];

    /// Name used in spans and output.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Full => "full",
            Mode::Checksum => "checksum",
            Mode::Timed => "timed",
            Mode::Observed => "observed",
        }
    }
}

/// One rep: every cell of a workload run once.
pub struct Rep {
    /// Start and end, nanoseconds after the epoch given to [`run_rep`].
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Host wall time of the simulations (scheduler construction and
    /// run calls; the checks are not timed).
    pub wall_ns: u64,
    /// Allocator readings over the rep.
    pub heap: HeapUse,
    /// One report per cell.
    pub reports: Vec<RunReport>,
    /// One event-log digest per cell ([`Mode::Full`] only; empty
    /// otherwise).
    pub digests: Vec<Digest>,
    /// Every scheduler call of every cell ([`Mode::Timed`] only).
    pub spans: Vec<Span>,
    /// `pop_task` calls answered `None` ([`Mode::Timed`]).
    pub pop_none: u64,
    /// `choose_victim` calls answered `None` ([`Mode::Timed`]).
    pub victim_none: u64,
    /// Obs events recorded over all cells ([`Mode::Observed`]).
    pub obs_events: u64,
}

/// Run every cell of `workload` once in `mode`, checking each report.
/// A `RunError` is reported as the failed check `run_error`.
pub fn run_rep(
    workload: Workload,
    cells: &[Cell],
    mode: Mode,
    epoch: Instant,
) -> Result<Rep, Failure> {
    let mut rep = Rep {
        start_ns: epoch.elapsed().as_nanos() as u64,
        end_ns: 0,
        wall_ns: 0,
        heap: HeapUse {
            allocs: 0,
            peak_bytes: 0,
        },
        reports: Vec::with_capacity(cells.len()),
        digests: Vec::new(),
        spans: Vec::new(),
        pop_none: 0,
        victim_none: 0,
        obs_events: 0,
    };
    let (outcome, heap) = heap_use(|| -> Result<(), Failure> {
        for cell in cells {
            let config = RunConfig {
                trace: match mode {
                    Mode::Full => TraceMode::Full,
                    Mode::Checksum => TraceMode::Checksum,
                    Mode::Off | Mode::Timed | Mode::Observed => TraceMode::Off,
                },
                admission: cell.admission.clone(),
                ..RunConfig::default()
            };
            let run_error = |e| Failure {
                check: "run_error",
                detail: format!("{e}"),
            };
            let started = Instant::now();
            let (report, trace) = match mode {
                Mode::Timed => {
                    let mut sched = Timed::new(workload.scheduler(), epoch);
                    let out = run_with_config(&cell.ts, &cell.spec, &mut sched, &config);
                    rep.wall_ns += started.elapsed().as_nanos() as u64;
                    rep.spans.append(&mut sched.spans);
                    rep.pop_none += sched.pop_none;
                    rep.victim_none += sched.victim_none;
                    out.map_err(run_error)?
                }
                Mode::Observed => {
                    let probe = Probe::unbounded();
                    let mut sched = workload.scheduler();
                    let out = run_observed(&cell.ts, &cell.spec, sched.as_mut(), &config, &probe)
                        .map_err(run_error)?;
                    rep.wall_ns += started.elapsed().as_nanos() as u64;
                    let events = probe.events();
                    obs::check_well_formed(&events).map_err(|e| Failure {
                        check: "obs_well_formed",
                        detail: format!("{e:?}"),
                    })?;
                    rep.obs_events += events.len() as u64;
                    out
                }
                Mode::Off | Mode::Full | Mode::Checksum => {
                    let mut sched = workload.scheduler();
                    let out = run_with_config(&cell.ts, &cell.spec, sched.as_mut(), &config);
                    rep.wall_ns += started.elapsed().as_nanos() as u64;
                    out.map_err(run_error)?
                }
            };
            check_report(cell, &report)?;
            rep.reports.push(report);
            if mode == Mode::Full {
                rep.digests.push(layers::digest(&cell.ts, &trace));
            }
        }
        Ok(())
    });
    rep.heap = heap;
    rep.end_ns = epoch.elapsed().as_nanos() as u64;
    outcome.map(|()| rep)
}
