//! Structured tracing and metrics for the memsched simulation
//! (`memsched-obs`).
//!
//! The simulation engine and the scheduler families emit typed
//! [`ObsEvent`]s — spans (transfer begin/end, compute begin/end) and
//! instants (evictions, scheduler decisions, steals, faults, gauges) —
//! into a [`Probe`], a cheaply cloneable handle over an in-memory
//! [`Recorder`]. These are the engine's only events: its own trace log
//! is a [`TraceSink`] that keeps a projection of each one
//! (`memsched_platform::TraceEvent::from_obs`), so attaching a probe
//! adds a consumer and changes no decision — the golden traces stay
//! byte-identical (`tests/obs_wellformed.rs`). A run with neither a
//! probe nor a trace builds no event at all.
//!
//! On top of the raw event stream:
//! - [`chrome::chrome_trace_json`] exports Chrome Trace Event Format
//!   (loadable in `chrome://tracing` and Perfetto), one track per GPU
//!   plus one for the PCI bus, NVLink and each scheduler context;
//! - [`paje::paje_trace`] exports a Paje `.trace` readable by ViTE,
//!   the StarPU-native visualization path;
//! - [`Metrics`] is a registry of what only the stream can tell
//!   (scheduler decisions, steals, gauges, duration and latency
//!   histograms) with periodic timeseries snapshots; counts and per-GPU
//!   time splits are the run report's;
//! - [`breakdown`] folds the span structure into a bus-utilization
//!   timeline, the transfer/compute [`Overlap`] and an ASCII Gantt chart.
//!
//! This crate is deliberately free of simulation dependencies: events
//! carry raw `u32` ids so the crate sits below `memsched-platform` in
//! the dependency graph.

pub mod breakdown;
pub mod chrome;
pub mod event;
pub mod metrics;
pub mod paje;
pub mod sink;
pub mod wellformed;

pub use breakdown::{bus_utilization, bus_utilization_on, overlap, render_gantt, Overlap};
pub use chrome::{chrome_trace, chrome_trace_json};
pub use event::{GaugeKind, Nanos, ObsEvent, Track};
pub use metrics::{Counter, Histogram, Metrics, Snapshot};
pub use paje::paje_trace;
pub use sink::{Probe, Recorder, TraceSink};
pub use wellformed::{
    build_timeline, check_well_formed, Span, SpanKind, Timeline, WellFormedError,
};
