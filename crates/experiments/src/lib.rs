//! # memsched-experiments
//!
//! The harness that regenerates **every figure of the paper's evaluation**
//! (Figures 3–13). Each figure has a binary (`fig03` … `fig13`) printing a
//! human table plus CSV; `all_figures` runs the full set.
//!
//! ```no_run
//! use memsched_experiments::figures;
//! figures::fig03().run_and_print(None);
//! ```
//!
//! See `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison produced with this harness.

#![warn(missing_docs)]

pub mod chaos;
pub mod checks;
pub mod cli;
pub mod figures;
pub mod harness;
pub mod obs;
pub mod pool;
pub mod prefix_route;

pub use checks::{shape_checks, CheckResult};
pub use figures::all_figures;
pub use harness::{canonical_json, FigureSpec, Metric, Row, SweepPoint};
pub use obs::{export_figure, ObsOut};
pub use pool::resolve_jobs;
