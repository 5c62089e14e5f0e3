//! # memsched-platform
//!
//! A deterministic discrete-event simulator of a StarPU-like multi-GPU
//! node: the substrate on which the paper's schedulers are evaluated.
//!
//! The simulated machine follows Figure 2 of the paper: host memory
//! holding all input data, `K` GPUs with bounded memory, and one shared
//! PCI bus. Workers pull tasks from a pluggable [`Scheduler`], prefetch
//! their inputs over the bus, evict under memory pressure (LRU by default,
//! scheduler-overridable — how DARTS installs LUF), and execute tasks
//! under a calibrated cost model.
//!
//! ```
//! use memsched_platform::{run, PlatformSpec, RuntimeView, Scheduler};
//! use memsched_model::{GpuId, TaskId, TaskSetBuilder};
//!
//! // A trivial FIFO policy.
//! struct Fifo(u32, u32);
//! impl Scheduler for Fifo {
//!     fn name(&self) -> String { "fifo".into() }
//!     fn pop_task(&mut self, _: GpuId, _: &RuntimeView<'_>) -> Option<TaskId> {
//!         (self.0 < self.1).then(|| { self.0 += 1; TaskId(self.0 - 1) })
//!     }
//! }
//!
//! let mut b = TaskSetBuilder::new();
//! let d = b.add_data(1_000_000);
//! b.add_task(&[d], 1.0e9);
//! let ts = b.build();
//! let report = run(&ts, &PlatformSpec::v100(1), &mut Fifo(0, 1)).unwrap();
//! assert_eq!(report.per_gpu[0].tasks, 1);
//! ```

#![warn(missing_docs)]

mod clock;
mod engine;
mod equeue;
mod fault;
mod memory;
mod pipeline;
mod report;
mod scheduler;
mod spec;
mod trace;
mod validate;

pub use engine::{
    run, run_observed, run_with_config, AdmissionConfig, RunConfig, RunError, ShedPolicy,
};
pub use fault::{CapacityShrink, FaultPlan, GpuFailure, Straggler, TransferFaultSpec};
pub use memory::{GpuMemory, Residency};
/// The observability subsystem (re-exported so downstream crates can
/// build probes and exporters without naming `memsched-obs` directly).
pub use memsched_obs as obs;
pub use memsched_obs::{ObsEvent, Probe};
pub use report::{GpuRunStats, OnlineStats, RunReport, TraceEvent};
pub use scheduler::{Hooks, MissingCache, RuntimeView, Scheduler};
pub use spec::{
    Nanos, PlatformSpec, NVLINK_BANDWIDTH, PAPER_MEMORY_BYTES, PCIE_BANDWIDTH,
    UNLIMITED_MEMORY_BYTES, V100_GFLOPS,
};
pub use trace::{trace_checksum, TraceMode};
pub use validate::{validate, Violation};

// Compile-time audit for the parallel sweep harness: the types a harness
// worker thread holds across a run must be shareable/movable across
// threads. The engine itself remains single-threaded — one `run` call is
// driven entirely by its calling thread — but independent runs execute
// concurrently on different workers.
#[allow(dead_code)]
fn _assert_parallel_harness_bounds() {
    fn is_send_sync<T: Send + Sync>() {}
    fn is_send<T: Send>() {}
    is_send_sync::<PlatformSpec>();
    is_send_sync::<RunConfig>();
    is_send::<RunReport>();
    is_send::<TraceEvent>();
}
