//! # memsched
//!
//! A Rust reproduction of *“Memory-Aware Scheduling of Tasks Sharing Data
//! on Multiple GPUs with Dynamic Runtime Systems”* (Gonthier, Marchal,
//! Thibault — IPDPS 2022): the DARTS data-aware scheduler with its LUF
//! eviction policy, the DMDA(R), hMETIS+R and (m)HFP comparison
//! strategies, a StarPU-like multi-GPU discrete-event runtime to execute
//! them on, a from-scratch multilevel hypergraph partitioner, and the
//! paper's complete evaluation workloads and figure harness.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! * [`model`] — the bipartite task/data model, schedules, offline replay;
//! * [`platform`] — the discrete-event multi-GPU runtime simulator;
//! * [`obs`] — structured tracing, Chrome trace export, metrics registry;
//! * [`schedulers`] — EAGER, DMDA(R), hMETIS+R, mHFP, DARTS(+LUF), and
//!   the residency-aware prefix Router;
//! * [`hypergraph`] — the multilevel K-way partitioner;
//! * [`workloads`] — 2D/3D gemm, Cholesky, sparse and prefix-tree
//!   generators, plus seeded arrival traffic;
//! * [`experiments`] — the per-figure evaluation harness.
//!
//! ## Quickstart
//!
//! ```
//! use memsched::prelude::*;
//!
//! // The paper's platform: 2 V100s, 500 MB each, shared PCIe bus.
//! let spec = PlatformSpec::v100(2);
//! // A 10×10 blocked matrix multiplication.
//! let ts = memsched::workloads::gemm_2d(10);
//! // DARTS with the LUF eviction policy (the paper's contribution).
//! let mut sched = DartsScheduler::new(DartsConfig::luf());
//! let report = run(&ts, &spec, &mut sched).unwrap();
//! assert_eq!(report.per_gpu.iter().map(|g| g.tasks).sum::<usize>(), 100);
//! println!("{:.0} GFlop/s, {:.0} MB transferred",
//!          report.gflops(), report.transfers_mb());
//! ```

#![warn(missing_docs)]

pub use memsched_experiments as experiments;
pub use memsched_hypergraph as hypergraph;
pub use memsched_model as model;
pub use memsched_obs as obs;
pub use memsched_platform as platform;
pub use memsched_schedulers as schedulers;
pub use memsched_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use memsched_model::{
        bounds, replay, DataId, EvictionPolicy, GpuId, Schedule, TaskId, TaskSet, TaskSetBuilder,
    };
    pub use memsched_obs::{ObsEvent, Probe};
    pub use memsched_platform::{
        run, run_observed, run_with_config, trace_checksum, AdmissionConfig, FaultPlan, Hooks,
        OnlineStats, PlatformSpec, RunConfig, RunError, RunReport, RuntimeView, Scheduler,
        ShedPolicy, TraceMode, TransferFaultSpec,
    };
    pub use memsched_schedulers::{
        DartsConfig, DartsEviction, DartsScheduler, DmdaScheduler, EagerScheduler, HfpScheduler,
        HmetisRScheduler, NamedScheduler,
    };
    pub use memsched_workloads::Workload;
}
