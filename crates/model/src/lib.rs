//! # memsched-model
//!
//! The formal model of *“Memory-Aware Scheduling of Tasks Sharing Data on
//! Multiple GPUs with Dynamic Runtime Systems”* (Gonthier, Marchal,
//! Thibault — IPDPS 2022), §III:
//!
//! * [`TaskSet`] — the bipartite graph `G = (T ∪ D, E)` between independent
//!   tasks and their shared, read-only input data;
//! * [`Schedule`] — a partition-and-order `σ` of the tasks over `K` GPUs;
//! * [`replay`] — offline execution of a schedule against a bounded GPU
//!   memory, counting `#Loads_k` (Obj. 2) under LRU or Belady eviction;
//! * [`bounds`] — schedule-independent lower bounds and the roofline /
//!   PCI-limit reference lines of the paper's figures.
//!
//! This crate is purely combinatorial: time only enters through the
//! simulator crate (`memsched-platform`), which shares these types.

#![warn(missing_docs)]

pub mod bounds;
mod ids;
mod replay;
mod schedule;
mod taskset;

pub use ids::{DataId, GpuId, TaskId};
pub use replay::{compulsory_loads, replay, EvictionPolicy, GpuReplay, ReplayError, ReplayReport};
pub use schedule::{Schedule, ScheduleError};
pub use taskset::{figure1_example, TaskSet, TaskSetBuilder};

// Compile-time audit for the parallel sweep harness: a generated
// `TaskSet` is shared read-only across worker threads via `Arc`, so it
// must be `Send + Sync` (it is plain owned data — CSR index vectors).
#[allow(dead_code)]
fn _assert_taskset_shareable() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<TaskSet>();
    is_send_sync::<std::sync::Arc<TaskSet>>();
}
