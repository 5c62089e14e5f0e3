//! Execution reports produced by the simulator.

use crate::spec::Nanos;

/// Per-GPU execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GpuRunStats {
    /// Tasks executed on this GPU (`nb_k`).
    pub tasks: usize,
    /// Host→GPU load operations.
    pub loads: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Nanoseconds spent executing tasks.
    pub busy: Nanos,
    /// Nanoseconds starved by data movement: not executing, alive, and at
    /// least one transfer destined for this GPU in flight (queued on the
    /// bus or on the wire). Disjoint from `busy`;
    /// `busy + stall + idle == makespan` exactly.
    pub stall: Nanos,
    /// Remaining nanoseconds: no runnable work, or dead after a fault.
    pub idle: Nanos,
    /// Host nanoseconds spent inside scheduler callbacks charged to this
    /// GPU's worker (pops, victim choices and notifications), timed with
    /// the engine's scheduling clock (the CPU time-stamp counter on
    /// x86-64, `Instant` elsewhere).
    pub sched_wall: Nanos,
    /// Loads served from a peer GPU over the NVLink fabric (0 on the
    /// paper's PCI-only platform).
    pub nvlink_loads: u64,
    /// Bytes received over NVLink.
    pub nvlink_bytes: u64,
    /// Input bytes already resident (or in flight) here when a task was
    /// committed to this GPU's pipeline, summed over placements.
    pub cache_hit_bytes: u64,
    /// Input bytes still missing at placement time (the recomputation /
    /// re-fetch cost the placement incurred).
    pub cache_miss_bytes: u64,
}

/// Result of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Simulated makespan in nanoseconds (excluding scheduling cost).
    pub makespan: Nanos,
    /// Total floating-point operations executed.
    pub total_flops: f64,
    /// Total bytes transferred host→GPUs.
    pub total_load_bytes: u64,
    /// Total number of host→GPU load operations (Obj. 2).
    pub total_loads: u64,
    /// Total evictions.
    pub total_evictions: u64,
    /// Per-GPU breakdown.
    pub per_gpu: Vec<GpuRunStats>,
    /// Wall-clock nanoseconds of the static phase
    /// (partitioning / packing / DMDA allocation loop).
    pub prepare_wall: Nanos,
    /// Host nanoseconds of all dynamic scheduler callbacks: the sum of
    /// the per-GPU `sched_wall` values.
    pub sched_wall: Nanos,
    /// Transfer retries caused by injected transient faults (0 without
    /// fault injection).
    pub transfer_retries: u64,
    /// GPUs lost to injected fail-stop faults during the run.
    pub gpu_failures: u64,
    /// Tasks returned to the scheduler by fail-stop faults and executed
    /// elsewhere.
    pub tasks_redispatched: u64,
    /// Serving statistics of an online run (`None` for batch runs).
    pub online: Option<OnlineStats>,
    /// Rolling FNV-1a checksum of the trace-event stream when the run
    /// recorded with [`crate::TraceMode::Checksum`]; `None` under `Full`
    /// and `Off`.
    pub trace_checksum: Option<u64>,
    /// Nanoseconds each PCI bus spent moving data, indexed by bus id
    /// (one entry on single-bus platforms).
    pub bus_busy_ns: Vec<u64>,
}

/// Serving statistics of one online (admission-loop) run.
///
/// *Latency* is completion minus arrival of a task; *queueing delay* is
/// compute start minus arrival (latency minus service). Quantiles are
/// nearest-rank over the whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineStats {
    /// Tasks admitted (released to the scheduler).
    pub tasks_admitted: u64,
    /// Arrivals deferred at least once by the admission check.
    pub tasks_deferred: u64,
    /// Median task latency in nanoseconds.
    pub p50_latency: Nanos,
    /// 99th-percentile task latency in nanoseconds.
    pub p99_latency: Nanos,
    /// Mean task latency in nanoseconds.
    pub mean_latency: Nanos,
    /// Median queueing delay in nanoseconds.
    pub p50_queueing: Nanos,
    /// 99th-percentile queueing delay in nanoseconds.
    pub p99_queueing: Nanos,
    /// Sustained throughput in completed tasks per second of simulated
    /// time.
    pub throughput_tps: f64,
    /// Arrivals rejected by the overload-control policy (never released
    /// to a scheduler). 0 under [`crate::ShedPolicy::DeferOnly`].
    pub tasks_shed: u64,
    /// Deferred tasks dropped after sitting in the admission queue past
    /// their deadline. Disjoint from `tasks_shed`.
    pub deadline_expired: u64,
    /// Tasks shed or expired, by tenant class (index = class). Empty
    /// when nothing was dropped.
    pub shed_per_class: Vec<u64>,
    /// Tasks completed, by tenant class (index = class). Empty on
    /// class-less runs that dropped nothing.
    pub completed_per_class: Vec<u64>,
    /// Completed tasks that finished after their deadline (tasks without
    /// a deadline never violate).
    pub deadline_violations: u64,
    /// Completed-within-deadline tasks per second of simulated time:
    /// the useful share of `throughput_tps` (equal when nothing carried
    /// a deadline or nothing violated).
    pub goodput_tps: f64,
}

impl RunReport {
    /// Throughput in GFlop/s, ignoring scheduling cost (the paper's
    /// "no sched. time" curves).
    pub fn gflops(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.total_flops / (self.makespan as f64 / 1e9) / 1e9
    }

    /// Estimated makespan including scheduling cost: the static phase runs
    /// before any task, and each worker is delayed by the wall time its
    /// own scheduling decisions took (we charge the maximum over workers,
    /// matching the paper's observation that scheduling time sits on the
    /// critical path).
    pub fn makespan_with_sched(&self) -> Nanos {
        let max_worker_sched = self.per_gpu.iter().map(|g| g.sched_wall).max().unwrap_or(0);
        self.makespan + self.prepare_wall + max_worker_sched
    }

    /// Throughput in GFlop/s including scheduling cost (the paper's
    /// default reporting: "the cost of computing the schedule is
    /// considered unless specified otherwise").
    pub fn gflops_with_sched(&self) -> f64 {
        let ms = self.makespan_with_sched();
        if ms == 0 {
            return 0.0;
        }
        self.total_flops / (ms as f64 / 1e9) / 1e9
    }

    /// Total data transferred in megabytes (the y axis of Figures 4 and
    /// 7). Includes NVLink traffic when the fabric is enabled; use
    /// [`RunReport::pci_transfers_mb`] for host-bus traffic only.
    pub fn transfers_mb(&self) -> f64 {
        self.total_load_bytes as f64 / 1e6
    }

    /// Bytes received over NVLink, in megabytes.
    pub fn nvlink_mb(&self) -> f64 {
        self.per_gpu.iter().map(|g| g.nvlink_bytes).sum::<u64>() as f64 / 1e6
    }

    /// Host→GPU traffic over the shared PCI bus, in megabytes.
    pub fn pci_transfers_mb(&self) -> f64 {
        self.transfers_mb() - self.nvlink_mb()
    }

    /// Fraction of placed input bytes already resident on the chosen
    /// GPU (`hit / (hit + miss)` over all placements; 1.0 for an empty
    /// run so a cache-free workload reads as "nothing missed").
    pub fn cache_hit_rate(&self) -> f64 {
        let hit: u64 = self.per_gpu.iter().map(|g| g.cache_hit_bytes).sum();
        let miss: u64 = self.per_gpu.iter().map(|g| g.cache_miss_bytes).sum();
        if hit + miss == 0 {
            return 1.0;
        }
        hit as f64 / (hit + miss) as f64
    }

    /// `max_k nb_k` — Objective 1.
    pub fn max_load(&self) -> usize {
        self.per_gpu.iter().map(|g| g.tasks).max().unwrap_or(0)
    }

    /// Degraded-mode slowdown versus a fault-free `baseline` run of the
    /// same workload: `makespan / baseline.makespan`. 1.0 means the
    /// faults cost nothing; 2.0 means the run took twice as long.
    pub fn degradation_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.makespan == 0 {
            return 1.0;
        }
        self.makespan as f64 / baseline.makespan as f64
    }
}

/// A timestamped record of what the engine did: the projection
/// ([`TraceEvent::from_obs`]) of its event stream, recorded through
/// [`crate::RunConfig::trace`] and pinned by the golden traces and
/// checksums.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A transfer of `data` to `gpu` was placed on the bus.
    LoadIssued {
        /// Simulation time.
        at: Nanos,
        /// Destination GPU index.
        gpu: usize,
        /// Data index.
        data: usize,
        /// Completion time granted by the bus.
        done_at: Nanos,
    },
    /// `data` became resident on `gpu`.
    LoadDone {
        /// Simulation time.
        at: Nanos,
        /// Destination GPU index.
        gpu: usize,
        /// Data index.
        data: usize,
    },
    /// `data` was evicted from `gpu`.
    Evicted {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
        /// Data index.
        data: usize,
    },
    /// `task` started executing on `gpu`.
    TaskStarted {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
        /// Task index.
        task: usize,
    },
    /// `task` finished on `gpu`.
    TaskFinished {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
        /// Task index.
        task: usize,
    },
    /// `gpu` suffered an injected fail-stop fault; its pipelined tasks
    /// were returned to the scheduler.
    GpuFailed {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
    },
    /// A transfer of `data` to `gpu` failed transiently; delivery attempt
    /// `attempt` was queued on the PCI bus after backoff.
    TransferRetry {
        /// Simulation time.
        at: Nanos,
        /// Destination GPU index.
        gpu: usize,
        /// Data index.
        data: usize,
        /// Attempt number about to run (2 = first retry).
        attempt: u32,
    },
    /// `gpu`'s memory capacity changed to `capacity` bytes (injected
    /// shrink; emitted per actual change, so a shrink blocked by pinned
    /// data appears again as it tightens).
    CapacityShrunk {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
        /// New capacity in bytes.
        capacity: u64,
    },
    /// `gpu`'s effective speed changed by an injected straggler fault.
    GpuSlowed {
        /// Simulation time.
        at: Nanos,
        /// GPU index.
        gpu: usize,
        /// Speed multiplier now in effect (< 1 is slower).
        factor: f64,
    },
    /// `task` arrived at the admission loop (online runs only).
    TaskArrived {
        /// Simulation time.
        at: Nanos,
        /// Task index.
        task: usize,
    },
    /// `task` was admitted — released to the scheduler (online runs
    /// only).
    TaskAdmitted {
        /// Simulation time.
        at: Nanos,
        /// Task index.
        task: usize,
    },
    /// `task` was deferred by the admission check; emitted once per
    /// arrival, at the first defer decision (online runs only).
    TaskDeferred {
        /// Simulation time.
        at: Nanos,
        /// Task index.
        task: usize,
    },
    /// `task` was rejected by the overload-control policy — it is never
    /// released to a scheduler and never executes (online runs under a
    /// shedding [`crate::ShedPolicy`] only).
    TaskShed {
        /// Simulation time.
        at: Nanos,
        /// Task index.
        task: usize,
    },
    /// A deferred `task` sat in the admission queue past its completion
    /// deadline and was dropped (online runs under a shedding
    /// [`crate::ShedPolicy`] only).
    DeadlineExpired {
        /// Simulation time.
        at: Nanos,
        /// Task index.
        task: usize,
    },
}
