//! The typed event taxonomy recorded by the engine and the schedulers.
//!
//! Events are either **spans** (a matched begin/end pair on one track)
//! or **instants** (a single point in simulated time). Every event
//! carries its simulated timestamp in nanoseconds; `Decision` events
//! additionally carry host wall time, the one place the two clocks meet.

/// Simulated-time nanoseconds (mirrors `memsched_platform::Nanos`;
/// this crate sits below the platform in the dependency graph, so the
/// alias is repeated here rather than imported).
pub type Nanos = u64;

/// The timeline a given event belongs to. The Chrome exporter renders
/// one visual track per variant: compute and memory activity per GPU,
/// transfers on the shared PCI bus (or NVLink), scheduler decisions per
/// GPU context, and a global track for platform-wide gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Compute, evictions and fault instants of one GPU.
    Gpu(u32),
    /// The shared FIFO PCI bus (host-to-device transfers). On multi-bus
    /// platforms this is bus 0; higher buses get [`Track::BusN`] tracks.
    Bus,
    /// PCI bus `n ≥ 1` of a multi-bus platform (`PlatformSpec::bus_groups`).
    /// Bus 0 stays [`Track::Bus`], so single-bus traces are unchanged.
    BusN(u32),
    /// The peer-to-peer NVLink interconnect.
    NvLink,
    /// Scheduler activity (decisions, steals, queue gauges) for one GPU.
    Sched(u32),
    /// Platform-wide gauges with no per-GPU owner (e.g. `nbFreeTasks`).
    Global,
    /// The online admission loop: arrival, admit and defer instants
    /// (empty in batch runs).
    Admission,
}

impl Track {
    /// Human-readable track name shown by the exporter.
    pub fn label(&self) -> String {
        match self {
            Track::Gpu(g) => format!("GPU {g}"),
            Track::Bus => "PCI bus".to_string(),
            Track::BusN(n) => format!("PCI bus {n}"),
            Track::NvLink => "NVLink".to_string(),
            Track::Sched(g) => format!("sched GPU {g}"),
            Track::Global => "scheduler (global)".to_string(),
            Track::Admission => "admission".to_string(),
        }
    }

    /// Stable Chrome `tid` for the track (also its `thread_sort_index`).
    pub fn tid(&self) -> u64 {
        match self {
            Track::Gpu(g) => u64::from(*g),
            Track::Bus => 1000,
            Track::NvLink => 1001,
            // 1100+n keeps clear of NvLink's 1001 for any realistic n.
            Track::BusN(n) => 1100 + u64::from(*n),
            Track::Sched(g) => 2000 + u64::from(*g),
            Track::Global => 3000,
            Track::Admission => 4000,
        }
    }
}

/// What a [`ObsEvent::Gauge`] sample measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GaugeKind {
    /// Fraction of a GPU's memory capacity currently resident (0..=1).
    Occupancy,
    /// Depth of a scheduler's ready/planned queue (per GPU, or the
    /// shared queue for EAGER).
    ReadyQueueDepth,
    /// DARTS `nbFreeTasks`: tasks not yet planned onto any GPU.
    NbFreeTasks,
}

impl GaugeKind {
    /// Stable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            GaugeKind::Occupancy => "occupancy",
            GaugeKind::ReadyQueueDepth => "ready_queue_depth",
            GaugeKind::NbFreeTasks => "nb_free_tasks",
        }
    }
}

/// One recorded observation. Span events come in begin/end pairs that
/// pair FIFO per track (the bus is FIFO and each GPU computes one task
/// at a time, so first-begun is first-ended); everything else is an
/// instant.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// A transfer was granted the bus (or NVLink) at `t`; it waited
    /// `bus_wait` ns in the FIFO queue before the grant, so it was issued
    /// at `t - bus_wait`, and the link will complete it at `done_at`.
    /// `peer` is the source GPU for NVLink transfers, `None` for host
    /// loads.
    TransferBegin {
        /// Grant time (start of the wire time).
        t: Nanos,
        /// Destination GPU.
        gpu: u32,
        /// Data id being moved.
        data: u32,
        /// Payload size.
        bytes: u64,
        /// Time spent queued behind earlier transfers before the grant.
        bus_wait: Nanos,
        /// PCI bus the destination GPU hangs off (0 on single-bus
        /// platforms; ignored for NVLink transfers).
        bus: u32,
        /// Source GPU for peer-to-peer transfers.
        peer: Option<u32>,
        /// 1-based attempt number (>1 after fault retries).
        attempt: u32,
        /// Completion time the link granted (end of the wire time).
        done_at: Nanos,
    },
    /// The matching end of a [`ObsEvent::TransferBegin`]. `delivered`
    /// is false when the attempt was killed by an injected fault (a
    /// retry will begin a fresh span).
    TransferEnd {
        /// Completion time.
        t: Nanos,
        /// Destination GPU.
        gpu: u32,
        /// Data id.
        data: u32,
        /// Payload size.
        bytes: u64,
        /// PCI bus of the begin (0 on single-bus platforms).
        bus: u32,
        /// Source GPU for peer-to-peer transfers.
        peer: Option<u32>,
        /// Attempt number matching the begin.
        attempt: u32,
        /// False when the attempt faulted and will be retried.
        delivered: bool,
    },
    /// A task started executing on `gpu`.
    ComputeBegin {
        /// Start time.
        t: Nanos,
        /// Executing GPU.
        gpu: u32,
        /// Task id.
        task: u32,
    },
    /// The task finished — or was cut short by a GPU failure
    /// (`interrupted`), in which case it reruns elsewhere.
    ComputeEnd {
        /// End time.
        t: Nanos,
        /// Executing GPU.
        gpu: u32,
        /// Task id.
        task: u32,
        /// True when a fail-stop fault killed the task mid-flight.
        interrupted: bool,
    },
    /// `data` was evicted from `gpu`. `by_scheduler` distinguishes a
    /// scheduler-chosen victim from the engine's LRU fallback.
    Eviction {
        /// Eviction time.
        t: Nanos,
        /// GPU losing the replica.
        gpu: u32,
        /// Evicted data id.
        data: u32,
        /// Size of the evicted replica.
        bytes: u64,
        /// True when `Scheduler::choose_victim` picked it, false for
        /// the LRU fallback.
        by_scheduler: bool,
    },
    /// One `pop_task` call: which task the scheduler handed to `gpu`
    /// (`None` when it had nothing) and how long the decision took in
    /// host wall-clock nanoseconds.
    Decision {
        /// Simulated time of the decision.
        t: Nanos,
        /// GPU asking for work.
        gpu: u32,
        /// Task chosen, if any.
        task: Option<u32>,
        /// Host wall time spent inside `pop_task`.
        wall_ns: u64,
    },
    /// A work-stealing event: `to` stole `tasks` tasks from `from`'s
    /// tail (hMETIS+R / mHFP §IV-B stealing).
    Steal {
        /// Steal time.
        t: Nanos,
        /// Victim GPU.
        from: u32,
        /// Thief GPU.
        to: u32,
        /// Number of tasks moved.
        tasks: u32,
    },
    /// A sampled gauge value; `gpu` is `None` for platform-wide gauges.
    Gauge {
        /// Sample time.
        t: Nanos,
        /// Owning GPU, if the gauge is per-GPU.
        gpu: Option<u32>,
        /// What is being measured.
        kind: GaugeKind,
        /// The sampled value.
        value: f64,
    },
    /// A transfer attempt faulted and was re-queued (PR 4 fault model).
    TransferRetry {
        /// Fault detection time.
        t: Nanos,
        /// Destination GPU.
        gpu: u32,
        /// Data id.
        data: u32,
        /// The attempt about to run (2 = first retry).
        attempt: u32,
    },
    /// Fail-stop GPU failure.
    GpuFailed {
        /// Failure time.
        t: Nanos,
        /// The dead GPU.
        gpu: u32,
    },
    /// Mid-run capacity shrink took effect.
    CapacityShrunk {
        /// Time the shrink was applied.
        t: Nanos,
        /// Affected GPU.
        gpu: u32,
        /// New capacity in bytes.
        capacity: u64,
    },
    /// A straggler fault changed a GPU's speed.
    GpuSlowed {
        /// Time of the slowdown.
        t: Nanos,
        /// Affected GPU.
        gpu: u32,
        /// GFlop/s multiplier now in effect.
        factor: f64,
    },
    /// A task arrived at the online admission loop.
    TaskArrived {
        /// Arrival time.
        t: Nanos,
        /// Task id.
        task: u32,
    },
    /// The admission loop released a task to the scheduler.
    TaskAdmitted {
        /// Admission time.
        t: Nanos,
        /// Task id.
        task: u32,
        /// Time spent deferred before admission (0 when admitted on
        /// arrival).
        wait: Nanos,
    },
    /// The admission loop deferred a task (emitted once per arrival, at
    /// the first defer decision).
    TaskDeferred {
        /// Defer time.
        t: Nanos,
        /// Task id.
        task: u32,
    },
    /// The admission loop shed a task under a shedding policy — it was
    /// rejected outright and no scheduler ever sees it.
    TaskShed {
        /// Shed time.
        t: Nanos,
        /// Task id.
        task: u32,
    },
    /// A deferred task's completion deadline lapsed while it waited and
    /// it was dropped from the queue.
    DeadlineExpired {
        /// Expiry-detection time.
        t: Nanos,
        /// Task id.
        task: u32,
    },
    /// Residency outcome of one placement: when the engine commits
    /// `task` to `gpu`'s pipeline it splits the task's input footprint
    /// into bytes already resident (or in flight) on that GPU
    /// (`hit_bytes`) and bytes that must still be fetched
    /// (`miss_bytes`). Emitted exactly once per task placement, so
    /// `hit + miss` sums to the task's footprint.
    CacheAccess {
        /// Placement time (the pop that committed the task).
        t: Nanos,
        /// GPU the task was placed on.
        gpu: u32,
        /// Task id.
        task: u32,
        /// Input bytes already resident/in flight on `gpu`.
        hit_bytes: u64,
        /// Input bytes still missing from `gpu`.
        miss_bytes: u64,
    },
}

impl ObsEvent {
    /// The simulated timestamp of the event.
    pub fn t(&self) -> Nanos {
        match *self {
            ObsEvent::TransferBegin { t, .. }
            | ObsEvent::TransferEnd { t, .. }
            | ObsEvent::ComputeBegin { t, .. }
            | ObsEvent::ComputeEnd { t, .. }
            | ObsEvent::Eviction { t, .. }
            | ObsEvent::Decision { t, .. }
            | ObsEvent::Steal { t, .. }
            | ObsEvent::Gauge { t, .. }
            | ObsEvent::TransferRetry { t, .. }
            | ObsEvent::GpuFailed { t, .. }
            | ObsEvent::CapacityShrunk { t, .. }
            | ObsEvent::GpuSlowed { t, .. }
            | ObsEvent::TaskArrived { t, .. }
            | ObsEvent::TaskAdmitted { t, .. }
            | ObsEvent::TaskDeferred { t, .. }
            | ObsEvent::TaskShed { t, .. }
            | ObsEvent::DeadlineExpired { t, .. }
            | ObsEvent::CacheAccess { t, .. } => t,
        }
    }

    /// The track the event lives on.
    pub fn track(&self) -> Track {
        match *self {
            ObsEvent::TransferBegin { peer, bus, .. } | ObsEvent::TransferEnd { peer, bus, .. } => {
                if peer.is_some() {
                    Track::NvLink
                } else if bus == 0 {
                    Track::Bus
                } else {
                    Track::BusN(bus)
                }
            }
            ObsEvent::ComputeBegin { gpu, .. }
            | ObsEvent::ComputeEnd { gpu, .. }
            | ObsEvent::Eviction { gpu, .. }
            | ObsEvent::TransferRetry { gpu, .. }
            | ObsEvent::GpuFailed { gpu, .. }
            | ObsEvent::CapacityShrunk { gpu, .. }
            | ObsEvent::GpuSlowed { gpu, .. } => Track::Gpu(gpu),
            ObsEvent::Decision { gpu, .. } | ObsEvent::CacheAccess { gpu, .. } => Track::Sched(gpu),
            ObsEvent::Steal { to, .. } => Track::Sched(to),
            ObsEvent::Gauge { gpu, .. } => match gpu {
                Some(g) => Track::Sched(g),
                None => Track::Global,
            },
            ObsEvent::TaskArrived { .. }
            | ObsEvent::TaskAdmitted { .. }
            | ObsEvent::TaskDeferred { .. }
            | ObsEvent::TaskShed { .. }
            | ObsEvent::DeadlineExpired { .. } => Track::Admission,
        }
    }

    /// True for span-opening events.
    pub fn is_begin(&self) -> bool {
        matches!(
            self,
            ObsEvent::TransferBegin { .. } | ObsEvent::ComputeBegin { .. }
        )
    }

    /// True for span-closing events.
    pub fn is_end(&self) -> bool {
        matches!(
            self,
            ObsEvent::TransferEnd { .. } | ObsEvent::ComputeEnd { .. }
        )
    }

    /// True for point events (neither begin nor end).
    pub fn is_instant(&self) -> bool {
        !self.is_begin() && !self.is_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_route_by_peer_and_role() {
        let host = ObsEvent::TransferBegin {
            t: 0,
            gpu: 1,
            data: 2,
            bytes: 8,
            bus_wait: 0,
            bus: 0,
            peer: None,
            attempt: 1,
            done_at: 8,
        };
        assert_eq!(host.track(), Track::Bus);
        let p2p = ObsEvent::TransferEnd {
            t: 5,
            gpu: 1,
            data: 2,
            bytes: 8,
            bus: 0,
            peer: Some(0),
            attempt: 1,
            delivered: true,
        };
        assert_eq!(p2p.track(), Track::NvLink);
        let second_bus = ObsEvent::TransferBegin {
            t: 0,
            gpu: 4,
            data: 2,
            bytes: 8,
            bus_wait: 0,
            bus: 1,
            peer: None,
            attempt: 1,
            done_at: 8,
        };
        assert_eq!(second_bus.track(), Track::BusN(1));
        assert_eq!(Track::BusN(1).tid(), 1101);
        assert_eq!(Track::BusN(2).label(), "PCI bus 2");
        let dec = ObsEvent::Decision {
            t: 9,
            gpu: 3,
            task: None,
            wall_ns: 120,
        };
        assert_eq!(dec.track(), Track::Sched(3));
        assert!(dec.is_instant());
        assert!(host.is_begin() && !host.is_end());
        assert_eq!(Track::Sched(3).tid(), 2003);
    }
}
